//! Profile mining: parse the runtime profile CSV back into events —
//! the RADICAL-Analytics role for profiles, mirroring what
//! [`crate::trace`] does for task records. The per-component overhead
//! decomposition lives in [`crate::blame`], over lineage.
//!
//! The input format is the one [`rp_profiler::ProfileData::csv`] emits:
//! `time,kind,comp,uid,event,detail`, one event per line, time in seconds
//! at microsecond precision, `kind` ∈ {I,G}.

use crate::trace::{err, ParseError};
use rp_profiler::Phase;

/// One parsed profile event.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Event time, seconds of virtual time.
    pub at: f64,
    /// Event phase (instant or gauge sample).
    pub phase: Phase,
    /// Component track (`agent`, `flux.0`, `srun`, …).
    pub comp: String,
    /// Entity uid, when the event concerns one.
    pub uid: Option<u64>,
    /// Event name (`DONE`, `place_ok`, `BUSY_CORES`, …).
    pub what: String,
    /// Numeric payload (gauge value or lineage event value).
    pub detail: f64,
}

/// Parse a profile CSV document back into rows. Comment lines
/// (`#`-prefixed) are tolerated anywhere in the document.
pub fn parse_profile_csv(csv: &str) -> Result<Vec<ProfileRow>, ParseError> {
    let mut saw_header = false;
    let mut out = Vec::new();
    for (i, line) in csv.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        if !saw_header {
            if line != "time,kind,comp,uid,event,detail" {
                return Err(err(lineno, format!("unrecognized header: {line}")));
            }
            saw_header = true;
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(err(
                lineno,
                format!("expected 6 fields, got {}", fields.len()),
            ));
        }
        let at: f64 = fields[0]
            .parse()
            .map_err(|_| err(lineno, format!("bad time {:?}", fields[0])))?;
        let phase = fields[1]
            .chars()
            .next()
            .filter(|_| fields[1].len() == 1)
            .and_then(Phase::from_code)
            .ok_or_else(|| err(lineno, format!("bad kind {:?}", fields[1])))?;
        let uid: Option<u64> = if fields[3].is_empty() {
            None
        } else {
            Some(
                fields[3]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad uid {:?}", fields[3])))?,
            )
        };
        let detail: f64 = fields[5]
            .parse()
            .map_err(|_| err(lineno, format!("bad detail {:?}", fields[5])))?;
        out.push(ProfileRow {
            at,
            phase,
            comp: fields[2].to_string(),
            uid,
            what: fields[4].to_string(),
            detail,
        });
    }
    if !saw_header {
        return Err(err(1, "empty document"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
time,kind,comp,uid,event,detail
0.000000,I,agent,7,NEW,0.000000
0.000000,I,agent,7,STAGING_INPUT,0.000000
0.200000,I,agent,7,SCHEDULING,0.000000
0.500000,I,agent,7,SUBMITTING,0.000000
0.700000,I,agent,7,SUBMITTED,0.000000
1.000000,I,flux.0,7,place_ok,56.000000
1.100000,I,flux.0,7,launch_start,0.000000
1.500000,I,agent,7,EXECUTING,0.000000
2.500000,G,srun,,SRUN_INFLIGHT,3.000000
4.500000,I,agent,7,DONE,0.000000
";

    #[test]
    fn parses_all_phases_and_empty_uid() {
        let rows = parse_profile_csv(DOC).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[5].phase, Phase::Instant);
        assert_eq!(rows[5].comp, "flux.0");
        assert!((rows[5].detail - 56.0).abs() < 1e-12);
        let gauge = &rows[8];
        assert_eq!(gauge.phase, Phase::Gauge);
        assert_eq!(gauge.uid, None);
        assert_eq!(gauge.comp, "srun");
        assert!((gauge.detail - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_profile_csv("").is_err());
        assert!(parse_profile_csv("wrong,header\n").is_err());
        let e = parse_profile_csv("time,kind,comp,uid,event,detail\n1.0,X,a,,b,0.0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad kind"));
        // Span edges are not part of the format.
        let e = parse_profile_csv("time,kind,comp,uid,event,detail\n1.0,B,a,,b,0.0\n").unwrap_err();
        assert!(e.message.contains("bad kind"));
        let e =
            parse_profile_csv("time,kind,comp,uid,event,detail\nnope,I,a,,b,0.0\n").unwrap_err();
        assert!(e.message.contains("bad time"));
    }
}
