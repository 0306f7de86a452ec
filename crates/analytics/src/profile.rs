//! Profile mining: parse the runtime profiler's CSV back into events —
//! the RADICAL-Analytics role for profiles, mirroring what
//! [`crate::trace`] does for task records. The per-component overhead
//! decomposition lives in [`crate::blame`], over lineage.
//!
//! The input format is the one [`rp_profiler::ProfileData::csv`] emits:
//! `time,kind,comp,uid,event,detail`, one event per line, time in seconds
//! at microsecond precision, `kind` ∈ {I,B,E,G}.

use crate::trace::{err, ParseError};
use rp_profiler::Phase;

/// One parsed profile event.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Event time, seconds of virtual time.
    pub at: f64,
    /// Event phase (instant, span edge, gauge sample).
    pub phase: Phase,
    /// Component track (`agent`, `flux.0`, `srun`, …).
    pub comp: String,
    /// Entity uid, when the event concerns one.
    pub uid: Option<u64>,
    /// Event name (`DONE`, `SLOT_ACQUIRE`, `BUSY_CORES`, …).
    pub what: String,
    /// Numeric payload (gauge value or hook-site detail).
    pub detail: f64,
}

/// Parse a profile CSV document back into rows.
pub fn parse_profile_csv(csv: &str) -> Result<Vec<ProfileRow>, ParseError> {
    parse_profile_csv_with_meta(csv).map(|(rows, _)| rows)
}

/// Parse a profile CSV document, also returning the number of events the
/// profiler ring dropped before the snapshot (from the `# dropped=<n>`
/// comment the exporter emits on truncated streams; 0 when absent).
/// Comment lines (`#`-prefixed) are tolerated anywhere in the document.
pub fn parse_profile_csv_with_meta(csv: &str) -> Result<(Vec<ProfileRow>, u64), ParseError> {
    let mut dropped = 0u64;
    let mut saw_header = false;
    let mut out = Vec::new();
    for (i, line) in csv.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(n) = comment.trim().strip_prefix("dropped=") {
                dropped = n
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, format!("bad dropped count {n:?}")))?;
            }
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
    Ok((out, dropped))
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
1.000000,B,agent.sched,8,schedule,0.000000
1.100000,E,agent.sched,8,schedule,0.000000
1.500000,I,agent,7,EXECUTING,0.000000
2.500000,G,srun,,SRUN_INFLIGHT,3.000000
4.500000,I,agent,7,DONE,0.000000
";

    #[test]
    fn parses_all_phases_and_empty_uid() {
        let rows = parse_profile_csv(DOC).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[5].phase, Phase::Begin);
        assert_eq!(rows[6].phase, Phase::End);
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
        let e =
            parse_profile_csv("time,kind,comp,uid,event,detail\nnope,I,a,,b,0.0\n").unwrap_err();
        assert!(e.message.contains("bad time"));
    }

    #[test]
    fn dropped_comment_is_reported() {
        // Ring eviction removed task 1's earliest milestones; the exporter
        // flagged it with the `# dropped=` comment.
        let doc = "\
# dropped=3
time,kind,comp,uid,event,detail
0.400000,I,agent,1,SUBMITTED,0.000000
0.500000,I,agent,1,EXECUTING,0.000000
2.500000,I,agent,1,DONE,0.000000
";
        let (rows, dropped) = parse_profile_csv_with_meta(doc).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(rows.len(), 3);
        // Plain parse tolerates the comment too.
        assert_eq!(parse_profile_csv(doc).unwrap().len(), 3);
    }

    #[test]
    fn bad_dropped_comment_is_an_error() {
        let doc = "# dropped=many\ntime,kind,comp,uid,event,detail\n";
        let e = parse_profile_csv(doc).unwrap_err();
        assert!(e.message.contains("bad dropped count"));
    }
}
