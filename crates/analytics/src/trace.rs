//! Trace persistence: serialize task records to CSV and read them back —
//! the session-store role RADICAL-Analytics plays for RP (profiles are
//! written at runtime and analyzed post-hoc, possibly elsewhere).
//!
//! The format is the one [`crate::report::tasks_csv`] emits; `parse_tasks_csv`
//! is its inverse for the fields a record can faithfully round-trip.

use rp_core::{BackendKind, TaskId, TaskRecord, TaskState};
use rp_sim::SimTime;

/// Parse errors, with the offending line number (1-based, header = 1) and,
/// when known, the source document's path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// Source path, when the caller attached one via [`Self::with_path`].
    pub path: Option<String>,
}

impl ParseError {
    /// Attach the source document's path, so Display reads like a compiler
    /// diagnostic (`results/tasks.csv:17: bad uid`).
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.path {
            Some(p) => write!(f, "{p}:{}: {}", self.line, self.message),
            None => write!(f, "line {}: {}", self.line, self.message),
        }
    }
}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
        path: None,
    }
}

/// Latest time read: past 2^32 s the f64-seconds export no longer holds
/// every microsecond, so a document could not round-trip.
const MAX_TIME_S: f64 = 4_294_967_296.0;

/// An optional time in seconds (empty = `None`), to the microsecond.
/// Anything but a finite number in `[0, MAX_TIME_S)` is an error.
fn parse_time(what: &str, field: &str) -> Result<Option<SimTime>, String> {
    if field.is_empty() {
        return Ok(None);
    }
    match field.parse::<f64>() {
        Ok(secs) if (0.0..MAX_TIME_S).contains(&secs) => {
            Ok(Some(SimTime::from_micros((secs * 1e6).round() as u64)))
        }
        _ => Err(format!("bad {what} time {field:?}")),
    }
}

/// A backend name as `tasks_csv` writes it (empty = unassigned).
fn parse_backend(field: &str) -> Result<Option<BackendKind>, String> {
    Ok(Some(match field {
        "" => return Ok(None),
        "srun" => BackendKind::Srun,
        "flux" => BackendKind::Flux,
        "dragon" => BackendKind::Dragon,
        "prrte" => BackendKind::Prrte,
        other => return Err(format!("bad backend {other:?}")),
    }))
}

fn parse_state(field: &str) -> Option<TaskState> {
    Some(match field {
        "New" => TaskState::New,
        "StagingInput" => TaskState::StagingInput,
        "Scheduling" => TaskState::Scheduling,
        "Submitting" => TaskState::Submitting,
        "Submitted" => TaskState::Submitted,
        "Executing" => TaskState::Executing,
        "Done" => TaskState::Done,
        "Failed" => TaskState::Failed,
        "Canceled" => TaskState::Canceled,
        _ => return None,
    })
}

/// Parse a `tasks_csv` document back into task records.
///
/// Milestone timestamps other than submit/start/end are not in the CSV and
/// come back as `None`; everything the paper's metrics need (identity,
/// shape, backend, the execution interval, terminal state) round-trips.
/// A malformed field is an error naming its line, never a silent default.
pub fn parse_tasks_csv(csv: &str) -> Result<Vec<TaskRecord>, ParseError> {
    let mut lines = csv.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    if !header.starts_with("uid,kind,cores,gpus,backend,partition,") {
        return Err(err(1, format!("unrecognized header: {header}")));
    }
    let mut out = Vec::new();
    for (i, line) in lines {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        // label is the last field and may not contain commas (labels are
        // workflow stage names); split exactly.
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 12 {
            return Err(err(
                lineno,
                format!("expected 12 fields, got {}", fields.len()),
            ));
        }
        let uid: u64 = fields[0]
            .parse()
            .map_err(|_| err(lineno, format!("bad uid {:?}", fields[0])))?;
        let is_function = match fields[1] {
            "func" => true,
            "exec" => false,
            other => return Err(err(lineno, format!("bad kind {other:?}"))),
        };
        let cores: u64 = fields[2].parse().map_err(|_| err(lineno, "bad cores"))?;
        let gpus: u64 = fields[3].parse().map_err(|_| err(lineno, "bad gpus"))?;
        let backend = parse_backend(fields[4]).map_err(|e| err(lineno, e))?;
        let partition: Option<u32> = if fields[5].is_empty() {
            None
        } else {
            Some(
                fields[5]
                    .parse()
                    .map_err(|_| err(lineno, "bad partition"))?,
            )
        };
        let time = |what, field| parse_time(what, field).map_err(|e| err(lineno, e));
        let submitted =
            time("submit", fields[6])?.ok_or_else(|| err(lineno, "missing submit time"))?;
        let exec_start = time("start", fields[7])?;
        let exec_end = time("end", fields[8])?;
        let state = parse_state(fields[9])
            .ok_or_else(|| err(lineno, format!("bad state {:?}", fields[9])))?;
        let retries: u32 = fields[10].parse().map_err(|_| err(lineno, "bad retries"))?;
        let label = fields[11].to_string();

        out.push(TaskRecord {
            uid: TaskId(uid),
            is_function,
            cores,
            gpus,
            state,
            backend,
            partition,
            submitted,
            staged: None,
            scheduled: None,
            backend_accepted: None,
            exec_start,
            exec_end,
            retries,
            label,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tasks_csv;
    use rp_core::{PilotConfig, SimSession, TaskDescription};
    use rp_sim::SimDuration;

    #[test]
    fn csv_roundtrip_preserves_metrics() {
        let tasks: Vec<TaskDescription> = (0..60)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(20)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::flux(2, 1), tasks).run();
        let csv = tasks_csv(&report);
        let parsed = parse_tasks_csv(&csv).expect("roundtrip");
        assert_eq!(parsed.len(), report.tasks.len());
        for (a, b) in report.tasks.iter().zip(&parsed) {
            assert_eq!(a.uid, b.uid);
            assert_eq!(a.cores, b.cores);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.state, b.state);
            // Timestamps round-trip to microsecond resolution.
            assert_eq!(a.exec_start, b.exec_start);
            assert_eq!(a.exec_end, b.exec_end);
        }
        // Derived metrics agree exactly.
        let t1 = crate::metrics::throughput(&report.tasks).unwrap();
        let t2 = crate::metrics::throughput(&parsed).unwrap();
        assert_eq!(t1.started, t2.started);
        assert!((t1.avg_active - t2.avg_active).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_tasks_csv("").is_err());
        assert!(parse_tasks_csv("wrong,header\n").is_err());
        let bad_row = "uid,kind,cores,gpus,backend,partition,submit_s,start_s,end_s,state,retries,label\nnot-a-uid,exec,1,0,flux,0,0.0,,,Done,0,x".to_string();
        let e = parse_tasks_csv(&bad_row).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad uid"));
    }

    const HEADER: &str =
        "uid,kind,cores,gpus,backend,partition,submit_s,start_s,end_s,state,retries,label\n";

    /// The parse error of a one-row document.
    fn row_error(row: &str) -> ParseError {
        parse_tasks_csv(&format!("{HEADER}{row}\n")).unwrap_err()
    }

    #[test]
    fn rejects_malformed_exec_times() {
        for row in [
            "1,exec,1,0,flux,0,1.0,abc,3.0,Done,0,x",
            "1,exec,1,0,flux,0,1.0,2.0,3.0.1,Done,0,x",
        ] {
            let e = row_error(row);
            assert_eq!(e.line, 2, "{row}");
            assert!(e.message.contains("time"), "{row}: {e}");
        }
    }

    #[test]
    fn rejects_unknown_backends() {
        let e = row_error("1,exec,1,0,slurm,0,1.0,2.0,3.0,Done,0,x");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad backend"), "{e}");
    }

    #[test]
    fn rejects_negative_nan_and_infinite_times() {
        for t in ["-1.0", "NaN", "nan", "inf", "-inf", "1e309"] {
            for row in [
                format!("1,exec,1,0,flux,0,{t},2.0,3.0,Done,0,x"),
                format!("1,exec,1,0,flux,0,1.0,{t},3.0,Done,0,x"),
                format!("1,exec,1,0,flux,0,1.0,2.0,{t},Done,0,x"),
            ] {
                let e = row_error(&row);
                assert_eq!(e.line, 2, "{row}");
                assert!(e.message.contains("time"), "{row}: {e}");
            }
        }
    }

    /// Seeded xorshift stream for the mutation test (std only).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `seed` with 1–8 byte-level edits: flips, inserts of the grammar's
    /// punctuation and multi-byte text, deletions, truncation and spliced
    /// copies. The result is made UTF-8 lossily, so it can hold U+FFFD.
    fn mutate(seed: &str, rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            ",",
            "\n",
            ".",
            "-",
            "+",
            "e",
            " ",
            "\t",
            "0",
            "9",
            "NaN",
            "inf",
            "1e309",
            "flux",
            "é",
            "\u{1F600}",
        ];
        let mut b = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(b.len() + 1);
            match rng.below(5) {
                0 if at < b.len() => b[at] ^= 1 << rng.below(8),
                1 => {
                    let piece = PIECES[rng.below(PIECES.len())].as_bytes();
                    b.splice(at..at, piece.iter().copied());
                }
                2 if at < b.len() => {
                    let end = (at + 1 + rng.below(16)).min(b.len());
                    b.drain(at..end);
                }
                3 => b.truncate(at),
                _ => {
                    let from = rng.below(b.len() + 1);
                    let end = (from + rng.below(64)).min(b.len());
                    let copy = b[from..end].to_vec();
                    b.splice(at..at, copy);
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    #[test]
    fn parser_never_panics_and_reparses_what_it_accepts() {
        let mut tasks: Vec<TaskDescription> = (0..4)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(20)))
            .collect();
        tasks.push(TaskDescription::function(4, "f", SimDuration::from_secs(3)));
        tasks[1].label = "dock.01".into();
        let mut report = SimSession::with_tasks(PilotConfig::flux_dragon(2, 1), tasks)
            .cancel_at(rp_sim::SimTime::ZERO, vec![3])
            .run();
        let seed = tasks_csv(&report);
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut accepted = 0;
        for _ in 0..4000 {
            let text = mutate(&seed, &mut rng);
            let Ok(parsed) = parse_tasks_csv(&text) else {
                continue;
            };
            accepted += 1;
            let first = format!("{parsed:?}");
            report.tasks = parsed;
            let again = parse_tasks_csv(&tasks_csv(&report)).expect("a parsed document re-parses");
            assert_eq!(first, format!("{again:?}"), "{text:?}");
        }
        // The mutations must leave both accepting and rejecting inputs.
        assert!((1..4000).contains(&accepted), "{accepted} documents parsed");
    }

    #[test]
    fn display_includes_source_path() {
        let e = parse_tasks_csv("wrong,header\n").unwrap_err();
        assert_eq!(format!("{e}"), format!("line 1: {}", e.message));
        let e = e.with_path("results/tasks.csv");
        assert_eq!(
            format!("{e}"),
            format!("results/tasks.csv:1: {}", e.message)
        );
    }

    #[test]
    fn skips_blank_lines() {
        let doc = "uid,kind,cores,gpus,backend,partition,submit_s,start_s,end_s,state,retries,label\n\n1,exec,2,0,prrte,0,1.5,2.0,3.0,Done,0,dock.01\n";
        let rows = parse_tasks_csv(doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].backend, Some(BackendKind::Prrte));
        assert_eq!(rows[0].label, "dock.01");
        assert_eq!(rows[0].exec_span().unwrap().as_secs_f64(), 1.0);
    }
}
