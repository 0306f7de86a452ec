//! Shared experiment machinery: parse the command line strictly, fan work
//! out over threads in a fixed order, run a configuration over several
//! seeds through the one session runner, digest each run, aggregate, and
//! render table rows.

use rp_analytics::{blame_report, digest, RunDigest};
use rp_core::{
    FaultSpec, PilotConfig, RunReport, ServingSpec, SimSession, TaskDescription, WorkloadSource,
};
use rp_profiler::ProfileData;
use rp_sim::SimDuration;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One aggregated experiment row (a cell of a paper figure/table).
#[derive(Debug, Clone)]
pub struct ExpRow {
    /// Configuration label, e.g. `flux n=64 k=4`.
    pub label: String,
    /// Repetitions run.
    pub reps: usize,
    /// Mean of per-run average throughput (tasks/s, launch-active).
    pub thr_avg: f64,
    /// Standard deviation of the average throughput across reps.
    pub thr_sd: f64,
    /// Max of per-run peak throughput (tasks/s).
    pub thr_peak: f64,
    /// Mean core utilization `[0,1]`.
    pub util_cores: f64,
    /// Mean GPU utilization `[0,1]`.
    pub util_gpus: f64,
    /// Mean peak concurrency.
    pub concurrency: f64,
    /// Mean makespan (s).
    pub makespan_s: f64,
    /// Tasks completed per rep (mean).
    pub done: f64,
    /// Tasks failed per rep (mean).
    pub failed: f64,
}

impl ExpRow {
    /// Aggregate digests under a label.
    pub fn from_digests(label: String, ds: &[RunDigest]) -> ExpRow {
        let n = ds.len().max(1) as f64;
        let mean = |f: &dyn Fn(&RunDigest) -> f64| ds.iter().map(f).sum::<f64>() / n;
        let thr_avg = mean(&|d| d.thr_avg);
        let thr_var = ds
            .iter()
            .map(|d| (d.thr_avg - thr_avg).powi(2))
            .sum::<f64>()
            / (ds.len().saturating_sub(1).max(1)) as f64;
        ExpRow {
            label,
            reps: ds.len(),
            thr_avg,
            thr_sd: thr_var.sqrt(),
            thr_peak: ds.iter().map(|d| d.thr_peak).fold(0.0, f64::max),
            util_cores: mean(&|d| d.util_cores),
            util_gpus: mean(&|d| d.util_gpus),
            concurrency: mean(&|d| d.peak_concurrency as f64),
            makespan_s: mean(&|d| d.makespan_s),
            done: mean(&|d| d.done as f64),
            failed: mean(&|d| d.failed as f64),
        }
    }

    /// Render as a fixed-width table line.
    pub fn table_line(&self) -> String {
        format!(
            "{:<28} reps={} thr_avg={:>8.1}±{:<6.1} peak={:>7.0}  util={:>5.1}% gpu={:>5.1}%  conc={:>8.0}  makespan={:>9.1}s  done={:>8.0} fail={:>3.0}",
            self.label,
            self.reps,
            self.thr_avg,
            self.thr_sd,
            self.thr_peak,
            self.util_cores * 100.0,
            self.util_gpus * 100.0,
            self.concurrency,
            self.makespan_s,
            self.done,
            self.failed,
        )
    }

    /// CSV header matching [`ExpRow::csv_line`].
    pub fn csv_header() -> &'static str {
        "label,reps,thr_avg,thr_sd,thr_peak,util_cores,util_gpus,concurrency,makespan_s,done,failed"
    }

    /// Render as a CSV line.
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{:.3},{:.3},{:.1},{:.4},{:.4},{:.1},{:.1},{:.0},{:.0}",
            self.label,
            self.reps,
            self.thr_avg,
            self.thr_sd,
            self.thr_peak,
            self.util_cores,
            self.util_gpus,
            self.concurrency,
            self.makespan_s,
            self.done,
            self.failed
        )
    }
}

/// Gauge sampling period used when an experiment rep runs instrumented,
/// unless [`RunOpts::period`] overrides it.
const PROFILE_PERIOD: SimDuration = SimDuration::from_secs(1);

/// Fault seed used when `--faults` is given without `--fault-seed`.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// Serving seed used when `--serving` is given without `--serving-seed`.
pub const DEFAULT_SERVING_SEED: u64 = 0x5EED;

/// The flags `rp-exp` accepts: `--quick` plus the value flags that fill
/// [`RunOpts`].
pub const EXP_FLAGS: &[&str] = &[
    "quick",
    "jobs",
    "profile-dir",
    "metrics-dir",
    "telemetry-dir",
    "lineage-dir",
    "faults",
    "fault-seed",
    "serving",
    "serving-seed",
];

/// A parsed command line: the common experiment options, `--quick`,
/// `--seeds N` (the soaks) and the positional words.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Options handed to the session runner.
    pub opts: RunOpts,
    /// `--quick`: small grids and fewer repetitions.
    pub quick: bool,
    /// `--seeds N`: seeds per soak cell.
    pub seeds: Option<u64>,
    /// Positional arguments, in order.
    pub words: Vec<String>,
}

impl Cli {
    /// Parse `args` (program name excluded). Flags take `--flag value` or
    /// `--flag=value`; only the flags named in `allowed` are accepted.
    /// Returns the first problem found — an unknown or repeated flag, a
    /// value flag with no value, a malformed number or spec — so that a
    /// typo fails loudly instead of silently changing the run.
    pub fn parse(args: &[String], allowed: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut seen: Vec<&str> = Vec::new();
        let (mut fault_seed, mut serving_seed) = (None, None);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                cli.words.push(arg.clone());
                continue;
            };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            if seen.contains(&name) {
                return Err(format!("--{name} given twice"));
            }
            seen.push(name);
            if name == "quick" {
                if inline.is_some() {
                    return Err("--quick takes no value".into());
                }
                cli.quick = true;
                continue;
            }
            let value = match inline {
                Some(v) => v,
                None => match it.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("--{name} needs a value")),
                },
            };
            let opts = &mut cli.opts;
            match name {
                "jobs" => opts.jobs = positive(name, &value)? as usize,
                "seeds" => cli.seeds = Some(positive(name, &value)?),
                "profile-dir" => opts.profile_dir = Some(value.into()),
                "metrics-dir" => opts.metrics_dir = Some(value.into()),
                "telemetry-dir" => opts.telemetry_dir = Some(value.into()),
                "lineage-dir" => opts.lineage_dir = Some(value.into()),
                "faults" => {
                    let spec =
                        FaultSpec::parse(&value).map_err(|e| format!("--faults {value}: {e}"))?;
                    opts.faults = Some((spec, DEFAULT_FAULT_SEED));
                }
                "serving" => {
                    let spec = ServingSpec::parse(&value)
                        .map_err(|e| format!("--serving {value}: {e}"))?;
                    opts.serving = Some((spec, DEFAULT_SERVING_SEED));
                }
                "fault-seed" => fault_seed = Some(integer(name, &value)?),
                "serving-seed" => serving_seed = Some(integer(name, &value)?),
                _ => return Err(format!("unknown flag --{name}")),
            }
        }
        if let Some(seed) = fault_seed {
            let (_, s) = cli
                .opts
                .faults
                .as_mut()
                .ok_or("--fault-seed needs --faults")?;
            *s = seed;
        }
        if let Some(seed) = serving_seed {
            let (_, s) = cli
                .opts
                .serving
                .as_mut()
                .ok_or("--serving-seed needs --serving")?;
            *s = seed;
        }
        Ok(cli)
    }

    /// [`Cli::parse`] for a binary's `main`: on error, print it with the
    /// usage line and exit with status 2.
    pub fn parse_or_exit(args: &[String], allowed: &[&str], usage: &str) -> Cli {
        Cli::parse(args, allowed).unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(2)
        })
    }
}

/// Parse a `--<name>` value as an unsigned integer.
fn integer(name: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("--{name} {value}: not an unsigned integer"))
}

/// Parse a `--<name>` value as an integer of at least 1.
fn positive(name: &str, value: &str) -> Result<u64, String> {
    match integer(name, value)? {
        0 => Err(format!("--{name} 0: must be at least 1")),
        n => Ok(n),
    }
}

/// Experiment options shared by every session the runner builds: worker
/// threads, the four instrumentation output directories, the deterministic
/// fault-injection and serving plans, and the per-call knobs an experiment
/// sets on a copy ([`RunOpts::fault_hint`], [`RunOpts::period`]). Parse the
/// flags with [`Cli::parse`] and hand the options to [`repeat`].
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// `--jobs N`: worker threads for the repetition helpers (0 and 1 both
    /// mean sequential).
    pub jobs: usize,
    /// `--profile-dir <dir>`: profile rep 0, write CSV + Chrome trace.
    pub profile_dir: Option<PathBuf>,
    /// `--metrics-dir <dir>`: metrics registry on rep 0, write the
    /// OpenMetrics document + summary table.
    pub metrics_dir: Option<PathBuf>,
    /// `--telemetry-dir <dir>`: telemetry collector on rep 0, write the
    /// JSONL pair + HTML dashboard.
    pub telemetry_dir: Option<PathBuf>,
    /// `--lineage-dir <dir>`: causal lineage on rep 0, write the lineage
    /// JSONL + blame report (`rp-explain` input).
    pub lineage_dir: Option<PathBuf>,
    /// `--faults <spec>` (+ `--fault-seed N`): inject this fault plan into
    /// EVERY rep. The realized plan depends only on the spec, the fault
    /// seed and the deployment shape — never on the rep's workload seed —
    /// so each rep sees the identical fault schedule at any `--jobs` count.
    pub faults: Option<(FaultSpec, u64)>,
    /// Upper bound on task uids for hang-victim selection; filled from the
    /// batch size by [`repeat_static`] when unset.
    pub fault_hint: Option<u64>,
    /// `--serving <spec>` (+ `--serving-seed N`): run EVERY rep with this
    /// open-loop serving plan on top of the batch workload. Like the fault
    /// plan, the realized arrival schedule depends only on the spec and
    /// the serving seed — never on the rep's workload seed — so each rep
    /// sees the identical traffic at any `--jobs` count.
    pub serving: Option<(ServingSpec, u64)>,
    /// Gauge sampling period of instrumented reps; `None` samples every
    /// second. Long campaigns sample coarsely so gauge rows do not swamp
    /// the profile.
    pub period: Option<SimDuration>,
}

impl RunOpts {
    /// Replace the serving plan (e.g. the `serving` experiment sweeping
    /// rates).
    pub fn with_serving(mut self, spec: ServingSpec, serving_seed: u64) -> RunOpts {
        self.serving = Some((spec, serving_seed));
        self
    }

    /// Replace the fault plan (e.g. the `faults` experiment sweeping
    /// policies).
    pub fn with_faults(mut self, spec: FaultSpec, fault_seed: u64) -> RunOpts {
        self.faults = Some((spec, fault_seed));
        self
    }

    /// Drop the fault plan (fault-free baseline rows).
    pub fn without_faults(mut self) -> RunOpts {
        self.faults = None;
        self
    }

    /// Sample instrumented reps every `period` instead of every second.
    pub fn with_period(mut self, period: SimDuration) -> RunOpts {
        self.period = Some(period);
        self
    }
}

/// File-name-safe form of an experiment label.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Write `contents` to `dir/name`, creating `dir` first. The error names
/// the file.
fn write_file(dir: &Path, name: String, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = dir.join(name);
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, contents))
        .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))
}

/// Write one run's profile under `dir`: the RP-style CSV
/// (`<label>.prof.csv`) and a Chrome `trace_event` JSON
/// (`<label>.trace.json`, viewable in Perfetto / `chrome://tracing`).
fn write_profile(dir: &Path, label: &str, data: &ProfileData) -> io::Result<()> {
    let base = sanitize(label);
    write_file(dir, format!("{base}.prof.csv"), data.csv())?;
    write_file(dir, format!("{base}.trace.json"), data.chrome_trace())
}

/// Write one run's metrics under `dir`: the OpenMetrics text document
/// (`<label>.om.txt`) and a human-readable summary
/// (`<label>.summary.txt`). No-op when the report carries no snapshot.
fn write_metrics(dir: &Path, label: &str, report: &RunReport) -> io::Result<()> {
    let Some(snap) = &report.metrics else {
        return Ok(());
    };
    let base = sanitize(label);
    write_file(dir, format!("{base}.om.txt"), snap.openmetrics())?;
    write_file(dir, format!("{base}.summary.txt"), snap.summary_table())
}

/// Write one run's telemetry under `dir`: the sampler time-series
/// (`<label>.telemetry.jsonl`), the flight-recorder alarm log
/// (`<label>.flightrec.jsonl`), and a self-contained HTML dashboard
/// (`<label>.dashboard.html`). The dashboard includes the blame totals
/// and the critical path when the report also carries lineage. No-op
/// when the report carries no telemetry.
pub fn write_telemetry(dir: &Path, label: &str, report: &RunReport) -> io::Result<()> {
    let Some(tel) = &report.telemetry else {
        return Ok(());
    };
    let base = sanitize(label);
    write_file(
        dir,
        format!("{base}.telemetry.jsonl"),
        tel.timeseries_jsonl(),
    )?;
    write_file(
        dir,
        format!("{base}.flightrec.jsonl"),
        tel.flight_recorder_jsonl(),
    )?;
    let blame = report.lineage.as_ref().map(blame_report);
    let html = rp_analytics::render_dashboard(label, tel, blame.as_ref(), report.serving.as_ref());
    write_file(dir, format!("{base}.dashboard.html"), html)
}

/// Write one run's causal lineage under `dir`: the per-task event chains
/// (`<label>.lineage.jsonl`, byte-deterministic per seed) and the
/// aggregate blame decomposition (`<label>.blame.txt`). `rp-explain`
/// answers `why was task X slow?` and `what moved between runs A and B?`
/// from these files. No-op when the report carries no lineage.
fn write_lineage(dir: &Path, label: &str, report: &RunReport) -> io::Result<()> {
    let Some(lin) = &report.lineage else {
        return Ok(());
    };
    let base = sanitize(label);
    write_file(dir, format!("{base}.lineage.jsonl"), lin.to_jsonl())?;
    let rep = blame_report(lin);
    write_file(
        dir,
        format!("{base}.blame.txt"),
        rp_analytics::render_report(label, &rep),
    )
}

/// Write one run's serving books under `dir`: the byte-deterministic
/// JSONL record (`<label>.serving.jsonl`) and the human-readable digest
/// (`<label>.serving.txt`) with the conservation counters and the
/// client-perceived time-to-launch/-completion percentiles. No-op when
/// the report carries no serving books.
pub fn write_serving(dir: &Path, label: &str, report: &RunReport) -> io::Result<()> {
    let Some(s) = &report.serving else {
        return Ok(());
    };
    let base = sanitize(label);
    write_file(dir, format!("{base}.serving.jsonl"), s.to_jsonl())?;
    write_file(dir, format!("{base}.serving.txt"), s.summary())
}

/// Run `work(0..n)` over up to `jobs` scoped worker threads and hand each
/// result to `sink` in index order, on the calling thread, as soon as every
/// lower index has been handed over. Workers claim indices from a shared
/// counter, so the set of results — and, when `work` is deterministic,
/// their contents — never depends on the job count or completion order.
/// `jobs <= 1` runs everything sequentially on the calling thread.
pub fn fan_out<T: Send>(
    n: usize,
    jobs: usize,
    work: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(T),
) {
    let jobs = jobs.min(n);
    if jobs <= 1 {
        (0..n).for_each(|i| sink(work(i)));
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let (tx, next, work) = (tx.clone(), &next, &work);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, work(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Park out-of-order results until the prefix before them is done.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut flushed = 0;
        for (i, result) in rx {
            slots[i] = Some(result);
            while let Some(result) = slots.get_mut(flushed).and_then(Option::take) {
                sink(result);
                flushed += 1;
            }
        }
    });
}

/// The session runner, the one place an experiment session is built,
/// instrumented, fault- or serving-planned, run and written out: run `reps`
/// repetitions of a configuration with distinct seeds, digesting
/// each. `mk_workload` builds a fresh workload per rep (workload sources
/// are consumed by the run); `mk_cfg` gets the rep's seed (a single-session
/// cell with a fixed seed ignores it). With `opts.profile_dir`, rep 0 runs
/// with profiling enabled and its profile CSV + Chrome trace land in that
/// directory under the experiment label; with `opts.metrics_dir`, rep 0
/// runs with metrics attached and its OpenMetrics document + summary land
/// there the same way; with `opts.telemetry_dir`, rep 0 runs with the
/// streaming-telemetry collector attached and its JSONL time-series +
/// flight recorder + HTML dashboard (+ serving books) land there too; with
/// `opts.lineage_dir`, rep 0 records every task's causal chain and its
/// lineage JSONL + blame report land there for `rp-explain`. With
/// `opts.faults` / `opts.serving`, every rep runs under the same
/// deterministic fault / serving plan. Fails, naming the file, when an
/// artifact cannot be written, and fails when a rep left a task stranded
/// (see [`check_terminal`]).
/// `opts.jobs > 1` runs repetitions across that many scoped worker threads
/// via [`fan_out`]. Each rep's seed depends only on its index and each
/// simulation is single-threaded and deterministic, so the reports are
/// identical to the sequential run's and aggregated in rep order.
pub fn repeat(
    label: &str,
    reps: usize,
    mk_cfg: impl Fn(u64) -> PilotConfig + Sync,
    mk_workload: impl (Fn() -> Box<dyn WorkloadSource>) + Sync,
    opts: &RunOpts,
) -> io::Result<(ExpRow, Vec<RunReport>)> {
    let period = opts.period.unwrap_or(PROFILE_PERIOD);
    let run_rep = |rep: usize| -> RunReport {
        let seed = 1000 + 7919 * rep as u64;
        let mut session = SimSession::new(mk_cfg(seed), mk_workload());
        if rep == 0 && opts.profile_dir.is_some() {
            session = session.with_profiling(period);
        }
        if rep == 0 && opts.metrics_dir.is_some() {
            session = session.with_metrics(period);
        }
        if rep == 0 && opts.telemetry_dir.is_some() {
            session = session.with_telemetry(period);
        }
        if rep == 0 && opts.lineage_dir.is_some() {
            session = session.with_lineage();
        }
        if let Some((spec, fault_seed)) = &opts.faults {
            session = session.with_faults(spec.clone(), *fault_seed, opts.fault_hint.unwrap_or(0));
        }
        if let Some((spec, serving_seed)) = &opts.serving {
            session = session.with_serving(spec.clone(), *serving_seed);
        }
        session.run()
    };
    let mut reports = Vec::with_capacity(reps);
    fan_out(reps, opts.jobs, run_rep, |report| reports.push(report));
    if let (Some(dir), Some(data)) = (&opts.profile_dir, &reports[0].profile) {
        write_profile(dir, label, data)?;
    }
    if opts.lineage_dir.is_none() {
        // Profiling and metrics record lineage to render the profile and
        // fold the per-task metric families from; a run that did not ask
        // for lineage keeps every other artifact as without it.
        reports[0].lineage = None;
    }
    if let Some(dir) = &opts.metrics_dir {
        write_metrics(dir, label, &reports[0])?;
    }
    if let Some(dir) = &opts.telemetry_dir {
        write_telemetry(dir, label, &reports[0])?;
        // Serving books ride the telemetry directory: they are the same
        // observability surface (SLO percentiles + exemplars).
        write_serving(dir, label, &reports[0])?;
    }
    if let Some(dir) = &opts.lineage_dir {
        write_lineage(dir, label, &reports[0])?;
    }
    check_terminal(label, &reports)?;
    let digests: Vec<RunDigest> = reports.iter().map(digest).collect();
    Ok((ExpRow::from_digests(label.to_string(), &digests), reports))
}

/// Fail when a rep's run quiesced with a task that never reached a
/// terminal state: its row would count it as neither done nor failed.
/// Checked after the artifacts are written, so a stranded rep 0 leaves
/// its profile and lineage behind to explain it.
fn check_terminal(label: &str, reports: &[RunReport]) -> io::Result<()> {
    for (rep, report) in reports.iter().enumerate() {
        let tasks = &report.tasks;
        let stranded = tasks.iter().filter(|t| !t.state.is_terminal()).count();
        if stranded > 0 {
            let n = tasks.len();
            let msg = format!("{label}: rep {rep} ended with {stranded} of {n} tasks not terminal");
            return Err(io::Error::other(msg));
        }
    }
    Ok(())
}

/// Convenience: repeat with a static task batch. When faults are on and no
/// explicit `fault_hint` is set, the batch size bounds the uid space for
/// hang-victim selection (static batches use uids `0..n`).
pub fn repeat_static(
    label: &str,
    reps: usize,
    mk_cfg: impl Fn(u64) -> PilotConfig + Sync,
    mk_tasks: impl Fn() -> Vec<TaskDescription> + Sync,
    opts: &RunOpts,
) -> io::Result<(ExpRow, Vec<RunReport>)> {
    let mut opts = opts.clone();
    if opts.faults.is_some() && opts.fault_hint.is_none() {
        opts.fault_hint = Some(mk_tasks().len() as u64);
    }
    repeat(
        label,
        reps,
        mk_cfg,
        || Box::new(rp_core::StaticWorkload::new(mk_tasks())),
        &opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{PilotConfig, TaskRecord, TaskState};
    use rp_sim::{SimDuration, SimTime};

    #[test]
    fn repeat_aggregates_reps() {
        let (row, reports) = repeat_static(
            "tiny",
            2,
            |seed| PilotConfig::flux(2, 1).with_seed(seed),
            || {
                (0..40)
                    .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(2)))
                    .collect()
            },
            &RunOpts::default(),
        )
        .expect("artifacts write");
        assert_eq!(row.reps, 2);
        assert_eq!(reports.len(), 2);
        assert!((row.done - 40.0).abs() < 1e-9);
        assert!(row.thr_avg > 0.0);
        // Different seeds ⇒ (almost surely) different makespans.
        assert_ne!(
            reports[0].makespan(),
            reports[1].makespan(),
            "seeds must decorrelate runs"
        );
        let line = row.table_line();
        assert!(line.contains("tiny"));
        assert!(ExpRow::csv_header().starts_with("label,"));
        assert!(row.csv_line().starts_with("tiny,2,"));
    }

    #[test]
    fn a_stranded_task_fails_the_experiment() {
        let report = |states: &[TaskState]| RunReport {
            nodes: 1,
            total_cores: 56,
            total_gpus: 8,
            tasks: states
                .iter()
                .enumerate()
                .map(|(i, &state)| {
                    let mut rec =
                        TaskRecord::new(&rp_core::TaskDescription::null(i as u64), SimTime::ZERO);
                    rec.state = state;
                    rec
                })
                .collect(),
            instances: Vec::new(),
            services: Vec::new(),
            pilot: Default::default(),
            agent_ready: None,
            end: SimTime::ZERO,
            profile: None,
            metrics: None,
            telemetry: None,
            lineage: None,
            serving: None,
        };
        use TaskState::{Canceled, Done, Executing, Failed};
        let terminal = report(&[Done, Failed, Canceled]);
        check_terminal("cell", std::slice::from_ref(&terminal)).expect("all terminal");
        let stranded = report(&[Done, Executing, Done]);
        let err = check_terminal("cell", &[terminal, stranded]).expect_err("stranded");
        assert_eq!(
            err.to_string(),
            "cell: rep 1 ended with 1 of 3 tasks not terminal"
        );
    }

    /// `--metrics-dir` plumbing end to end: rep 0 runs with the registry
    /// attached, the OpenMetrics document parses, and it carries only the
    /// registry's own families — the end-to-end decomposition lives in
    /// the lineage blame report.
    #[test]
    fn write_metrics_emits_parseable_attribution() {
        let dir = std::env::temp_dir().join(format!("rp-bench-metrics-{}", std::process::id()));
        let (_, reports) = repeat_static(
            "tiny metrics",
            1,
            |seed| PilotConfig::flux(2, 1).with_seed(seed),
            || {
                (0..20)
                    .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(2)))
                    .collect()
            },
            &RunOpts {
                metrics_dir: Some(dir.clone()),
                ..RunOpts::default()
            },
        )
        .expect("artifacts write");
        assert!(reports[0].metrics.is_some(), "rep 0 must carry a snapshot");
        let om = fs::read_to_string(dir.join("tiny_metrics.om.txt")).expect("om written");
        let samples = rp_metrics::parse_openmetrics(&om).expect("document parses");
        assert_eq!(samples["rp_tasks_completed_total"], 20.0);
        for gone in [
            "rp_ovh_",
            "rp_span_makespan_seconds",
            "rp_critical_path_seconds",
            "rp_spans_dropped_total",
        ] {
            assert!(!om.contains(gone), "{gone} families are removed");
        }
        let summary = fs::read_to_string(dir.join("tiny_metrics.summary.txt")).expect("summary");
        assert!(summary.contains("rp_tasks_completed_total"));
        assert!(!summary.contains("critical path"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `--telemetry-dir` plumbing end to end: rep 0 runs with the
    /// collector attached and the JSONL pair plus the HTML dashboard land
    /// under the sanitized label.
    #[test]
    fn write_telemetry_emits_jsonl_and_dashboard() {
        let dir = std::env::temp_dir().join(format!("rp-bench-tel-{}", std::process::id()));
        let (_, reports) = repeat_static(
            "tiny tel",
            2,
            |seed| PilotConfig::flux(2, 1).with_seed(seed),
            || {
                (0..20)
                    .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(2)))
                    .collect()
            },
            &RunOpts {
                telemetry_dir: Some(dir.clone()),
                ..RunOpts::default()
            },
        )
        .expect("artifacts write");
        assert!(reports[0].telemetry.is_some(), "rep 0 must carry telemetry");
        assert!(
            reports[1].telemetry.is_none(),
            "other reps stay uninstrumented"
        );
        let ts = fs::read_to_string(dir.join("tiny_tel.telemetry.jsonl")).expect("timeseries");
        assert!(ts.lines().count() > 1, "multi-second run ⇒ several samples");
        assert!(ts.lines().all(|l| l.starts_with("{\"t\":")));
        let _ = fs::read_to_string(dir.join("tiny_tel.flightrec.jsonl")).expect("flight recorder");
        let html = fs::read_to_string(dir.join("tiny_tel.dashboard.html")).expect("dashboard");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("tiny tel"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `--lineage-dir` plumbing end to end: rep 0 records causal chains,
    /// the JSONL round-trips, every task's blame identity holds exactly,
    /// and the blame report renders.
    #[test]
    fn write_lineage_emits_jsonl_and_blame() {
        let dir = std::env::temp_dir().join(format!("rp-bench-lin-{}", std::process::id()));
        let (_, reports) = repeat_static(
            "tiny lin",
            2,
            |seed| PilotConfig::flux(2, 1).with_seed(seed),
            || {
                (0..20)
                    .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(2)))
                    .collect()
            },
            &RunOpts {
                lineage_dir: Some(dir.clone()),
                ..RunOpts::default()
            },
        )
        .expect("artifacts write");
        assert!(reports[0].lineage.is_some(), "rep 0 must carry lineage");
        assert!(reports[1].lineage.is_none(), "other reps stay untracked");
        let text = fs::read_to_string(dir.join("tiny_lin.lineage.jsonl")).expect("jsonl");
        let parsed = rp_lineage::LineageData::from_jsonl(&text).expect("parses");
        let lin = reports[0].lineage.as_ref().unwrap();
        assert_eq!(&parsed, lin, "JSONL round-trips losslessly");
        assert_eq!(lin.task_count(), 20);
        for uid in lin.uids() {
            let tb = rp_analytics::blame_task(lin, uid).expect("blamed");
            assert_eq!(tb.segments_total_us(), tb.end_to_end_us, "uid {uid}");
            assert_eq!(tb.outcome, "done");
        }
        let blame = fs::read_to_string(dir.join("tiny_lin.blame.txt")).expect("blame");
        assert!(blame.contains("20 tasks"));
        assert!(blame.contains("execute"));
        let cp = blame_report(lin).critical.expect("tasks finished");
        assert!(
            blame.contains("critical path (segments sum exactly to makespan"),
            "{blame}"
        );
        assert!(blame.contains(&format!("task {} finishes last (done)", cp.task.uid)));
        let _ = fs::remove_dir_all(&dir);
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn parse(s: &[&str]) -> Result<Cli, String> {
        Cli::parse(&argv(s), EXP_FLAGS)
    }

    /// `--faults` flag parsing: spec + seed round-trip, default seed
    /// applies, absent flag disables.
    #[test]
    fn faults_from_args_parses_spec_and_seed() {
        assert!(parse(&[]).expect("empty").opts.faults.is_none());
        let (spec, seed) = parse(&["--faults", "nodes=2,crashes=1"])
            .expect("parsed")
            .opts
            .faults
            .expect("plan");
        assert_eq!(spec.node_failures, 2);
        assert_eq!(spec.crashes, 1);
        assert_eq!(seed, DEFAULT_FAULT_SEED);
        let (_, seed) = parse(&["--faults=nodes=1", "--fault-seed", "99"])
            .expect("parsed")
            .opts
            .faults
            .expect("plan");
        assert_eq!(seed, 99);
    }

    /// `--serving` flag parsing: spec + seed round-trip, default seed
    /// applies, absent flag disables.
    #[test]
    fn serving_from_args_parses_spec_and_seed() {
        assert!(parse(&[]).expect("empty").opts.serving.is_none());
        let (spec, seed) = parse(&["--serving", "rate=100,horizon=30"])
            .expect("parsed")
            .opts
            .serving
            .expect("plan");
        assert_eq!(spec.rate, 100.0);
        assert_eq!(spec.horizon_s, 30.0);
        assert_eq!(seed, DEFAULT_SERVING_SEED);
        let (_, seed) = parse(&["--serving=rate=10,horizon=5", "--serving-seed", "77"])
            .expect("parsed")
            .opts
            .serving
            .expect("plan");
        assert_eq!(seed, 77);
    }

    /// Every accepted flag lands in its field, in both spellings, and
    /// positional words are kept in order.
    #[test]
    fn cli_parses_every_flag() {
        let cli = parse(&[
            "srun",
            "--quick",
            "--jobs=3",
            "--profile-dir",
            "p",
            "--metrics-dir=m",
            "--telemetry-dir",
            "t",
            "--lineage-dir",
            "l",
            "flux1",
        ])
        .expect("parsed");
        assert!(cli.quick);
        assert_eq!(cli.opts.jobs, 3);
        assert_eq!(cli.opts.profile_dir, Some(PathBuf::from("p")));
        assert_eq!(cli.opts.metrics_dir, Some(PathBuf::from("m")));
        assert_eq!(cli.opts.telemetry_dir, Some(PathBuf::from("t")));
        assert_eq!(cli.opts.lineage_dir, Some(PathBuf::from("l")));
        assert_eq!(cli.words, ["srun", "flux1"]);
        assert_eq!(cli.seeds, None);
    }

    /// Input that must not silently change the run is an error: unknown
    /// or misspelled flags, malformed numbers, value flags with no value,
    /// and seeds without their plan.
    #[test]
    fn cli_rejects_malformed_input() {
        for bad in [
            &["--jobs", "x"][..],
            &["--jobs=0"],
            &["--jobs"],
            &["--lineage_dir", "out/"],
            &["--seeds", "4"],
            &["--faults"],
            &["--quick", "--faults"],
            &["--faults", "--quick"],
            &["--faults", "bogus=1"],
            &["--faults", "nodes=1", "--fault-seed", "x"],
            &["--fault-seed", "3"],
            &["--serving", "rate=10,horizon=5", "--serving-seed", "-1"],
            &["--serving-seed", "3"],
            &["--serving"],
            &["--quick=yes"],
            &["--jobs", "2", "--jobs", "3"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let soak = |s: &[&str]| Cli::parse(&argv(s), &["seeds", "faults", "lineage-dir"]);
        assert_eq!(soak(&["--seeds", "4"]).expect("parsed").seeds, Some(4));
        assert!(soak(&["--seeds", "x"]).is_err());
        assert!(soak(&["--quick"]).is_err(), "flags outside the allowed set");
    }

    /// Serving flows through the repetition helper into every rep with the
    /// identical plan, and rep 0's books land next to the telemetry.
    #[test]
    fn repeat_applies_serving_plan_to_every_rep() {
        let dir = std::env::temp_dir().join(format!("rp-bench-serve-{}", std::process::id()));
        let spec = ServingSpec::parse("rate=20,horizon=20").expect("spec");
        let opts = RunOpts {
            telemetry_dir: Some(dir.clone()),
            ..RunOpts::default()
        }
        .with_serving(spec, 5);
        let (_, reports) = repeat_static(
            "tiny serve",
            2,
            |seed| PilotConfig::flux(2, 1).with_seed(seed),
            || {
                (0..20)
                    .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(2)))
                    .collect()
            },
            &opts,
        )
        .expect("artifacts write");
        let s0 = reports[0].serving.as_ref().expect("rep 0 serving books");
        let s1 = reports[1].serving.as_ref().expect("rep 1 serving books");
        assert_eq!(s0.offered, s1.offered, "same plan hits every rep");
        assert_eq!(s0.offered, s0.admitted + s0.shed + s0.queued);
        assert_eq!(s0.queued, 0);
        let jsonl = fs::read_to_string(dir.join("tiny_serve.serving.jsonl")).expect("jsonl");
        assert_eq!(jsonl, s0.to_jsonl(), "written books match the report");
        let txt = fs::read_to_string(dir.join("tiny_serve.serving.txt")).expect("summary");
        assert!(txt.contains("offered"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Faults flow through the repetition helper into every rep: the same
    /// deterministic plan hits each rep, tasks recover, and the fault-free
    /// row is unaffected by the machinery.
    #[test]
    fn repeat_applies_fault_plan_to_every_rep() {
        let mk_cfg = |seed| PilotConfig::flux(4, 2).with_seed(seed);
        let mk_tasks = || {
            (0..120)
                .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(30)))
                .collect::<Vec<_>>()
        };
        let (spec, seed) = (
            FaultSpec::parse("nodes=1,window=40..120,retries=4").expect("spec"),
            7,
        );
        let opts = RunOpts::default().with_faults(spec, seed);
        let (row, reports) =
            repeat_static("chaos tiny", 2, mk_cfg, mk_tasks, &opts).expect("artifacts write");
        assert_eq!(row.reps, 2);
        assert!((row.done - 120.0).abs() < 1e-9, "all tasks recover");
        for rep in &reports {
            assert!(
                rep.tasks.iter().any(|t| t.retries > 0),
                "the fault plan must actually bite"
            );
        }
        let (baseline, _) = repeat_static(
            "chaos off",
            2,
            mk_cfg,
            mk_tasks,
            &opts.clone().without_faults(),
        )
        .expect("artifacts write");
        assert!((baseline.done - 120.0).abs() < 1e-9);
        assert!(
            baseline.makespan_s < row.makespan_s,
            "recovery overhead must show up in the faulted makespan"
        );
    }
}
