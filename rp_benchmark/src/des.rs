//! DES workloads: how one rep's sessions are built, run and checked.
//!
//! A rep is a list of cells, each one `SimSession`. Every task source is
//! wrapped in [`Tap`], the benchmark's own `WorkloadSource` adapter, which
//! logs the uids it hands out (so the check can find missing or duplicated
//! uids) and, in the traced rep, times the callbacks and keeps each task's
//! `ResourceRequest` for the placement replay.

use crate::trace::Tracer;
use crate::Sizes;
use rp_analytics::{digest, parse_profile_csv, RunDigest};
use rp_core::{
    PilotConfig, ResourceView, RunReport, ServiceDescription, SimSession, TaskDescription,
    TaskRecord, TaskState, WorkloadSource,
};
use rp_platform::ResourceRequest;
use rp_sim::SimDuration;
use rp_workloads::{impeccable_campaign, mixed_workload, null_workload, ImpeccableParams};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Des {
    Flux1Null,
    HybridNull,
    Impeccable,
    /// The DES twin of the rt burst: the same task mix on a two-node
    /// hybrid pilot, which gives the rt workload its DES layer numbers.
    RtTwin,
}

/// What a [`Tap`] saw during one session.
#[derive(Default)]
pub struct TapLog {
    pub uids: Vec<u64>,
    pub reqs: Vec<(u64, ResourceRequest)>,
    traced: bool,
    pub callback_s: f64,
    pub callbacks: u64,
}

struct Tap {
    inner: Box<dyn WorkloadSource>,
    log: Rc<RefCell<TapLog>>,
}

/// Log the tasks one callback hands out (timing it in the traced rep).
fn pass(
    log: &RefCell<TapLog>,
    call: impl FnOnce() -> Vec<TaskDescription>,
) -> Vec<TaskDescription> {
    let started = log.borrow().traced.then(Instant::now);
    let tasks = call();
    let elapsed = started.map(|t| t.elapsed().as_secs_f64());
    let mut log = log.borrow_mut();
    if let Some(dt) = elapsed {
        log.callback_s += dt;
        log.callbacks += 1;
        log.reqs.extend(tasks.iter().map(|t| (t.uid.0, t.req)));
    }
    log.uids.extend(tasks.iter().map(|t| t.uid.0));
    tasks
}

impl WorkloadSource for Tap {
    fn services(&mut self) -> Vec<ServiceDescription> {
        self.inner.services()
    }

    fn initial(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
        pass(&self.log, || self.inner.initial(view))
    }

    fn on_task_done(&mut self, done: &TaskRecord, view: &ResourceView) -> Vec<TaskDescription> {
        pass(&self.log, || self.inner.on_task_done(done, view))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One session of a rep, with the log of its task source.
pub struct Cell {
    session: SimSession,
    pub log: Rc<RefCell<TapLog>>,
}

/// The rendered observability exports of one traced run.
pub struct Exports {
    pub openmetrics: String,
    pub telemetry_series: String,
    pub telemetry_flight: String,
    pub lineage_jsonl: String,
    pub profile_csv: String,
    pub chrome_trace: String,
}

impl Exports {
    /// Parse the exports back; one message per export that fails.
    pub fn problems(&self, r: &RunReport) -> Vec<String> {
        let mut out = Vec::new();
        if let Err(e) = rp_metrics::parse_openmetrics(&self.openmetrics) {
            out.push(format!("OpenMetrics export does not parse: {e}"));
        }
        match rp_lineage::LineageData::from_jsonl(&self.lineage_jsonl) {
            Ok(back) if Some(&back) == r.lineage.as_ref() => {}
            Ok(_) => out.push("lineage JSONL does not round-trip".into()),
            Err(e) => out.push(format!("lineage JSONL does not parse: {e}")),
        }
        if let Err(e) = parse_profile_csv(&self.profile_csv) {
            out.push(format!("profile CSV does not parse: {e:?}"));
        }
        for (name, jsonl) in [
            ("telemetry series", &self.telemetry_series),
            ("flight recorder", &self.telemetry_flight),
        ] {
            if let Some(e) = jsonl
                .lines()
                .find_map(|l| crate::json::Json::parse(l).err())
            {
                out.push(format!("{name} JSONL does not parse: {e}"));
            }
        }
        for (name, text) in [
            ("telemetry series", &self.telemetry_series),
            ("Chrome trace", &self.chrome_trace),
        ] {
            if text.is_empty() {
                out.push(format!("{name} export is empty"));
            }
        }
        out
    }
}

/// What running one rep produced.
pub struct RepOut {
    /// Wall seconds of the whole rep: every `SimSession::run`, plus the
    /// digests the workload includes.
    pub wall_s: f64,
    /// Wall seconds of each cell's `SimSession::run`.
    pub run_s: Vec<f64>,
    pub reports: Vec<RunReport>,
    pub logs: Vec<Rc<RefCell<TapLog>>>,
    pub digests: Vec<RunDigest>,
}

/// Task-level outcome of one rep.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub submitted: u64,
    pub terminal: u64,
    /// Failed, canceled or non-terminal tasks plus missing, duplicated or
    /// unexpected uids.
    pub bad: u64,
    /// FNV-1a over (uid, state, exec_start, exec_end) of every task.
    pub hash: u64,
}

impl Des {
    /// Seed of rep `r` for base seed `seed`. The campaign rep always runs
    /// the same seed range; the synthetic cells move one seed per rep.
    pub fn rep_seed(self, seed: u64, r: u64) -> u64 {
        match self {
            Des::Impeccable => seed,
            _ => seed + r,
        }
    }

    /// Build the sessions of one rep. Returns them with the seconds spent
    /// in the workload generators. The traced rep attaches all four
    /// observability sinks, which the per-layer numbers are read from.
    pub fn build(self, size: &Sizes, seed: u64, traced: bool, tr: &mut Tracer) -> (Vec<Cell>, f64) {
        let mut gen_s = 0.0;
        let mut generate = |tr: &mut Tracer, f: &mut dyn FnMut() -> Box<dyn WorkloadSource>| {
            let (w, secs) = tr.span("workloads.gen", |_| f());
            gen_s += secs;
            w
        };
        let mut plan: Vec<(PilotConfig, Box<dyn WorkloadSource>)> = Vec::new();
        match self {
            Des::Flux1Null => {
                let n = size.flux1_nodes;
                let w = generate(tr, &mut || static_source(null_workload(n)));
                plan.push((PilotConfig::flux(n, 1).with_seed(seed), w));
            }
            Des::HybridNull => {
                let n = size.hybrid_nodes;
                let w = generate(tr, &mut || {
                    static_source(mixed_workload(n, SimDuration::ZERO))
                });
                plan.push((PilotConfig::flux_dragon(n, 16).with_seed(seed), w));
            }
            Des::Impeccable => {
                let n = size.camp_nodes;
                for s in seed..seed + size.camp_seeds {
                    for cfg in [PilotConfig::srun(n), PilotConfig::flux(n, 1)] {
                        let w = generate(tr, &mut || {
                            Box::new(impeccable_campaign(ImpeccableParams::for_nodes(n)))
                        });
                        plan.push((cfg.with_seed(s), w));
                    }
                }
            }
            Des::RtTwin => {
                let w = generate(tr, &mut || static_source(twin_tasks(size.rt_tasks)));
                plan.push((PilotConfig::flux_dragon(2, 1).with_seed(seed), w));
            }
        }
        // Campaigns span tens of thousands of simulated seconds; sample
        // them coarsely, as the experiment binaries do.
        let period = SimDuration::from_secs(if self == Des::Impeccable { 60 } else { 1 });
        let cells = plan
            .into_iter()
            .map(|(cfg, inner)| {
                let log = Rc::new(RefCell::new(TapLog {
                    traced,
                    ..TapLog::default()
                }));
                let tap = Tap {
                    inner,
                    log: Rc::clone(&log),
                };
                let (session, _) = tr.span("core.session.new", |_| {
                    let session = SimSession::new(cfg, Box::new(tap));
                    if traced {
                        session
                            .with_profiling(period)
                            .with_metrics(period)
                            .with_telemetry(period)
                            .with_lineage()
                    } else {
                        session
                    }
                });
                Cell { session, log }
            })
            .collect();
        (cells, gen_s)
    }

    /// Run one rep's sessions, plus the digests the workload includes
    /// (`Impeccable`).
    pub fn run(self, cells: Vec<Cell>, tr: &mut Tracer) -> RepOut {
        let started = Instant::now();
        let mut out = RepOut {
            wall_s: 0.0,
            run_s: Vec::with_capacity(cells.len()),
            reports: Vec::with_capacity(cells.len()),
            logs: Vec::with_capacity(cells.len()),
            digests: Vec::new(),
        };
        for cell in cells {
            let (report, secs) = tr.span("core.session.run", |_| cell.session.run());
            out.run_s.push(secs);
            out.reports.push(report);
            out.logs.push(cell.log);
        }
        if self == Des::Impeccable {
            out.digests = tr
                .span("impeccable.digests", |_| {
                    out.reports.iter().map(digest).collect()
                })
                .0
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }
}

impl RepOut {
    /// Count and fingerprint every cell's tasks against what its source
    /// handed out.
    pub fn tally(&self) -> Tally {
        let mut t = Tally {
            hash: 0xcbf2_9ce4_8422_2325,
            ..Tally::default()
        };
        for (report, log) in self.reports.iter().zip(&self.logs) {
            let mut want = log.borrow().uids.clone();
            t.submitted += want.len() as u64;
            let mut got: Vec<u64> = report.tasks.iter().map(|r| r.uid.0).collect();
            want.sort_unstable();
            got.sort_unstable();
            t.bad += uid_mismatch(&want, &got);
            for r in &report.tasks {
                let terminal = r.state.is_terminal();
                t.terminal += terminal as u64;
                t.bad += (r.state != TaskState::Done) as u64;
                let micros = |x: Option<rp_sim::SimTime>| x.map_or(u64::MAX, |x| x.as_micros());
                for word in [
                    r.uid.0,
                    r.state as u64,
                    micros(r.exec_start),
                    micros(r.exec_end),
                ] {
                    for b in word.to_le_bytes() {
                        t.hash = (t.hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        t
    }
}

/// Uids wanted but missing, plus uids that appear more often than wanted
/// (duplicates or strangers). Both slices are sorted.
pub fn uid_mismatch(want: &[u64], got: &[u64]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < want.len() || j < got.len() {
        match (want.get(i), got.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                bad += 1;
                i += 1;
            }
            (Some(_), None) => {
                bad += 1;
                i += 1;
            }
            _ => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad
}

fn static_source(tasks: Vec<TaskDescription>) -> Box<dyn WorkloadSource> {
    Box::new(rp_core::StaticWorkload::new(tasks))
}

/// The rt burst's task mix as DES descriptions: alternating zero-length
/// executables and no-op functions.
pub fn twin_tasks(n: u64) -> Vec<TaskDescription> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                TaskDescription::null(i)
            } else {
                TaskDescription::function(i, "noop", SimDuration::ZERO)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_mismatch_counts_missing_duplicate_and_strange() {
        assert_eq!(uid_mismatch(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(uid_mismatch(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(uid_mismatch(&[1, 2, 3], &[1, 2, 2, 3]), 1);
        assert_eq!(uid_mismatch(&[1, 2], &[1, 2, 9]), 1);
        assert_eq!(uid_mismatch(&[], &[4]), 1);
    }
}
