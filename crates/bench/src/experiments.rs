//! The paper's evaluation as one declarative list: every experiment cell
//! of Table 1, Figs. 4–8, the §4.2 IMPECCABLE comparison and the ablations
//! is an [`Experiment`] entry whose body runs over a shared [`Ctx`]. The
//! `rp-exp` binary selects entries by id and runs them through [`run`].

use crate::harness::{
    fan_out, repeat, repeat_static, ExpRow, RunOpts, DEFAULT_FAULT_SEED, DEFAULT_SERVING_SEED,
};
use rp_analytics::{
    bar_chart, compare, line_plot, md_table, overheads, paired_timeline_csv, timeline, timeline_csv,
};
use rp_core::{
    BackendKind, BackendSpec, FaultSpec, PilotConfig, RecoveryPolicy, ServingSpec, TaskDescription,
};
use rp_platform::Calibration;
use rp_sim::SimDuration;
use rp_workloads::{
    dummy_workload, impeccable_campaign, mixed_workload, null_workload, ImpeccableParams,
};
use std::fmt::{Display, Write as _};
use std::fs;
use std::io;
use std::path::Path;

/// One experiment: an id, where it sits in the paper, and a body.
pub struct Experiment {
    /// Command-line id; results go to `results/exp_<id>.{txt,csv}`.
    pub id: &'static str,
    /// DESIGN.md §4 row (`E1`–`E7`); `None` for experiments beyond the
    /// paper's figures.
    pub design: Option<&'static str>,
    /// The Table 1 rows this experiment regenerates, one cell per
    /// [`TABLE1_HEADER`] column.
    pub table1: &'static [[&'static str; 8]],
    /// Runs the experiment's cells, writing lines and rows into the context;
    /// fails when an instrumentation artifact cannot be written.
    pub body: fn(&mut Ctx) -> io::Result<()>,
}

impl Experiment {
    /// File stem of the experiment's `results/` pair.
    pub fn stem(&self) -> String {
        format!("exp_{}", self.id)
    }

    /// Run the body and collect what it produced.
    pub fn run(&self, quick: bool, opts: &RunOpts) -> io::Result<Output> {
        let mut ctx = Ctx {
            quick,
            opts: opts.clone(),
            rows: Vec::new(),
            text: String::new(),
            csv: None,
            files: Vec::new(),
        };
        (self.body)(&mut ctx)?;
        let csv = ctx.csv.unwrap_or_else(|| {
            let mut csv = format!("{}\n", ExpRow::csv_header());
            for r in &ctx.rows {
                let _ = writeln!(csv, "{}", r.csv_line());
            }
            csv
        });
        let mut files = vec![
            (format!("{}.txt", self.stem()), ctx.text),
            (format!("{}.csv", self.stem()), csv),
        ];
        files.extend(ctx.files);
        Ok(Output { files })
    }
}

/// What one experiment run produced: its `results/` files, the text first.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// `(file name, contents)` pairs; entry 0 is `exp_<id>.txt`.
    pub files: Vec<(String, String)>,
}

impl Output {
    /// The results text, which is also the experiment's transcript section.
    pub fn text(&self) -> &str {
        &self.files[0].1
    }

    /// Write every file under `dir`.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for (name, contents) in &self.files {
            fs::write(dir.join(name), contents)?;
        }
        Ok(())
    }
}

/// The state an experiment body works on: the run options plus the output
/// it accumulates.
pub struct Ctx {
    /// `--quick`: small grids and fewer repetitions.
    pub quick: bool,
    /// Options for every session the body runs.
    pub opts: RunOpts,
    /// Rows of the experiment's CSV, in order.
    pub rows: Vec<ExpRow>,
    text: String,
    /// A CSV with its own columns, written instead of the rows'.
    csv: Option<String>,
    /// Further `results/` files, as `(file name, contents)`.
    files: Vec<(String, String)>,
}

impl Ctx {
    /// Append one line (several, if `s` holds newlines) to the results text.
    pub fn line(&mut self, s: impl Display) {
        let _ = writeln!(self.text, "{s}");
    }

    /// Append a row's table line to the text and the row to the CSV.
    pub fn row(&mut self, row: ExpRow) {
        self.line(row.table_line());
        self.rows.push(row);
    }

    /// Repetitions per cell: 2 under `--quick`, else 3.
    fn reps(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }
}

/// Column headers of Table 1, the experiment matrix.
pub const TABLE1_HEADER: [&str; 8] = [
    "Exp ID",
    "Workload",
    "launcher",
    "#nodes/pilot",
    "#partitions",
    "task types",
    "#tasks",
    "#cores/task",
];

/// Every experiment, in the order `rp-exp all` runs and prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "srun",
        design: Some("E1"),
        table1: &[[
            "srun",
            "null, dummy(180s)",
            "srun",
            "1-16",
            "1",
            "exec",
            "n*cpn*4",
            "1",
        ]],
        body: srun,
    },
    Experiment {
        id: "flux1",
        design: Some("E2"),
        table1: &[[
            "flux_1",
            "null, dummy(360s)",
            "flux",
            "1,4,16,64,256,1024",
            "1",
            "exec",
            "n*cpn*4",
            "1",
        ]],
        body: flux1,
    },
    Experiment {
        id: "fluxn",
        design: Some("E3"),
        table1: &[[
            "flux_n",
            "dummy(180s)",
            "flux",
            "4,16,64,256,1024",
            "1,4,16,64",
            "exec",
            "n*cpn*4",
            "1",
        ]],
        body: fluxn,
    },
    Experiment {
        id: "dragon",
        design: Some("E4"),
        table1: &[[
            "dragon",
            "null, dummy(180s)",
            "dragon",
            "1,4,16,64",
            "1",
            "exec",
            "n*cpn*4",
            "1",
        ]],
        body: dragon,
    },
    Experiment {
        id: "flux_dragon",
        design: Some("E5"),
        table1: &[[
            "flux+dragon",
            "null, dummy(360s)",
            "flux & dragon",
            "2-64",
            "1-32 each",
            "exec & funcs",
            "n*cpn*4",
            "1",
        ]],
        body: flux_dragon,
    },
    Experiment {
        id: "overhead",
        design: Some("E6"),
        table1: &[],
        body: overhead,
    },
    Experiment {
        id: "impeccable",
        design: Some("E7"),
        table1: &[
            [
                "impeccable_srun",
                "impeccable",
                "srun",
                "256,1024",
                "1",
                "exec",
                "~550,~1800",
                "56-7168",
            ],
            [
                "impeccable_flux",
                "impeccable",
                "flux",
                "256,1024",
                "1",
                "exec",
                "~550,~1800",
                "56-7168",
            ],
        ],
        body: impeccable,
    },
    Experiment {
        id: "prrte",
        design: None,
        table1: &[],
        body: prrte,
    },
    Experiment {
        id: "ablations",
        design: None,
        table1: &[],
        body: ablations,
    },
    Experiment {
        id: "faults",
        design: None,
        table1: &[],
        body: faults,
    },
    Experiment {
        id: "serving",
        design: None,
        table1: &[],
        body: serving,
    },
];

/// Table 1 rendered from the list, as a markdown table.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.table1)
        .map(|cells| cells.iter().map(|c| c.to_string()).collect())
        .collect();
    md_table(&TABLE1_HEADER, &rows)
}

/// Resolve positional words to experiments, in list order: `all` selects
/// every entry, anything else must be an experiment id.
pub fn select(words: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if words.is_empty() {
        return Err("name the experiments to run, or `all`".into());
    }
    if let Some(w) = words
        .iter()
        .find(|w| *w != "all" && !EXPERIMENTS.iter().any(|e| e.id == *w))
    {
        return Err(format!("unknown experiment `{w}`"));
    }
    let all = words.iter().any(|w| w == "all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| all || words.iter().any(|w| w == e.id))
        .collect())
}

/// Run `exps` in-process, fanning out over `opts.jobs` experiments at a
/// time, and hand each output (or the artifact write error that stopped
/// it) to `sink` in list order.
pub fn run(
    exps: &[&Experiment],
    quick: bool,
    opts: &RunOpts,
    mut sink: impl FnMut(&Experiment, io::Result<Output>),
) {
    fan_out(
        exps.len(),
        opts.jobs,
        |i| (exps[i], exps[i].run(quick, opts)),
        |(exp, out)| sink(exp, out),
    );
}

/// E1 — Fig. 4 + Fig. 5(a): RP using Slurm's `srun` as the task launcher.
/// Paper shape: concurrency rides the 112-step site ceiling (896 dummy
/// 180 s tasks on 4 nodes ⇒ 50 % utilization); null-task throughput peaks
/// ≈152 t/s at 1 node and *decreases* with node count (61 t/s at 4 nodes).
fn srun(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment srun — Fig. 4 (utilization) and Fig. 5(a) (throughput)\n");
    let reps = ctx.reps();
    let srun_cfg = |nodes: u32| {
        move |seed| {
            PilotConfig::srun(nodes)
                .with_srun_oversubscribe(4)
                .with_seed(seed)
        }
    };
    for nodes in [1u32, 2, 4, 8, 16] {
        let (row, _) = repeat_static(
            &format!("srun null n={nodes}"),
            reps,
            srun_cfg(nodes),
            move || null_workload(nodes),
            &ctx.opts,
        )?;
        ctx.row(row);
    }

    let (row, reports) = repeat_static(
        "srun dummy180 n=4 (Fig.4)",
        reps,
        srun_cfg(4),
        || dummy_workload(4, SimDuration::from_secs(180)),
        &ctx.opts,
    )?;
    ctx.row(row);
    let pts: Vec<(f64, f64)> = timeline(&reports[0].tasks, 10)
        .iter()
        .map(|p| (p.t_s, p.busy_cores as f64 / 224.0 * 100.0))
        .collect();
    let plot = line_plot(
        "\nFig.4: core utilization %, 896 dummy tasks, 4 nodes (ceiling ⇒ 50 %)",
        &pts,
        70,
        12,
    );
    ctx.line(plot.trim_end_matches('\n'));
    let peak_util = pts.iter().map(|p| p.1).fold(0.0, f64::max);
    ctx.line(format_args!(
        "peak utilization: {peak_util:.1}% (paper: 50%)"
    ));
    Ok(())
}

/// E2 — Fig. 5(b): one Flux instance at 1–1024 nodes, null + dummy(360 s)
/// batches of `nodes × 56 × 4` single-core tasks. Paper shape: throughput
/// rises with node count, ≈28 t/s at one node to ≈300 t/s average at 1,024
/// nodes; single-instance peak ≈744 t/s; visible run-to-run variability.
fn flux1(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment flux_1 — single Flux instance, Fig. 5(b)\n");
    let scales: &[u32] = if ctx.quick {
        &[1, 4, 16, 64]
    } else {
        &[1, 4, 16, 64, 256, 1024]
    };
    let reps = ctx.reps();
    for &nodes in scales {
        for (kind, duration) in [("null", 0), ("dummy360", 360)] {
            let (row, _) = repeat_static(
                &format!("flux_1 {kind} n={nodes}"),
                reps,
                move |seed| PilotConfig::flux(nodes, 1).with_seed(seed),
                move || dummy_workload(nodes, SimDuration::from_secs(duration)),
                &ctx.opts,
            )?;
            ctx.row(row);
        }
    }
    let series = null_series(&ctx.rows);
    let chart = bar_chart("\navg throughput (tasks/s), null workload", &series, 50);
    ctx.line(chart.trim_end_matches('\n'));
    Ok(())
}

/// `(label, average throughput)` of the null-workload rows.
fn null_series(rows: &[ExpRow]) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|r| r.label.contains("null"))
        .map(|r| (r.label.clone(), r.thr_avg))
        .collect()
}

/// E3 — Fig. 6: several concurrent Flux instances over disjoint
/// partitions, dummy(180 s). Paper shape: partitioning raises throughput
/// at small/medium scale (4 nodes: 56 → 98 t/s with 4 instances; 16 nodes:
/// 43 → 195 with 16), diminishing returns at 256–1024 nodes, max ≈930 t/s,
/// utilization ≥94.5 % up to 64 nodes, ≈75 % at 1024/16.
fn fluxn(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment flux_n — multiple Flux instances, Fig. 6\n");
    // (nodes, partition counts): Table 1 lists 64 and 1024 nodes with
    // 1..64 partitions; the text also quotes 4, 16 and 256-node results.
    let grid: &[(u32, &[u32])] = if ctx.quick {
        &[(4, &[1, 4]), (16, &[1, 4, 16]), (64, &[1, 16, 64])]
    } else {
        &[
            (4, &[1, 4]),
            (16, &[1, 4, 16]),
            (64, &[1, 4, 16, 64]),
            (256, &[1, 4, 16, 64]),
            (1024, &[1, 4, 16, 64]),
        ]
    };
    let reps = ctx.reps();
    for &(nodes, parts) in grid {
        for &k in parts {
            let (row, _) = repeat_static(
                &format!("flux_n n={nodes} k={k}"),
                reps,
                move |seed| PilotConfig::flux(nodes, k).with_seed(seed),
                move || dummy_workload(nodes, SimDuration::from_secs(180)),
                &ctx.opts,
            )?;
            ctx.row(row);
        }
        ctx.line("");
    }
    let series: Vec<(String, f64)> = ctx
        .rows
        .iter()
        .map(|r| (r.label.clone(), r.thr_avg))
        .collect();
    let chart = bar_chart(
        "\navg throughput (tasks/s) by nodes × instances",
        &series,
        50,
    );
    ctx.line(chart.trim_end_matches('\n'));
    let best = ctx.rows.iter().map(|r| r.thr_peak).fold(0.0, f64::max);
    ctx.line(format_args!(
        "max throughput across grid: {best:.0} tasks/s (paper: up to 930)"
    ));
    Ok(())
}

/// E4 — Fig. 5(c): one Dragon runtime launching *executable* tasks (spawn
/// mode, for comparability with srun/Flux). Paper shape: throughput
/// roughly flat at small scale (343 t/s @4 nodes, 380 @16), declining at
/// 64 nodes (204 t/s) — the centralized single-dispatcher limit.
fn dragon(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment dragon — single Dragon runtime, Fig. 5(c)\n");
    let reps = ctx.reps();
    for nodes in [1u32, 4, 16, 64] {
        for (kind, duration) in [("null", 0), ("dummy180", 180)] {
            let (row, _) = repeat_static(
                &format!("dragon {kind} n={nodes}"),
                reps,
                move |seed| PilotConfig::dragon(nodes).with_seed(seed),
                move || dummy_workload(nodes, SimDuration::from_secs(duration)),
                &ctx.opts,
            )?;
            ctx.row(row);
        }
    }
    let series = null_series(&ctx.rows);
    let chart = bar_chart(
        "\navg throughput (tasks/s): flat then declining with node count",
        &series,
        50,
    );
    ctx.line(chart.trim_end_matches('\n'));
    Ok(())
}

/// E5 — Fig. 5(d): Flux and Dragon deployed concurrently — executables
/// routed to Flux partitions, functions to Dragon partitions. Paper shape:
/// throughput grows with nodes/instances; 16 nodes / 8 instances per
/// runtime averages 171 t/s (peak 573); 64 nodes peaks ≈1,547 t/s (the RP
/// task-management ceiling); utilization ≥99.6 %.
fn flux_dragon(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment flux+dragon — hybrid runtimes, Fig. 5(d)\n");
    // (nodes, instances per runtime); instances*2 <= nodes.
    let grid: &[(u32, u32)] = if ctx.quick {
        &[(2, 1), (16, 8), (64, 8)]
    } else {
        &[(2, 1), (4, 2), (16, 8), (64, 8), (64, 16), (64, 32)]
    };
    let reps = ctx.reps();
    for &(nodes, k) in grid {
        // Null mixed stream: sustained hybrid launch rate (the 1,547 t/s
        // headline regime — both adapters active simultaneously).
        let mk_cfg = move |seed| PilotConfig::flux_dragon(nodes, k).with_seed(seed);
        let (row, _) = repeat_static(
            &format!("flux+dragon null n={nodes} k={k}x2"),
            reps,
            mk_cfg,
            move || mixed_workload(nodes, SimDuration::ZERO),
            &ctx.opts,
        )?;
        ctx.row(row);

        let (row, reports) = repeat_static(
            &format!("flux+dragon n={nodes} k={k}x2"),
            reps,
            mk_cfg,
            move || mixed_workload(nodes, SimDuration::from_secs(360)),
            &ctx.opts,
        )?;
        ctx.row(row);
        // Split throughput per backend for the report.
        let split = |backend| {
            let tasks: Vec<_> = reports[0]
                .tasks
                .iter()
                .filter(|t| t.backend == Some(backend))
                .cloned()
                .collect();
            let avg = rp_analytics::throughput(&tasks).map_or(0.0, |t| t.avg_active);
            (tasks.len(), avg)
        };
        let ((fluxes, flux_avg), (dragons, dragon_avg)) =
            (split(BackendKind::Flux), split(BackendKind::Dragon));
        ctx.line(format_args!(
            "    split: flux {fluxes} tasks avg {flux_avg:.0}/s | dragon {dragons} tasks avg {dragon_avg:.0}/s"
        ));
    }
    let best = ctx.rows.iter().map(|r| r.thr_peak).fold(0.0, f64::max);
    ctx.line(format_args!(
        "\nmax hybrid throughput: {best:.0} tasks/s (paper: 1,547)"
    ));
    Ok(())
}

/// E6 — Fig. 7: Flux and Dragon instance bootstrap overheads for instance
/// sizes 1–64 nodes, one seeded single session per cell. Paper shape:
/// ≈20 s per Flux instance, ≈9 s per Dragon instance, roughly independent
/// of instance size; concurrent launches make the total non-additive.
fn overhead(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment overheads — instance bootstrap, Fig. 7\n");
    let one_null = || vec![TaskDescription::null(0)];
    let sizes: &[u32] = if ctx.quick { &[1, 4] } else { &[1, 4, 16, 64] };
    for &nodes in sizes {
        for kind in ["flux", "dragon"] {
            let cfg = match kind {
                "flux" => PilotConfig::flux(nodes, 1),
                _ => PilotConfig::dragon(nodes),
            }
            .with_seed(17 + nodes as u64);
            let (_, reports) = repeat_static(
                &format!("overhead {kind} n={nodes}"),
                1,
                |_| cfg.clone(),
                one_null,
                &ctx.opts,
            )?;
            for (k, p, n, o) in &overheads(&reports[0]).instances {
                ctx.line(format_args!("{k}[{p}] nodes={n:<4} bootstrap={o:.1}s"));
            }
        }
    }

    // Non-additivity: 8 flux instances over 32 nodes launch concurrently.
    let (_, reports) = repeat_static(
        "overhead flux concurrent",
        1,
        |_| PilotConfig::flux(32, 8).with_seed(99),
        one_null,
        &ctx.opts,
    )?;
    let ov = overheads(&reports[0]);
    let sum: f64 = ov.instances.iter().map(|i| i.3).sum();
    ctx.line(format_args!(
        "\n8 concurrent flux instances: per-instance mean {:.1}s, sum {:.1}s, wall-clock-to-all-ready {:.1}s\n  (concurrent launches ⇒ total overhead is NOT additive; paper Fig. 7)",
        sum / ov.instances.len() as f64,
        sum,
        ov.all_ready_s.unwrap_or(0.0)
    ));
    Ok(())
}

/// E7 — Fig. 8 and the §4.2 comparison: the IMPECCABLE campaign with dummy
/// 180 s tasks on 256 and 1,024 nodes, srun vs Flux, one seeded session
/// each. Paper shape: srun makespans ≈26,000 s (256 n) and ≈44,000 s
/// (1,024 n) versus Flux ≈22,000 s and ≈17,500 s — a 30–60 % reduction;
/// srun CPU utilization 30 %/15 % versus Flux 68 %/69 %; start rates >4×
/// higher and steadier under Flux.
fn impeccable(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment impeccable — campaign at scale, Fig. 8\n");
    // Campaign makespans run to tens of thousands of virtual seconds;
    // sample gauges coarsely so the profile is not mostly gauge rows.
    let opts = ctx.opts.clone().with_period(SimDuration::from_secs(60));
    let scales: &[u32] = if ctx.quick { &[256] } else { &[256, 1024] };
    for &nodes in scales {
        let mut run = |backend: &str| -> io::Result<_> {
            let cfg = match backend {
                "srun" => PilotConfig::srun(nodes),
                _ => PilotConfig::flux(nodes, 1),
            }
            .with_seed(31);
            // The campaign is adaptive, so the uid space is unknown up
            // front; without a hint only node/crash faults land.
            let (mut row, mut reports) = repeat(
                &format!("impeccable {backend} n={nodes}"),
                1,
                |_| cfg.clone(),
                || Box::new(impeccable_campaign(ImpeccableParams::for_nodes(nodes))),
                &opts,
            )?;
            row.label = format!("impeccable_{backend} n={nodes}");
            let report = reports.remove(0);
            ctx.line(format_args!(
                "{}: tasks={:.0} makespan={:.0}s util_cpu={:.0}% util_gpu={:.0}% \
                 thr_avg={:.1}/s peak_conc={:.0}",
                row.label,
                row.done,
                row.makespan_s,
                row.util_cores * 100.0,
                row.util_gpus * 100.0,
                row.thr_avg,
                row.concurrency
            ));
            // Fig. 8 panels: concurrency (running) + start rate over time.
            let tl = timeline(&report.tasks, 60);
            let running: Vec<(f64, f64)> = tl.iter().map(|p| (p.t_s, p.running as f64)).collect();
            let rate: Vec<(f64, f64)> = tl
                .iter()
                .map(|p| (p.t_s, p.start_rate as f64 / 60.0))
                .collect();
            let plot = line_plot(
                &format!("Fig.8 {backend} n={nodes}: running tasks (60 s buckets)"),
                &running,
                72,
                10,
            );
            ctx.line(plot.trim_end_matches('\n'));
            let plot = line_plot(
                &format!("Fig.8 {backend} n={nodes}: execution start rate (tasks/s)"),
                &rate,
                72,
                8,
            );
            ctx.line(plot.trim_end_matches('\n'));
            ctx.files.push((
                format!("impeccable_{backend}_{nodes}_timeline.csv"),
                timeline_csv(&report, 60),
            ));
            ctx.rows.push(row);
            Ok(report)
        };
        let rs = run("srun")?;
        let rf = run("flux")?;
        let n = ctx.rows.len();
        let (ms, mf) = (ctx.rows[n - 2].makespan_s, ctx.rows[n - 1].makespan_s);
        let reduction = (ms - mf) / ms * 100.0;
        ctx.line(format_args!(
            "  => flux reduces makespan by {reduction:.0}% at {nodes} nodes (paper: 30-60%)"
        ));
        // Side-by-side comparison table (the §4.2 reading).
        ctx.line(compare("srun", &rs, "flux", &rf).table());
        ctx.files.push((
            format!("impeccable_paired_{nodes}.csv"),
            paired_timeline_csv("srun", &rs, "flux", &rf, 60),
        ));
    }
    Ok(())
}

/// PRRTE comparison (paper §5): a PRRTE-like DVM versus Flux and srun.
/// PRRTE is a scheduler-less launch fabric — fast and flat across scales;
/// Flux overtakes at large node counts where its distributed brokers win,
/// and srun trails everywhere beyond one node.
fn prrte(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment prrte — §5 backend comparison\n");
    for nodes in [1u32, 4, 16, 64, 256] {
        for backend in ["prrte", "flux", "srun"] {
            let (row, _) = repeat_static(
                &format!("{backend} null n={nodes}"),
                3,
                move |seed| {
                    match backend {
                        "prrte" => PilotConfig::prrte(nodes),
                        "flux" => PilotConfig::flux(nodes, 1),
                        _ => PilotConfig::srun(nodes).with_srun_oversubscribe(4),
                    }
                    .with_seed(seed)
                },
                move || null_workload(nodes),
                &ctx.opts,
            )?;
            ctx.row(row);
        }
        ctx.line("");
    }
    let rate = |label: &str| {
        ctx.rows
            .iter()
            .find(|r| r.label == label)
            .map_or(0.0, |r| r.thr_avg)
    };
    let line = format!(
        "\nshape: prrte flat ({:.0} -> {:.0} t/s from 1 to 256 nodes), flux scales \
         ({:.0} -> {:.0}), srun degrades ({:.0} -> {:.0}); flux overtakes prrte at ~64 nodes",
        rate("prrte null n=1"),
        rate("prrte null n=256"),
        rate("flux null n=1"),
        rate("flux null n=256"),
        rate("srun null n=1"),
        rate("srun null n=256"),
    );
    ctx.line(line);
    Ok(())
}

/// IMPECCABLE parameters of the 64-node policy ablation.
fn ablation_campaign() -> ImpeccableParams {
    let mut p = ImpeccableParams::for_nodes(64);
    p.iterations = 4;
    p.dock_task_nodes = 8;
    p.score_task_nodes = 16;
    p.score_big_nodes = 32;
    p.esmacs_task_nodes = 8;
    p.infer_task_nodes = 4;
    p.ampl_nodes = 8;
    p
}

/// A width-heterogeneous mix where head-of-line blocking bites: twelve
/// machine-wide MPI jobs, each followed by a burst of narrow tasks that
/// FCFS holds behind it.
fn hetero_mix() -> Vec<TaskDescription> {
    let mut tasks = Vec::new();
    let mut uid = 0u64;
    for batch in 0..12 {
        tasks.push(TaskDescription {
            uid: rp_core::TaskId(uid),
            kind: rp_core::TaskKind::Executable {
                name: "wide_mpi".into(),
            },
            req: rp_platform::ResourceRequest::mpi(64, 56, 0),
            duration: SimDuration::from_secs(300),
            backend_hint: None,
            label: rp_core::Name::new(&format!("wide.{batch}")),
        });
        uid += 1;
        for _ in 0..200 {
            tasks.push(TaskDescription::dummy(uid, SimDuration::from_secs(30)));
            uid += 1;
        }
    }
    tasks
}

/// Ablations beyond the paper's figures (DESIGN.md §7): scheduler policy,
/// backend routing, RP dispatch cost, nested Flux trees and sub-agents.
/// Every session here is a single seeded run.
fn ablations(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Ablation experiments (DESIGN.md §7)\n");

    // 1. FCFS vs EASY backfill on (a) the heterogeneous mix and (b) the
    //    IMPECCABLE campaign mix.
    ctx.line("1) Flux scheduling policy (64 nodes):");
    for backfill in [false, true] {
        let cfg = PilotConfig::new(
            64,
            vec![BackendSpec::Flux {
                partitions: 1,
                backfill,
            }],
        )
        .with_seed(5);
        let name = if backfill { "easy-backfill" } else { "fcfs" };
        let (row, _) = repeat_static(
            &format!("ablation hetero-mix {name}"),
            1,
            |_| cfg.clone(),
            hetero_mix,
            &ctx.opts,
        )?;
        ctx.line(format_args!(
            "   hetero-mix {:<14} makespan={:>8.0}s util={:>5.1}% done={}",
            name,
            row.makespan_s,
            row.util_cores * 100.0,
            row.done
        ));
        let (row, _) = repeat(
            &format!("ablation impeccable {name}"),
            1,
            |_| cfg.clone(),
            || Box::new(impeccable_campaign(ablation_campaign())),
            &ctx.opts.clone().with_period(SimDuration::from_secs(60)),
        )?;
        ctx.line(format_args!(
            "   impeccable {:<14} makespan={:>8.0}s util={:>5.1}% done={}",
            name,
            row.makespan_s,
            row.util_cores * 100.0,
            row.done
        ));
    }

    // 2. Router: type-aware vs everything to one runtime.
    ctx.line("\n2) Backend routing on the mixed workload (16 nodes):");
    // All-to-flux runs functions as Flux wrapper processes; all-to-dragon
    // pins every task to Dragon, which runs executables in spawn mode.
    let runs = [
        (
            "type-aware (flux+dragon)",
            PilotConfig::flux_dragon(16, 4),
            None,
        ),
        ("all-to-flux", PilotConfig::flux(16, 8), None),
        (
            "all-to-dragon",
            PilotConfig::dragon(16),
            Some(BackendKind::Dragon),
        ),
    ];
    for (label, cfg, hint) in runs {
        let cfg = cfg.with_seed(5);
        let tasks = move || {
            let mut tasks = mixed_workload(16, SimDuration::from_secs(360));
            for t in &mut tasks {
                t.backend_hint = hint;
            }
            tasks
        };
        let (row, _) = repeat_static(
            &format!("ablation router {label}"),
            1,
            |_| cfg.clone(),
            tasks,
            &ctx.opts,
        )?;
        ctx.line(format_args!(
            "   {:<26} thr_avg={:>6.1}/s peak={:>5.0} util={:>5.1}% makespan={:>7.0}s",
            label,
            row.thr_avg,
            row.thr_peak,
            row.util_cores * 100.0,
            row.makespan_s
        ));
    }

    // 3. RP dispatch-cost sweep: locates the task-management ceiling the
    //    hybrid experiment hits.
    ctx.line("\n3) RP task-management cost sweep (hybrid peak, 64 nodes, 16+16 instances):");
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let mut cal = Calibration::frontier();
        cal.rp_flux_adapter = cal.rp_flux_adapter.scaled(scale);
        cal.rp_dragon_adapter = cal.rp_dragon_adapter.scaled(scale);
        cal.rp_watcher = cal.rp_watcher.scaled(scale);
        cal.rp_sched_base_s *= scale;
        cal.rp_sched_per_partition_s *= scale;
        cal.rp_sched_per_node_s *= scale;
        let cfg = PilotConfig::flux_dragon(64, 16)
            .with_calibration(cal)
            .with_seed(5);
        let (row, _) = repeat_static(
            &format!("ablation rp-cost x{scale}"),
            1,
            |_| cfg.clone(),
            || mixed_workload(64, SimDuration::ZERO),
            &ctx.opts,
        )?;
        ctx.line(format_args!(
            "   rp-cost x{scale:<4} peak={:>6.0} tasks/s  avg={:>6.1}",
            row.thr_peak, row.thr_avg
        ));
    }
    ctx.line(
        "\n   (peak falls as RP-side costs grow => the hybrid ceiling is RP's\n    task-management path, matching the paper's attribution)",
    );

    // 4. Nested Flux hierarchy: flat single instance vs nested trees of
    //    increasing depth/fanout over the same 16 nodes.
    ctx.line("\n4) Nested Flux instance trees (16 nodes, null tasks):");
    for (depth, fanout) in [(0u32, 1u32), (1, 4), (1, 16), (2, 4)] {
        let rate = tree_null_rate(16, depth, fanout, 3000);
        ctx.line(format_args!(
            "   depth={depth} fanout={fanout:<3} leaves={:<3} launch rate {:>7.1} tasks/s",
            (fanout.pow(depth)).max(1),
            rate
        ));
    }
    ctx.line(
        "   (parallel subtree ingest raises throughput until hop latency and\n    partition width eat the gains — the flux_n trade-off, nested form)",
    );

    // 5. Sub-agents (one pipeline per partition) vs the global scheduler.
    ctx.line("\n5) Sub-agents (one pipeline per partition) vs global scheduler:");
    for (nodes, k) in [(16u32, 8u32), (64, 16), (256, 64)] {
        for sub in [false, true] {
            let (row, _) = repeat_static(
                &format!(
                    "{} n={nodes} k={k}",
                    if sub { "sub-agents" } else { "global    " }
                ),
                2,
                move |seed| {
                    PilotConfig::flux(nodes, k)
                        .with_sub_agents(sub)
                        .with_seed(seed)
                },
                move || {
                    (0..(nodes as u64 * 56))
                        .map(TaskDescription::null)
                        .collect()
                },
                &ctx.opts,
            )?;
            ctx.line(format_args!(
                "   {:<22} thr_avg={:>7.1}/s peak={:>6.0}",
                row.label, row.thr_avg, row.thr_peak
            ));
        }
    }
    ctx.line(
        "   (per-partition pipelines remove the global agent-scheduler\n    serialization — the paper's sub-agent design, §4.1.2)",
    );
    Ok(())
}

/// Launch rate of a nested Flux tree on null tasks, driven directly.
fn tree_null_rate(nodes: u32, depth: u32, fanout: u32, n_tasks: u64) -> f64 {
    use rp_fluxrt::{EasyBackfill, FluxTreeSim, JobId, JobSpec, TreeToken};
    use rp_platform::Allocation;
    use rp_sim::Action;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    let alloc = Allocation {
        spec: rp_platform::frontier().node,
        first: 0,
        count: nodes,
    };
    let mut tree = FluxTreeSim::balanced(
        alloc,
        &Calibration::frontier(),
        depth,
        fanout,
        || Box::new(EasyBackfill::default()),
        17,
    );
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut tokens: HashMap<u64, TreeToken> = HashMap::new();
    let mut seq = 0u64;
    let mut starts: Vec<f64> = Vec::new();
    let sink = |acts: Vec<Action<TreeToken>>,
                now: u64,
                heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                tokens: &mut HashMap<u64, TreeToken>,
                seq: &mut u64,
                starts: &mut Vec<f64>| {
        for a in acts {
            match a {
                Action::Timer { after, token } => {
                    heap.push(Reverse((now + after.as_micros(), *seq)));
                    tokens.insert(*seq, token);
                    *seq += 1;
                }
                Action::Started(_) => starts.push(now as f64 / 1e6),
                _ => {}
            }
        }
    };
    let acts = tree.boot();
    sink(acts, 0, &mut heap, &mut tokens, &mut seq, &mut starts);
    for i in 0..n_tasks {
        let acts = tree.submit(JobSpec {
            id: JobId(i),
            req: rp_platform::ResourceRequest::single(1, 0),
            duration: rp_sim::SimDuration::ZERO,
        });
        sink(acts, 0, &mut heap, &mut tokens, &mut seq, &mut starts);
    }
    while let Some(Reverse((at, key))) = heap.pop() {
        let tok = tokens.remove(&key).expect("token");
        let acts = tree.on_token(rp_sim::SimTime::from_micros(at), tok);
        sink(acts, at, &mut heap, &mut tokens, &mut seq, &mut starts);
    }
    (starts.len() - 1) as f64 / (starts.last().unwrap() - starts.first().unwrap())
}

/// The deterministic chaos sweep: every backend runs the same dummy
/// workload fault-free and under the same seeded fault plan once per
/// recovery policy, so the recovery overhead — extra makespan paid to
/// re-run work the faults destroyed — is an exact differential. The plan
/// is a pure function of the spec, the fault seed and the deployment
/// shape, so the baseline rows match the same cells elsewhere. `--faults`
/// / `--fault-seed` replace the swept plan.
fn faults(ctx: &mut Ctx) -> io::Result<()> {
    ctx.line("Experiment faults — recovery overhead under a deterministic fault plan\n");
    let nodes: u32 = if ctx.quick { 4 } else { 8 };
    let reps = ctx.reps();
    // The swept spec: user-provided, or a default mix of every fault kind
    // sized so each backend loses (and recovers) real work.
    let (base_spec, fault_seed) = ctx.opts.faults.clone().unwrap_or_else(|| {
        let spec = FaultSpec::parse(
            "nodes=2,crashes=1,hangs=4,window=40..300,downtime=90,restart=20,watchdog=45,retries=6",
        )
        .expect("default chaos spec parses");
        (spec, DEFAULT_FAULT_SEED)
    });
    let policies = [
        (
            "backoff",
            RecoveryPolicy::RetryBackoff {
                base: SimDuration::from_secs(5),
                factor: 2,
            },
        ),
        ("elsewhere", RecoveryPolicy::ResubmitElsewhere),
        ("giveup", RecoveryPolicy::GiveUp),
    ];
    for backend in ["srun", "flux", "dragon", "prrte"] {
        let mk_cfg = move |seed| {
            match backend {
                "srun" => PilotConfig::srun(nodes),
                "flux" => PilotConfig::flux(nodes, 2),
                "dragon" => PilotConfig::dragon(nodes),
                _ => PilotConfig::prrte(nodes),
            }
            .with_seed(seed)
        };
        let mk_tasks = move || dummy_workload(nodes, SimDuration::from_secs(120));
        let (baseline, _) = repeat_static(
            &format!("{backend} faults=off"),
            reps,
            mk_cfg,
            mk_tasks,
            &ctx.opts.clone().without_faults(),
        )?;
        ctx.line(baseline.table_line());
        for (name, policy) in policies {
            let mut spec = base_spec.clone();
            spec.policy = policy;
            let (row, _) = repeat_static(
                &format!("{backend} policy={name}"),
                reps,
                mk_cfg,
                mk_tasks,
                &ctx.opts.clone().with_faults(spec, fault_seed),
            )?;
            ctx.line(format_args!(
                "{}    recovery_overhead={:+.1}s vs fault-free",
                row.table_line(),
                row.makespan_s - baseline.makespan_s
            ));
            ctx.rows.push(row);
        }
        ctx.rows.push(baseline);
        ctx.line("");
    }
    ctx.line(format_args!(
        "(plan: fault seed {fault_seed}; giveup abandons victims — its `fail` column is the \
         destroyed work the other policies re-run)"
    ));
    Ok(())
}

/// Open-loop arrival-rate sweep per backend — where is the knee at which
/// p99 time-to-launch blows up? Each cell is one serving session (no batch
/// workload) of Poisson null tasks at the cell's rate against a 4-node
/// pilot; the client-perceived percentiles are measured from *arrival*.
/// The knee is the first rate whose p99 time-to-launch exceeds 10× the
/// backend's lowest-rate p99 (floored at 100 ms), or that sheds load. The
/// sweep owns the serving spec: `--serving` is replaced per cell.
fn serving(ctx: &mut Ctx) -> io::Result<()> {
    struct Cell {
        backend: &'static str,
        rate: f64,
        s: rp_core::ServingReport,
        knee: bool,
    }
    let horizon = if ctx.quick { 10.0 } else { 60.0 };
    let rates: &[f64] = if ctx.quick {
        &[50.0, 200.0, 800.0]
    } else {
        &[25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]
    };
    ctx.line(format_args!(
        "Experiment serving — open-loop arrival-rate sweep (poisson null tasks, \
         horizon {horizon} s, 4 nodes per backend)\n\
         knee: first rate with p99 TTL > 10x the lowest-rate p99 (>=0.1 s) or any shedding\n"
    ));
    type MkCfg = fn(u64) -> PilotConfig;
    let backends: [(&'static str, MkCfg); 4] = [
        ("srun", |seed| PilotConfig::srun(4).with_seed(seed)),
        ("flux", |seed| PilotConfig::flux(4, 2).with_seed(seed)),
        ("dragon", |seed| PilotConfig::dragon(4).with_seed(seed)),
        ("prrte", |seed| PilotConfig::prrte(4).with_seed(seed)),
    ];
    let mut csv = String::from(
        "backend,rate,offered,admitted,shed,done,failed,\
         ttl_p50,ttl_p99,ttl_p999,ttc_p50,ttc_p99,ttc_p999,knee\n",
    );
    for (backend, mk_cfg) in backends {
        let mut cells: Vec<Cell> = Vec::new();
        for &rate in rates {
            let spec = ServingSpec::parse(&format!("rate={rate},horizon={horizon}"))
                .expect("sweep spec parses");
            let cell_opts = ctx.opts.clone().with_serving(spec, DEFAULT_SERVING_SEED);
            let label = format!("serving {backend} rate={rate}");
            let (_, mut reports) = repeat_static(&label, 1, mk_cfg, Vec::new, &cell_opts)?;
            let s = reports[0]
                .serving
                .take()
                .expect("serving session must carry books");
            assert_eq!(s.offered, s.admitted + s.shed + s.queued, "conservation");
            cells.push(Cell {
                backend,
                rate,
                s,
                knee: false,
            });
        }
        // Knee detection against the backend's own unloaded baseline.
        let threshold = (10.0 * cells[0].s.slo.launch_p99).max(0.1);
        if let Some(k) = cells
            .iter()
            .position(|c| c.s.slo.launch_p99 > threshold || c.s.shed > 0)
        {
            cells[k].knee = true;
        }
        for Cell {
            backend,
            rate,
            s,
            knee,
        } in &cells
        {
            let slo = &s.slo;
            ctx.line(format_args!(
                "{:<7} rate={:>6.0}  offered={:>6} admitted={:>6} shed={:>6}  \
                 ttl p50={:>9.4}s p99={:>9.4}s p999={:>9.4}s  ttc p99={:>9.4}s{}",
                backend,
                rate,
                s.offered,
                s.admitted,
                s.shed,
                slo.launch_p50,
                slo.launch_p99,
                slo.launch_p999,
                slo.completion_p99,
                if *knee { "   <-- knee" } else { "" },
            ));
            let _ = writeln!(
                csv,
                "{},{:.0},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{}",
                backend,
                rate,
                s.offered,
                s.admitted,
                s.shed,
                s.done,
                s.failed,
                slo.launch_p50,
                slo.launch_p99,
                slo.launch_p999,
                slo.completion_p50,
                slo.completion_p99,
                slo.completion_p999,
                *knee as u8
            );
        }
        ctx.line("");
    }
    ctx.csv = Some(csv);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_results_stems_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let mut stems: Vec<String> = EXPERIMENTS.iter().map(Experiment::stem).collect();
        ids.sort_unstable();
        ids.dedup();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        assert_eq!(stems.len(), EXPERIMENTS.len(), "duplicate results stem");
        assert!(ids.iter().all(|id| *id != "all"), "`all` is reserved");
    }

    /// Every DESIGN.md §4 row E1–E7 is regenerated by an entry, and the
    /// row's "Regenerated by" column names that entry's `rp-exp` command.
    #[test]
    fn every_design_row_maps_to_an_experiment() {
        let design = include_str!("../../../DESIGN.md");
        for n in 1..=7 {
            let row = format!("E{n}");
            let exp = EXPERIMENTS
                .iter()
                .find(|e| e.design == Some(row.as_str()))
                .unwrap_or_else(|| panic!("no experiment regenerates {row}"));
            let line = design
                .lines()
                .find(|l| l.starts_with(&format!("| {row} ")))
                .unwrap_or_else(|| panic!("DESIGN.md §4 has no {row} row"));
            assert!(
                line.contains(&format!("`rp-exp {}`", exp.id)),
                "{row} row must name `rp-exp {}`: {line}",
                exp.id
            );
        }
    }

    #[test]
    fn table1_lists_the_paper_matrix() {
        let t = table1();
        assert_eq!(t.lines().count(), 2 + 7, "header, rule and seven rows");
        for id in ["srun", "flux_1", "flux_n", "dragon", "flux+dragon"] {
            assert!(t.contains(&format!("| {id} |")), "{id} missing");
        }
        assert!(t.contains("| impeccable_flux |"));
    }

    #[test]
    fn select_resolves_ids_in_list_order() {
        let words = |w: &[&str]| -> Vec<String> { w.iter().map(|s| s.to_string()).collect() };
        let ids = |w: &[&str]| -> Vec<&str> {
            select(&words(w))
                .expect("valid")
                .iter()
                .map(|e| e.id)
                .collect()
        };
        assert_eq!(ids(&["all"]).len(), EXPERIMENTS.len());
        assert_eq!(ids(&["serving", "srun", "srun"]), ["srun", "serving"]);
        assert!(
            select(&words(&["flux_1"])).is_err(),
            "ids, not Table 1 labels"
        );
        assert!(select(&[]).is_err());
    }

    /// Experiments fanned out over two jobs produce byte-identical output,
    /// delivered in list order, to a sequential run.
    #[test]
    fn fan_out_is_jobs_invariant() {
        let exps = select(&["overhead".to_string(), "srun".to_string()]).expect("valid");
        let outputs = |jobs: usize| {
            let mut got = Vec::new();
            let opts = RunOpts {
                jobs,
                ..RunOpts::default()
            };
            run(&exps, true, &opts, |e, out| {
                got.push((e.id, out.expect("no artifacts to write")))
            });
            got
        };
        let sequential = outputs(1);
        assert_eq!(
            sequential.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ["srun", "overhead"]
        );
        assert!(sequential[0].1.text().contains("peak utilization"));
        assert_eq!(outputs(2), sequential);
    }
}
