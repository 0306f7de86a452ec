//! `bench_hotpaths` — wall-clock benchmark harness for the simulator's hot
//! paths: engine delivery throughput, placement alloc/free ops, and the
//! end-to-end paper-scale runs whose wall time is the reproduction's
//! scalability ceiling (1,024-node `flux_1`, the IMPECCABLE campaign).
//!
//! Emits `BENCH_hotpaths.json` at the working directory root — the perf
//! trajectory every future PR is measured against. Flags:
//!
//! - `--quick`: small sizes for CI smoke (engine entries keep their full
//!   event counts so they stay comparable across modes; placement and
//!   end-to-end entries carry their scale in the name and are skipped by
//!   cross-mode comparisons).
//! - `--out <path>`: where to write the JSON (default `BENCH_hotpaths.json`).
//! - `--baseline <path>`: a previously emitted JSON; matching entries are
//!   embedded as before/after pairs with a wall-clock speedup factor.
//! - `--warn-threshold <pct>`: with `--baseline`, print a warn-only
//!   regression annotation when an entry's wall time grew by more than
//!   `<pct>` percent (default 25; CI mirrors the metrics smoke and never
//!   fails the build on this).

use rp_core::{FaultSpec, PilotConfig, RunReport, ServingSpec, SimSession};
use rp_sim::{Actor, Ctx, Engine, SimDuration, SimTime};
use rp_workloads::{dummy_workload, impeccable_campaign, null_workload, ImpeccableParams};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark entry.
struct BenchEntry {
    name: String,
    /// Work items per iteration (events, ops, or tasks).
    n: u64,
    /// Median (or single-shot) wall seconds per iteration.
    wall_s: f64,
    /// `n / wall_s`.
    per_sec: f64,
}

fn entry(name: impl Into<String>, n: u64, wall_s: f64) -> BenchEntry {
    let name = name.into();
    let per_sec = if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 };
    println!(
        "{:<34} n={:<9} wall {:>10.4} s   {:>14.0}/s",
        name, n, wall_s, per_sec
    );
    BenchEntry {
        name,
        n,
        wall_s,
        per_sec,
    }
}

/// Median wall time of `f` over up to `budget` seconds (min 3 samples).
fn median_wall<R>(budget_s: f64, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f()); // warmup
    let mut samples = Vec::new();
    let started = Instant::now();
    while (started.elapsed().as_secs_f64() < budget_s || samples.len() < 3) && samples.len() < 1000
    {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// An actor that re-arms a 1 ms timer `remaining` times (the dominant
/// small-delay timer traffic shape).
struct Chain {
    remaining: u64,
}
impl Actor<u64> for Chain {
    fn handle(&mut self, _msg: u64, ctx: &mut Ctx<u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// Swallows pre-scheduled events (stresses queue ordering alone).
struct Sink;
impl Actor<u64> for Sink {
    fn handle(&mut self, _m: u64, _c: &mut Ctx<u64>) {}
}

fn engine_benches(out: &mut Vec<BenchEntry>) {
    const EVENTS: u64 = 100_000;
    let wall = median_wall(1.0, || {
        let mut eng = Engine::new();
        let id = eng.add_actor(Chain { remaining: EVENTS });
        eng.schedule(SimTime::ZERO, id, 0);
        eng.run_until_idle(EVENTS + 10)
    });
    out.push(entry("engine_timer_chain", EVENTS, wall));

    let wall = median_wall(1.0, || {
        let mut eng = Engine::new();
        let id = eng.add_actor(Sink);
        for i in 0..EVENTS {
            eng.schedule(SimTime::from_micros(i % 1000), id, i);
        }
        eng.run_until_idle(EVENTS + 10)
    });
    out.push(entry("engine_fanout", EVENTS, wall));

    // A sampler registered but almost never firing: the per-delivery
    // sampler-scan cost that zero/one-sampler runs should not pay.
    let wall = median_wall(1.0, || {
        let mut eng = Engine::new();
        let id = eng.add_actor(Chain { remaining: EVENTS });
        eng.add_sampler(SimDuration::from_secs(3600), 0);
        eng.schedule(SimTime::ZERO, id, 0);
        eng.run_until_idle(EVENTS + 10)
    });
    out.push(entry("engine_timer_chain_sampled", EVENTS, wall));
}

/// Instrumented vs uninstrumented delivery: the same small session run
/// bare and with the metrics registry attached, so instrumentation-cost
/// regressions show up as a widening ratio.
fn instrumentation_benches(out: &mut Vec<BenchEntry>) {
    const TASKS: u64 = 2_000;
    let run = |metrics: bool| {
        let tasks = (0..TASKS).map(rp_core::TaskDescription::null).collect();
        let mut s = SimSession::with_tasks(PilotConfig::flux(4, 1).with_seed(7), tasks);
        if metrics {
            s = s.with_metrics(SimDuration::from_secs(1));
        }
        s.run()
    };
    let wall = median_wall(2.0, || run(false));
    out.push(entry("session_uninstrumented", TASKS, wall));
    let wall = median_wall(2.0, || run(true));
    out.push(entry("session_instrumented", TASKS, wall));
}

fn placement_benches(out: &mut Vec<BenchEntry>, nodes: u32) {
    use rp_platform::{frontier, ResourcePool, ResourceRequest};
    let spec = frontier().node;
    let single = ResourceRequest::single(1, 0);

    // Single-core churn: fill the whole machine, free every placement,
    // refill — the shape of every synthetic experiment.
    let cores = nodes as u64 * spec.cores as u64;
    let wall = median_wall(2.0, || {
        let mut pool = ResourcePool::over_range(spec, 0, nodes);
        let mut held = Vec::with_capacity(cores as usize);
        for _ in 0..cores {
            held.push(pool.try_alloc(&single).expect("fits"));
        }
        // Free interleaved (every other), realloc, then drain — exercises
        // fragmentation, not just the packed prefix.
        let mut freed = 0u64;
        for pl in held.iter().step_by(2) {
            pool.free(pl);
            freed += 1;
        }
        for _ in 0..freed {
            held.push(pool.try_alloc(&single).expect("fits"));
        }
        std::hint::black_box(pool.free_cores())
    });
    // allocs + frees + reallocs per iteration.
    out.push(entry(format!("placement_churn_n{nodes}"), cores * 2, wall));

    // Fragmented-pool probes — the scans the scheduler repeats while its
    // queue is backed up. Every node's cores are busy except one core on
    // the *last* node (all GPUs stay free, so the fully-busy-prefix
    // accelerator cannot skip anything): a single-core probe must search
    // the whole pool to find the far fit, and a memory-infeasible probe
    // must prove no node fits. Aggregate fast-rejects pass for both, so
    // the per-node path is what's measured.
    let mut pool = ResourcePool::over_range(spec, 0, nodes);
    let mut held = Vec::new();
    for _ in 0..nodes {
        held.push(
            pool.try_alloc(&ResourceRequest::single(spec.cores, 0))
                .expect("fits"),
        );
    }
    pool.free(held.last().expect("non-empty"));
    pool.try_alloc(&ResourceRequest::single(spec.cores - 1, 0))
        .expect("refit all but one core");
    assert_eq!(pool.free_cores(), 1, "exactly one far free core");
    let far_hit = single;
    let mem_reject = ResourceRequest::single(1, 0).with_mem(spec.mem_gb + 1);
    const PROBES: u64 = 10_000;
    let wall = median_wall(1.0, || {
        let mut hits = 0u32;
        for _ in 0..PROBES {
            hits += pool.fits_now(&far_hit) as u32;
            hits += pool.fits_now(&mem_reject) as u32;
        }
        std::hint::black_box(hits)
    });
    out.push(entry(
        format!("placement_reject_n{nodes}"),
        PROBES * 2,
        wall,
    ));

    // Whole-machine MPI spread alloc/free pairs.
    const PAIRS: u64 = 200;
    let mpi = ResourceRequest::mpi(nodes, 56, 0);
    let wall = median_wall(1.0, || {
        let mut pool = ResourcePool::over_range(spec, 0, nodes);
        for _ in 0..PAIRS {
            let pl = pool.try_alloc(&mpi).expect("fits empty pool");
            pool.free(&pl);
        }
        std::hint::black_box(pool.free_cores())
    });
    out.push(entry(format!("placement_spread_n{nodes}"), PAIRS * 2, wall));

    // IMPECCABLE's shape: whole-node MPI spreads of 4-128 ranks (capped at
    // the pool), one in three with 8 GPUs per node, 384 GiB per rank,
    // churned FIFO — the oldest placement is freed until the next fits.
    const WIDE: u64 = 20_000;
    let max_ranks = 128.min(nodes);
    let mut ops = 0u64;
    let wall = median_wall(2.0, || {
        let mut pool = ResourcePool::over_range(spec, 0, nodes);
        let mut live = std::collections::VecDeque::new();
        let mut state = 0x2545_F491_u64;
        ops = 0;
        for i in 0..WIDE {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let ranks = 4 + (state >> 33) as u32 % (max_ranks - 3);
            let gpus = if i % 3 == 0 { 8 } else { 0 };
            let req = ResourceRequest::mpi(ranks, spec.cores, gpus).with_mem(384);
            while !pool.fits_now(&req) {
                pool.free(&live.pop_front().expect("fits an empty pool"));
                ops += 1;
            }
            live.push_back(pool.try_alloc(&req).expect("fits_now"));
            ops += 1;
        }
        std::hint::black_box(pool.free_cores())
    });
    // allocs + frees per iteration.
    out.push(entry(format!("placement_wide_churn_n{nodes}"), ops, wall));
}

fn run_report(label: &str, mk: impl Fn() -> RunReport, out: &mut Vec<BenchEntry>) {
    let mut tasks = 0u64;
    let wall = median_wall(2.0, || {
        let report = mk();
        tasks = report.tasks.len() as u64;
        report
    });
    out.push(entry(label, tasks, wall));
}

/// Returns `(telemetry, faults_off, serving_off)` overhead fractions on
/// the flux_1 null cell — each the median of order-alternating
/// instrumented/bare wall ratios, minus 1.
fn e2e_benches(out: &mut Vec<BenchEntry>, quick: bool) -> (f64, f64, f64) {
    // Paper-scale flux_1 cell (Fig. 5(b) rightmost point): 1,024 nodes,
    // nodes*56*4 single-core tasks, seed 1000 (= `rp-exp flux1` rep 0).
    let nodes: u32 = if quick { 64 } else { 1024 };
    // Bare cell and the same cell with the streaming-telemetry collector
    // attached. The ratio is the telemetry overhead on the hot path
    // (design budget: <3% on the null workload, where the collector's
    // per-transition cost is least amortized). Overhead is the median of
    // order-alternating bare/instrumented pairs — each pair runs
    // back-to-back and alternates which side goes first, so thermal and
    // turbo drift cancel instead of biasing whichever entry runs later.
    let mk_bare = || {
        SimSession::with_tasks(
            PilotConfig::flux(nodes, 1).with_seed(1000),
            null_workload(nodes),
        )
        .run()
    };
    let mk_tel = || {
        SimSession::with_tasks(
            PilotConfig::flux(nodes, 1).with_seed(1000),
            null_workload(nodes),
        )
        .with_telemetry(SimDuration::from_secs(1))
        .run()
    };
    let time = |f: &dyn Fn() -> RunReport| {
        let t = Instant::now();
        let report = std::hint::black_box(f());
        (t.elapsed().as_secs_f64(), report.tasks.len() as u64)
    };
    std::hint::black_box(mk_bare()); // warmup
    let pairs = if quick { 3 } else { 7 };
    let mut tasks = 0u64;
    let (mut bares, mut tels, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..pairs {
        let (bare, tel) = if k % 2 == 0 {
            let (b, n) = time(&mk_bare);
            let (t, _) = time(&mk_tel);
            tasks = n;
            (b, t)
        } else {
            let (t, _) = time(&mk_tel);
            let (b, n) = time(&mk_bare);
            tasks = n;
            (b, t)
        };
        bares.push(bare);
        tels.push(tel);
        ratios.push(tel / bare);
    }
    bares.sort_by(f64::total_cmp);
    tels.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    out.push(entry(
        format!("e2e_flux1_null_n{nodes}"),
        tasks,
        bares[bares.len() / 2],
    ));
    out.push(entry(
        format!("e2e_flux1_null_telemetry_n{nodes}"),
        tasks,
        tels[tels.len() / 2],
    ));
    let telemetry_overhead = ratios[ratios.len() / 2] - 1.0;
    println!(
        "telemetry overhead on flux_1 null: {:+.2}% wall (median of {pairs} order-alternating pairs)",
        telemetry_overhead * 100.0
    );
    // The same cell with the causal-lineage recorder attached: lineage
    // records every task (no sampling), so this bounds the tracked-path
    // cost of `--lineage-dir`.
    run_report(
        &format!("e2e_flux1_null_lineage_n{nodes}"),
        || {
            SimSession::with_tasks(
                PilotConfig::flux(nodes, 1).with_seed(1000),
                null_workload(nodes),
            )
            .with_lineage()
            .run()
        },
        out,
    );
    // The same cell with an *inactive* fault plan attached: the chaos
    // plane must be free when no faults are requested (one Option branch
    // per touchpoint — design budget <1% wall on the null cell).
    // tests/determinism.rs proves byte-identity; this proves cost, with
    // the same drift-cancelling order-alternating pair protocol as the
    // telemetry budget above.
    let mk_off = || {
        SimSession::with_tasks(
            PilotConfig::flux(nodes, 1).with_seed(1000),
            null_workload(nodes),
        )
        .with_faults(FaultSpec::parse("").expect("inactive spec"), 0xFA17, 0)
        .run()
    };
    let (mut offs, mut off_ratios) = (Vec::new(), Vec::new());
    for k in 0..pairs {
        let (bare, off) = if k % 2 == 0 {
            let (b, _) = time(&mk_bare);
            let (o, _) = time(&mk_off);
            (b, o)
        } else {
            let (o, _) = time(&mk_off);
            let (b, _) = time(&mk_bare);
            (b, o)
        };
        offs.push(off);
        off_ratios.push(off / bare);
    }
    offs.sort_by(f64::total_cmp);
    off_ratios.sort_by(f64::total_cmp);
    out.push(entry(
        format!("e2e_flux1_null_faults_off_n{nodes}"),
        tasks,
        offs[offs.len() / 2],
    ));
    let faults_off_overhead = off_ratios[off_ratios.len() / 2] - 1.0;
    println!(
        "faults-off chaos overhead on flux_1 null: {:+.2}% wall (median of {pairs} order-alternating pairs)",
        faults_off_overhead * 100.0
    );
    // The same cell with an *inactive* serving spec attached: like the
    // chaos plane, serving-off must be one Option branch per touchpoint
    // (design budget <3% wall on the null cell). tests/serving.rs proves
    // byte-identity; this proves cost, same order-alternating protocol.
    let mk_serving_off = || {
        SimSession::with_tasks(
            PilotConfig::flux(nodes, 1).with_seed(1000),
            null_workload(nodes),
        )
        .with_serving(ServingSpec::default(), 0x5EED)
        .run()
    };
    let (mut soffs, mut soff_ratios) = (Vec::new(), Vec::new());
    for k in 0..pairs {
        let (bare, soff) = if k % 2 == 0 {
            let (b, _) = time(&mk_bare);
            let (s, _) = time(&mk_serving_off);
            (b, s)
        } else {
            let (s, _) = time(&mk_serving_off);
            let (b, _) = time(&mk_bare);
            (b, s)
        };
        soffs.push(soff);
        soff_ratios.push(soff / bare);
    }
    soffs.sort_by(f64::total_cmp);
    soff_ratios.sort_by(f64::total_cmp);
    out.push(entry(
        format!("e2e_flux1_null_serving_off_n{nodes}"),
        tasks,
        soffs[soffs.len() / 2],
    ));
    let serving_off_overhead = soff_ratios[soff_ratios.len() / 2] - 1.0;
    println!(
        "serving-off overhead on flux_1 null: {:+.2}% wall (median of {pairs} order-alternating pairs)",
        serving_off_overhead * 100.0
    );
    // An open-loop serving cell at the flux knee rate from the
    // results/exp_serving sweep (200 tasks/s on 4 nodes): the sustained
    // end-to-end tasks/sec the serving plane adds to the perf trajectory.
    let horizon = if quick { 10u64 } else { 60 };
    let knee_spec =
        ServingSpec::parse(&format!("rate=200,horizon={horizon}")).expect("knee spec parses");
    run_report(
        &format!("e2e_serving_knee_flux_h{horizon}"),
        || {
            SimSession::with_tasks(PilotConfig::flux(4, 2).with_seed(1000), vec![])
                .with_serving(knee_spec.clone(), 0x5EED)
                .run()
        },
        out,
    );
    run_report(
        &format!("e2e_flux1_dummy360_n{nodes}"),
        || {
            SimSession::with_tasks(
                PilotConfig::flux(nodes, 1).with_seed(1000),
                dummy_workload(nodes, SimDuration::from_secs(360)),
            )
            .run()
        },
        out,
    );

    // The IMPECCABLE campaign at the `rp-exp impeccable --quick` scale (256
    // nodes, srun + flux, seed 31).
    let camp_nodes: u32 = if quick { 64 } else { 256 };
    for backend in ["srun", "flux"] {
        run_report(
            &format!("e2e_impeccable_{backend}_n{camp_nodes}"),
            || {
                let cfg = match backend {
                    "srun" => PilotConfig::srun(camp_nodes),
                    _ => PilotConfig::flux(camp_nodes, 1),
                }
                .with_seed(31);
                let params = ImpeccableParams::for_nodes(camp_nodes);
                SimSession::new(cfg, Box::new(impeccable_campaign(params))).run()
            },
            out,
        );
    }
    (
        telemetry_overhead,
        faults_off_overhead,
        serving_off_overhead,
    )
}

/// Parse `--<flag> <value>` (or `--<flag>=<value>`) from argv.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("--{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == &format!("--{flag}") {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

/// Extract `"key": <number>` from a one-entry-per-line JSON (the format
/// this binary emits; good enough for a std-only repo).
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

/// Parse entries from a previously emitted `BENCH_hotpaths.json`.
fn parse_baseline(text: &str) -> Vec<(String, u64, f64)> {
    let mut out = Vec::new();
    let mut in_baseline = false;
    for line in text.lines() {
        // Ignore the embedded before/after block of an older file.
        if line.contains("\"baseline\"") {
            in_baseline = true;
        }
        if line.contains(']') {
            in_baseline = false;
        }
        if in_baseline {
            continue;
        }
        if let (Some(name), Some(n), Some(wall)) = (
            field_str(line, "name"),
            field_f64(line, "n"),
            field_f64(line, "wall_s"),
        ) {
            out.push((name.to_string(), n as u64, wall));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "out").unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    let baseline_path = arg_value(&args, "baseline");
    let warn_pct: f64 = arg_value(&args, "warn-threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);

    let mut entries: Vec<BenchEntry> = Vec::new();
    engine_benches(&mut entries);
    instrumentation_benches(&mut entries);
    placement_benches(&mut entries, if quick { 64 } else { 1024 });
    let (telemetry_overhead, faults_off_overhead, serving_off_overhead) =
        e2e_benches(&mut entries, quick);

    // Compare against a committed baseline, warn-only (cross-machine wall
    // clocks are noisy; same-machine trajectories are the real signal).
    let baseline = baseline_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .map(|t| parse_baseline(&t))
        .unwrap_or_default();
    let mut pairs: Vec<(String, f64, f64)> = Vec::new();
    for e in &entries {
        if let Some((_, _, before)) = baseline
            .iter()
            .find(|(n, bn, _)| *n == e.name && *bn == e.n)
        {
            pairs.push((e.name.clone(), *before, e.wall_s));
            let speedup = before / e.wall_s.max(1e-12);
            println!(
                "compare {:<34} before {before:>9.4} s  after {:>9.4} s  speedup {speedup:>5.2}x",
                e.name, e.wall_s
            );
            if e.wall_s > before * (1.0 + warn_pct / 100.0) {
                println!(
                    "::warning:: bench_hotpaths: {} regressed {:.0}% (before {:.4} s, after {:.4} s)",
                    e.name,
                    (e.wall_s / before - 1.0) * 100.0,
                    before,
                    e.wall_s
                );
            }
        }
    }

    let mut json = String::from("{\n  \"bench\": \"hotpaths\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    // Drift-cancelling pairwise median — NOT the ratio of the two
    // e2e_flux1_null entry medians, which are timed independently.
    let _ = writeln!(
        json,
        "  \"telemetry_overhead_frac\": {telemetry_overhead:.4},"
    );
    // Carry the baseline's overhead fraction forward so the before/after
    // pair for the instrumentation budget lives in one file.
    let before_overhead = baseline_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|t| {
            t.lines()
                .find_map(|l| field_f64(l, "telemetry_overhead_frac"))
        });
    if let Some(before) = before_overhead {
        let _ = writeln!(json, "  \"telemetry_overhead_frac_before\": {before:.4},");
    }
    // Faults-off chaos budget: same protocol, design bound <1% wall.
    let _ = writeln!(
        json,
        "  \"faults_off_overhead_frac\": {faults_off_overhead:.4},"
    );
    let before_faults_off = baseline_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|t| {
            t.lines()
                .find_map(|l| field_f64(l, "faults_off_overhead_frac"))
        });
    if let Some(before) = before_faults_off {
        let _ = writeln!(json, "  \"faults_off_overhead_frac_before\": {before:.4},");
    }
    // Serving-off budget: same protocol, design bound <3% wall.
    let _ = writeln!(
        json,
        "  \"serving_overhead_frac\": {serving_off_overhead:.4},"
    );
    let before_serving_off = baseline_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|t| {
            t.lines()
                .find_map(|l| field_f64(l, "serving_overhead_frac"))
        });
    if let Some(before) = before_serving_off {
        let _ = writeln!(json, "  \"serving_overhead_frac_before\": {before:.4},");
    }
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"wall_s\": {:.6}, \"per_sec\": {:.1}}}",
            e.name, e.n, e.wall_s, e.per_sec
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
    if !pairs.is_empty() {
        json.push_str(",\n  \"baseline\": [\n");
        for (i, (name, before, after)) in pairs.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"name\": \"{}\", \"before_wall_s\": {:.6}, \"after_wall_s\": {:.6}, \"speedup\": {:.3}}}",
                name, before, after, before / after.max(1e-12)
            );
            json.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]");
    }
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
