//! The threaded plane: the rt burst workload and standalone probes of
//! each rt layer (router, pipe codec, Dragon pool, Flux scheduler,
//! platform channel).

use crate::des::uid_mismatch;
use crate::stats::Spread;
use crate::trace::Tracer;
use rp_core::{
    BackendKind, Router, RtConfig, RtPayload, RtPilot, RtRecord, RtTask, TaskDescription,
};
use rp_dragonrt::{
    decode_call, decode_event, encode_call, encode_event, DragonPool, FunctionCall,
    FunctionRegistry, PipeEvent, PoolError,
};
use rp_fluxrt::rt::FluxRt;
use rp_platform::{NodeSpec, ResourcePool, ResourceRequest};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Flux cores and Dragon workers of the burst's pilot and of the probes.
/// One each keeps the burst's busy threads (submitter, Flux scheduler, job
/// thread, Dragon worker, watcher) near a two-core host's capacity; with
/// two each the burst's throughput and memory spread more from run to run.
const CORES: u16 = 1;

/// Malloc arenas the benchmark process may use. By default glibc adds
/// arenas, up to eight per core, as the burst's short-lived job threads
/// meet on arena locks, and the resident set then creeps up by about 1 MiB
/// per second of bursts as freed memory fragments over them, so
/// `peak_rss_mb` would measure how long the run lasted rather than the
/// burst. Two arenas keep it flat without slowing the burst.
const MALLOC_ARENAS: i32 = 2;

/// Cap glibc's malloc arenas at [`MALLOC_ARENAS`]. Call before any thread
/// starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: glibc declares `int mallopt(int, int)`, which matches this
    // signature; it only sets an allocator parameter and reads no memory.
    unsafe {
        mallopt(M_ARENA_MAX, MALLOC_ARENAS);
    }
}

/// Other allocators keep their own arena policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn cap_malloc_arenas() {}

fn config() -> RtConfig {
    RtConfig {
        flux_cores: CORES,
        dragon_workers: CORES as usize,
        dragon_queue: 1024,
        srun_ceiling: 0,
        srun_overhead: Duration::ZERO,
    }
}

fn registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register("noop", |_| Vec::new());
    reg
}

/// Alternating empty closures and no-op function calls.
fn burst_tasks(n: u64) -> Vec<RtTask> {
    (0..n)
        .map(|uid| RtTask {
            uid,
            cores: 1,
            payload: if uid % 2 == 0 {
                RtPayload::Exec(Box::new(|| {}))
            } else {
                RtPayload::Func {
                    name: "noop".into(),
                    args: Vec::new(),
                }
            },
        })
        .collect()
}

pub struct Burst {
    /// Task generation plus `RtPilot::start`.
    pub setup_s: f64,
    /// First submit to the return of `shutdown()`.
    pub wall_s: f64,
    pub submitted: u64,
    pub completed: u64,
    /// Failed records, rejected submits, and missing or duplicated uids.
    pub bad: u64,
    pub records: Vec<RtRecord>,
}

/// One burst of `n` tasks from a single submitting thread. When `tr` is
/// on, the burst also runs the rt telemetry sampler.
pub fn burst(n: u64, tr: &mut Tracer) -> Burst {
    let (tasks, gen_s) = tr.span("workloads.gen", |_| burst_tasks(n));
    let (pilot, start_s) = tr.span("core.rt.start", |_| RtPilot::start(config(), registry()));
    let telemetry = tr
        .is_on()
        .then(|| pilot.telemetry(Duration::from_millis(10)));
    let started = Instant::now();
    let (rejected, _) = tr.span("core.rt.submit", |_| {
        tasks
            .into_iter()
            .map(|task| pilot.submit(task).is_err() as u64)
            .sum::<u64>()
    });
    if let Some(tel) = telemetry {
        tr.span("telemetry.rt.stop", |_| black_box(tel.stop()));
    }
    let (records, _) = tr.span("core.rt.shutdown", |_| pilot.shutdown());
    let wall_s = started.elapsed().as_secs_f64();
    let setup_s = gen_s + start_s;
    let mut uids: Vec<u64> = records.iter().map(|r| r.uid.0).collect();
    uids.sort_unstable();
    let wrong_uids = uid_mismatch(&(0..n).collect::<Vec<_>>(), &uids);
    let failed = records.iter().filter(|r| r.failed).count() as u64;
    Burst {
        setup_s,
        wall_s,
        submitted: n,
        completed: records.len() as u64,
        bad: failed + rejected + wrong_uids,
        records,
    }
}

/// Median and p99 of submit → start over the burst's records.
pub fn time_to_launch(records: &[RtRecord]) -> (f64, f64) {
    let mut ttl: Vec<f64> = records
        .iter()
        .map(|r| r.started.saturating_sub(r.submitted).as_secs_f64())
        .collect();
    ttl.sort_by(f64::total_cmp);
    if ttl.is_empty() {
        return (0.0, 0.0);
    }
    let at = |q: f64| ttl[((ttl.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.99))
}

/// Standalone rt-layer probes, each the median of three runs of `n`
/// operations.
pub fn probes(n: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let med = |f: &mut dyn FnMut() -> f64| Spread::of(&[f(), f(), f()]).median;
    let mut out = Vec::new();

    let descs: Vec<TaskDescription> = crate::des::twin_tasks(n);
    let router = Router::new(vec![BackendKind::Flux, BackendKind::Dragon]);
    let (v, _) = tracer.span("core.router.route", |_| {
        med(&mut || {
            let t = Instant::now();
            for d in &descs {
                black_box(router.route(black_box(d)).expect("both backends deployed"));
            }
            t.elapsed().as_secs_f64() * 1e9 / n as f64
        })
    });
    out.push(("core.router.route_ns", v));

    let (v, _) = tracer.span("dragonrt.pipe.codec", |_| {
        med(&mut || {
            let t = Instant::now();
            for id in 0..n {
                let call = FunctionCall {
                    id,
                    name: "noop".into(),
                    args: vec![7; 16],
                };
                let back = decode_call(&encode_call(black_box(&call))).expect("frame decodes");
                let ev = PipeEvent::Completed {
                    id: back.id,
                    result: back.args,
                };
                black_box(decode_event(&encode_event(&ev)).expect("event decodes"));
            }
            t.elapsed().as_secs_f64() * 1e9 / n as f64
        })
    });
    out.push(("dragonrt.pipe.codec_ns", v));

    let (v, _) = tracer.span("dragonrt.pool", |_| {
        med(&mut || {
            let pool = DragonPool::start(CORES as usize, 1024, registry());
            let t = Instant::now();
            for id in 0..n {
                let call = FunctionCall {
                    id,
                    name: "noop".into(),
                    args: Vec::new(),
                };
                while let Err(PoolError::QueueFull) = pool.submit(&call) {
                    std::thread::yield_now();
                }
            }
            let mut done = 0;
            while done < n {
                let frame = pool.events().recv().expect("workers alive");
                let ev = decode_event(&frame).expect("event decodes");
                done += matches!(ev, PipeEvent::Completed { .. }) as u64;
            }
            let rate = n as f64 / t.elapsed().as_secs_f64();
            pool.shutdown();
            rate
        })
    });
    out.push(("dragonrt.pool.tasks_per_s", v));

    let (v, _) = tracer.span("fluxrt.rt", |_| {
        med(&mut || {
            let spec = NodeSpec {
                cores: CORES,
                gpus: 0,
                mem_gb: 64,
            };
            let flux = FluxRt::start(ResourcePool::over_range(spec, 0, 1));
            let t = Instant::now();
            for id in 0..n {
                flux.submit(id, ResourceRequest::single(1, 0), || {})
                    .expect("single core fits");
            }
            flux.wait_idle();
            let rate = n as f64 / t.elapsed().as_secs_f64();
            assert_eq!(flux.completed(), n, "every closure ran");
            flux.shutdown();
            rate
        })
    });
    out.push(("fluxrt.rt.tasks_per_s", v));

    let (v, _) = tracer.span("platform.sync", |_| {
        med(&mut || {
            let msgs = n * 10;
            let (tx, rx) = rp_platform::sync::mpmc_channel::<u64>();
            let t = Instant::now();
            let producer = std::thread::spawn(move || {
                for i in 0..msgs {
                    tx.send(i);
                }
            });
            let mut sum = 0u64;
            for _ in 0..msgs {
                sum = sum.wrapping_add(rx.recv().expect("producer alive"));
            }
            producer.join().expect("producer thread");
            black_box(sum);
            msgs as f64 / t.elapsed().as_secs_f64()
        })
    });
    out.push(("platform.sync.msgs_per_s", v));
    out
}
