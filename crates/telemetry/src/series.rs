//! Ring-buffered time-series rows: what the periodic sampler snapshots at
//! every tick.

use crate::json::{key, kv_f64, kv_u64};
use crate::{BACKENDS, BACKEND_NAMES, STATES, STATE_NAMES};
use rp_sim::SimTime;

/// The instantaneous gauges the caller reads for the sampler at each
/// tick. The agent builds this from the gauge snapshot it takes at the
/// sample boundary; the rt plane builds it from the pilot's atomics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleInput {
    /// Agent-side queue depth (staging + scheduling + adapter + submit
    /// queues — same definition as the `rp_agent_queue_depth` gauge).
    pub queue_depth: f64,
    /// Concurrent srun launches in flight.
    pub srun_inflight: f64,
    /// Cores busy across all partitions.
    pub busy_cores: f64,
    /// GPUs (GCDs) busy across all partitions.
    pub busy_gpus: f64,
    /// Total core capacity (denominator for utilization).
    pub capacity_cores: f64,
    /// Backend-local queued counts, indexed by [`BACKEND_NAMES`].
    pub backend_queues: [f64; BACKENDS],
    /// Exact backend queue high-waters (backends track these at every
    /// enqueue, so spikes between samples are never missed), indexed by
    /// [`BACKEND_NAMES`]. Monotone; the collector keeps the running max.
    pub backend_queue_peaks: [f64; BACKENDS],
}

/// One time-series row. Timestamps are virtual time on the sim plane, so
/// rows are deterministic per seed.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Tick timestamp.
    pub t: SimTime,
    /// Agent queue depth at the tick.
    pub queue_depth: f64,
    /// Concurrent srun launches at the tick.
    pub srun_inflight: f64,
    /// Busy cores at the tick.
    pub busy_cores: f64,
    /// Busy GPUs at the tick.
    pub busy_gpus: f64,
    /// `busy_cores / capacity_cores`, clamped to `[0, 1]`.
    pub util: f64,
    /// Backend-local queued counts, indexed by [`BACKEND_NAMES`].
    pub backend_queues: [f64; BACKENDS],
    /// Live task-state populations, indexed by [`STATE_NAMES`] (terminal
    /// states drain to the lifecycle counters and read 0 here, except
    /// FAILED which holds tasks awaiting a retry decision).
    pub populations: [u32; STATES],
    /// Cumulative completed tasks at the tick.
    pub completed: u64,
    /// Completions per second over the tick's period.
    pub throughput: f64,
    /// Running p99 time-to-launch (seconds) at the tick.
    pub ttl_p99: f64,
    /// Running p99 time-to-completion (seconds) at the tick.
    pub ttc_p99: f64,
}

impl Sample {
    /// Append this row as one JSONL line (fixed key order, `{:.6}` floats).
    pub fn write_jsonl(&self, out: &mut String) {
        let mut first = true;
        out.push('{');
        kv_f64(out, &mut first, "t", self.t.as_secs_f64());
        kv_f64(out, &mut first, "queue_depth", self.queue_depth);
        kv_f64(out, &mut first, "srun_inflight", self.srun_inflight);
        kv_f64(out, &mut first, "busy_cores", self.busy_cores);
        kv_f64(out, &mut first, "busy_gpus", self.busy_gpus);
        kv_f64(out, &mut first, "util", self.util);
        kv_f64(out, &mut first, "throughput", self.throughput);
        kv_u64(out, &mut first, "completed", self.completed);
        kv_f64(out, &mut first, "ttl_p99", self.ttl_p99);
        kv_f64(out, &mut first, "ttc_p99", self.ttc_p99);
        key(out, &mut first, "queues");
        out.push('{');
        let mut qfirst = true;
        for (name, q) in BACKEND_NAMES.iter().zip(self.backend_queues) {
            kv_f64(out, &mut qfirst, name, q);
        }
        out.push('}');
        key(out, &mut first, "states");
        out.push('{');
        let mut sfirst = true;
        for (name, n) in STATE_NAMES.iter().zip(self.populations) {
            kv_u64(out, &mut sfirst, name, u64::from(n));
        }
        out.push_str("}}\n");
    }
}
