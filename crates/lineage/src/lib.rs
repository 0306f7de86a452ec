//! `rp-lineage` — per-task causal lineage on the simulation clock.
//!
//! The metrics registry aggregates distributions and the telemetry sampler
//! streams populations and alarms; this crate records *why*: for each task,
//! the full causal chain from submission to terminal state — router
//! decision, scheduler dwell, every placement attempt (including rejects
//! and the reason), backend handoff, launch-latency wait, execution, and
//! collection — as compact events stamped on the sim clock. It is also the
//! run's one state-timestamp stream: `rp-core` renders the runtime profile
//! (RP-style CSV and Chrome trace) from it and folds the per-task metric
//! families (state dwell, lifecycle and routing counters, backend queue,
//! launch and execution figures) out of it after the run.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Recording draws no randomness and schedules no
//!    events; the recorder only reads the shared [`SimClock`] and appends
//!    to a `Vec`. A run with lineage attached is therefore byte-identical
//!    (in every *other* report artifact) to the same run without it, and
//!    the JSONL export itself is byte-deterministic: timestamps are printed
//!    from integer microseconds, never through float formatting.
//! 2. **Tiering.** The recorder is an `Option` at every instrumentation
//!    site: detached runs pay one predicted-not-taken branch per site and
//!    allocate nothing. When attached, *all* tasks are recorded — tail
//!    exemplars are only known to be interesting after the fact, so the
//!    p999 victim's chain must already be on file.
//! 3. **Compactness.** One event is a fixed 32-byte record; names are
//!    interned as `u8`/`u16` codes against static tables and only expanded
//!    at export time.
//!
//! The blame decomposition built on these events lives in
//! `rp-analytics::blame`; the CLI that narrates a single task is the
//! `rp-explain` binary in `rp-bench`.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use rp_sim::{SimClock, SimTime};

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

/// Task accepted by the agent; input staging begins.
pub const EV_SUBMIT: u8 = 0;
/// Input staging finished; task enters the scheduler queue.
pub const EV_STAGE_DONE: u8 = 1;
/// Router decision (annotation): which backend/partition and why.
pub const EV_ROUTE: u8 = 2;
/// Scheduler released the task to the adapter (enters `Submitting`).
pub const EV_SCHED_DONE: u8 = 3;
/// Backend accepted the task (enters `Submitted`).
pub const EV_HANDOFF: u8 = 4;
/// Task enqueued inside the backend (annotation; `value` = queue position).
pub const EV_BACKEND_QUEUE: u8 = 5;
/// A placement attempt failed (annotation; `detail` = reject reason).
pub const EV_PLACE_REJECT: u8 = 6;
/// Placement granted: cores/GPUs allocated.
pub const EV_PLACE_OK: u8 = 7;
/// Launch machinery engaged: srun slot acquired, Flux start-server pop,
/// Dragon dispatch, or PRRTE HNP pop.
pub const EV_LAUNCH_START: u8 = 8;
/// Payload started executing (enters `Executing`).
pub const EV_EXEC: u8 = 9;
/// Launcher completion observed by the agent; output collection begins.
pub const EV_TERM_SEEN: u8 = 10;
/// Terminal: task completed.
pub const EV_DONE: u8 = 11;
/// Task failed (may be retried).
pub const EV_FAILED: u8 = 12;
/// Failed task re-entered staging for a retry attempt.
pub const EV_RETRY: u8 = 13;
/// Terminal: task canceled.
pub const EV_CANCELED: u8 = 14;
/// Pilot lifecycle transition (meta event; `detail` = pilot state).
pub const EV_PILOT: u8 = 15;
/// Run finished (meta event; `value` = engine messages delivered).
pub const EV_RUN_END: u8 = 16;
/// Broker ingest hop finished; the job joined the scheduler queue
/// (annotation; `value` = scheduler queue depth).
pub const EV_BROKER_HOP: u8 = 17;
/// A fault killed/failed this task (milestone; `detail` = fault kind,
/// `value` = victim node index for node failures). Recorded immediately
/// after the fault-induced `EV_FAILED`, so the gap from here to the next
/// milestone (`EV_RETRY`, including any recovery backoff) is attributed to
/// the `recovery_overhead` blame phase.
pub const EV_FAULT: u8 = 18;

/// Export names for each event kind, indexed by the `EV_*` code.
pub const EVENT_NAMES: [&str; 19] = [
    "submit",
    "stage_done",
    "route",
    "sched_done",
    "handoff",
    "backend_queue",
    "place_reject",
    "place_ok",
    "launch_start",
    "exec",
    "term_seen",
    "done",
    "failed",
    "retry",
    "canceled",
    "pilot",
    "run_end",
    "broker_hop",
    "fault",
];

/// Route detail: the type-aware policy matched the task to a backend.
pub const ROUTE_TYPE_AWARE: u16 = 0;
/// Route detail: the least-loaded policy picked the emptiest partition.
pub const ROUTE_LEAST_LOADED: u16 = 1;
/// Route detail: the routed backend could not take the task; a failover
/// candidate was substituted.
pub const ROUTE_FAILOVER: u16 = 2;

/// Reject detail: not enough free cores for the queue head.
pub const REJ_INSUFFICIENT_CORES: u16 = 0;
/// Reject detail: not enough free GPUs for the queue head.
pub const REJ_INSUFFICIENT_GPUS: u16 = 1;
/// Reject detail: aggregate capacity exists but no node-local placement fits.
pub const REJ_FRAGMENTATION: u16 = 2;
/// Reject detail: all backend workers busy (Dragon dispatcher backpressure).
pub const REJ_WORKERS_BUSY: u16 = 3;
/// Reject detail: backend concurrency cap reached (srun slot window).
pub const REJ_CAPACITY: u16 = 4;

/// Fault detail: a node failed, killing resident tasks.
pub const FAULT_NODE: u16 = 0;
/// Fault detail: the backend instance crashed.
pub const FAULT_CRASH: u16 = 1;
/// Fault detail: the task hung at launch; the watchdog reclaimed it.
pub const FAULT_HANG: u16 = 2;

/// Pilot detail codes follow `PilotState` declaration order in `rp-core`.
pub const PILOT_STATE_NAMES: [&str; 7] = [
    "new",
    "launching",
    "bootstrapping",
    "active",
    "done",
    "failed",
    "canceled",
];

/// Backend names, indexed by `BackendKind as usize` in `rp-core`.
pub const BACKEND_NAMES: [&str; 4] = ["srun", "flux", "dragon", "prrte"];

/// Sentinel `uid` for meta events (pilot lifecycle, run end).
pub const META_UID: u64 = u64::MAX;
/// Sentinel for "no backend context" on an event.
pub const NO_BACKEND: u8 = u8::MAX;
/// Sentinel for "no partition context" on an event.
pub const NO_PARTITION: u32 = u32::MAX;
/// Sentinel for "no detail" on an event.
pub const NO_DETAIL: u16 = u16::MAX;
/// Sentinel for "no value" on an event.
pub const NO_VALUE: u64 = u64::MAX;

fn route_name(detail: u16) -> Option<&'static str> {
    ["type_aware", "least_loaded", "failover"]
        .get(detail as usize)
        .copied()
}

fn fault_name(detail: u16) -> Option<&'static str> {
    ["node_failure", "backend_crash", "task_hang"]
        .get(detail as usize)
        .copied()
}

fn reject_name(detail: u16) -> Option<&'static str> {
    [
        "insufficient_cores",
        "insufficient_gpus",
        "fragmentation",
        "workers_busy",
        "capacity",
    ]
    .get(detail as usize)
    .copied()
}

/// Human name for an event's `detail` code, interpreted per event kind.
/// Returns `None` for `NO_DETAIL` or out-of-vocabulary codes.
pub fn detail_name(kind: u8, detail: u16) -> Option<&'static str> {
    if detail == NO_DETAIL {
        return None;
    }
    match kind {
        EV_ROUTE => route_name(detail),
        EV_PLACE_REJECT => reject_name(detail),
        EV_FAULT => fault_name(detail),
        EV_PILOT => PILOT_STATE_NAMES.get(detail as usize).copied(),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Events and the recorder handle
// ---------------------------------------------------------------------------

/// One causal event: 32 bytes, append-only, stamped on the sim clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event happened on the simulation clock.
    pub t: SimTime,
    /// Task uid, or [`META_UID`] for pilot/run meta events.
    pub uid: u64,
    /// Event kind (`EV_*`).
    pub kind: u8,
    /// Kind-specific detail code (`ROUTE_*`, `REJ_*`, pilot state), or
    /// [`NO_DETAIL`].
    pub detail: u16,
    /// Backend kind (`BackendKind as u8`), or [`NO_BACKEND`].
    pub backend: u8,
    /// Partition index within the backend, or [`NO_PARTITION`].
    pub partition: u32,
    /// Kind-specific magnitude (queue position, messages delivered), or
    /// [`NO_VALUE`].
    pub value: u64,
}

/// Chain-link sentinel: no successor / empty chain.
const CHAIN_NONE: u32 = u32::MAX;
/// Task uids below this use the dense per-uid chain table (a flat vector
/// grown on demand); anything above spills into a `BTreeMap`. Every
/// workload in the repo — serving plans included — keys tasks well below
/// this bound, so the sparse side is a safety net, not a hot path.
const DENSE_UIDS: u64 = 1 << 22;

/// Arena-backed event store: events append into one flat arena and link
/// into per-uid chains as they arrive, so the uid-grouped snapshot is a
/// linear chain walk instead of a clone + stable sort of the whole stream.
/// The sort used to dominate the lineage-attached wall time on the
/// paper-scale null cell (~2.3 M 32-byte events re-sorted at snapshot);
/// the chain walk is O(n) with sequential writes.
#[derive(Default)]
struct Store {
    /// Event arena, in append (= chronological) order, meta events
    /// included.
    events: Vec<Event>,
    /// Parallel chain links: `next[i]` is the arena index of the next
    /// event with the same uid, or [`CHAIN_NONE`].
    next: Vec<u32>,
    /// `(head, tail)` arena indices per uid `< DENSE_UIDS`, grown on
    /// demand; `(CHAIN_NONE, CHAIN_NONE)` marks an unused slot.
    dense: Vec<(u32, u32)>,
    /// Chain heads for uids `>= DENSE_UIDS` (sorted iteration keeps the
    /// snapshot order identical to the old stable sort).
    sparse: BTreeMap<u64, (u32, u32)>,
    /// Arena indices of the [`META_UID`] events, in append order (always
    /// exported last).
    meta: Vec<u32>,
}

impl Store {
    fn push(&mut self, ev: Event) {
        let idx = self.events.len();
        assert!(idx < CHAIN_NONE as usize, "lineage arena overflow");
        let idx = idx as u32;
        self.events.push(ev);
        self.next.push(CHAIN_NONE);
        if ev.uid == META_UID {
            self.meta.push(idx);
            return;
        }
        let chain = if ev.uid < DENSE_UIDS {
            let slot = ev.uid as usize;
            if slot >= self.dense.len() {
                self.dense.resize(slot + 1, (CHAIN_NONE, CHAIN_NONE));
            }
            &mut self.dense[slot]
        } else {
            self.sparse
                .entry(ev.uid)
                .or_insert((CHAIN_NONE, CHAIN_NONE))
        };
        if chain.0 == CHAIN_NONE {
            *chain = (idx, idx);
        } else {
            self.next[chain.1 as usize] = idx;
            chain.1 = idx;
        }
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    /// Walk every chain in uid order (dense ascending, then sparse
    /// ascending, then meta): byte-identical to a stable sort by uid of
    /// the append stream, because each chain preserves append order and
    /// dense uids < [`DENSE_UIDS`] <= sparse uids < [`META_UID`].
    fn collect_sorted(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len());
        let mut walk = |head: u32| {
            let mut i = head;
            while i != CHAIN_NONE {
                out.push(self.events[i as usize]);
                i = self.next[i as usize];
            }
        };
        for &(head, _) in &self.dense {
            walk(head);
        }
        for &(head, _) in self.sparse.values() {
            walk(head);
        }
        out.extend(self.meta.iter().map(|&i| self.events[i as usize]));
        out
    }
}

/// The shared lineage recorder.
///
/// Cheap to clone (an `Rc` and a clock handle); the agent, the session,
/// and every backend instance hold clones of one recorder. Recording is a clock read and
/// an arena append + chain link behind a `RefCell` — no hashing, no
/// allocation beyond amortized growth, no event scheduling.
#[derive(Clone)]
pub struct Lineage {
    clock: SimClock,
    store: Rc<RefCell<Store>>,
}

impl std::fmt::Debug for Lineage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lineage")
            .field("events", &self.store.borrow().len())
            .finish()
    }
}

impl Lineage {
    /// New recorder reading timestamps from `clock`.
    pub fn new(clock: SimClock) -> Self {
        Lineage {
            clock,
            store: Rc::new(RefCell::new(Store::default())),
        }
    }

    /// Record a bare event for `uid` at the current sim time.
    #[inline]
    pub fn record(&self, uid: u64, kind: u8) {
        self.push(Event {
            t: self.clock.now(),
            uid,
            kind,
            detail: NO_DETAIL,
            backend: NO_BACKEND,
            partition: NO_PARTITION,
            value: NO_VALUE,
        });
    }

    /// Record an event with full context at the current sim time. Pass the
    /// `NO_*` sentinels for fields that do not apply.
    #[inline]
    pub fn record_ctx(
        &self,
        uid: u64,
        kind: u8,
        detail: u16,
        backend: u8,
        partition: u32,
        value: u64,
    ) {
        self.push(Event {
            t: self.clock.now(),
            uid,
            kind,
            detail,
            backend,
            partition,
            value,
        });
    }

    #[inline]
    fn push(&self, ev: Event) {
        self.store.borrow_mut().push(ev);
    }

    /// Events recorded so far.
    pub fn event_count(&self) -> usize {
        self.store.borrow().len()
    }

    /// Visit every recorded event, meta events included, in append order:
    /// chronological, since the sim clock never runs backwards. This is
    /// the order the runtime profile is rendered in.
    pub fn for_each_in_time_order(&self, f: impl FnMut(&Event)) {
        self.store.borrow().events.iter().for_each(f);
    }

    /// Snapshot the recorded chain, grouped per task.
    ///
    /// Events come out sorted by uid (meta events last) with each task's
    /// events in causal append order — the per-uid chains preserve it, and
    /// the sim clock never runs backwards, so append order *is*
    /// chronological order per task. The walk is byte-identical to the
    /// stable uid sort this store replaced.
    pub fn snapshot(&self) -> LineageData {
        LineageData {
            events: self.store.borrow().collect_sorted(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot + export
// ---------------------------------------------------------------------------

/// An immutable lineage snapshot: all events, sorted by uid (stable, so
/// per-task chronological order is preserved), meta events last.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineageData {
    /// All recorded events, sorted by `(uid, causal order)`.
    pub events: Vec<Event>,
}

impl LineageData {
    /// The events for one task, in causal order (empty if unknown).
    pub fn events_for(&self, uid: u64) -> &[Event] {
        let start = self.events.partition_point(|e| e.uid < uid);
        let end = self.events.partition_point(|e| e.uid <= uid);
        &self.events[start..end]
    }

    /// Distinct task uids present (meta events excluded), ascending.
    pub fn uids(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.events {
            if e.uid == META_UID {
                continue;
            }
            if out.last() != Some(&e.uid) {
                out.push(e.uid);
            }
        }
        out
    }

    /// Number of distinct tasks recorded.
    pub fn task_count(&self) -> usize {
        self.uids().len()
    }

    /// Byte-deterministic JSONL export: one event per line, sorted by uid
    /// with meta events last. Timestamps are printed as exact integer
    /// microseconds split into `s.uuuuuu` — no float formatting anywhere,
    /// so the bytes are identical on every platform and at any `--jobs`
    /// count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64 + 64);
        for e in &self.events {
            if e.uid == META_UID {
                out.push_str("{\"scope\":\"run\"");
            } else {
                let _ = write!(out, "{{\"uid\":{}", e.uid);
            }
            let us = e.t.as_micros();
            let _ = write!(out, ",\"t\":{}.{:06}", us / 1_000_000, us % 1_000_000);
            let _ = write!(out, ",\"ev\":\"{}\"", EVENT_NAMES[e.kind as usize]);
            if let Some(d) = detail_name(e.kind, e.detail) {
                let _ = write!(out, ",\"detail\":\"{d}\"");
            }
            if e.backend != NO_BACKEND {
                let name = BACKEND_NAMES
                    .get(e.backend as usize)
                    .copied()
                    .unwrap_or("unknown");
                let _ = write!(out, ",\"backend\":\"{name}\"");
            }
            if e.partition != NO_PARTITION {
                let _ = write!(out, ",\"partition\":{}", e.partition);
            }
            if e.value != NO_VALUE {
                let _ = write!(out, ",\"value\":{}", e.value);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parse a JSONL export back into a snapshot. Accepts exactly the
    /// `to_jsonl` schema; unknown names or malformed lines are errors (the
    /// export is a machine artifact, not a lenient interchange format).
    /// The snapshot invariants are checked too: lines sorted by uid with
    /// meta lines last, and timestamps never going backwards within a uid
    /// — [`LineageData::events_for`] and the blame telescoping rely on
    /// both.
    pub fn from_jsonl(text: &str) -> Result<LineageData, String> {
        let mut events: Vec<Event> = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", ln + 1);
            let ev = parse_line(line).map_err(at)?;
            if let Some(prev) = events.last() {
                if ev.uid < prev.uid {
                    return Err(at("not sorted by uid (meta lines go last)".into()));
                }
                if ev.uid == prev.uid && ev.t < prev.t {
                    return Err(at(format!("time goes backwards for uid {}", ev.uid)));
                }
            }
            events.push(ev);
        }
        Ok(LineageData { events })
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Values are either bare numbers or quoted names with no embedded
    // commas/braces, so scanning for the next `,` or `}` outside a string
    // suffices.
    let mut end = rest.len();
    let mut in_str = false;
    for (i, &b) in rest.as_bytes().iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b',' | b'}' if !in_str => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    Some(rest[..end].trim_matches('"'))
}

/// `S.UUUUUU` — whole seconds and exactly six fraction digits, as
/// `to_jsonl` prints them — into exact microseconds. `None` on any other
/// shape or on overflow.
fn parse_time(raw: &str) -> Option<SimTime> {
    let (secs, micros) = raw.split_once('.')?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !digits(secs) || !digits(micros) || micros.len() != 6 {
        return None;
    }
    let us = secs
        .parse::<u64>()
        .ok()?
        .checked_mul(1_000_000)?
        .checked_add(micros.parse::<u64>().ok()?)?;
    Some(SimTime::from_micros(us))
}

fn parse_line(line: &str) -> Result<Event, String> {
    let uid = match field(line, "uid") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad uid `{v}`"))?,
        None => {
            if field(line, "scope") == Some("run") {
                META_UID
            } else {
                return Err("missing uid".into());
            }
        }
    };
    let t_raw = field(line, "t").ok_or("missing t")?;
    let t = parse_time(t_raw).ok_or_else(|| format!("bad t `{t_raw}`"))?;
    let ev_name = field(line, "ev").ok_or("missing ev")?;
    let kind = EVENT_NAMES
        .iter()
        .position(|&n| n == ev_name)
        .ok_or_else(|| format!("unknown ev `{ev_name}`"))? as u8;
    let detail = match field(line, "detail") {
        Some(name) => (0..u16::MAX)
            .take(16)
            .find(|&code| detail_name(kind, code) == Some(name))
            .ok_or_else(|| format!("unknown detail `{name}`"))?,
        None => NO_DETAIL,
    };
    let backend = match field(line, "backend") {
        Some(name) => BACKEND_NAMES
            .iter()
            .position(|&n| n == name)
            .ok_or_else(|| format!("unknown backend `{name}`"))? as u8,
        None => NO_BACKEND,
    };
    let partition = match field(line, "partition") {
        Some(v) => v
            .parse::<u32>()
            .map_err(|_| format!("bad partition `{v}`"))?,
        None => NO_PARTITION,
    };
    let value = match field(line, "value") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad value `{v}`"))?,
        None => NO_VALUE,
    };
    Ok(Event {
        t,
        uid,
        kind,
        detail,
        backend,
        partition,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::SimDuration;

    #[test]
    fn records_are_stamped_and_grouped_per_uid() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        lin.record(7, EV_SUBMIT);
        clock.set(SimTime::from_micros(1_500_000));
        lin.record(3, EV_SUBMIT);
        lin.record_ctx(7, EV_HANDOFF, NO_DETAIL, 1, 0, NO_VALUE);
        let data = lin.snapshot();
        assert_eq!(data.uids(), vec![3, 7]);
        let seven = data.events_for(7);
        assert_eq!(seven.len(), 2);
        assert_eq!(seven[0].kind, EV_SUBMIT);
        assert_eq!(seven[1].kind, EV_HANDOFF);
        assert_eq!(
            seven[1].t,
            SimTime::ZERO + SimDuration::from_micros(1_500_000)
        );
        assert_eq!(data.events_for(99), &[] as &[Event]);
    }

    #[test]
    fn jsonl_roundtrips_and_is_exact_microseconds() {
        let clock = SimClock::new();
        clock.set(SimTime::from_micros(1_234_567));
        let lin = Lineage::new(clock.clone());
        lin.record_ctx(5, EV_PLACE_REJECT, REJ_FRAGMENTATION, 1, 2, 17);
        clock.set(SimTime::from_micros(2_000_001));
        lin.record_ctx(
            META_UID,
            EV_RUN_END,
            NO_DETAIL,
            NO_BACKEND,
            NO_PARTITION,
            42,
        );
        let data = lin.snapshot();
        let text = data.to_jsonl();
        assert!(text.contains("\"t\":1.234567"));
        assert!(text.contains("\"detail\":\"fragmentation\""));
        assert!(text.contains("\"backend\":\"flux\""));
        assert!(text.contains("{\"scope\":\"run\",\"t\":2.000001,\"ev\":\"run_end\",\"value\":42}"));
        let back = LineageData::from_jsonl(&text).expect("parse");
        assert_eq!(back, data);
    }

    #[test]
    fn snapshot_equals_stable_uid_sort_with_sparse_uids() {
        // The arena store must reproduce the old clone + stable-sort
        // snapshot byte for byte, including uids past the dense chain
        // table and interleaved meta events.
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        let big = DENSE_UIDS + 7;
        let seq: &[(u64, u8)] = &[
            (9, EV_SUBMIT),
            (big, EV_SUBMIT),
            (3, EV_SUBMIT),
            (META_UID, EV_PILOT),
            (9, EV_EXEC),
            (3, EV_EXEC),
            (big, EV_DONE),
            (9, EV_DONE),
            (META_UID, EV_RUN_END),
        ];
        let mut raw = Vec::new();
        for (i, &(uid, kind)) in seq.iter().enumerate() {
            clock.set(SimTime::from_micros(i as u64));
            lin.record(uid, kind);
            raw.push(Event {
                t: SimTime::from_micros(i as u64),
                uid,
                kind,
                detail: NO_DETAIL,
                backend: NO_BACKEND,
                partition: NO_PARTITION,
                value: NO_VALUE,
            });
        }
        let mut expect = raw;
        expect.sort_by_key(|e| e.uid);
        assert_eq!(lin.snapshot().events, expect);
        assert_eq!(lin.event_count(), seq.len());
        assert_eq!(lin.snapshot().uids(), vec![3, 9, big]);
    }

    #[test]
    fn time_order_visit_interleaves_meta_events() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        let seq: &[(u64, u8)] = &[
            (META_UID, EV_PILOT),
            (9, EV_SUBMIT),
            (3, EV_SUBMIT),
            (META_UID, EV_PILOT),
            (3, EV_DONE),
            (META_UID, EV_RUN_END),
        ];
        for (i, &(uid, kind)) in seq.iter().enumerate() {
            clock.set(SimTime::from_micros(i as u64));
            lin.record(uid, kind);
        }
        let mut seen = Vec::new();
        lin.for_each_in_time_order(|e| seen.push((e.uid, e.kind, e.t.as_micros())));
        let expect: Vec<_> = seq
            .iter()
            .enumerate()
            .map(|(i, &(uid, kind))| (uid, kind, i as u64))
            .collect();
        assert_eq!(seen, expect);
        // The snapshot still groups per uid with meta events last.
        let uids: Vec<_> = lin.snapshot().events.iter().map(|e| e.uid).collect();
        assert_eq!(uids, vec![3, 3, 9, META_UID, META_UID, META_UID]);
    }

    #[test]
    fn time_needs_exactly_six_fraction_digits() {
        let line = |t: &str| format!("{{\"uid\":1,\"t\":{t},\"ev\":\"submit\"}}\n");
        let ok = LineageData::from_jsonl(&line("1.500000")).expect("six digits parse");
        assert_eq!(ok.events[0].t, SimTime::from_micros(1_500_000));
        for bad in ["1.5", "1.5000000", "1.", ".500000", "1.+50000", "-1.000000"] {
            let e = LineageData::from_jsonl(&line(bad)).unwrap_err();
            assert!(e.contains("bad t"), "{bad}: {e}");
        }
    }

    #[test]
    fn time_overflow_is_an_error() {
        let text = "{\"uid\":1,\"t\":18446744073709551.000000,\"ev\":\"submit\"}\n";
        let e = LineageData::from_jsonl(text).unwrap_err();
        assert!(e.contains("bad t"), "{e}");
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let text = "{\"uid\":1,\"t\":0.000000,\"ev\":\"handoff\",\"backend\":\"slurmd\"}\n";
        let e = LineageData::from_jsonl(text).unwrap_err();
        assert!(e.contains("unknown backend `slurmd`"), "{e}");
    }

    #[test]
    fn backwards_time_within_a_uid_is_an_error() {
        let text = "{\"uid\":1,\"t\":2.000000,\"ev\":\"submit\"}\n\
                    {\"uid\":1,\"t\":1.000000,\"ev\":\"done\"}\n";
        let e = LineageData::from_jsonl(text).unwrap_err();
        assert!(e.contains("line 2: time goes backwards for uid 1"), "{e}");
        // Different uids may interleave in time.
        let text = "{\"uid\":1,\"t\":2.000000,\"ev\":\"submit\"}\n\
                    {\"uid\":2,\"t\":1.000000,\"ev\":\"submit\"}\n";
        assert!(LineageData::from_jsonl(text).is_ok());
    }

    #[test]
    fn unsorted_uids_and_early_meta_lines_are_errors() {
        let text = "{\"uid\":2,\"t\":0.000000,\"ev\":\"submit\"}\n\
                    {\"uid\":1,\"t\":0.000000,\"ev\":\"submit\"}\n";
        let e = LineageData::from_jsonl(text).unwrap_err();
        assert!(e.contains("line 2: not sorted by uid"), "{e}");
        let text = "{\"scope\":\"run\",\"t\":0.000000,\"ev\":\"pilot\",\"detail\":\"active\"}\n\
                    {\"uid\":1,\"t\":0.000000,\"ev\":\"submit\"}\n";
        let e = LineageData::from_jsonl(text).unwrap_err();
        assert!(e.contains("line 2: not sorted by uid"), "{e}");
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
            "{",
            "}",
            "\"",
            ":",
            ",",
            "\n",
            ".",
            "-",
            "0",
            "9",
            "\"uid\":",
            "\"t\":",
            "flux",
            "1e309",
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
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        lin.record_ctx(META_UID, EV_PILOT, 3, NO_BACKEND, NO_PARTITION, NO_VALUE);
        lin.record(4, EV_SUBMIT);
        clock.set(SimTime::from_micros(1_250_000));
        lin.record_ctx(4, EV_ROUTE, ROUTE_FAILOVER, 1, 2, NO_VALUE);
        lin.record_ctx(4, EV_PLACE_REJECT, REJ_CAPACITY, 0, 0, 17);
        lin.record(12, EV_SUBMIT);
        clock.set(SimTime::from_micros(31_000_007));
        lin.record_ctx(12, EV_FAULT, FAULT_CRASH, 2, 0, NO_VALUE);
        lin.record(4, EV_DONE);
        let seed = lin.snapshot().to_jsonl();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut accepted = 0;
        for _ in 0..4000 {
            let text = mutate(&seed, &mut rng);
            let Ok(parsed) = LineageData::from_jsonl(&text) else {
                continue;
            };
            accepted += 1;
            let again =
                LineageData::from_jsonl(&parsed.to_jsonl()).expect("a parsed snapshot re-parses");
            assert_eq!(parsed, again, "{text:?}");
        }
        // The mutations must leave both accepting and rejecting inputs.
        assert!((1..4000).contains(&accepted), "{accepted} documents parsed");
    }

    #[test]
    fn detail_names_are_kind_scoped() {
        assert_eq!(detail_name(EV_ROUTE, ROUTE_FAILOVER), Some("failover"));
        assert_eq!(
            detail_name(EV_PLACE_REJECT, REJ_WORKERS_BUSY),
            Some("workers_busy")
        );
        assert_eq!(detail_name(EV_PILOT, 3), Some("active"));
        assert_eq!(detail_name(EV_SUBMIT, 0), None);
        assert_eq!(detail_name(EV_ROUTE, NO_DETAIL), None);
    }
}
