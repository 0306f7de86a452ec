//! `rp-profiler` — the runtime profile format of the reproduction.
//!
//! RADICAL-Pilot writes per-component `.prof` files: one state-timestamp
//! event per line, mined post-hoc by RADICAL-Analytics to produce every
//! figure in the source paper (throughput, utilization, OVH decomposition).
//! This crate holds the analog for the simulated stack: [`ProfileData`], a
//! name table plus a time-ordered stream of instants and gauge samples,
//! and its two exporters. It records nothing itself: `rp-core` fills it
//! from the lineage stream (every task-state transition and backend
//! annotation) and from a periodic utilization-gauge sampler on the sim
//! clock, so the profile is complete however long the run.
//!
//! The CSV ([`ProfileData::csv`]) mirrors RP's profile schema; the Chrome
//! `trace_event` JSON ([`ProfileData::chrome_trace`]) opens directly in
//! Perfetto with one track per component.

#![warn(missing_docs)]

use rp_sim::SimTime;
use std::fmt::Write as _;

/// Sentinel uid for events not tied to a task/entity.
pub const NO_UID: u64 = u64::MAX;

/// An interned name (component, state, or gauge). `Sym`s are only
/// meaningful relative to the [`ProfileData`] that interned them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw interner index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What shape of event a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A point event: a state transition or a one-shot occurrence.
    Instant,
    /// A sampled gauge value (`detail` carries the sample).
    Gauge,
}

impl Phase {
    /// One-letter code used in the profile CSV.
    pub fn code(self) -> char {
        match self {
            Phase::Instant => 'I',
            Phase::Gauge => 'G',
        }
    }

    /// Parse the one-letter CSV code.
    pub fn from_code(c: char) -> Option<Phase> {
        match c {
            'I' => Some(Phase::Instant),
            'G' => Some(Phase::Gauge),
            _ => None,
        }
    }
}

/// One profile row: the RP profile tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual timestamp.
    pub at: SimTime,
    /// Emitting component (interned).
    pub comp: Sym,
    /// Entity (task/job/step) uid, or [`NO_UID`].
    pub uid: u64,
    /// State or event name (interned); gauge name for [`Phase::Gauge`].
    pub what: Sym,
    /// Event shape.
    pub phase: Phase,
    /// Free numeric payload: gauge value, the lineage event's value, or 0.
    pub detail: f64,
}

/// A self-contained profile: the name table plus the event stream in time
/// order.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// Interned names; index by [`Sym::index`].
    pub names: Vec<String>,
    /// Events in time order.
    pub events: Vec<Event>,
    /// Events lost before export. Always 0: the stream is complete.
    pub dropped: u64,
}

impl ProfileData {
    /// Intern `name`, returning its symbol. Names are few (tracks, state
    /// and event names) and interned once per run, so a scan suffices.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Sym(i as u32);
        }
        self.names.push(name.to_string());
        Sym(self.names.len() as u32 - 1)
    }

    /// Resolve an interned symbol.
    pub fn name(&self, s: Sym) -> &str {
        self.names
            .get(s.index())
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// The RP-style profile CSV: `time,kind,comp,uid,event,detail`, one
    /// event per line, time in seconds at microsecond precision. The uid
    /// column is empty for [`NO_UID`] events.
    pub fn csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.events.len() + 1));
        out.push_str("time,kind,comp,uid,event,detail\n");
        for ev in &self.events {
            let _ = write!(
                out,
                "{:.6},{},{},",
                ev.at.as_secs_f64(),
                ev.phase.code(),
                self.name(ev.comp),
            );
            if ev.uid != NO_UID {
                let _ = write!(out, "{}", ev.uid);
            }
            let _ = writeln!(out, ",{},{:.6}", self.name(ev.what), ev.detail);
        }
        out
    }

    /// A Chrome `trace_event` JSON document (the "JSON array format"),
    /// viewable in Perfetto / `chrome://tracing`. One track (`tid`) per
    /// component; instants map to `ph:"i"`, gauges to counter events
    /// `ph:"C"`. One event per line, so tests (and `grep`) can process it
    /// without a JSON parser.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 * (self.events.len() + self.names.len()) + 2);
        out.push_str("[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        // Name each track after its component.
        for (tid, name) in self.names.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{},"args":{{"name":"{}"}}}}"#,
                tid,
                json_escape(name)
            );
        }
        for ev in &self.events {
            sep(&mut out);
            let ts = ev.at.as_micros();
            let tid = ev.comp.index();
            let name = json_escape(self.name(ev.what));
            match ev.phase {
                Phase::Instant => {
                    let _ = write!(
                        out,
                        r#"{{"name":"{}","ph":"i","ts":{},"pid":1,"tid":{},"s":"t","args":{{"uid":{},"detail":{}}}}}"#,
                        name,
                        ts,
                        tid,
                        json_uid(ev.uid),
                        json_f64(ev.detail)
                    );
                }
                Phase::Gauge => {
                    let _ = write!(
                        out,
                        r#"{{"name":"{}","ph":"C","ts":{},"pid":1,"tid":{},"args":{{"value":{}}}}}"#,
                        name,
                        ts,
                        tid,
                        json_f64(ev.detail)
                    );
                }
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Count events matching a `(component, event-name, phase)` filter —
    /// the building block for "observed transitions == reported
    /// transitions" assertions.
    pub fn count(&self, comp: Option<&str>, what: Option<&str>, phase: Option<Phase>) -> usize {
        self.events
            .iter()
            .filter(|ev| {
                comp.is_none_or(|c| self.name(ev.comp) == c)
                    && what.is_none_or(|w| self.name(ev.what) == w)
                    && phase.is_none_or(|p| ev.phase == p)
            })
            .count()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_uid(uid: u64) -> String {
    if uid == NO_UID {
        "null".to_string()
    } else {
        uid.to_string()
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(data: &mut ProfileData, at: SimTime, comp: &str, uid: u64, what: &str) {
        let (comp, what) = (data.intern(comp), data.intern(what));
        data.events.push(Event {
            at,
            comp,
            uid,
            what,
            phase: Phase::Instant,
            detail: 0.0,
        });
    }

    fn gauge(data: &mut ProfileData, at: SimTime, comp: &str, what: &str, value: f64) {
        let (comp, what) = (data.intern(comp), data.intern(what));
        data.events.push(Event {
            at,
            comp,
            uid: NO_UID,
            what,
            phase: Phase::Gauge,
            detail: value,
        });
    }

    #[test]
    fn interning_is_idempotent() {
        let mut p = ProfileData::default();
        let a = p.intern("fluxrt");
        let b = p.intern("fluxrt");
        assert_eq!(a, b);
        assert_ne!(a, p.intern("dragonrt"));
        assert_eq!(p.name(a), "fluxrt");
        assert_eq!(p.names.len(), 2);
    }

    #[test]
    fn phase_codes_roundtrip() {
        for ph in [Phase::Instant, Phase::Gauge] {
            assert_eq!(Phase::from_code(ph.code()), Some(ph));
        }
        for c in ['B', 'E', 'X'] {
            assert_eq!(Phase::from_code(c), None);
        }
    }

    #[test]
    fn csv_schema_and_uid_sentinel() {
        let mut p = ProfileData::default();
        let t = SimTime::from_micros(1_500_000);
        instant(&mut p, t, "agent", 7, "QUEUE_DEPTH");
        gauge(&mut p, t, "agent", "QUEUE_DEPTH", 12.5);
        let csv = p.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,kind,comp,uid,event,detail");
        assert_eq!(lines[1], "1.500000,I,agent,7,QUEUE_DEPTH,0.000000");
        assert_eq!(lines[2], "1.500000,G,agent,,QUEUE_DEPTH,12.500000");
        assert!(ProfileData::default().csv().starts_with("time,"));
    }

    #[test]
    fn chrome_trace_is_structurally_sound() {
        let mut p = ProfileData::default();
        instant(&mut p, SimTime::from_secs(1), "flux.0", 3, "place_ok");
        gauge(&mut p, SimTime::from_secs(2), "flux.0", "busy_cores", 56.0);
        let json = p.chrome_trace();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(!json.contains(r#""ph":"B""#));
        // One `thread_name` metadata row per interned name.
        assert_eq!(
            json.matches(r#""name":"thread_name""#).count(),
            p.names.len()
        );
        // One event object per line between the brackets.
        for line in json.lines().filter(|l| l.starts_with('{')) {
            let l = line.trim_end_matches(',');
            assert!(l.ends_with('}'), "line is a full object: {l}");
        }
    }

    #[test]
    fn count_filters_events() {
        let mut p = ProfileData::default();
        let t = SimTime::ZERO;
        instant(&mut p, t, "agent", 1, "EXECUTING");
        instant(&mut p, t, "agent", 2, "EXECUTING");
        instant(&mut p, t, "fluxrt", 2, "DONE");
        assert_eq!(p.count(Some("agent"), None, None), 2);
        assert_eq!(p.count(None, Some("EXECUTING"), None), 2);
        assert_eq!(
            p.count(Some("fluxrt"), Some("DONE"), Some(Phase::Instant)),
            1
        );
        assert_eq!(p.count(Some("fluxrt"), Some("EXECUTING"), None), 0);
    }
}
