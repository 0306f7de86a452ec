//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Spans live in memory during the traced run and are written as JSONL at
//! the end, so recording costs two clock reads and a push. A layer's self
//! time is its span time minus the part its child spans cover. Untraced
//! runs use a tracer that is off: it times the call and records nothing.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    id: u32,
    parent: Option<u32>,
    /// Which rep (or standalone probe) the span belongs to.
    rep: u32,
    name: &'static str,
    start_s: f64,
    end_s: f64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            t0: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start attributing new spans to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span, and return its result with the span's length in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.on {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        let start_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            rep: self.rep,
            name,
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_s = self.t0.elapsed().as_secs_f64();
        self.spans[id as usize].end_s = end_s;
        (out, end_s - start_s)
    }

    /// Total and self seconds per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.secs();
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut acc: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = acc.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                (0.0, 0.0)
            });
            e.0 += s.secs();
            e.1 += s.secs() - child[s.id as usize];
        }
        order.into_iter().map(|n| (n, acc[n].0, acc[n].1)).collect()
    }

    /// One JSON object per span, in start order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"rep\":{},\"name\":{},\"start_s\":{},\"end_s\":{}}}",
                s.id,
                s.rep,
                quote(s.name),
                s.start_s,
                s.end_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.self_times();
        assert_eq!(times[0].0, "outer");
        let (_, total, own) = times[0];
        assert!(total >= 0.005 && own < total, "{total} {own}");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.jsonl().lines().count(), 2);
    }
}
