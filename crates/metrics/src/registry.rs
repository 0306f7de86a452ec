//! The metrics registry and its cheap-clone instrument handles.
//!
//! One [`Registry`] per run. The agent observes its pipeline-server costs
//! and gauges into it as they happen, and `rp-core` folds the per-task
//! families out of the lineage stream into it at the end of the run. A
//! disabled registry is a `None` inside, so each instrument call costs one
//! branch when metrics are off, and instruments are registered once at
//! attach time — the hot path only bumps an `Rc<Cell<_>>` or records into
//! a histogram.
//!
//! Registration deduplicates on `(name, labels)` and returns the
//! *existing* handle, so independent components asking for one identity
//! record into the same instrument.

use crate::hist::HistData;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Identity and documentation of one registered instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricMeta {
    /// Metric family name, e.g. `rp_backend_launch_seconds`.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// One-line help string for the OpenMetrics `# HELP` line.
    pub help: String,
}

impl MetricMeta {
    /// Render `name{k="v",…}` (just `name` when unlabeled), the sample
    /// identity used in OpenMetrics output and snapshot diffs.
    pub fn sample_name(&self) -> String {
        crate::openmetrics::sample_name(&self.name, &self.labels)
    }
}

/// A monotonic counter handle. Default-constructed handles are disabled.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get() + n);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A gauge handle (last-write-wins). Default-constructed handles are disabled.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Rc<Cell<f64>>>);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| g.get())
    }
}

/// A histogram handle. Default-constructed handles are disabled.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Rc<RefCell<HistData>>>);

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(v);
        }
    }

    /// Copy of the current distribution (empty when disabled).
    pub fn snapshot(&self) -> HistData {
        self.0
            .as_ref()
            .map_or_else(HistData::new, |h| h.borrow().clone())
    }
}

enum Slot {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<f64>>),
    Hist(Rc<RefCell<HistData>>),
}

struct Entry {
    meta: MetricMeta,
    slot: Slot,
}

struct RegInner {
    entries: Vec<Entry>,
    index: HashMap<(String, Vec<(String, String)>), usize>,
}

/// The per-run metrics registry. Cloning shares the underlying store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Rc<RefCell<RegInner>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Rc::new(RefCell::new(RegInner {
                entries: Vec::new(),
                index: HashMap::new(),
            }))),
        }
    }

    /// A disabled registry: every operation is a cheap no-op.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> (String, Vec<(String, String)>) {
        (
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Register (or fetch) a counter. Same `(name, labels)` → same handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut inner = inner.borrow_mut();
        let key = Self::key(name, labels);
        if let Some(&i) = inner.index.get(&key) {
            match &inner.entries[i].slot {
                Slot::Counter(c) => return Counter(Some(c.clone())),
                _ => panic!("metric {name} re-registered with a different type"),
            }
        }
        let cell = Rc::new(Cell::new(0u64));
        let idx = inner.entries.len();
        inner.entries.push(Entry {
            meta: MetricMeta {
                name: key.0.clone(),
                labels: key.1.clone(),
                help: help.to_string(),
            },
            slot: Slot::Counter(cell.clone()),
        });
        inner.index.insert(key, idx);
        Counter(Some(cell))
    }

    /// Register (or fetch) a gauge. Same `(name, labels)` → same handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut inner = inner.borrow_mut();
        let key = Self::key(name, labels);
        if let Some(&i) = inner.index.get(&key) {
            match &inner.entries[i].slot {
                Slot::Gauge(g) => return Gauge(Some(g.clone())),
                _ => panic!("metric {name} re-registered with a different type"),
            }
        }
        let cell = Rc::new(Cell::new(0f64));
        let idx = inner.entries.len();
        inner.entries.push(Entry {
            meta: MetricMeta {
                name: key.0.clone(),
                labels: key.1.clone(),
                help: help.to_string(),
            },
            slot: Slot::Gauge(cell.clone()),
        });
        inner.index.insert(key, idx);
        Gauge(Some(cell))
    }

    /// Register (or fetch) a histogram. Same `(name, labels)` → same
    /// handle, so independent components recording under one identity
    /// build a single merged distribution.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        let mut inner = inner.borrow_mut();
        let key = Self::key(name, labels);
        if let Some(&i) = inner.index.get(&key) {
            match &inner.entries[i].slot {
                Slot::Hist(h) => return Histogram(Some(h.clone())),
                _ => panic!("metric {name} re-registered with a different type"),
            }
        }
        let cell = Rc::new(RefCell::new(HistData::new()));
        let idx = inner.entries.len();
        inner.entries.push(Entry {
            meta: MetricMeta {
                name: key.0.clone(),
                labels: key.1.clone(),
                help: help.to_string(),
            },
            slot: Slot::Hist(cell.clone()),
        });
        inner.index.insert(key, idx);
        Histogram(Some(cell))
    }

    /// Copy out every instrument value.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let inner = inner.borrow();
        let mut snap = Snapshot::default();
        for e in &inner.entries {
            match &e.slot {
                Slot::Counter(c) => snap.counters.push((e.meta.clone(), c.get())),
                Slot::Gauge(g) => snap.gauges.push((e.meta.clone(), g.get())),
                Slot::Hist(h) => snap.histograms.push((e.meta.clone(), h.borrow().clone())),
            }
        }
        snap
    }
}

/// Point-in-time copy of a registry's instrument values.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters in registration order.
    pub counters: Vec<(MetricMeta, u64)>,
    /// Gauges in registration order.
    pub gauges: Vec<(MetricMeta, f64)>,
    /// Histograms in registration order.
    pub histograms: Vec<(MetricMeta, HistData)>,
}

impl Snapshot {
    /// Look up a counter by sample identity (`name{labels}`).
    pub fn counter(&self, sample: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(m, _)| m.sample_name() == sample)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by sample identity.
    pub fn gauge(&self, sample: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(m, _)| m.sample_name() == sample)
            .map(|(_, v)| *v)
    }

    /// Look up a histogram by sample identity.
    pub fn histogram(&self, sample: &str) -> Option<&HistData> {
        self.histograms
            .iter()
            .find(|(m, _)| m.sample_name() == sample)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("x_total", &[], "x");
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn dedup_returns_the_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("n_total", &[("backend", "flux")], "n");
        let b = reg.counter("n_total", &[("backend", "flux")], "n");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counters.len(), 1);
        let other = reg.counter("n_total", &[("backend", "dragon")], "n");
        other.inc();
        assert_eq!(reg.snapshot().counters.len(), 2);
    }
}
