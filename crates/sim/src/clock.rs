//! A shared read-only view of the engine's virtual clock.
//!
//! Reactive components (the backend state machines) are driven by message
//! deliveries and do not receive `now` on every entry point; lineage and
//! metrics still need a timestamp at each of those call sites. [`SimClock`] is a
//! cheap shared handle the [`crate::Engine`] updates on every delivery, so
//! any component holding a clone can read the current virtual time without
//! plumbing it through every signature.
//!
//! Simulations are single-threaded by construction, so the handle is an
//! `Rc<Cell<_>>` — cloning is pointer-copy cheap and reads are free.

use crate::time::SimTime;
use std::cell::Cell;
use std::rc::Rc;

/// A shared handle on the simulation clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<SimTime>>,
}

impl SimClock {
    /// A fresh clock at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Advance the clock. Only the engine (or a test harness standing in
    /// for it) should call this; time never moves backwards.
    pub fn set(&self, t: SimTime) {
        debug_assert!(t >= self.now.get(), "sim clock went backwards");
        self.now.set(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_same_instant() {
        let clock = SimClock::new();
        let view = clock.clone();
        assert_eq!(view.now(), SimTime::ZERO);
        clock.set(SimTime::from_secs(5));
        assert_eq!(view.now(), SimTime::from_secs(5));
    }
}
