//! Counted markers for orphaned timer tokens.
//!
//! Backend sims schedule timers they cannot cancel (the engine owns the
//! queue), so reaping a task leaves orphan tokens in flight. Each reap
//! marks the orphaned token; each arriving token equal to a marker
//! consumes it and is swallowed. Backend sims key one set by the whole
//! [`crate::Token`], so a stage's markers never swallow another stage's
//! token for the same uid. A plain set is not enough: fault injection can
//! reap the *same* uid more than once (node failure, resubmit, then a
//! backend crash), leaving several orphans that each need their own
//! marker — hence a multiset.

use crate::fxmap::FxHashMap;
use std::hash::Hash;

/// A multiset of uids whose next timer arrival(s) must be swallowed.
///
/// `mark` once per orphaned timer, `consume` at token arrival; the pairing
/// is exact, so a marker can never swallow a live resubmission's token
/// once its orphans have drained.
#[derive(Debug, Clone)]
pub struct StaleTokens<K> {
    counts: FxHashMap<K, u32>,
}

impl<K> Default for StaleTokens<K> {
    fn default() -> Self {
        StaleTokens {
            counts: FxHashMap::default(),
        }
    }
}

impl<K: Hash + Eq + Copy> StaleTokens<K> {
    /// Record one orphaned timer for `id`.
    pub fn mark(&mut self, id: K) {
        *self.counts.entry(id).or_insert(0) += 1;
    }

    /// Swallow one marker for `id` if any remain. Returns whether the
    /// arriving token was an orphan. With no marker outstanding (every
    /// fault-free run) it returns before hashing `id`.
    pub fn consume(&mut self, id: &K) -> bool {
        if self.counts.is_empty() {
            return false;
        }
        match self.counts.get_mut(id) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(id);
                }
                true
            }
            None => false,
        }
    }

    /// Whether no markers are outstanding.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Markers outstanding across all uids.
    pub fn len(&self) -> usize {
        self.counts.values().map(|n| *n as usize).sum()
    }
}

impl<K: Hash + Eq + Copy> Extend<K> for StaleTokens<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for id in iter {
            self.mark(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_pair_with_consumes_exactly() {
        let mut s: StaleTokens<u64> = StaleTokens::default();
        assert!(!s.consume(&7));
        s.mark(7);
        s.mark(7); // double-reap: two orphans in flight
        s.mark(9);
        assert_eq!(s.len(), 3);
        assert!(s.consume(&7));
        assert!(s.consume(&7));
        assert!(!s.consume(&7), "third arrival is the live one");
        assert!(s.consume(&9));
        assert!(s.is_empty());
    }
}
