//! Dense uid-keyed map for hot per-task state.
//!
//! Every per-task table in the agent hot path (the uid → slot index of the
//! task table, routing assignments, placement holds) is keyed by a task
//! uid that workload generators allocate densely from zero. Hashing those
//! keys scatters them across a multi-megabyte table, so at experiment scale
//! (hundreds of thousands of tasks) every probe is a cold cache miss —
//! and the agent probes several such tables per delivered event.
//!
//! [`UidMap`] stores values in a `Vec` indexed directly by uid: probes are
//! one bounds check plus an offset, and because the pipeline processes
//! tasks in roughly uid order, consecutive events touch adjacent slots.
//! Uids at or above [`DENSE_CAP`] spill into an [`FxHashMap`] so sparse
//! keyspaces (replay traces with external ids) stay correct without
//! unbounded memory; the dense side only ever grows to `max_uid + 1`.
//!
//! The map is deliberately minimal: point get/insert/remove and `clear`,
//! no iteration. That makes it impossible for callers to depend on
//! traversal order, which keeps run reports byte-identical when a hashed
//! table is swapped for a `UidMap` (the determinism gate for this crate).

use crate::fxmap::FxHashMap;

/// Uids below this bound live in the dense vector; the rest spill to the
/// hash map. 2^21 slots bounds dense growth at a few tens of MB for the
/// largest per-task payloads while covering every in-tree experiment
/// (paper-scale runs allocate ~2^18 uids).
const DENSE_CAP: u64 = 1 << 21;

/// Dense-first map from task uid to `T`. See the module docs.
#[derive(Debug, Clone)]
pub struct UidMap<T> {
    dense: Vec<Option<T>>,
    spill: FxHashMap<u64, T>,
    len: usize,
}

impl<T> Default for UidMap<T> {
    fn default() -> Self {
        UidMap {
            dense: Vec::new(),
            spill: FxHashMap::default(),
            len: 0,
        }
    }
}

impl<T> UidMap<T> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-size the dense side for `n` more dense-range inserts (bulk
    /// submission hint; spill inserts are unaffected).
    pub fn reserve(&mut self, n: usize) {
        let want = (self.dense.len() + n).min(DENSE_CAP as usize);
        if want > self.dense.len() {
            self.dense.reserve(want - self.dense.len());
        }
    }

    /// Whether `uid` has an entry.
    pub fn contains_key(&self, uid: u64) -> bool {
        self.get(uid).is_some()
    }

    /// Shared access to the entry for `uid`.
    #[inline]
    pub fn get(&self, uid: u64) -> Option<&T> {
        if uid < DENSE_CAP {
            self.dense.get(uid as usize).and_then(|s| s.as_ref())
        } else {
            self.spill.get(&uid)
        }
    }

    /// Mutable access to the entry for `uid`.
    #[inline]
    pub fn get_mut(&mut self, uid: u64) -> Option<&mut T> {
        if uid < DENSE_CAP {
            self.dense.get_mut(uid as usize).and_then(|s| s.as_mut())
        } else {
            self.spill.get_mut(&uid)
        }
    }

    /// Insert, returning the previous value if any.
    pub fn insert(&mut self, uid: u64, value: T) -> Option<T> {
        let prev = if uid < DENSE_CAP {
            let ix = uid as usize;
            if ix >= self.dense.len() {
                self.dense.resize_with(ix + 1, || None);
            }
            self.dense[ix].replace(value)
        } else {
            self.spill.insert(uid, value)
        };
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Remove and return the entry for `uid`.
    pub fn remove(&mut self, uid: u64) -> Option<T> {
        let prev = if uid < DENSE_CAP {
            self.dense.get_mut(uid as usize).and_then(|s| s.take())
        } else {
            self.spill.remove(&uid)
        };
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Drop every entry (capacity is retained on the dense side).
    pub fn clear(&mut self) {
        self.dense.clear();
        self.spill.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_point_ops() {
        let mut m: UidMap<u32> = UidMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(0, 1), None);
        assert_eq!(m.insert(5, 51), Some(50));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(5), Some(&51));
        assert_eq!(m.get(4), None);
        *m.get_mut(0).unwrap() += 1;
        assert_eq!(m.get(0), Some(&2));
        assert_eq!(m.remove(5), Some(51));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(0));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn spill_range_behaves_like_dense() {
        let mut m: UidMap<u64> = UidMap::new();
        let hi = DENSE_CAP + 7;
        assert_eq!(m.insert(hi, 9), None);
        assert_eq!(m.insert(3, 4), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(hi), Some(&9));
        assert_eq!(m.insert(hi, 10), Some(9));
        assert_eq!(m.remove(hi), Some(10));
        assert!(!m.contains_key(hi));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unpopulated_probes_miss() {
        let m: UidMap<u8> = UidMap::new();
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(DENSE_CAP * 2), None);
    }
}
