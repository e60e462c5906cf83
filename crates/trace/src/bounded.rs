//! A size-bounded hash map with CLOCK (second-chance) eviction.
//!
//! Long-running deployments of the estimator keep memo tables alive:
//! the `EstimatorSession` pass memos and the `tybec serve`
//! cross-request estimate cache. [`BoundedMap`] is the one eviction
//! policy behind both: entries keep a reference bit that every lookup
//! sets; when an insert finds the map full, a clock hand sweeps the
//! slots, clearing reference bits until it finds an unreferenced victim
//! to replace.
//! CLOCK approximates LRU without per-access list surgery, so a warm
//! lookup stays a single hash probe plus one bit write — no allocation,
//! which the zero-alloc costing hot path relies on.
//!
//! Eviction never changes *values*: a re-inserted entry is recomputed
//! by the same deterministic code that produced the evicted one, so
//! memoized results stay bit-identical whatever the capacity.

use std::collections::HashMap;
use std::hash::Hash;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

/// A hash map holding at most `capacity` entries, evicting with the
/// CLOCK policy when full. Lookups take `&mut self` because they set
/// the entry's reference bit.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    capacity: usize,
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, usize>,
    hand: usize,
}

impl<K: Eq + Hash + Clone, V> BoundedMap<K, V> {
    /// An empty map evicting beyond `capacity` entries (clamped to at
    /// least one so the map is always able to memoize something).
    pub fn new(capacity: usize) -> BoundedMap<K, V> {
        BoundedMap { capacity: capacity.max(1), slots: Vec::new(), index: HashMap::new(), hand: 0 }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Look `key` up, marking the entry recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.index.get(key)?;
        let slot = &mut self.slots[i];
        slot.referenced = true;
        Some(&slot.value)
    }

    /// Like [`get`][BoundedMap::get], marking the entry used.
    pub fn contains_key(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Look `key` up without touching its reference bit — for read-only
    /// replay passes that should not count as recent use.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let &i = self.index.get(key)?;
        Some(&self.slots[i].value)
    }

    /// Insert (or replace) `key`. Returns `true` when the insert had to
    /// evict an unrelated entry to make room.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.value = value;
            slot.referenced = true;
            return false;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push(Slot { key, value, referenced: true });
            return false;
        }
        // Full: sweep the clock hand, clearing reference bits, until an
        // unreferenced victim turns up. Terminates within two laps (the
        // first lap clears every bit).
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[i];
            if slot.referenced {
                slot.referenced = false;
            } else {
                self.index.remove(&slot.key);
                self.index.insert(key.clone(), i);
                *slot = Slot { key, value, referenced: true };
                return true;
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V> std::ops::Index<&K> for BoundedMap<K, V> {
    type Output = V;

    /// Read-only access to a key that must be present (does not touch
    /// the reference bit — use [`get`][BoundedMap::get] on lookups that
    /// should count as recent use).
    fn index(&self, key: &K) -> &V {
        let &i = self.index.get(key).expect("key present in BoundedMap");
        &self.slots[i].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_up_to_capacity_without_evicting() {
        let mut m = BoundedMap::new(4);
        for i in 0..4u64 {
            assert!(!m.insert(i, i * 10));
        }
        assert_eq!(m.len(), 4);
        for i in 0..4u64 {
            assert_eq!(m.get(&i), Some(&(i * 10)));
        }
    }

    #[test]
    fn evicts_the_unreferenced_entry_first() {
        let mut m = BoundedMap::new(2);
        assert!(!m.insert('a', ()));
        assert!(!m.insert('b', ()));
        // Cold start: every bit is set, so the sweep clears the lap and
        // takes the first slot in hand order ('a').
        assert!(m.insert('c', ()));
        assert!(m.get(&'a').is_none());
        // Steady state is where second-chance bites: 'c' still carries
        // the reference bit from its insert, 'b' was stripped by the
        // sweep — the unreferenced entry is the victim.
        assert!(m.insert('d', ()));
        assert!(m.get(&'c').is_some(), "referenced entry survives");
        assert!(m.get(&'b').is_none(), "unreferenced entry is the victim");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn replacing_a_present_key_never_evicts() {
        let mut m = BoundedMap::new(2);
        assert!(!m.insert("a", 1));
        assert!(!m.insert("b", 2));
        assert!(!m.insert("a", 3));
        assert_eq!(m.get(&"a"), Some(&3));
    }

    #[test]
    fn index_reads_without_marking() {
        let mut m = BoundedMap::new(2);
        m.insert(7u64, "x");
        assert_eq!(m[&7], "x");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut m: BoundedMap<u64, u64> = BoundedMap::new(0);
        assert!(!m.insert(1, 1));
        assert_eq!(m.get(&1), Some(&1));
        assert!(m.insert(2, 2), "a second key evicts the first");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn heavy_churn_stays_within_capacity() {
        let mut m = BoundedMap::new(16);
        let mut evictions = 0;
        for i in 0..1000u64 {
            evictions += u64::from(m.insert(i, i));
            let _ = m.get(&(i / 2));
        }
        assert_eq!(m.len(), 16);
        assert_eq!(evictions, 1000 - 16);
    }
}
