//! The LFU image cache with reference counts (paper §2, §2.5).
//!
//! "Recently-compressed images are stored in a cache managed with a
//! least-frequently used (LFU) replacement policy. ... CheckCache
//! increments a reference count to the cached item, StoreInCache writes
//! a new item into the cache, evicting the least-frequently used item
//! with a zero reference count, and Complete decrements the cached
//! image's reference count."
//!
//! The cache itself is deliberately *unsynchronized* (no interior
//! locking): exactly like the paper's C implementation, safety comes
//! from the Flux-level `atomic` constraints on the nodes that touch it.
//! Holders wrap it in whatever the constraint maps to.

use std::collections::HashMap;

/// One cached entry.
#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    /// Access frequency for LFU ordering.
    freq: u64,
    /// In-flight flows currently using this entry; never evicted while
    /// non-zero.
    refs: u32,
    /// Insertion tie-breaker: evict the oldest among equal frequencies.
    seq: u64,
}

/// An LFU cache with per-entry reference counts and a byte-size bound.
#[derive(Debug, Clone)]
pub struct LfuCache<K: std::hash::Hash + Eq + Clone, V> {
    map: HashMap<K, Entry<V>>,
    capacity_bytes: usize,
    used_bytes: usize,
    seq: u64,
    size_of: fn(&V) -> usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> LfuCache<K, V> {
    /// Creates a cache bounded by `capacity_bytes`, measuring entries
    /// with `size_of`.
    ///
    /// `size_of` must measure what a value actually holds, or the bound
    /// bounds nothing: a `Vec` counted by `len()` must not carry spare
    /// capacity (the JPEG encoder returns its output at exactly its
    /// length for this reason).
    pub fn new(capacity_bytes: usize, size_of: fn(&V) -> usize) -> Self {
        LfuCache {
            map: HashMap::new(),
            capacity_bytes,
            used_bytes: 0,
            seq: 0,
            size_of,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// `CheckCache`: on hit, bumps the frequency, takes a reference and
    /// returns the value; on miss returns `None`. The caller must pair
    /// every hit with a [`LfuCache::release`] (the paper's `Complete`).
    pub fn check(&mut self, key: &K) -> Option<&V> {
        match self.map.get_mut(key) {
            Some(e) => {
                e.freq += 1;
                e.refs += 1;
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// `StoreInCache`: inserts (or replaces) the value with an initial
    /// reference, evicting least-frequently-used zero-reference entries
    /// until it fits. If the cache cannot make room (everything is
    /// referenced), the item is still inserted — matching the paper's
    /// behaviour of never failing a store — but the cache may
    /// temporarily exceed capacity. Pair with [`LfuCache::release`].
    pub fn store(&mut self, key: K, value: V) {
        let size = (self.size_of)(&value);
        if let Some(old) = self.map.remove(&key) {
            self.used_bytes -= (self.size_of)(&old.value);
        }
        while self.used_bytes + size > self.capacity_bytes {
            match self.evict_one() {
                true => {}
                false => break,
            }
        }
        self.seq += 1;
        self.used_bytes += size;
        self.map.insert(
            key,
            Entry {
                value,
                freq: 1,
                refs: 1,
                seq: self.seq,
            },
        );
    }

    /// `Complete`: drops one reference taken by `check` or `store`.
    pub fn release(&mut self, key: &K) {
        if let Some(e) = self.map.get_mut(key) {
            e.refs = e.refs.saturating_sub(1);
        }
    }

    fn evict_one(&mut self) -> bool {
        let victim = self
            .map
            .iter()
            .filter(|(_, e)| e.refs == 0)
            .min_by_key(|(_, e)| (e.freq, e.seq))
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                let e = self.map.remove(&k).expect("victim exists");
                self.used_bytes -= (self.size_of)(&e.value);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes accounted to live entries.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Hit ratio over the cache's lifetime.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> LfuCache<String, Vec<u8>> {
        LfuCache::new(cap, |v| v.len())
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(100);
        assert!(c.check(&"a".into()).is_none());
        c.store("a".into(), vec![0; 10]);
        c.release(&"a".into());
        assert_eq!(c.check(&"a".into()).unwrap().len(), 10);
        c.release(&"a".into());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = cache(30);
        c.store("hot".into(), vec![0; 10]);
        c.release(&"hot".into());
        c.store("cold".into(), vec![0; 10]);
        c.release(&"cold".into());
        // Touch "hot" several times.
        for _ in 0..5 {
            c.check(&"hot".into());
            c.release(&"hot".into());
        }
        // Storing 20 more bytes forces one eviction: "cold" must go.
        c.store("new".into(), vec![0; 20]);
        c.release(&"new".into());
        assert!(c.check(&"hot".into()).is_some());
        assert!(c.check(&"cold".into()).is_none());
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn referenced_entries_never_evicted() {
        let mut c = cache(20);
        c.store("pinned".into(), vec![0; 10]);
        // Do NOT release: refs = 1.
        c.store("x".into(), vec![0; 10]);
        c.release(&"x".into());
        // Need room: only "x" is evictable.
        c.store("y".into(), vec![0; 10]);
        c.release(&"y".into());
        assert!(c.check(&"pinned".into()).is_some(), "pinned survives");
        assert!(c.check(&"x".into()).is_none(), "x was the only victim");
    }

    #[test]
    fn overflow_when_everything_referenced() {
        let mut c = cache(10);
        c.store("a".into(), vec![0; 8]);
        c.store("b".into(), vec![0; 8]); // nothing evictable
        assert_eq!(c.len(), 2);
        assert!(c.used_bytes() > 10, "temporarily over capacity");
        c.release(&"a".into());
        c.release(&"b".into());
        // The next store can now evict.
        c.store("c".into(), vec![0; 8]);
        assert!(c.used_bytes() <= 18);
    }

    #[test]
    fn replace_same_key_updates_bytes() {
        let mut c = cache(100);
        c.store("k".into(), vec![0; 40]);
        c.release(&"k".into());
        c.store("k".into(), vec![0; 10]);
        c.release(&"k".into());
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_ties_broken_by_age() {
        let mut c = cache(20);
        c.store("old".into(), vec![0; 10]);
        c.release(&"old".into());
        c.store("newer".into(), vec![0; 10]);
        c.release(&"newer".into());
        // Equal frequency: evict the older insertion.
        c.store("third".into(), vec![0; 10]);
        c.release(&"third".into());
        assert!(c.check(&"old".into()).is_none());
        assert!(c.check(&"newer".into()).is_some());
    }
}
