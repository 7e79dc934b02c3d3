//! The workspace's one LRU implementation.
//!
//! Both the buffer pool (pages keyed by [`crate::PageId`]) and `rnn-core`'s
//! result cache (outcomes keyed by `(algorithm, query, k)`) need the same
//! structure: a bounded map with O(1) lookup that evicts the least recently
//! used entry when full. [`Lru`] is that structure, extracted so it is written
//! — and unit-tested for its exact victim order — exactly once.
//!
//! Entries live in a slot vector linked into an intrusive doubly-linked
//! recency list by index (no per-entry allocation); a hash map points keys at
//! slots. `get`, `insert`, `pop_lru` and eviction are all O(1) expected.
//!
//! The eviction order is part of the contract: a new key fills a fresh slot
//! while the cache is below capacity and reuses the evicted victim's slot
//! afterwards, and both `get` and `insert` move the touched entry to the MRU
//! position. This is bit-compatible with the two hand-rolled lists it
//! replaced, so fault counts of existing experiments are unchanged.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

const NIL: usize = usize::MAX;

/// Mixes a 64-bit value so that sequential keys spread over the whole space
/// (the SplitMix64 finalizer). Shard selection in the striped buffer pool and
/// result cache uses this to map a key hash to `hash & (shards - 1)` without
/// the low bits of dense ids aliasing onto a single shard.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Normalizes a requested shard count for striping `capacity` entries over
/// independently locked [`Lru`]s: rounded up to a power of two (so a shard
/// is one mask of a mixed key hash), then halved until every shard gets at
/// least one entry — always at least 1. The one rule both the buffer pool
/// and `rnn-core`'s result cache stripe by.
pub fn normalized_shards(capacity: usize, requested: usize) -> usize {
    let mut shards = requested.max(1).next_power_of_two();
    while shards > 1 && shards > capacity {
        shards /= 2;
    }
    shards
}

/// Splits `capacity` over [`normalized_shards`]`(capacity, requested)`
/// shards as evenly as the count allows: the first `capacity % shards`
/// shards get one extra entry.
pub fn split_capacity(capacity: usize, requested: usize) -> Vec<usize> {
    let shards = normalized_shards(capacity, requested);
    let base = capacity / shards;
    let extra = capacity % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used map from `K` to `V`.
///
/// Generic over the hash builder `S` so callers keep their preferred hasher
/// (`rnn-core` uses its `FastHasher` for small tuple keys; the buffer pool
/// a one-multiply hasher for its dense page ids). The hasher only places
/// keys in the map; the victim order never depends on it.
///
/// A capacity of zero is allowed and caches nothing: every `insert` is
/// dropped and every `get` misses. Callers that consider an empty cache a
/// configuration error (e.g. the result cache, where zero means "disabled")
/// enforce that themselves.
#[derive(Debug)]
pub struct Lru<K, V, S = std::collections::hash_map::RandomState> {
    capacity: usize,
    map: HashMap<K, usize, S>,
    slots: Vec<Slot<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Eq + Hash + Clone, V, S: BuildHasher + Default> Lru<K, V, S> {
    /// Creates an empty LRU bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: HashMap::with_hasher(S::default()),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Eq + Hash + Clone, V, S: BuildHasher> Lru<K, V, S> {
    /// Number of resident entries (never exceeds the capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up `key` and marks the entry most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        self.touch(i);
        Some(&self.slots[i].value)
    }

    /// Inserts (or refreshes) an entry, marking it most recently used.
    ///
    /// Returns the evicted `(key, value)` pair when the insert pushed the
    /// least recently used entry out; refreshing an existing key and inserts
    /// below capacity return `None`. With `capacity == 0` the entry is simply
    /// dropped (nothing was evicted to make room, so this also returns
    /// `None`).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.touch(i);
            return None;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot { key: key.clone(), value, prev: NIL, next: NIL });
            self.map.insert(key, i);
            self.push_front(i);
            return None;
        }
        // Evict the least recently used slot and reuse it for the new entry.
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "a full non-zero-capacity LRU has a tail");
        self.unlink(victim);
        let old_key = std::mem::replace(&mut self.slots[victim].key, key.clone());
        let old_value = std::mem::replace(&mut self.slots[victim].value, value);
        self.map.remove(&old_key);
        self.map.insert(key, victim);
        self.push_front(victim);
        Some((old_key, old_value))
    }

    /// Removes and returns the least recently used entry, or `None` when
    /// empty.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let victim = self.tail;
        self.unlink(victim);
        self.map.remove(&self.slots[victim].key);
        // The slot vector stays dense: move the last slot into the vacated
        // index and re-point its map entry and list neighbors.
        let removed = self.slots.swap_remove(victim);
        if victim < self.slots.len() {
            let moved_key = self.slots[victim].key.clone();
            self.map.insert(moved_key, victim);
            let (prev, next) = (self.slots[victim].prev, self.slots[victim].next);
            if prev != NIL {
                self.slots[prev].next = victim;
            } else {
                self.head = victim;
            }
            if next != NIL {
                self.slots[next].prev = victim;
            } else {
                self.tail = victim;
            }
        }
        Some((removed.key, removed.value))
    }

    /// Changes the bound this LRU evicts at, without touching the resident
    /// entries: after a shrink the cache may be over-full until the caller
    /// drains it with [`Lru::pop_lru`] (the buffer pool's `resize` does
    /// exactly that — and deliberately keeps the drained entries out of its
    /// eviction counters; see `BufferPool::resize`). A grow simply leaves
    /// headroom for future inserts.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Drops every entry (the capacity is unchanged).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// The resident keys from most to least recently used (the reverse of
    /// the victim order). For assertions and debugging; O(len).
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.slots.len());
        let mut i = self.head;
        while i != NIL {
            keys.push(self.slots[i].key.clone());
            i = self.slots[i].next;
        }
        keys
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestLru = Lru<u32, String>;

    fn lru(capacity: usize) -> TestLru {
        Lru::new(capacity)
    }

    fn val(i: u32) -> String {
        format!("v{i}")
    }

    #[test]
    fn exact_victim_order_through_mixed_hits_and_inserts() {
        // The reference sequence the seed buffer-pool tests pinned down; the
        // generic LRU must reproduce it slot for slot.
        let mut c = lru(3);
        assert!(c.insert(0, val(0)).is_none()); // MRU first: [0]
        assert!(c.insert(1, val(1)).is_none()); // [1, 0]
        assert!(c.insert(2, val(2)).is_none()); // [2, 1, 0]
        assert_eq!(c.keys_mru_to_lru(), vec![2, 1, 0]);
        assert_eq!(c.get(&0), Some(&val(0))); // hit -> [0, 2, 1]
        assert_eq!(c.insert(3, val(3)), Some((1, val(1)))); // evicts 1 -> [3, 0, 2]
        assert_eq!(c.keys_mru_to_lru(), vec![3, 0, 2]);
        assert_eq!(c.get(&2), Some(&val(2))); // hit -> [2, 3, 0]
        assert_eq!(c.insert(1, val(1)), Some((0, val(0)))); // evicts 0
        assert_eq!(c.keys_mru_to_lru(), vec![1, 2, 3]);
        assert_eq!(c.get(&0), None, "0 was the LRU victim");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn refreshing_an_existing_key_updates_value_and_recency_without_evicting() {
        let mut c = lru(2);
        c.insert(0, val(0));
        c.insert(1, val(1));
        assert!(c.insert(0, "fresh".to_string()).is_none(), "refresh is not an eviction");
        assert_eq!(c.insert(2, val(2)), Some((1, val(1))), "1 became the LRU entry");
        assert_eq!(c.get(&0), Some(&"fresh".to_string()));
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn pop_lru_drains_in_reverse_recency_order() {
        let mut c = lru(4);
        for i in 0..4 {
            c.insert(i, val(i));
        }
        c.get(&0); // [0, 3, 2, 1]
        assert_eq!(c.pop_lru(), Some((1, val(1))));
        assert_eq!(c.pop_lru(), Some((2, val(2))));
        // The swap_remove compaction must keep links and map intact.
        assert_eq!(c.keys_mru_to_lru(), vec![0, 3]);
        assert_eq!(c.get(&3), Some(&val(3)));
        assert_eq!(c.pop_lru(), Some((0, val(0))), "the hit made 3 the MRU entry");
        assert_eq!(c.pop_lru(), Some((3, val(3))));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
        // The drained cache is fully reusable.
        c.insert(9, val(9));
        assert_eq!(c.keys_mru_to_lru(), vec![9]);
    }

    #[test]
    fn pop_lru_interleaved_with_inserts_keeps_the_slot_vector_consistent() {
        // Exercises the swap_remove fix-up when the victim is not the last
        // slot, repeatedly.
        let mut c = lru(8);
        for i in 0..8 {
            c.insert(i, val(i));
        }
        for round in 0..20u32 {
            let (k, v) = c.pop_lru().expect("non-empty");
            assert_eq!(v, val(k), "round {round}: value stayed attached to its key");
            c.insert(100 + round, val(100 + round));
            assert_eq!(c.len(), 8);
            // Every surviving key still resolves to its own value; touched
            // least recent first, they keep their recency order.
            let keys = c.keys_mru_to_lru();
            assert_eq!(keys.len(), 8);
            for &k in keys.iter().rev() {
                assert_eq!(c.get(&k), Some(&val(k)), "round {round}");
            }
            assert_eq!(c.keys_mru_to_lru(), keys, "round {round}");
        }
    }

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let mut c = lru(1);
        for i in 0..5 {
            let evicted = c.insert(i, val(i));
            if i == 0 {
                assert!(evicted.is_none());
            } else {
                assert_eq!(evicted, Some((i - 1, val(i - 1))));
            }
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.get(&4), Some(&val(4)));
        assert_eq!(c.get(&3), None);
    }

    #[test]
    fn capacity_zero_caches_nothing() {
        let mut c = lru(0);
        assert!(c.insert(1, val(1)).is_none(), "nothing was evicted to make room");
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn set_capacity_shrinks_and_grows_the_bound() {
        let mut c = lru(4);
        for i in 0..4 {
            c.insert(i, val(i));
        }
        // Shrink: entries stay resident until the caller drains; the next
        // pops still come out in exact LRU order.
        c.set_capacity(2);
        assert_eq!(c.len(), 4, "shrinking does not drop entries by itself");
        while c.len() > 2 {
            c.pop_lru();
        }
        assert_eq!(c.keys_mru_to_lru(), vec![3, 2], "the LRU entries were drained first");
        // Grow: new headroom fills with fresh slots before evicting again.
        c.set_capacity(3);
        assert!(c.insert(7, val(7)).is_none(), "grown capacity absorbs the insert");
        assert_eq!(c.insert(8, val(8)), Some((2, val(2))), "then LRU eviction resumes");
        assert_eq!(c.keys_mru_to_lru(), vec![8, 7, 3]);
    }

    #[test]
    fn clear_resets_to_empty_and_stays_usable() {
        let mut c = lru(3);
        for i in 0..3 {
            c.insert(i, val(i));
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&0), None);
        // The capacity is unchanged: three fresh entries fit, a fourth evicts.
        for i in 7..10 {
            assert!(c.insert(i, val(i)).is_none());
        }
        assert_eq!(c.insert(10, val(10)), Some((7, val(7))));
        assert_eq!(c.keys_mru_to_lru(), vec![10, 9, 8]);
    }

    #[test]
    fn matches_a_naive_reference_model_on_a_pseudorandom_trace() {
        // Cross-check get/insert/pop against an O(n) Vec-based model over a
        // deterministic mixed trace.
        let mut c: Lru<u32, u32> = Lru::new(5);
        let mut model: Vec<(u32, u32)> = Vec::new(); // MRU first
        let mut state = 0x9e3779b9u64;
        for step in 0..2000u32 {
            state = mix64(state.wrapping_add(step as u64));
            let key = (state % 13) as u32;
            match state % 5 {
                0 => {
                    let got = c.get(&key).copied();
                    let want = model.iter().position(|&(k, _)| k == key).map(|i| {
                        let e = model.remove(i);
                        model.insert(0, e);
                        e.1
                    });
                    assert_eq!(got, want, "step {step}: get({key})");
                }
                4 => {
                    assert_eq!(c.pop_lru(), model.pop(), "step {step}: pop_lru");
                }
                _ => {
                    let evicted = c.insert(key, step);
                    let expect_evicted = if let Some(i) = model.iter().position(|&(k, _)| k == key)
                    {
                        model.remove(i);
                        model.insert(0, (key, step));
                        None
                    } else {
                        model.insert(0, (key, step));
                        if model.len() > 5 {
                            model.pop()
                        } else {
                            None
                        }
                    };
                    assert_eq!(evicted, expect_evicted, "step {step}: insert({key})");
                }
            }
            assert_eq!(c.len(), model.len(), "step {step}");
            assert_eq!(
                c.keys_mru_to_lru(),
                model.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
                "step {step}: full recency order"
            );
        }
    }

    #[test]
    fn mix64_spreads_sequential_ids_across_low_bits() {
        // Shard selection uses `mix64(id) & (shards - 1)`; sequential page
        // ids must not all land on one shard.
        let shards = 8u64;
        let mut counts = [0usize; 8];
        for id in 0..8000u64 {
            counts[(mix64(id) & (shards - 1)) as usize] += 1;
        }
        for (s, &n) in counts.iter().enumerate() {
            assert!(n > 500, "shard {s} got only {n} of 8000 sequential ids");
        }
    }
}
