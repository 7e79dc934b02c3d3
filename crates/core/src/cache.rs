//! Bounded LRU memoization of query results.
//!
//! ReHub-style serving workloads repeat queries: the same hot nodes are asked
//! for their reverse neighbors over and over (popular locations, periodic
//! monitoring). `ResultCache` memoizes whole [`RknnOutcome`]s keyed by
//! `(algorithm, query node, k)` in an LRU bounded by a fixed capacity;
//! [`crate::engine::QueryEngine::with_result_cache`] turns it on (it is
//! **off by default** — caching never changes results, but batch workloads
//! that measure per-query work want every query executed).
//!
//! The recency structure is the workspace's shared [`rnn_storage::Lru`] —
//! the same slot-vector implementation the buffer pool stripes — with the
//! crate's `FastHasher` for the small tuple keys. The engine stripes the
//! cache across independently locked shards the same way the buffer pool
//! does (see `QueryEngine::with_result_cache_sharded`).
//!
//! Because every algorithm is deterministic for a fixed topology and point
//! set, a cached outcome is byte-identical to a recomputed one (result set
//! *and* [`crate::QueryStats`]), so enabling the cache only changes hit/miss
//! counters ([`CacheStats`]) and latency — never answers.

use crate::dispatch::Algorithm;
use crate::fast_hash::FastHasher;
use crate::query::RknnOutcome;
use rnn_graph::NodeId;
use rnn_storage::Lru;
use std::hash::BuildHasherDefault;
use std::ops::AddAssign;
use std::sync::Arc;

/// Hit/miss counters of a `ResultCache`, surfaced per batch in
/// [`crate::engine::BatchOutcome::cache`] and cumulatively by
/// [`crate::engine::QueryEngine::cache_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that were executed and inserted.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups() as f64
    }

    /// The difference `self - earlier`, for per-batch deltas of cumulative
    /// counters; saturates at zero like [`rnn_storage::IoStats::since`].
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

impl AddAssign<&CacheStats> for CacheStats {
    fn add_assign(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        *self += &other;
    }
}

/// The cache key: one entry per distinct query the engine can serve.
pub(crate) type CacheKey = (Algorithm, NodeId, usize);

/// A bounded least-recently-used map from [`CacheKey`] to [`RknnOutcome`].
///
/// A thin wrapper over the shared [`Lru`]: values are `Arc`-shared so
/// lookups under the engine's shard mutex hand out a reference count, not a
/// copy of the result vector — workers clone the data outside the lock.
pub(crate) struct ResultCache {
    lru: Lru<CacheKey, Arc<RknnOutcome>, BuildHasherDefault<FastHasher>>,
}

impl ResultCache {
    /// Creates a cache bounded at `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (the engine treats zero as "disabled" and
    /// never constructs the cache).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a result cache needs capacity >= 1");
        ResultCache { lru: Lru::new(capacity) }
    }

    /// Number of memoized outcomes resident in this shard.
    pub(crate) fn len(&self) -> usize {
        self.lru.len()
    }

    /// Drops every entry (capacity unchanged) — the per-shard step of
    /// `SharedResultCache::invalidate_all`.
    pub(crate) fn clear(&mut self) {
        self.lru.clear();
    }

    /// Returns a handle to the cached outcome (an O(1) `Arc` clone) and
    /// marks the entry most recently used.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<Arc<RknnOutcome>> {
        self.lru.get(key).map(Arc::clone)
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used one
    /// when at capacity.
    pub(crate) fn insert(&mut self, key: CacheKey, value: Arc<RknnOutcome>) {
        self.lru.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryStats;
    use rnn_graph::PointId;

    fn key(q: usize) -> CacheKey {
        (Algorithm::Eager, NodeId::new(q), 1)
    }

    fn outcome(p: usize) -> Arc<RknnOutcome> {
        Arc::new(RknnOutcome::from_points(vec![PointId::new(p)], QueryStats::default()))
    }

    #[test]
    fn evicts_in_least_recently_used_order() {
        let mut c = ResultCache::new(2);
        c.insert(key(0), outcome(0));
        c.insert(key(1), outcome(1));
        assert_eq!(c.len(), 2);
        // Touch 0 so 1 becomes the victim.
        assert_eq!(c.get(&key(0)), Some(outcome(0)));
        c.insert(key(2), outcome(2));
        assert_eq!(c.len(), 2, "bounded at capacity");
        assert_eq!(c.get(&key(1)), None, "least recently used entry was evicted");
        assert_eq!(c.get(&key(0)), Some(outcome(0)));
        assert_eq!(c.get(&key(2)), Some(outcome(2)));
    }

    #[test]
    fn reinserting_refreshes_value_and_recency() {
        let mut c = ResultCache::new(2);
        c.insert(key(0), outcome(0));
        c.insert(key(1), outcome(1));
        c.insert(key(0), outcome(9)); // refresh: 1 is now the oldest
        c.insert(key(2), outcome(2));
        assert_eq!(c.get(&key(0)), Some(outcome(9)), "value was replaced");
        assert_eq!(c.get(&key(1)), None);
    }

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let mut c = ResultCache::new(1);
        for q in 0..5 {
            c.insert(key(q), outcome(q));
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&key(q)), Some(outcome(q)));
        }
        assert_eq!(c.get(&key(3)), None);
    }

    #[test]
    fn distinct_algorithms_and_k_do_not_collide() {
        let mut c = ResultCache::new(4);
        c.insert((Algorithm::Eager, NodeId::new(0), 1), outcome(1));
        c.insert((Algorithm::Lazy, NodeId::new(0), 1), outcome(2));
        c.insert((Algorithm::Eager, NodeId::new(0), 2), outcome(3));
        assert_eq!(c.get(&(Algorithm::Eager, NodeId::new(0), 1)), Some(outcome(1)));
        assert_eq!(c.get(&(Algorithm::Lazy, NodeId::new(0), 1)), Some(outcome(2)));
        assert_eq!(c.get(&(Algorithm::Eager, NodeId::new(0), 2)), Some(outcome(3)));
    }

    #[test]
    fn stats_helpers() {
        let mut s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let earlier = CacheStats { hits: 1, misses: 1 };
        assert_eq!(s.since(&earlier), CacheStats { hits: 2, misses: 0 });
        assert_eq!(earlier.since(&s), CacheStats::default(), "saturates, never wraps");
        s += CacheStats { hits: 1, misses: 2 };
        assert_eq!(s, CacheStats { hits: 4, misses: 3 });
        let mut by_ref = CacheStats::default();
        by_ref += &s;
        assert_eq!(by_ref, s, "AddAssign by reference matches by value");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = ResultCache::new(0);
    }
}
