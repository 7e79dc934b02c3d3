//! Bounded LRU memoization of query results.
//!
//! ReHub-style serving workloads repeat queries: the same hot nodes are asked
//! for their reverse neighbors over and over (popular locations, periodic
//! monitoring). [`SharedResultCache`] memoizes whole [`RknnOutcome`]s keyed
//! by `(algorithm, query node, k)` in an LRU bounded by a fixed capacity and
//! striped over independently locked shards, the same way the buffer pool is
//! striped. It is the one way to attach a cache to a query engine
//! ([`crate::QueryEngine::with_shared_result_cache`]); without one, every
//! query executes. `rnn-server` builds one from its config and attaches it
//! to every worker's engine view.
//!
//! The recency structure is the workspace's shared [`rnn_storage::Lru`] —
//! the same slot-vector implementation the buffer pool stripes — with the
//! crate's `FastHasher` for the small tuple keys.
//!
//! Because every algorithm is deterministic for a fixed topology and point
//! set, a cached outcome is byte-identical to a recomputed one (result set
//! *and* [`crate::QueryStats`]), so enabling the cache only changes hit/miss
//! counters ([`CacheStats`]) and latency — never answers.

use crate::dispatch::Algorithm;
use crate::fast_hash::FastHasher;
use crate::query::RknnOutcome;
use rnn_graph::NodeId;
use rnn_storage::lru::mix64;
use rnn_storage::Lru;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cumulative hit/miss counters of a [`SharedResultCache`]; diff two reads
/// with [`CacheStats::since`] for the counts of the work between them.
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

    /// The difference `self - earlier`, for deltas of cumulative counters; saturates at zero like [`rnn_storage::IoStats::since`].
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
/// lookups under a shard mutex hand out a reference count, not a copy of the
/// result vector — workers clone the data outside the lock.
pub(crate) struct ResultCache {
    lru: Lru<CacheKey, Arc<RknnOutcome>, BuildHasherDefault<FastHasher>>,
}

impl ResultCache {
    /// Creates a cache bounded at `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a [`SharedResultCache`] gives every shard
    /// at least one entry).
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

/// The striped state behind a [`SharedResultCache`] handle: the capacity
/// split across independently locked LRU shards (the same striping scheme as
/// `rnn-storage`'s buffer pool — `mix64(hash(key))` masked by the
/// power-of-two shard count), plus global hit/miss counters.
pub(crate) struct CacheState {
    shards: Vec<Mutex<ResultCache>>,
    mask: usize,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

impl CacheState {
    /// Builds the shard vector, normalizing and splitting with the same
    /// `rnn_storage::lru` rules the buffer pool stripes by. Callers
    /// guarantee `capacity > 0`, so every shard capacity is at least 1.
    fn new(capacity: usize, shards: usize) -> Self {
        let shards: Vec<Mutex<ResultCache>> = rnn_storage::lru::split_capacity(capacity, shards)
            .into_iter()
            .map(|c| Mutex::new(ResultCache::new(c)))
            .collect();
        CacheState {
            mask: shards.len() - 1,
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shard that owns `key`.
    pub(crate) fn shard(&self, key: &CacheKey) -> &Mutex<ResultCache> {
        let hash = BuildHasherDefault::<FastHasher>::default().hash_one(key);
        &self.shards[(mix64(hash) as usize) & self.mask]
    }
}

/// A result cache that outlives any one [`crate::QueryEngine`] view, shared
/// by handle (cheap `Clone`, `Arc` inside).
///
/// An engine borrows its topology and point set, so a long-running service
/// that swaps worlds (or builds a short-lived engine view per micro-batch,
/// like `rnn-server`'s workers do) cannot keep its memoized results *inside*
/// the engine. Attach the handle to any number of engine views with
/// [`crate::QueryEngine::with_shared_result_cache`] and they all hit one
/// cache.
///
/// Whoever owns the handle is responsible for [`invalidate_all`] when the
/// world changes (new point set, new graph): entries are keyed by
/// `(algorithm, query node, k)` only, so stale entries from a previous world
/// would otherwise be served as current answers.
///
/// [`invalidate_all`]: SharedResultCache::invalidate_all
#[derive(Clone)]
pub struct SharedResultCache {
    pub(crate) state: Arc<CacheState>,
}

impl SharedResultCache {
    /// Creates a cache of `capacity` entries striped over `shards`
    /// independently locked LRU shards (rounded up to a power of two and
    /// capped so every shard holds at least one entry). Rule of thumb: one
    /// shard per worker thread. Sharding only changes lock granularity —
    /// results never change either way.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a disabled cache is expressed by not
    /// attaching one, not by an empty one.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "a shared result cache needs capacity >= 1");
        SharedResultCache { state: Arc::new(CacheState::new(capacity, shards)) }
    }

    /// The number of independently locked shards.
    pub fn shards(&self) -> usize {
        self.state.shards.len()
    }

    /// Number of memoized outcomes currently resident (locks each shard in
    /// turn; counts from different shards may interleave with concurrent
    /// inserts).
    pub fn entries(&self) -> usize {
        self.state.shards.iter().map(|s| s.lock().expect("result cache lock").len()).sum()
    }

    /// Cumulative hit/miss counters since the cache was created.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.state.hits.load(Ordering::Relaxed),
            misses: self.state.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every memoized outcome, shard by shard, leaving capacity and
    /// the cumulative hit/miss counters untouched. Call this whenever the
    /// world the cached answers were computed against changes — e.g.
    /// `rnn-server` invalidates on every point-set swap so a long-lived
    /// service never serves RkNN sets of a retired point set.
    ///
    /// Lookups racing the invalidation see either the old entry or a miss;
    /// a concurrent insert of a *new* answer can land before or after the
    /// sweep, so swap protocols must invalidate **after** the new world is
    /// visible to workers (as the server does, under its world write-lock).
    pub fn invalidate_all(&self) {
        for shard in &self.state.shards {
            shard.lock().expect("result cache lock").clear();
        }
    }

    /// Registers this cache as a snapshot source named `result-cache/<name>`
    /// in `registry`. Every [`rnn_obs::MetricsRegistry::snapshot`] emits,
    /// from one [`SharedResultCache::stats`] read:
    ///
    /// * `rnn_result_cache_hits_total{cache="<name>"}`
    /// * `rnn_result_cache_misses_total{cache="<name>"}`
    /// * `rnn_result_cache_entries{cache="<name>"}` (a gauge; may interleave
    ///   with concurrent inserts, like [`SharedResultCache::entries`])
    ///
    /// The registration holds a clone of the handle, so the cache state
    /// stays alive for as long as the registry polls it.
    pub fn register_metrics(&self, registry: &rnn_obs::MetricsRegistry, name: &str) {
        let hits = format!("rnn_result_cache_hits_total{{cache=\"{name}\"}}");
        let misses = format!("rnn_result_cache_misses_total{{cache=\"{name}\"}}");
        let entries = format!("rnn_result_cache_entries{{cache=\"{name}\"}}");
        let cache = self.clone();
        registry.register_source(&format!("result-cache/{name}"), move |set| {
            let stats = cache.stats();
            set.counter(&hits, stats.hits);
            set.counter(&misses, stats.misses);
            set.gauge(&entries, cache.entries() as u64);
        });
    }
}

impl std::fmt::Debug for SharedResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedResultCache")
            .field("shards", &self.shards())
            .field("entries", &self.entries())
            .field("stats", &self.stats())
            .finish()
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
