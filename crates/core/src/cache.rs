//! Bounded LRU memoization of query results.
//!
//! ReHub-style serving workloads repeat queries: the same hot nodes are asked
//! for their reverse neighbors over and over (popular locations, periodic
//! monitoring). [`SharedResultCache`] memoizes whole [`RknnOutcome`]s keyed
//! by `(algorithm, query node, k)` in an LRU bounded by a fixed capacity and
//! striped over independently locked shards, the same way the buffer pool is
//! striped. [`SharedResultCache::get_or_run`] is its one lookup: a hit
//! returns the memoized outcome, a miss runs the query and memoizes it.
//! `rnn-server` builds one from its config and hands a clone to every
//! worker.
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

/// The cache key: one entry per distinct query a worker can serve.
type CacheKey = (Algorithm, NodeId, usize);

/// One shard: a bounded LRU whose values are `Arc`-shared, so a lookup under
/// the shard mutex hands out a reference count, not a copy of the result
/// vector.
type Shard = Lru<CacheKey, Arc<RknnOutcome>, BuildHasherDefault<FastHasher>>;

/// The striped state behind a [`SharedResultCache`] handle: the capacity
/// split across independently locked LRU shards (the same striping scheme as
/// `rnn-storage`'s buffer pool — `mix64(hash(key))` masked by the
/// power-of-two shard count), plus global hit/miss counters.
struct CacheState {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheState {
    /// Builds the shard vector, normalizing and splitting with the same
    /// `rnn_storage::lru` rules the buffer pool stripes by. Callers
    /// guarantee `capacity > 0`, so every shard capacity is at least 1.
    fn new(capacity: usize, shards: usize) -> Self {
        let shards: Vec<Mutex<Shard>> = rnn_storage::lru::split_capacity(capacity, shards)
            .into_iter()
            .map(|c| Mutex::new(Lru::new(c)))
            .collect();
        CacheState {
            mask: shards.len() - 1,
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shard that owns `key`.
    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let hash = BuildHasherDefault::<FastHasher>::default().hash_one(key);
        &self.shards[(mix64(hash) as usize) & self.mask]
    }
}

/// A result cache shared by handle (cheap `Clone`, `Arc` inside): every
/// clone — one per serving worker, say — hits one memoization state through
/// [`SharedResultCache::get_or_run`].
///
/// Whoever owns the handle is responsible for [`invalidate_all`] when the
/// world changes (new point set, new graph): entries are keyed by
/// `(algorithm, query node, k)` only, so stale entries from a previous world
/// would otherwise be served as current answers.
///
/// [`invalidate_all`]: SharedResultCache::invalidate_all
#[derive(Clone)]
pub struct SharedResultCache {
    state: Arc<CacheState>,
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

    /// The outcome of `(algorithm, query, k)` and whether the cache held it.
    /// On a miss, `run` computes the outcome, which is memoized for the next
    /// lookup. Every call counts one hit or one miss.
    ///
    /// Only the key's shard is locked, and never around `run` or a copy: a
    /// hit hands out an `Arc` under the lock (O(1)) and clones the result
    /// data after releasing it. A concurrent miss on the same key just
    /// computes the identical outcome twice and inserts it twice.
    pub fn get_or_run(
        &self,
        algorithm: Algorithm,
        query: NodeId,
        k: usize,
        run: impl FnOnce() -> RknnOutcome,
    ) -> (RknnOutcome, bool) {
        let key = (algorithm, query, k);
        let shard = self.state.shard(&key);
        let hit = shard.lock().expect("result cache lock").get(&key).map(Arc::clone);
        if let Some(hit) = hit {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
            return ((*hit).clone(), true);
        }
        let outcome = run();
        self.state.misses.fetch_add(1, Ordering::Relaxed);
        shard.lock().expect("result cache lock").insert(key, Arc::new(outcome.clone()));
        (outcome, false)
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
    use crate::{run_rknn_with, Precomputed, Scratch};
    use rnn_graph::{Graph, GraphBuilder, NodePointSet, PointId};

    /// A memoized outcome holding the one point `p`.
    fn outcome(p: usize) -> RknnOutcome {
        RknnOutcome::from_points(vec![PointId::new(p)], QueryStats::default())
    }

    /// Looks up eager at `(q, k = 1)`, computing `outcome(p)` on a miss.
    fn lookup(cache: &SharedResultCache, q: usize, p: usize) -> (RknnOutcome, bool) {
        cache.get_or_run(Algorithm::Eager, NodeId::new(q), 1, || outcome(p))
    }

    #[test]
    fn evicts_in_least_recently_used_order() {
        let c = SharedResultCache::new(2, 1);
        assert!(!lookup(&c, 0, 0).1 && !lookup(&c, 1, 1).1, "two misses fill the cache");
        assert_eq!(c.entries(), 2);
        // Touch 0 so 1 becomes the victim.
        assert_eq!(lookup(&c, 0, 9), (outcome(0), true));
        assert!(!lookup(&c, 2, 2).1);
        assert_eq!(c.entries(), 2, "bounded at capacity");
        assert_eq!(lookup(&c, 0, 9), (outcome(0), true));
        assert_eq!(lookup(&c, 2, 9), (outcome(2), true));
        assert_eq!(lookup(&c, 1, 9), (outcome(9), false), "least recently used entry was evicted");
    }

    #[test]
    fn reinserting_refreshes_value_and_recency() {
        // Two misses on one key racing is a miss whose computation sees the
        // other one land: the key is inserted twice, the second insert
        // refreshes the first (the last one wins and is the most recent).
        let c = SharedResultCache::new(2, 1);
        assert!(!lookup(&c, 1, 1).1);
        let (outer, hit) = c.get_or_run(Algorithm::Eager, NodeId::new(0), 1, || {
            assert_eq!(lookup(&c, 0, 9), (outcome(9), false), "the racing miss");
            outcome(0)
        });
        assert_eq!((outer, hit), (outcome(0), false));
        assert_eq!(c.entries(), 2, "refreshed, not duplicated");
        assert!(!lookup(&c, 2, 2).1, "evicts 1, the oldest");
        assert_eq!(lookup(&c, 0, 7), (outcome(0), true), "value was replaced");
        assert_eq!(lookup(&c, 1, 7), (outcome(7), false));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 5 });
    }

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let c = SharedResultCache::new(1, 1);
        for q in 0..5 {
            assert!(!lookup(&c, q, q).1);
            assert_eq!(c.entries(), 1);
            assert_eq!(lookup(&c, q, 9), (outcome(q), true));
        }
        assert_eq!(lookup(&c, 3, 9), (outcome(9), false));
    }

    #[test]
    fn distinct_algorithms_and_k_do_not_collide() {
        let c = SharedResultCache::new(4, 1);
        let keys = [(Algorithm::Eager, 1), (Algorithm::Lazy, 1), (Algorithm::Eager, 2)];
        for (p, &(algorithm, k)) in keys.iter().enumerate() {
            let (_, hit) = c.get_or_run(algorithm, NodeId::new(0), k, || outcome(p));
            assert!(!hit, "{algorithm} k={k} is a key of its own");
        }
        for (p, &(algorithm, k)) in keys.iter().enumerate() {
            let got = c.get_or_run(algorithm, NodeId::new(0), k, || outcome(9));
            assert_eq!(got, (outcome(p), true), "{algorithm} k={k}");
        }
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
        let _ = SharedResultCache::new(0, 1);
    }

    fn grid(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0 + ((v * 7 % 5) as f64) * 0.25).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 1.0 + ((v * 11 % 7) as f64) * 0.25).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// A 9x9 grid with a point on every seventh node.
    fn world() -> (Graph, NodePointSet) {
        (grid(9), NodePointSet::from_nodes(81, (0..81).step_by(7).map(NodeId::new)))
    }

    /// `rounds` passes over every data-point node.
    fn repeated(pts: &NodePointSet, rounds: usize) -> Vec<NodeId> {
        (0..rounds).flat_map(|_| pts.nodes().iter().copied()).collect()
    }

    /// Eager at `k = 2` for each query on one scratch, through `cache` when
    /// there is one.
    fn run_all(
        cache: Option<&SharedResultCache>,
        g: &Graph,
        pts: &NodePointSet,
        queries: &[NodeId],
    ) -> Vec<RknnOutcome> {
        let mut scratch = Scratch::new();
        let eager = Algorithm::Eager;
        let pre = Precomputed::none();
        queries
            .iter()
            .map(|&q| {
                let mut run = || run_rknn_with(eager, g, pts, pre, q, 2, &mut scratch);
                match cache {
                    Some(cache) => cache.get_or_run(eager, q, 2, run).0,
                    None => run(),
                }
            })
            .collect()
    }

    #[test]
    fn result_cache_hits_repeat_queries_without_changing_outcomes() {
        let (g, pts) = world();
        let n = pts.nodes().len() as u64;
        let queries = repeated(&pts, 3);
        let plain = run_all(None, &g, &pts, &queries);

        // Each query node appears three times: two of the three executions
        // must be cache hits, and results must match the uncached loop.
        let cache = SharedResultCache::new(64, 1);
        assert_eq!(
            run_all(Some(&cache), &g, &pts, &queries),
            plain,
            "caching never changes results"
        );
        assert_eq!(cache.stats(), CacheStats { hits: 2 * n, misses: n });

        // A second identical loop is served entirely from the cache.
        let before = cache.stats();
        assert_eq!(run_all(Some(&cache), &g, &pts, &queries), plain);
        assert_eq!(cache.stats().since(&before), CacheStats { hits: 3 * n, misses: 0 });
    }

    #[test]
    fn sharded_result_cache_stays_exact_and_normalizes_shard_counts() {
        let (g, pts) = world();
        let n = pts.nodes().len() as u64;
        let queries = repeated(&pts, 3);
        let plain = run_all(None, &g, &pts, &queries);

        // Shard counts are rounded to a power of two and capped by capacity;
        // results are always shard-invariant, and the hit/miss totals too
        // while every shard's slice of the capacity still holds its share of
        // the working set (12 keys over <= 8 shards of a 64-entry cache).
        for (requested, effective) in [(1usize, 1usize), (3, 4), (8, 8)] {
            let cache = SharedResultCache::new(64, requested);
            assert_eq!(cache.shards(), effective, "requested {requested}");
            assert_eq!(run_all(Some(&cache), &g, &pts, &queries), plain, "{requested} shards");
            assert_eq!(cache.stats(), CacheStats { hits: 2 * n, misses: n });
        }
        // Constant eviction — one 2-entry shard, 64 one-entry shards, more
        // shards than capacity (collapsed to the capacity) — keeps results
        // exact, one lookup per query.
        for (capacity, shards, effective) in [(2usize, 1usize, 1usize), (64, 64, 64), (2, 16, 2)] {
            let cache = SharedResultCache::new(capacity, shards);
            assert_eq!(cache.shards(), effective);
            let got = run_all(Some(&cache), &g, &pts, &queries);
            assert_eq!(got, plain, "{capacity} entries, {shards} shards");
            assert_eq!(cache.stats().lookups(), queries.len() as u64);
        }
    }

    #[test]
    fn shared_cache_is_hit_across_clones_and_survives_their_drop() {
        let (g, pts) = world();
        let cache = SharedResultCache::new(32, 4);
        let queries = repeated(&pts, 1);
        let n = queries.len() as u64;

        // A clone of the handle fills the cache and is dropped...
        let first = run_all(Some(&cache.clone()), &g, &pts, &queries);
        assert_eq!(cache.stats().misses, n);
        assert_eq!(cache.entries(), queries.len());

        // ...and the original is served entirely from it: every clone owns
        // the one state.
        assert_eq!(run_all(Some(&cache), &g, &pts, &queries), first);
        assert_eq!(cache.stats(), CacheStats { hits: n, misses: n });
        assert!(format!("{cache:?}").contains("SharedResultCache"));
    }

    #[test]
    fn shared_cache_registers_as_a_metrics_source() {
        let (g, pts) = world();
        let cache = SharedResultCache::new(32, 2);
        let registry = rnn_obs::MetricsRegistry::new();
        cache.register_metrics(&registry, "serving");

        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_result_cache_hits_total{cache=\"serving\"}"), Some(0));

        run_all(Some(&cache), &g, &pts, &repeated(&pts, 2));

        // Registration polls the live cache: later snapshots see the counts.
        let snap = registry.snapshot();
        let n = pts.nodes().len() as u64;
        assert_eq!(snap.counter("rnn_result_cache_hits_total{cache=\"serving\"}"), Some(n));
        assert_eq!(snap.counter("rnn_result_cache_misses_total{cache=\"serving\"}"), Some(n));
        assert_eq!(snap.gauge("rnn_result_cache_entries{cache=\"serving\"}"), Some(n));
    }

    #[test]
    fn invalidate_all_prevents_stale_answers_after_a_point_set_swap() {
        let g = grid(9);
        let old_points = NodePointSet::from_nodes(81, (0..81).step_by(7).map(NodeId::new));
        let new_points = NodePointSet::from_nodes(81, (0..81).step_by(13).map(NodeId::new));
        let cache = SharedResultCache::new(64, 1);
        let q = [NodeId::new(40)];

        let old_answer = run_all(Some(&cache), &g, &old_points, &q);

        // The swapped world computes a different answer...
        let fresh = run_all(None, &g, &new_points, &q);
        assert_ne!(fresh, old_answer, "the two point sets must disagree for this test to bite");

        // ...but without invalidation the shared cache still serves the old
        // world's RkNN set — exactly the staleness the sweep exists to kill.
        assert_eq!(run_all(Some(&cache), &g, &new_points, &q), old_answer, "stale");
        cache.invalidate_all();
        assert_eq!(cache.entries(), 0, "every shard was swept");
        assert_eq!(run_all(Some(&cache), &g, &new_points, &q), fresh, "re-query is fresh");
        assert_eq!(run_all(Some(&cache), &g, &new_points, &q), fresh, "and is cached again");
        assert_eq!(cache.stats().hits, 2, "old-world hit + re-cached new answer");
    }
}
