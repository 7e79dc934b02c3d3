//! The query engine: trait-object algorithm dispatch, per-worker scratch
//! reuse, result memoization and multi-threaded batch execution.
//!
//! The paper's algorithms are exposed as free functions for one-off queries
//! and figure reproduction; a serving system instead executes *workloads* —
//! many queries against one graph — where per-query setup cost and
//! single-threaded execution dominate. [`QueryEngine`] is that serving layer:
//!
//! * the monochromatic algorithms sit behind the [`RknnAlgorithm`] trait,
//!   dispatched from the existing [`Algorithm`] enum, so harnesses and
//!   future algorithms plug in uniformly — including algorithms implemented
//!   *outside* this crate, like `rnn-index`'s hub-label RkNN, which reaches
//!   the dispatch through the object-safe
//!   [`crate::precomputed::HubLabelRknn`] trait;
//! * each worker thread owns a [`Scratch`] arena, making steady-state
//!   queries allocation-free (the expansion heaps, label maps and candidate
//!   buffers of one query are reset — not reallocated — for the next);
//! * an optional bounded LRU ([`QueryEngine::with_result_cache`], off by
//!   default) memoizes whole outcomes keyed by `(algorithm, query, k)` for
//!   repeated-query workloads, with hit/miss counters in
//!   [`BatchOutcome::cache`]; the capacity can be striped over
//!   independently locked shards
//!   ([`QueryEngine::with_result_cache_sharded`]) so concurrent workers
//!   looking up distinct keys never contend, mirroring the striped buffer
//!   pool one layer down — both sit on the one shared [`rnn_storage::Lru`];
//! * [`QueryEngine::run_batch`] executes a [`Workload`] across a configurable
//!   number of threads with **deterministic, input-order results**: queries
//!   are independent, so the result and [`QueryStats`] of each query are
//!   identical no matter how many workers run them or how they interleave
//!   (only buffer faults and cache hit counts depend on scheduling).
//!
//! The topology and point set are shared by reference across workers, which
//! is why [`Topology`] and [`rnn_graph::PointsOnNodes`] require `Sync` and
//! why `rnn-storage`'s buffer pool is thread-safe. A batch's I/O is the
//! caller's to read: diff the paged graph's `io_stats()` around the batch.

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::dispatch::Algorithm;
use crate::fast_hash::FastHasher;
use crate::materialize::MaterializedKnn;
use crate::precomputed::{HubLabelRknn, Precomputed};
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use crate::{eager, lazy, lazy_ep, materialize, naive};
use rnn_graph::{NodeId, PointsOnNodes, Topology};
use rnn_obs::{Phase, QueryTrace};
use rnn_storage::lru::mix64;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One query's result and (when tracing) its trace.
type TracedOutcome = (RknnOutcome, Option<QueryTrace>);

/// A monochromatic RkNN algorithm, executable against any topology / point
/// set pair with a reusable [`Scratch`] arena.
///
/// Implementations for the built-in algorithms are obtained with
/// [`Algorithm::resolve`]. Harnesses and the engine drive every algorithm —
/// traversal-based and index-served alike — through this one object-safe
/// interface.
pub trait RknnAlgorithm: Send + Sync {
    /// The enum tag of this algorithm (for display and dispatch round-trips).
    fn algorithm(&self) -> Algorithm;

    /// Runs one RkNN query.
    ///
    /// `pre` must carry the precomputed structures the algorithm declares via
    /// [`Algorithm::needs_materialization`] / [`Algorithm::needs_hub_labels`];
    /// the traversal-based algorithms ignore it.
    ///
    /// # Panics
    /// Panics if `k == 0`, or if a required precomputed structure is absent.
    fn run(
        &self,
        topo: &dyn Topology,
        points: &dyn PointsOnNodes,
        pre: Precomputed<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut Scratch,
    ) -> RknnOutcome;
}

macro_rules! dispatch_struct {
    ($name:ident, $tag:expr, |$topo:ident, $points:ident, $pre:ident, $query:ident, $k:ident, $scratch:ident| $body:expr) => {
        struct $name;

        impl RknnAlgorithm for $name {
            fn algorithm(&self) -> Algorithm {
                $tag
            }

            fn run(
                &self,
                $topo: &dyn Topology,
                $points: &dyn PointsOnNodes,
                $pre: Precomputed<'_>,
                $query: NodeId,
                $k: usize,
                $scratch: &mut Scratch,
            ) -> RknnOutcome {
                $body
            }
        }
    };
}

dispatch_struct!(EagerDispatch, Algorithm::Eager, |topo, points, _pre, query, k, scratch| {
    eager::eager_rknn_in(topo, points, query, k, scratch)
});
dispatch_struct!(LazyDispatch, Algorithm::Lazy, |topo, points, _pre, query, k, scratch| {
    lazy::lazy_rknn_in(topo, points, query, k, scratch)
});
dispatch_struct!(
    LazyEpDispatch,
    Algorithm::LazyExtendedPruning,
    |topo, points, _pre, query, k, scratch| {
        lazy_ep::lazy_ep_rknn_in(topo, points, query, k, scratch)
    }
);
dispatch_struct!(NaiveDispatch, Algorithm::Naive, |topo, points, _pre, query, k, scratch| {
    naive::naive_rknn_in(topo, points, query, k, scratch)
});
dispatch_struct!(
    EagerMDispatch,
    Algorithm::EagerMaterialized,
    |topo, points, pre, query, k, scratch| {
        let table = pre.materialized.expect(
            "eager-M requires a materialized k-NN table (Algorithm::needs_materialization)",
        );
        materialize::eager_m_rknn_in(topo, points, table, query, k, scratch)
    }
);
dispatch_struct!(HubLabelDispatch, Algorithm::HubLabel, |topo, points, pre, query, k, scratch| {
    let index = pre
        .hub_labels
        .expect("hub-label queries require a prebuilt index (Algorithm::needs_hub_labels)");
    // The index is an oracle over a *specific* graph and point set; a
    // mismatched one would silently return answers for a different world.
    assert_eq!(
        index.num_nodes(),
        topo.num_nodes(),
        "hub-label index was built over a different graph"
    );
    assert_eq!(
        index.num_points(),
        points.num_points(),
        "hub-label index was built over a different point set"
    );
    index.rknn_from_labels(query, k, scratch)
});

/// Resolves an [`Algorithm`] tag to its executable implementation.
pub(crate) fn resolve(algorithm: Algorithm) -> &'static dyn RknnAlgorithm {
    match algorithm {
        Algorithm::Eager => &EagerDispatch,
        Algorithm::EagerMaterialized => &EagerMDispatch,
        Algorithm::Lazy => &LazyDispatch,
        Algorithm::LazyExtendedPruning => &LazyEpDispatch,
        Algorithm::Naive => &NaiveDispatch,
        Algorithm::HubLabel => &HubLabelDispatch,
    }
}

/// One query of a [`Workload`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// The query node.
    pub query: NodeId,
    /// The `k` of the RkNN query.
    pub k: usize,
}

/// A batch of RkNN queries to execute with [`QueryEngine::run_batch`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Workload {
    /// The queries, in the order their results are reported.
    pub queries: Vec<QuerySpec>,
}

impl Workload {
    /// A workload running the same algorithm and `k` over many query nodes.
    pub fn uniform<I>(algorithm: Algorithm, k: usize, queries: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        Workload {
            queries: queries.into_iter().map(|query| QuerySpec { algorithm, query, k }).collect(),
        }
    }

    /// Number of queries in the workload.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` if the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterates the queries in report order — the bridge an online server
    /// uses to turn a workload into per-request submissions without
    /// consuming it.
    pub fn iter(&self) -> std::slice::Iter<'_, QuerySpec> {
        self.queries.iter()
    }
}

impl FromIterator<QuerySpec> for Workload {
    /// Collects heterogeneous specs (mixed algorithms and `k`s) into a
    /// workload, preserving order.
    fn from_iter<I: IntoIterator<Item = QuerySpec>>(iter: I) -> Self {
        Workload { queries: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a QuerySpec;
    type IntoIter = std::slice::Iter<'a, QuerySpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The outcome of a batch: per-query results in input order plus aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchOutcome {
    /// One outcome per query, in the workload's input order, independent of
    /// the thread count (each also carries its per-query [`QueryStats`]).
    pub results: Vec<RknnOutcome>,
    /// Sum of the per-query [`QueryStats`].
    pub aggregate: QueryStats,
    /// Result-cache hits/misses during this batch; all zeros unless a cache
    /// was attached with [`QueryEngine::with_result_cache`]. Like buffer
    /// faults, the split between hits and misses depends on scheduling (two
    /// workers can race to miss on the same key) — the *results* never do.
    pub cache: CacheStats,
    /// One phase trace per query, in the workload's input order — empty
    /// unless tracing was enabled with [`QueryEngine::with_tracing`]. A
    /// cache-hit query yields a trace with no phase spans (all its service
    /// time is the lookup). Timings vary run to run; phase *work* counters
    /// are as deterministic as [`QueryStats`].
    pub traces: Vec<QueryTrace>,
}

/// The memoization state attached by [`QueryEngine::with_result_cache`]:
/// the capacity split across independently locked LRU shards (the same
/// striping scheme as `rnn-storage`'s buffer pool — `mix64(hash(key))`
/// masked by the power-of-two shard count), plus global hit/miss counters.
struct CacheState {
    shards: Vec<Mutex<ResultCache>>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A result cache that outlives any one [`QueryEngine`] view, shared by
/// handle (cheap `Clone`, `Arc` inside).
///
/// An engine borrows its topology and point set, so a long-running service
/// that swaps worlds (or builds a short-lived engine view per batch, like
/// `rnn-server`'s workers do) cannot keep its memoized results *inside* the
/// engine. `SharedResultCache` is the same striped LRU state
/// [`QueryEngine::with_result_cache_sharded`] builds, owned externally:
/// attach it to any number of engine views with
/// [`QueryEngine::with_shared_result_cache`] and they all hit one cache.
///
/// Whoever owns the handle is responsible for [`invalidate_all`] when the
/// world changes (new point set, new graph): entries are keyed by
/// `(algorithm, query node, k)` only, so stale entries from a previous world
/// would otherwise be served as current answers.
///
/// [`invalidate_all`]: SharedResultCache::invalidate_all
#[derive(Clone)]
pub struct SharedResultCache {
    state: std::sync::Arc<CacheState>,
}

impl SharedResultCache {
    /// Creates a cache of `capacity` entries striped over `shards`
    /// independently locked LRU shards (normalized exactly like
    /// [`QueryEngine::with_result_cache_sharded`]).
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a disabled cache is expressed by not
    /// attaching one, not by an empty one.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "a shared result cache needs capacity >= 1");
        SharedResultCache { state: std::sync::Arc::new(CacheState::new(capacity, shards)) }
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
        self.state.stats()
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
        self.state.clear_all();
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

    fn shard(&self, key: &CacheKey) -> &Mutex<ResultCache> {
        let hash = BuildHasherDefault::<FastHasher>::default().hash_one(key);
        &self.shards[(mix64(hash) as usize) & self.mask]
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry, shard by shard (capacity and the cumulative
    /// hit/miss counters are kept) — the one sweep behind both
    /// [`SharedResultCache::invalidate_all`] and
    /// [`QueryEngine::invalidate_all`].
    fn clear_all(&self) {
        for shard in &self.shards {
            shard.lock().expect("result cache lock").clear();
        }
    }
}

/// A reusable executor for RkNN workloads over one topology and point set.
///
/// ```
/// use rnn_core::engine::{QueryEngine, Workload};
/// use rnn_core::Algorithm;
/// use rnn_graph::{GraphBuilder, NodeId, NodePointSet};
///
/// let mut b = GraphBuilder::new(5);
/// for i in 0..4 {
///     b.add_edge(i, i + 1, 1.0).unwrap();
/// }
/// let g = b.build().unwrap();
/// let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(3)]);
///
/// let engine = QueryEngine::new(&g, &pts).with_threads(2);
/// let workload = Workload::uniform(Algorithm::Eager, 1, g.node_ids());
/// let batch = engine.run_batch(&workload);
/// assert_eq!(batch.results.len(), 5);
/// ```
pub struct QueryEngine<'a> {
    topo: &'a dyn Topology,
    points: &'a dyn PointsOnNodes,
    materialized: Option<&'a MaterializedKnn>,
    hub_labels: Option<&'a dyn HubLabelRknn>,
    cache: Option<std::sync::Arc<CacheState>>,
    threads: usize,
    tracing: bool,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over a topology and point set. Defaults: no
    /// materialized table, no hub-label index, no result cache, one thread.
    pub fn new<T, P>(topo: &'a T, points: &'a P) -> Self
    where
        T: Topology,
        P: PointsOnNodes,
    {
        Self::from_dyn(topo, points)
    }

    /// [`QueryEngine::new`] over already-erased trait objects — the entry
    /// point for callers that hold their world behind `Arc<dyn Topology>` /
    /// `Arc<dyn PointsOnNodes>` (as `rnn-server`'s swappable worlds do) and
    /// therefore cannot name a sized `T`/`P`.
    pub fn from_dyn(topo: &'a dyn Topology, points: &'a dyn PointsOnNodes) -> Self {
        QueryEngine {
            topo,
            points,
            materialized: None,
            hub_labels: None,
            cache: None,
            threads: 1,
            tracing: false,
        }
    }

    /// Enables per-query phase tracing (off by default). With tracing on,
    /// every [`QueryEngine::run`] leaves a finished [`QueryTrace`] in the
    /// scratch's tracer (drain it with
    /// [`rnn_obs::Tracer::take_completed`]) and [`QueryEngine::run_batch`]
    /// surfaces one trace per query in [`BatchOutcome::traces`]. Tracing
    /// never changes results; its steady-state cost is one clock read per
    /// phase span.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Whether per-query phase tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Attaches a materialized k-NN table (required for eager-M queries).
    pub fn with_materialized(mut self, table: &'a MaterializedKnn) -> Self {
        self.materialized = Some(table);
        self
    }

    /// Attaches a hub-label index (required for [`Algorithm::HubLabel`]
    /// queries). Build one with `rnn-index`'s `HubLabelIndex::build` over the
    /// same graph and point set this engine serves.
    pub fn with_hub_labels(mut self, index: &'a dyn HubLabelRknn) -> Self {
        self.hub_labels = Some(index);
        self
    }

    /// Enables memoization of whole query outcomes in a single-shard LRU
    /// bounded at `capacity` entries, keyed by `(algorithm, query node, k)`.
    /// A capacity of zero leaves caching disabled.
    ///
    /// Off by default: caching never changes results (every algorithm is
    /// deterministic, so a hit returns exactly what recomputation would),
    /// but workloads that measure per-query work want every query executed.
    pub fn with_result_cache(self, capacity: usize) -> Self {
        self.with_result_cache_sharded(capacity, 1)
    }

    /// Like [`QueryEngine::with_result_cache`], with the capacity striped
    /// over `shards` independently locked LRU shards (rounded up to a power
    /// of two and capped so every shard holds at least one entry), so
    /// concurrent workers looking up distinct keys never contend on one
    /// cache lock. Rule of thumb: one shard per worker thread.
    ///
    /// Sharding only changes lock granularity — hits, misses and eviction
    /// order within a key's shard are unaffected for a fixed capacity split,
    /// and results never change either way.
    pub fn with_result_cache_sharded(mut self, capacity: usize, shards: usize) -> Self {
        self.cache = (capacity > 0).then(|| std::sync::Arc::new(CacheState::new(capacity, shards)));
        self
    }

    /// Attaches an externally owned [`SharedResultCache`] by handle, so many
    /// engine views (e.g. one per serving worker or per world snapshot) hit
    /// one memoization state. The caller keeps the handle and is responsible
    /// for [`SharedResultCache::invalidate_all`] when the topology or point
    /// set the engine views serve changes.
    pub fn with_shared_result_cache(mut self, cache: &SharedResultCache) -> Self {
        self.cache = Some(std::sync::Arc::clone(&cache.state));
        self
    }

    /// Drops every memoized outcome of the attached result cache (a no-op
    /// without one). Capacity and cumulative hit/miss counters are kept.
    /// Long-lived engines call this when their world changes under them —
    /// e.g. after the point set is swapped — so no stale RkNN set survives;
    /// see [`SharedResultCache::invalidate_all`] for the racing-lookup
    /// semantics.
    pub fn invalidate_all(&self) {
        if let Some(cache) = &self.cache {
            cache.clear_all();
        }
    }

    /// The number of independently locked result-cache shards (0 when no
    /// cache is attached).
    pub fn cache_shards(&self) -> usize {
        self.cache.as_ref().map(|c| c.shards.len()).unwrap_or(0)
    }

    /// Sets the worker thread count for [`QueryEngine::run_batch`]. Values
    /// are clamped to at least 1; the batch never spawns more workers than it
    /// has queries.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative result-cache hit/miss counters since the engine was built
    /// (all zeros when no cache is attached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The precomputed-structure context this engine passes to every query.
    fn precomputed(&self) -> Precomputed<'a> {
        Precomputed { materialized: self.materialized, hub_labels: self.hub_labels }
    }

    /// Runs a single query on a caller-provided scratch arena, consulting the
    /// result cache when one is attached. This is the building block
    /// `run_batch` gives each worker; serving loops that process queries one
    /// at a time call it directly to keep the steady-state allocation-free.
    pub fn run(&self, spec: &QuerySpec, scratch: &mut Scratch) -> RknnOutcome {
        let Some(cache) = &self.cache else {
            return self.run_uncached(spec, scratch);
        };
        let key = (spec.algorithm, spec.query, spec.k);
        // Only the key's shard is locked. A hit hands out an Arc under the
        // shard lock (O(1)); the result data is cloned only after the lock
        // is released.
        let shard = cache.shard(&key);
        let hit = shard.lock().expect("result cache lock").get(&key);
        if let Some(hit) = hit {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            if self.tracing {
                // A hit still yields a trace (so batches stay one trace per
                // query): pure service time, no phase spans, no remainder.
                let tracer = scratch.tracer_mut();
                tracer.start(spec.algorithm.name(), spec.query.index() as u64, spec.k as u32, None);
                tracer.finish();
            }
            return (*hit).clone();
        }
        // Compute outside the lock: a concurrent miss on the same key just
        // computes the identical outcome twice and inserts it twice.
        let outcome = self.run_uncached(spec, scratch);
        cache.misses.fetch_add(1, Ordering::Relaxed);
        shard.lock().expect("result cache lock").insert(key, std::sync::Arc::new(outcome.clone()));
        outcome
    }

    fn run_uncached(&self, spec: &QuerySpec, scratch: &mut Scratch) -> RknnOutcome {
        // The main expansion absorbs the residual service time for the
        // traversal family; hub-label covers its whole runtime with explicit
        // candidate-generation / counting spans instead.
        let remainder = match spec.algorithm {
            Algorithm::Eager
            | Algorithm::EagerMaterialized
            | Algorithm::Lazy
            | Algorithm::LazyExtendedPruning
            | Algorithm::Naive => Some(Phase::Expansion),
            Algorithm::HubLabel => None,
        };
        if self.tracing {
            scratch.tracer_mut().start(
                spec.algorithm.name(),
                spec.query.index() as u64,
                spec.k as u32,
                remainder,
            );
        }
        let outcome = resolve(spec.algorithm).run(
            self.topo,
            self.points,
            self.precomputed(),
            spec.query,
            spec.k,
            scratch,
        );
        if self.tracing {
            let tracer = scratch.tracer_mut();
            if let Some(phase) = remainder {
                tracer.add_work(phase, outcome.stats.nodes_settled);
            }
            tracer.finish();
        }
        outcome
    }

    fn run_traced(&self, spec: &QuerySpec, scratch: &mut Scratch) -> TracedOutcome {
        let outcome = self.run(spec, scratch);
        (outcome, scratch.tracer_mut().take_completed())
    }

    /// Executes a workload and returns per-query results in input order plus
    /// aggregated statistics.
    ///
    /// With `threads > 1` the queries are distributed over that many scoped
    /// worker threads, each with its own [`Scratch`]; results and per-query
    /// [`QueryStats`] are identical to the sequential execution (covered by
    /// the batch-determinism property tests).
    pub fn run_batch(&self, workload: &Workload) -> BatchOutcome {
        let n = workload.queries.len();
        let cache_before = self.cache_stats();
        let mut slots: Vec<Option<TracedOutcome>> = Vec::new();
        slots.resize_with(n, || None);

        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            let mut scratch = Scratch::new();
            for (slot, spec) in slots.iter_mut().zip(&workload.queries) {
                *slot = Some(self.run_traced(spec, &mut scratch));
            }
        } else {
            // Work stealing off a shared cursor: workers pull the next query
            // index and stash (index, outcome) pairs locally, merging once at
            // the end. Results land in their input-order slots regardless of
            // which worker ran them.
            let next = AtomicUsize::new(0);
            let done: Mutex<Vec<(usize, TracedOutcome)>> = Mutex::new(Vec::with_capacity(n));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut scratch = Scratch::new();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, self.run_traced(&workload.queries[i], &mut scratch)));
                        }
                        done.lock().expect("worker result lock").extend(local);
                    });
                }
            });
            for (i, outcome) in done.into_inner().expect("worker result lock") {
                slots[i] = Some(outcome);
            }
        }

        let mut results = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(if self.tracing { n } else { 0 });
        let mut aggregate = QueryStats::default();
        for slot in slots {
            let (outcome, trace) = slot.expect("every query index was executed exactly once");
            aggregate += &outcome.stats;
            results.push(outcome);
            traces.extend(trace);
        }
        let cache = self.cache_stats().since(&cache_before);
        BatchOutcome { results, aggregate, cache, traces }
    }
}

impl std::fmt::Debug for QueryEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("num_nodes", &self.topo.num_nodes())
            .field("num_points", &self.points.num_points())
            .field("materialized", &self.materialized.is_some())
            .field("hub_labels", &self.hub_labels.is_some())
            .field("result_cache", &self.cache.is_some())
            .field("threads", &self.threads)
            .field("tracing", &self.tracing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_rknn;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};
    use rnn_storage::{IoCounters, LayoutStrategy, PagedGraph};

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

    fn setup() -> (Graph, NodePointSet, MaterializedKnn) {
        let g = grid(9);
        let pts = NodePointSet::from_nodes(81, (0..81).step_by(7).map(NodeId::new));
        let table = MaterializedKnn::build(&g, &pts, 2);
        (g, pts, table)
    }

    /// A stand-in hub-label oracle backed by the naive algorithm, so the
    /// dispatch plumbing for [`Algorithm::HubLabel`] is exercised without
    /// depending on `rnn-index` (which sits above this crate). The real
    /// labeling is cross-checked in the workspace-level `hub_label_index`
    /// integration suite.
    struct NaiveOracle<'a> {
        topo: &'a Graph,
        points: &'a NodePointSet,
    }

    impl HubLabelRknn for NaiveOracle<'_> {
        fn num_nodes(&self) -> usize {
            self.topo.num_nodes()
        }
        fn num_points(&self) -> usize {
            self.points.num_points()
        }
        fn rknn_from_labels(&self, query: NodeId, k: usize, scratch: &mut Scratch) -> RknnOutcome {
            naive::naive_rknn_in(self.topo, self.points, query, k, scratch)
        }
    }

    #[test]
    fn trait_dispatch_matches_direct_calls_for_every_algorithm() {
        let (g, pts, table) = setup();
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let pre = Precomputed::materialized(&table).with_hub_labels(&oracle);
        let mut scratch = Scratch::new();
        for algorithm in Algorithm::ALL {
            assert_eq!(resolve(algorithm).algorithm(), algorithm);
            for q in [NodeId::new(0), NodeId::new(40), NodeId::new(80)] {
                let via_trait = resolve(algorithm).run(&g, &pts, pre, q, 2, &mut scratch);
                let direct = run_rknn(algorithm, &g, &pts, pre, q, 2);
                assert_eq!(via_trait, direct, "{algorithm} q={q}");
            }
        }
    }

    #[test]
    fn batch_results_are_input_ordered_and_match_single_queries() {
        let (g, pts, table) = setup();
        let engine = QueryEngine::new(&g, &pts).with_materialized(&table);
        let workload = Workload::uniform(Algorithm::Eager, 1, pts.nodes().iter().copied());
        assert!(!workload.is_empty());
        let batch = engine.run_batch(&workload);
        assert_eq!(batch.results.len(), workload.len());
        let mut expected_aggregate = QueryStats::default();
        for (spec, outcome) in workload.queries.iter().zip(&batch.results) {
            let single = run_rknn(
                spec.algorithm,
                &g,
                &pts,
                Precomputed::materialized(&table),
                spec.query,
                spec.k,
            );
            assert_eq!(outcome, &single, "query {}", spec.query);
            expected_aggregate += &single.stats;
        }
        assert_eq!(batch.aggregate, expected_aggregate);
        assert_eq!(batch.cache, CacheStats::default(), "no cache attached");
    }

    #[test]
    fn multi_threaded_batches_reproduce_the_sequential_outcome() {
        let (g, pts, table) = setup();
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let mut queries = Vec::new();
        for algorithm in Algorithm::ALL {
            for &node in pts.nodes() {
                queries.push(QuerySpec { algorithm, query: node, k: 2 });
            }
        }
        let workload = Workload { queries };
        let sequential = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_hub_labels(&oracle)
            .run_batch(&workload);
        for threads in [2usize, 4, 8] {
            let parallel = QueryEngine::new(&g, &pts)
                .with_materialized(&table)
                .with_hub_labels(&oracle)
                .with_threads(threads)
                .run_batch(&workload);
            assert_eq!(parallel.results, sequential.results, "threads={threads}");
            assert_eq!(parallel.aggregate, sequential.aggregate, "threads={threads}");
        }
    }

    #[test]
    fn result_cache_hits_repeat_queries_without_changing_outcomes() {
        let (g, pts, table) = setup();
        let uncached = QueryEngine::new(&g, &pts).with_materialized(&table);
        let cached = QueryEngine::new(&g, &pts).with_materialized(&table).with_result_cache(64);

        // Each query node appears three times: two of the three executions
        // must be cache hits, and results must match the uncached engine.
        let mut specs = Vec::new();
        for _ in 0..3 {
            for &node in pts.nodes() {
                specs.push(QuerySpec { algorithm: Algorithm::Eager, query: node, k: 2 });
            }
        }
        let workload = Workload { queries: specs };
        let plain = uncached.run_batch(&workload);
        let memoized = cached.run_batch(&workload);
        assert_eq!(memoized.results, plain.results, "caching must never change results");
        assert_eq!(memoized.aggregate, plain.aggregate);
        assert_eq!(memoized.cache.misses, pts.nodes().len() as u64);
        assert_eq!(memoized.cache.hits, 2 * pts.nodes().len() as u64);
        assert_eq!(cached.cache_stats(), memoized.cache, "cumulative == first batch");
        assert_eq!(plain.cache, CacheStats::default());

        // A second identical batch is served entirely from the cache.
        let again = cached.run_batch(&workload);
        assert_eq!(again.results, plain.results);
        assert_eq!(again.cache.misses, 0);
        assert_eq!(again.cache.hits, workload.len() as u64);
    }

    #[test]
    fn result_cache_capacity_bounds_and_multi_threaded_batches_stay_exact() {
        let (g, pts, table) = setup();
        let reference = QueryEngine::new(&g, &pts).with_materialized(&table);
        // A tiny capacity forces constant eviction; an 8-thread pool races on
        // the shared LRU. Results must still be byte-identical.
        let cached = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_result_cache(2)
            .with_threads(8);
        let mut specs = Vec::new();
        for _ in 0..4 {
            for &node in pts.nodes() {
                specs.push(QuerySpec { algorithm: Algorithm::Lazy, query: node, k: 1 });
            }
        }
        let workload = Workload { queries: specs };
        let plain = reference.run_batch(&workload);
        let memoized = cached.run_batch(&workload);
        assert_eq!(memoized.results, plain.results);
        assert_eq!(memoized.cache.lookups(), workload.len() as u64);

        // Capacity zero means "disabled": no counters move.
        let disabled = QueryEngine::new(&g, &pts).with_materialized(&table).with_result_cache(0);
        let out = disabled.run_batch(&workload);
        assert_eq!(out.results, plain.results);
        assert_eq!(disabled.cache_stats(), CacheStats::default());
        assert_eq!(disabled.cache_shards(), 0, "no cache, no shards");
    }

    #[test]
    fn sharded_result_cache_stays_exact_and_normalizes_shard_counts() {
        let (g, pts, table) = setup();
        let reference = QueryEngine::new(&g, &pts).with_materialized(&table);
        let mut specs = Vec::new();
        for _ in 0..3 {
            for &node in pts.nodes() {
                specs.push(QuerySpec { algorithm: Algorithm::Eager, query: node, k: 2 });
            }
        }
        let workload = Workload { queries: specs };
        let plain = reference.run_batch(&workload);

        // Shard counts are rounded to a power of two and capped by capacity;
        // results are always shard-invariant, and the (single-threaded)
        // hit/miss totals too while every shard's slice of the capacity
        // still holds its share of the working set (12 keys over <= 8
        // shards of a 64-entry cache).
        for (requested, effective) in [(1usize, 1usize), (3, 4), (8, 8)] {
            let cached = QueryEngine::new(&g, &pts)
                .with_materialized(&table)
                .with_result_cache_sharded(64, requested);
            assert_eq!(cached.cache_shards(), effective, "requested {requested}");
            let memoized = cached.run_batch(&workload);
            assert_eq!(memoized.results, plain.results, "{requested} shards");
            assert_eq!(memoized.cache.misses, pts.nodes().len() as u64);
            assert_eq!(memoized.cache.hits, 2 * pts.nodes().len() as u64);
        }
        // Saturated striping (64 shards of one entry each) keeps results
        // exact even when same-shard keys evict each other.
        let saturated =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_result_cache_sharded(64, 64);
        assert_eq!(saturated.cache_shards(), 64);
        let out = saturated.run_batch(&workload);
        assert_eq!(out.results, plain.results);
        assert_eq!(out.cache.lookups(), workload.len() as u64);
        // More shards than capacity collapses to the capacity.
        let tiny =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_result_cache_sharded(2, 16);
        assert_eq!(tiny.cache_shards(), 2);
        // An 8-thread pool over the sharded cache still never changes
        // results.
        let racing = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_result_cache_sharded(16, 8)
            .with_threads(8);
        let out = racing.run_batch(&workload);
        assert_eq!(out.results, plain.results);
        assert_eq!(out.cache.lookups(), workload.len() as u64);
    }

    #[test]
    fn shared_cache_is_hit_across_engine_views_and_survives_their_drop() {
        let (g, pts, table) = setup();
        let cache = SharedResultCache::new(32, 4);
        assert_eq!(cache.shards(), 4);
        let workload = Workload::uniform(Algorithm::Eager, 2, pts.nodes().iter().copied());

        // First view fills the cache...
        let first = {
            let engine = QueryEngine::new(&g, &pts)
                .with_materialized(&table)
                .with_shared_result_cache(&cache);
            engine.run_batch(&workload)
        };
        assert_eq!(cache.stats().misses, workload.len() as u64);
        assert_eq!(cache.entries(), workload.len());

        // ...and a *different* engine view over the same world is served
        // entirely from it: the handle owns the state, not the engine.
        let engine =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_shared_result_cache(&cache);
        let again = engine.run_batch(&workload);
        assert_eq!(again.results, first.results);
        assert_eq!(cache.stats().hits, workload.len() as u64);
        assert_eq!(again.cache, CacheStats { hits: workload.len() as u64, misses: 0 });
        assert!(format!("{cache:?}").contains("SharedResultCache"));
    }

    #[test]
    fn shared_cache_registers_as_a_metrics_source() {
        let (g, pts, table) = setup();
        let cache = SharedResultCache::new(32, 2);
        let registry = rnn_obs::MetricsRegistry::new();
        cache.register_metrics(&registry, "serving");

        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_result_cache_hits_total{cache=\"serving\"}"), Some(0));

        let workload = Workload::uniform(Algorithm::Eager, 2, pts.nodes().iter().copied());
        let engine =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_shared_result_cache(&cache);
        engine.run_batch(&workload);
        engine.run_batch(&workload);

        // Registration polls the live cache: later snapshots see the counts.
        let snap = registry.snapshot();
        let n = workload.len() as u64;
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
        let spec = QuerySpec { algorithm: Algorithm::Eager, query: NodeId::new(40), k: 2 };
        let mut scratch = Scratch::new();

        let old_engine = QueryEngine::new(&g, &old_points).with_shared_result_cache(&cache);
        let old_answer = old_engine.run(&spec, &mut scratch);

        // The swapped world computes a different answer...
        let new_engine = QueryEngine::new(&g, &new_points).with_shared_result_cache(&cache);
        let fresh = QueryEngine::new(&g, &new_points).run(&spec, &mut scratch);
        assert_ne!(fresh, old_answer, "the two point sets must disagree for this test to bite");

        // ...but without invalidation the shared cache still serves the old
        // world's RkNN set — exactly the staleness the hook exists to kill.
        assert_eq!(new_engine.run(&spec, &mut scratch), old_answer, "stale before invalidate");
        new_engine.invalidate_all();
        assert_eq!(cache.entries(), 0, "every shard was swept");
        assert_eq!(new_engine.run(&spec, &mut scratch), fresh, "re-query returns the new answer");
        assert_eq!(new_engine.run(&spec, &mut scratch), fresh, "and is cached again");
        assert_eq!(cache.stats().hits, 2, "old-world hit + re-cached new answer");

        // invalidate_all without a cache attached is a quiet no-op.
        QueryEngine::new(&g, &new_points).invalidate_all();
    }

    #[test]
    fn engine_views_work_over_unsized_trait_objects() {
        // The server holds its world as Arc<dyn Topology> / Arc<dyn
        // PointsOnNodes>; the engine constructor must accept the unsized
        // targets directly.
        let (g, pts, _) = setup();
        let topo: std::sync::Arc<dyn Topology + Send + Sync> = std::sync::Arc::new(g);
        let points: std::sync::Arc<dyn PointsOnNodes + Send + Sync> = std::sync::Arc::new(pts);
        let engine = QueryEngine::from_dyn(&*topo, &*points);
        let spec = QuerySpec { algorithm: Algorithm::Lazy, query: NodeId::new(40), k: 1 };
        let via_dyn = engine.run(&spec, &mut Scratch::new());
        assert!(!via_dyn.points.is_empty());
    }

    #[test]
    fn hub_label_dispatch_requires_a_matching_index() {
        let (g, pts, _) = setup();
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let engine = QueryEngine::new(&g, &pts).with_hub_labels(&oracle);
        let spec = QuerySpec { algorithm: Algorithm::HubLabel, query: NodeId::new(40), k: 2 };
        let out = engine.run(&spec, &mut Scratch::new());
        let direct = naive::naive_rknn(&g, &pts, NodeId::new(40), 2);
        assert_eq!(out, direct);

        // A mismatched index (different point count) is rejected loudly.
        let fewer = NodePointSet::from_nodes(81, [NodeId::new(0)]);
        let stale = NaiveOracle { topo: &g, points: &fewer };
        let engine = QueryEngine::new(&g, &pts).with_hub_labels(&stale);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(&spec, &mut Scratch::new())
        }));
        assert!(err.is_err(), "point-set mismatch must panic");
    }

    #[test]
    fn empty_workloads_are_a_no_op() {
        let (g, pts, _) = setup();
        let engine = QueryEngine::new(&g, &pts).with_threads(8);
        let batch = engine.run_batch(&Workload::default());
        assert!(batch.results.is_empty());
        assert_eq!(batch.aggregate, QueryStats::default());
        assert_eq!(engine.threads(), 8);
        assert!(format!("{engine:?}").contains("QueryEngine"));
    }

    #[test]
    fn io_attribution_on_a_shared_paged_graph() {
        let (g, pts, _) = setup();
        let paged =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 8, IoCounters::new()).unwrap();
        let engine = QueryEngine::new(&paged, &pts).with_threads(4);
        let workload = Workload::uniform(Algorithm::Lazy, 1, pts.nodes().iter().copied());
        // A batch's I/O is the diff of the pool's count around it.
        let before = paged.io_stats();
        let batch = engine.run_batch(&workload);
        let io = paged.io_stats().since(&before);
        assert!(io.accesses >= workload.len() as u64, "every query fetched a page: {io:?}");
        assert!(io.evictions <= io.faults && io.faults <= io.accesses, "{io:?}");
        // Results on the paged backend equal the in-memory ones.
        let in_memory = QueryEngine::new(&g, &pts).run_batch(&workload);
        assert_eq!(batch.results, in_memory.results);
        // Every batch does the same work whichever worker runs which query,
        // so each later batch adds exactly the accesses of the first.
        for batches in 2..=4 {
            engine.run_batch(&workload);
            assert_eq!(paged.io_stats().accesses, batches * io.accesses);
        }
    }

    /// `PagedGraph::cold_start` takes `&self`, so it can land between the two
    /// snapshots a caller diffs around a batch. The diff must then read as
    /// "no more than what was counted", not panic (debug) or wrap to ~2^64
    /// (release).
    #[test]
    fn a_cold_start_between_a_callers_two_snapshots_saturates() {
        /// Cold-starts the paged graph after its first adjacency fetch.
        struct ResetAfterFirstFetch<'a> {
            paged: &'a PagedGraph,
            armed: std::sync::atomic::AtomicBool,
        }
        impl Topology for ResetAfterFirstFetch<'_> {
            fn num_nodes(&self) -> usize {
                self.paged.num_nodes()
            }
            fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(rnn_graph::Neighbor)) {
                self.paged.visit_neighbors(node, visit);
                if self.armed.swap(false, Ordering::Relaxed) {
                    self.paged.cold_start();
                }
            }
        }

        let (g, pts, _) = setup();
        let paged =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 8, IoCounters::new()).unwrap();
        let workload = Workload::uniform(Algorithm::Lazy, 1, pts.nodes().iter().copied());
        // Warm-up: the count now stands far above what one query adds.
        let warm = QueryEngine::new(&paged, &pts).run_batch(&workload);
        let before = paged.io_stats();
        assert!(before.accesses > 0);

        let resetting =
            ResetAfterFirstFetch { paged: &paged, armed: std::sync::atomic::AtomicBool::new(true) };
        let one = Workload::uniform(Algorithm::Lazy, 1, pts.nodes().iter().copied().take(1));
        let batch = QueryEngine::new(&resetting, &pts).run_batch(&one);
        assert_eq!(batch.results[0], warm.results[0], "the reset never changes an answer");
        let counted = paged.io_stats();
        assert!(counted.accesses < before.accesses, "the reset landed mid-query");
        let diff = counted.since(&before);
        assert_eq!(diff.accesses, 0, "the diff saturates at nothing-since");
        assert!(diff.faults <= counted.faults);
    }

    /// The scratch-reuse acceptance test: after the first (warm-up) query,
    /// repeated queries create no new buffers — every checkout is an arena
    /// reset of a pooled buffer.
    #[test]
    fn steady_state_queries_reuse_scratch_buffers_instead_of_allocating() {
        let (g, pts, table) = setup();
        for algorithm in [Algorithm::Eager, Algorithm::Lazy, Algorithm::LazyExtendedPruning] {
            let engine = QueryEngine::new(&g, &pts).with_materialized(&table);
            let spec = QuerySpec { algorithm, query: NodeId::new(40), k: 2 };
            let mut scratch = Scratch::new();
            let first = engine.run(&spec, &mut scratch);
            let created_after_warmup = scratch.created();
            let reuses_after_warmup = scratch.reuses();
            assert!(created_after_warmup > 0, "{algorithm}: the warm-up query fills the pools");
            for _ in 0..49 {
                let again = engine.run(&spec, &mut scratch);
                assert_eq!(again, first, "{algorithm}: reuse must not change results");
            }
            assert_eq!(
                scratch.created(),
                created_after_warmup,
                "{algorithm}: steady-state queries must not allocate new buffers"
            );
            assert!(
                scratch.reuses() >= reuses_after_warmup + 49,
                "{algorithm}: every further query must reset pooled buffers \
                 (reuses went {} -> {})",
                reuses_after_warmup,
                scratch.reuses()
            );
        }
    }

    #[test]
    #[should_panic]
    fn eager_m_without_table_panics_through_the_engine() {
        let (g, pts, _) = setup();
        let engine = QueryEngine::new(&g, &pts);
        let _ = engine.run(
            &QuerySpec { algorithm: Algorithm::EagerMaterialized, query: NodeId::new(0), k: 1 },
            &mut Scratch::new(),
        );
    }

    #[test]
    fn tracing_yields_one_trace_per_query_without_changing_results() {
        let (g, pts, table) = setup();
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let plain = QueryEngine::new(&g, &pts).with_materialized(&table).with_hub_labels(&oracle);
        let traced = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_hub_labels(&oracle)
            .with_tracing(true);
        assert!(traced.tracing() && !plain.tracing());

        let mut queries = Vec::new();
        for algorithm in Algorithm::ALL {
            for &node in pts.nodes() {
                queries.push(QuerySpec { algorithm, query: node, k: 2 });
            }
        }
        let workload = Workload { queries };
        let reference = plain.run_batch(&workload);
        let batch = traced.run_batch(&workload);
        assert_eq!(batch.results, reference.results, "tracing must not change results");
        assert!(reference.traces.is_empty(), "tracing off, no traces");
        assert_eq!(batch.traces.len(), workload.len(), "one trace per query, input order");
        for (spec, trace) in workload.iter().zip(&batch.traces) {
            assert_eq!(trace.algorithm, spec.algorithm.name());
            assert_eq!(trace.query, spec.query.index() as u64);
            assert_eq!(trace.k, spec.k as u32);
            assert!(trace.service_nanos >= trace.phase_nanos(), "phases fit in service time");
        }
        // The traversal family attributes main-expansion work and absorbs
        // residual time in the expansion phase; every algorithm's traces
        // carry *some* phase activity.
        for trace in &batch.traces {
            let active = trace.phases.iter().any(|p| p.calls > 0 || p.work > 0 || p.nanos > 0);
            assert!(active, "{}: phase counters must not be empty", trace.algorithm);
        }
        // A multi-threaded traced batch still reports input-ordered traces.
        let threaded = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_hub_labels(&oracle)
            .with_tracing(true)
            .with_threads(4)
            .run_batch(&workload);
        assert_eq!(threaded.results, reference.results);
        assert_eq!(threaded.traces.len(), workload.len());
        for (spec, trace) in workload.iter().zip(&threaded.traces) {
            assert_eq!(trace.algorithm, spec.algorithm.name(), "traces follow input order");
        }
        // Cache hits still yield traces, with no phase spans.
        let cached = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_result_cache(64)
            .with_tracing(true);
        let spec = QuerySpec { algorithm: Algorithm::Eager, query: NodeId::new(40), k: 2 };
        let mut scratch = Scratch::new();
        let miss = cached.run(&spec, &mut scratch);
        let miss_trace = scratch.tracer_mut().take_completed().expect("miss trace");
        assert!(miss_trace.phases.iter().any(|p| p.calls > 0));
        let hit = cached.run(&spec, &mut scratch);
        assert_eq!(hit, miss);
        let hit_trace = scratch.tracer_mut().take_completed().expect("hit trace");
        assert!(hit_trace.phases.iter().all(|p| p.calls == 0 && p.work == 0));
    }

    #[test]
    fn workload_collects_from_specs_and_iterates_in_order() {
        let specs = vec![
            QuerySpec { algorithm: Algorithm::Eager, query: NodeId::new(0), k: 1 },
            QuerySpec { algorithm: Algorithm::Lazy, query: NodeId::new(3), k: 2 },
            QuerySpec { algorithm: Algorithm::Naive, query: NodeId::new(1), k: 1 },
        ];
        let workload: Workload = specs.iter().copied().collect();
        assert_eq!(workload.len(), 3);
        assert_eq!(workload.iter().copied().collect::<Vec<_>>(), specs);
        // &Workload iterates without consuming.
        let seen: Vec<_> = (&workload).into_iter().copied().collect();
        assert_eq!(seen, specs);
        assert_eq!(workload.queries, specs, "still intact");
    }
}
