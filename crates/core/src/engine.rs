//! The query engine: trait-object algorithm dispatch, per-worker scratch
//! reuse and an optional shared result cache.
//!
//! The paper's algorithms are exposed as free functions for one-off queries
//! and figure reproduction; a serving worker instead runs query after query
//! against one world, where per-query setup cost dominates. [`QueryEngine`]
//! is that worker's view of the world:
//!
//! * the monochromatic algorithms sit behind the [`RknnAlgorithm`] trait,
//!   dispatched from the existing [`Algorithm`] enum, so harnesses and
//!   future algorithms plug in uniformly — including algorithms implemented
//!   *outside* this crate, like `rnn-index`'s hub-label RkNN, which reaches
//!   the dispatch through the object-safe
//!   [`crate::precomputed::HubLabelRknn`] trait;
//! * [`QueryEngine::run`] executes one [`QuerySpec`] on a caller-owned
//!   [`Scratch`] arena, making steady-state queries allocation-free (the
//!   expansion heaps, label maps and candidate buffers of one query are
//!   reset — not reallocated — for the next);
//! * an attached [`SharedResultCache`] memoizes whole outcomes keyed by
//!   `(algorithm, query, k)` for repeated-query workloads.
//!
//! Running queries concurrently is `rnn-server`'s job: its workers each own a
//! [`Scratch`] and build one engine view per micro-batch. The topology and
//! point set are shared by reference across them, which is why [`Topology`]
//! and [`rnn_graph::PointsOnNodes`] require `Sync` and why `rnn-storage`'s
//! buffer pool is thread-safe.

use crate::cache::{CacheState, SharedResultCache};
use crate::dispatch::Algorithm;
use crate::materialize::MaterializedKnn;
use crate::precomputed::{HubLabelRknn, Precomputed};
use crate::query::RknnOutcome;
use crate::scratch::Scratch;
use crate::{eager, lazy, lazy_ep, materialize, naive};
use rnn_graph::{NodeId, PointsOnNodes, Topology};
use rnn_obs::Phase;
use std::sync::atomic::Ordering;

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

/// One RkNN query: what [`QueryEngine::run`] executes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// The query node.
    pub query: NodeId,
    /// The `k` of the RkNN query.
    pub k: usize,
}

/// A view of one topology and point set that runs RkNN queries.
///
/// ```
/// use rnn_core::engine::{QueryEngine, QuerySpec};
/// use rnn_core::{Algorithm, Scratch};
/// use rnn_graph::{GraphBuilder, NodeId, NodePointSet};
///
/// let mut b = GraphBuilder::new(5);
/// for i in 0..4 {
///     b.add_edge(i, i + 1, 1.0).unwrap();
/// }
/// let g = b.build().unwrap();
/// let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(3)]);
///
/// let engine = QueryEngine::new(&g, &pts);
/// let mut scratch = Scratch::new();
/// let spec = QuerySpec { algorithm: Algorithm::Eager, query: NodeId::new(1), k: 1 };
/// assert_eq!(engine.run(&spec, &mut scratch).points.len(), 2, "both points");
/// ```
pub struct QueryEngine<'a> {
    topo: &'a dyn Topology,
    points: &'a dyn PointsOnNodes,
    materialized: Option<&'a MaterializedKnn>,
    hub_labels: Option<&'a dyn HubLabelRknn>,
    cache: Option<&'a CacheState>,
    tracing: bool,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over a topology and point set. Defaults: no
    /// materialized table, no hub-label index, no result cache, no tracing.
    /// Sized worlds coerce at the call site; `rnn-server` passes the
    /// `dyn` targets of its `Arc`s.
    pub fn new(topo: &'a dyn Topology, points: &'a dyn PointsOnNodes) -> Self {
        QueryEngine {
            topo,
            points,
            materialized: None,
            hub_labels: None,
            cache: None,
            tracing: false,
        }
    }

    /// Enables per-query phase tracing (off by default). With tracing on,
    /// every [`QueryEngine::run`] leaves a finished [`rnn_obs::QueryTrace`]
    /// in the scratch's tracer (drain it with
    /// [`rnn_obs::Tracer::take_completed`]), a cache hit included. Tracing
    /// never changes results; its steady-state cost is one clock read per
    /// phase span.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
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

    /// Attaches a [`SharedResultCache`], so many engine views (e.g. one per
    /// serving worker and micro-batch) hit one memoization state. The caller
    /// keeps the handle and is responsible for
    /// [`SharedResultCache::invalidate_all`] when the topology or point set
    /// the engine views serve changes.
    pub fn with_shared_result_cache(mut self, cache: &'a SharedResultCache) -> Self {
        self.cache = Some(&cache.state);
        self
    }

    /// The precomputed-structure context this engine passes to every query.
    fn precomputed(&self) -> Precomputed<'a> {
        Precomputed { materialized: self.materialized, hub_labels: self.hub_labels }
    }

    /// Runs a single query on a caller-provided scratch arena, consulting the
    /// result cache when one is attached. Serving loops call it once per
    /// query on one long-lived scratch to keep the steady state
    /// allocation-free.
    pub fn run(&self, spec: &QuerySpec, scratch: &mut Scratch) -> RknnOutcome {
        let Some(cache) = self.cache else {
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
                // A hit still yields a trace (one trace per query): pure
                // service time, no phase spans, no remainder.
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
}

impl std::fmt::Debug for QueryEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("num_nodes", &self.topo.num_nodes())
            .field("num_points", &self.points.num_points())
            .field("materialized", &self.materialized.is_some())
            .field("hub_labels", &self.hub_labels.is_some())
            .field("result_cache", &self.cache.is_some())
            .field("tracing", &self.tracing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_rknn, CacheStats};
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

    /// Every algorithm over every data-point node at `k = 2`.
    fn all_specs(pts: &NodePointSet) -> Vec<QuerySpec> {
        let mut specs = Vec::new();
        for algorithm in Algorithm::ALL {
            for &query in pts.nodes() {
                specs.push(QuerySpec { algorithm, query, k: 2 });
            }
        }
        specs
    }

    /// `rounds` repetitions of one algorithm over every data-point node.
    fn repeated_specs(
        pts: &NodePointSet,
        algorithm: Algorithm,
        k: usize,
        rounds: usize,
    ) -> Vec<QuerySpec> {
        (0..rounds)
            .flat_map(|_| pts.nodes().iter().map(move |&query| QuerySpec { algorithm, query, k }))
            .collect()
    }

    /// The sequential `run` loop on one scratch, in spec order.
    fn run_all(engine: &QueryEngine<'_>, specs: &[QuerySpec]) -> Vec<RknnOutcome> {
        let mut scratch = Scratch::new();
        specs.iter().map(|spec| engine.run(spec, &mut scratch)).collect()
    }

    #[test]
    fn batch_results_are_input_ordered_and_match_single_queries() {
        let (g, pts, table) = setup();
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let pre = Precomputed::materialized(&table).with_hub_labels(&oracle);
        let engine = QueryEngine::new(&g, &pts).with_materialized(&table).with_hub_labels(&oracle);
        let specs = all_specs(&pts);
        for (spec, outcome) in specs.iter().zip(run_all(&engine, &specs)) {
            let single = run_rknn(spec.algorithm, &g, &pts, pre, spec.query, spec.k);
            assert_eq!(outcome, single, "{} at {}", spec.algorithm, spec.query);
        }
    }

    #[test]
    fn result_cache_hits_repeat_queries_without_changing_outcomes() {
        let (g, pts, table) = setup();
        let n = pts.nodes().len() as u64;
        let specs = repeated_specs(&pts, Algorithm::Eager, 2, 3);
        let plain = run_all(&QueryEngine::new(&g, &pts).with_materialized(&table), &specs);

        // Each query node appears three times: two of the three executions
        // must be cache hits, and results must match the uncached engine.
        let cache = SharedResultCache::new(64, 1);
        let cached =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_shared_result_cache(&cache);
        assert_eq!(run_all(&cached, &specs), plain, "caching must never change results");
        assert_eq!(cache.stats(), CacheStats { hits: 2 * n, misses: n });

        // A second identical loop is served entirely from the cache.
        let before = cache.stats();
        assert_eq!(run_all(&cached, &specs), plain);
        assert_eq!(cache.stats().since(&before), CacheStats { hits: 3 * n, misses: 0 });
    }

    #[test]
    fn sharded_result_cache_stays_exact_and_normalizes_shard_counts() {
        let (g, pts, table) = setup();
        let n = pts.nodes().len() as u64;
        let specs = repeated_specs(&pts, Algorithm::Eager, 2, 3);
        let plain = run_all(&QueryEngine::new(&g, &pts).with_materialized(&table), &specs);

        // Shard counts are rounded to a power of two and capped by capacity;
        // results are always shard-invariant, and the hit/miss totals too
        // while every shard's slice of the capacity still holds its share of
        // the working set (12 keys over <= 8 shards of a 64-entry cache).
        for (requested, effective) in [(1usize, 1usize), (3, 4), (8, 8)] {
            let cache = SharedResultCache::new(64, requested);
            assert_eq!(cache.shards(), effective, "requested {requested}");
            let engine = QueryEngine::new(&g, &pts)
                .with_materialized(&table)
                .with_shared_result_cache(&cache);
            assert_eq!(run_all(&engine, &specs), plain, "{requested} shards");
            assert_eq!(cache.stats(), CacheStats { hits: 2 * n, misses: n });
        }
        // Constant eviction — one 2-entry shard, 64 one-entry shards, more
        // shards than capacity (collapsed to the capacity) — keeps results
        // exact, one lookup per query.
        for (capacity, shards, effective) in [(2usize, 1usize, 1usize), (64, 64, 64), (2, 16, 2)] {
            let cache = SharedResultCache::new(capacity, shards);
            assert_eq!(cache.shards(), effective);
            let engine = QueryEngine::new(&g, &pts)
                .with_materialized(&table)
                .with_shared_result_cache(&cache);
            assert_eq!(run_all(&engine, &specs), plain, "{capacity} entries, {shards} shards");
            assert_eq!(cache.stats().lookups(), specs.len() as u64);
        }
    }

    #[test]
    fn shared_cache_is_hit_across_engine_views_and_survives_their_drop() {
        let (g, pts, table) = setup();
        let cache = SharedResultCache::new(32, 4);
        let specs = repeated_specs(&pts, Algorithm::Eager, 2, 1);
        let n = specs.len() as u64;

        // First view fills the cache...
        let first = {
            let engine = QueryEngine::new(&g, &pts)
                .with_materialized(&table)
                .with_shared_result_cache(&cache);
            run_all(&engine, &specs)
        };
        assert_eq!(cache.stats().misses, n);
        assert_eq!(cache.entries(), specs.len());

        // ...and a *different* engine view over the same world is served
        // entirely from it: the handle owns the state, not the engine.
        let engine =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_shared_result_cache(&cache);
        assert_eq!(run_all(&engine, &specs), first);
        assert_eq!(cache.stats(), CacheStats { hits: n, misses: n });
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

        let specs = repeated_specs(&pts, Algorithm::Eager, 2, 2);
        let engine =
            QueryEngine::new(&g, &pts).with_materialized(&table).with_shared_result_cache(&cache);
        run_all(&engine, &specs);

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
        let spec = QuerySpec { algorithm: Algorithm::Eager, query: NodeId::new(40), k: 2 };
        let mut scratch = Scratch::new();

        let old_engine = QueryEngine::new(&g, &old_points).with_shared_result_cache(&cache);
        let old_answer = old_engine.run(&spec, &mut scratch);

        // The swapped world computes a different answer...
        let new_engine = QueryEngine::new(&g, &new_points).with_shared_result_cache(&cache);
        let fresh = QueryEngine::new(&g, &new_points).run(&spec, &mut scratch);
        assert_ne!(fresh, old_answer, "the two point sets must disagree for this test to bite");

        // ...but without invalidation the shared cache still serves the old
        // world's RkNN set — exactly the staleness the sweep exists to kill.
        assert_eq!(new_engine.run(&spec, &mut scratch), old_answer, "stale before invalidate");
        cache.invalidate_all();
        assert_eq!(cache.entries(), 0, "every shard was swept");
        assert_eq!(new_engine.run(&spec, &mut scratch), fresh, "re-query returns the new answer");
        assert_eq!(new_engine.run(&spec, &mut scratch), fresh, "and is cached again");
        assert_eq!(cache.stats().hits, 2, "old-world hit + re-cached new answer");
    }

    #[test]
    fn engine_views_work_over_unsized_trait_objects() {
        // The server holds its world as Arc<dyn Topology> / Arc<dyn
        // PointsOnNodes>; the engine constructor must accept the unsized
        // targets directly.
        let (g, pts, _) = setup();
        let topo: std::sync::Arc<dyn Topology + Send + Sync> = std::sync::Arc::new(g);
        let points: std::sync::Arc<dyn PointsOnNodes + Send + Sync> = std::sync::Arc::new(pts);
        let engine = QueryEngine::new(&*topo, &*points);
        let spec = QuerySpec { algorithm: Algorithm::Lazy, query: NodeId::new(40), k: 1 };
        let via_dyn = engine.run(&spec, &mut Scratch::new());
        assert!(!via_dyn.points.is_empty());
        assert!(format!("{engine:?}").contains("QueryEngine"));
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
    fn io_attribution_on_a_shared_paged_graph() {
        let (g, pts, _) = setup();
        let paged =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 8, IoCounters::new()).unwrap();
        let engine = QueryEngine::new(&paged, &pts);
        let specs = repeated_specs(&pts, Algorithm::Lazy, 1, 1);
        // A loop's I/O is the diff of the pool's count around it.
        let before = paged.io_stats();
        let results = run_all(&engine, &specs);
        let io = paged.io_stats().since(&before);
        assert!(io.accesses >= specs.len() as u64, "every query fetched a page: {io:?}");
        assert!(io.evictions <= io.faults && io.faults <= io.accesses, "{io:?}");
        // Results on the paged backend equal the in-memory ones.
        assert_eq!(results, run_all(&QueryEngine::new(&g, &pts), &specs));
        // Every loop does the same work, so each later one adds exactly the
        // accesses of the first.
        for loops in 2..=4 {
            run_all(&engine, &specs);
            assert_eq!(paged.io_stats().accesses, loops * io.accesses);
        }
    }

    /// `PagedGraph::cold_start` takes `&self`, so it can land between the two
    /// snapshots a caller diffs around a query. The diff must then read as
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
        let specs = repeated_specs(&pts, Algorithm::Lazy, 1, 1);
        // Warm-up: the count now stands far above what one query adds.
        let warm = run_all(&QueryEngine::new(&paged, &pts), &specs);
        let before = paged.io_stats();
        assert!(before.accesses > 0);

        let resetting =
            ResetAfterFirstFetch { paged: &paged, armed: std::sync::atomic::AtomicBool::new(true) };
        let one = QueryEngine::new(&resetting, &pts).run(&specs[0], &mut Scratch::new());
        assert_eq!(one, warm[0], "the reset never changes an answer");
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

        let specs = all_specs(&pts);
        let reference = run_all(&plain, &specs);
        let mut scratch = Scratch::new();
        for (spec, expected) in specs.iter().zip(&reference) {
            assert!(scratch.tracer_mut().take_completed().is_none(), "tracing off, no traces");
            assert_eq!(
                &traced.run(spec, &mut scratch),
                expected,
                "tracing must not change results"
            );
            let trace = scratch.tracer_mut().take_completed().expect("one trace per query");
            assert_eq!(trace.algorithm, spec.algorithm.name());
            assert_eq!(trace.query, spec.query.index() as u64);
            assert_eq!(trace.k, spec.k as u32);
            assert!(trace.service_nanos >= trace.phase_nanos(), "phases fit in service time");
            // The traversal family attributes main-expansion work and absorbs
            // residual time in the expansion phase; every algorithm's traces
            // carry *some* phase activity.
            let active = trace.phases.iter().any(|p| p.calls > 0 || p.work > 0 || p.nanos > 0);
            assert!(active, "{}: phase counters must not be empty", trace.algorithm);
            plain.run(spec, &mut scratch);
        }
        // Cache hits still yield traces, with no phase spans.
        let cache = SharedResultCache::new(64, 1);
        let cached = QueryEngine::new(&g, &pts)
            .with_materialized(&table)
            .with_shared_result_cache(&cache)
            .with_tracing(true);
        let spec = QuerySpec { algorithm: Algorithm::Eager, query: NodeId::new(40), k: 2 };
        let miss = cached.run(&spec, &mut scratch);
        let miss_trace = scratch.tracer_mut().take_completed().expect("miss trace");
        assert!(miss_trace.phases.iter().any(|p| p.calls > 0));
        let hit = cached.run(&spec, &mut scratch);
        assert_eq!(hit, miss);
        let hit_trace = scratch.tracer_mut().take_completed().expect("hit trace");
        assert!(hit_trace.phases.iter().all(|p| p.calls == 0 && p.work == 0));
    }
}
