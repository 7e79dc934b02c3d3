//! Uniform dispatch over the RkNN algorithms.
//!
//! The benchmark harness, the examples and `rnn-server`'s workers iterate
//! over algorithms; this module gives them a single entry point and stable
//! display names matching the abbreviations used in the paper's figures (E,
//! L, EM, LP). [`run_rknn_with`] is the one dispatch: a match on
//! [`Algorithm`] that calls each driver with the caller's topology and point
//! set types, so a concrete graph runs monomorphized drivers and the
//! server's `dyn` world runs them through its trait objects.
//!
//! Matches on [`Algorithm`] are deliberately wildcard-free throughout the
//! workspace (dispatch, harness measurement, report code): adding a variant
//! fails to *compile* everywhere a decision must be made, instead of being
//! silently routed to a default arm. The `const` guard below documents that
//! contract next to the enum itself.

use crate::precomputed::Precomputed;
use crate::query::RknnOutcome;
use crate::scratch::Scratch;
use crate::{eager, lazy, lazy_ep, materialize, naive};
use rnn_graph::{NodeId, PointsOnNodes, Topology};

/// The monochromatic RkNN algorithms: the paper's four (Sections 3–4), the
/// naive baseline, and the hub-label algorithm served from a precomputed
/// labeling (`rnn-index`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Eager (Section 3.2): prunes nodes as soon as they are de-heaped.
    Eager,
    /// Eager-M (Section 4.1): eager over a materialized k-NN table.
    EagerMaterialized,
    /// Lazy (Section 3.3): prunes when data points are discovered.
    Lazy,
    /// Lazy-EP (Section 4.2): lazy with the extended, parallel-heap pruning.
    LazyExtendedPruning,
    /// The naive baseline (full traversal + one NN query per data point).
    Naive,
    /// Hub-label (ReHub-style, beyond the paper): answers from a precomputed
    /// pruned-landmark labeling plus a per-hub inverted point table — no
    /// graph traversal at query time. Requires
    /// [`Precomputed::hub_labels`].
    HubLabel,
}

/// Compile-time exhaustiveness guard: this wildcard-free match breaks the
/// build the moment a variant is added, pointing straight at the tables that
/// must be extended ([`Algorithm::ALL`], the name methods,
/// [`run_rknn_with`]). Never replace it with `_`.
const _: fn(Algorithm) = |a| match a {
    Algorithm::Eager
    | Algorithm::EagerMaterialized
    | Algorithm::Lazy
    | Algorithm::LazyExtendedPruning
    | Algorithm::Naive
    | Algorithm::HubLabel => (),
};

impl Algorithm {
    /// All algorithms: the paper's figures order (E, EM, L, LP), then the
    /// baseline, then the index-served extension.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Eager,
        Algorithm::EagerMaterialized,
        Algorithm::Lazy,
        Algorithm::LazyExtendedPruning,
        Algorithm::Naive,
        Algorithm::HubLabel,
    ];

    /// The four algorithms evaluated in the paper (no baseline, no
    /// hub-label extension).
    pub const PAPER: [Algorithm; 4] = [
        Algorithm::Eager,
        Algorithm::EagerMaterialized,
        Algorithm::Lazy,
        Algorithm::LazyExtendedPruning,
    ];

    /// Short label as used on top of the paper's bar charts (HL is ours).
    pub fn short_name(self) -> &'static str {
        match self {
            Algorithm::Eager => "E",
            Algorithm::EagerMaterialized => "EM",
            Algorithm::Lazy => "L",
            Algorithm::LazyExtendedPruning => "LP",
            Algorithm::Naive => "NAIVE",
            Algorithm::HubLabel => "HL",
        }
    }

    /// Full human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Eager => "eager",
            Algorithm::EagerMaterialized => "eager-M",
            Algorithm::Lazy => "lazy",
            Algorithm::LazyExtendedPruning => "lazy-EP",
            Algorithm::Naive => "naive",
            Algorithm::HubLabel => "hub-label",
        }
    }

    /// Returns `true` if the algorithm needs a materialized k-NN table.
    pub fn needs_materialization(self) -> bool {
        matches!(self, Algorithm::EagerMaterialized)
    }

    /// Returns `true` if the algorithm needs a prebuilt hub-label index
    /// ([`Precomputed::hub_labels`]).
    pub fn needs_hub_labels(self) -> bool {
        matches!(self, Algorithm::HubLabel)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `algorithm` on a restricted network.
///
/// `pre` must carry a materialized table for [`Algorithm::EagerMaterialized`]
/// (with `K >= k`) and a hub-label index for [`Algorithm::HubLabel`]; the
/// traversal-based algorithms ignore it (pass [`Precomputed::none`]).
///
/// # Panics
/// Panics if `k == 0`, or if a required precomputed structure is absent.
pub fn run_rknn<T, P>(
    algorithm: Algorithm,
    topo: &T,
    points: &P,
    pre: Precomputed<'_>,
    query: NodeId,
    k: usize,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    run_rknn_with(algorithm, topo, points, pre, query, k, &mut Scratch::new())
}

/// [`run_rknn`] on the recycled buffers of `scratch` — the entry point for
/// serving loops that answer many queries and want the steady state
/// allocation-free.
///
/// # Panics
/// As [`run_rknn`]; also if a hub-label index was built over a graph or
/// point set of another size than `topo` and `points`.
pub fn run_rknn_with<T, P>(
    algorithm: Algorithm,
    topo: &T,
    points: &P,
    pre: Precomputed<'_>,
    query: NodeId,
    k: usize,
    scratch: &mut Scratch,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    match algorithm {
        Algorithm::Eager => eager::eager_rknn_from(topo, points, &query.into(), k, scratch),
        Algorithm::EagerMaterialized => {
            let table = pre.materialized.expect(
                "eager-M requires a materialized k-NN table (Algorithm::needs_materialization)",
            );
            materialize::eager_m_rknn_in(topo, points, table, query, k, scratch)
        }
        Algorithm::Lazy => lazy::lazy_rknn_from(topo, points, &query.into(), k, scratch),
        Algorithm::LazyExtendedPruning => lazy_ep::lazy_ep_rknn_in(topo, points, query, k, scratch),
        Algorithm::Naive => naive::naive_rknn_from(topo, points, &query.into(), k, scratch),
        Algorithm::HubLabel => {
            let index = pre
                .hub_labels
                .expect("hub-label queries require a prebuilt index (Algorithm::needs_hub_labels)");
            // The index is an oracle over a *specific* graph and point set;
            // a mismatched one would silently answer for a different world.
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::MaterializedKnn;
    use crate::precomputed::HubLabelRknn;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};
    use rnn_storage::{IoCounters, LayoutStrategy, PagedGraph};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn names_and_flags() {
        assert_eq!(Algorithm::Eager.short_name(), "E");
        assert_eq!(Algorithm::LazyExtendedPruning.short_name(), "LP");
        assert_eq!(Algorithm::HubLabel.short_name(), "HL");
        assert_eq!(Algorithm::EagerMaterialized.to_string(), "eager-M");
        assert_eq!(Algorithm::HubLabel.to_string(), "hub-label");
        assert!(Algorithm::EagerMaterialized.needs_materialization());
        assert!(!Algorithm::Lazy.needs_materialization());
        assert!(Algorithm::HubLabel.needs_hub_labels());
        assert!(!Algorithm::Eager.needs_hub_labels());
        assert_eq!(Algorithm::ALL.len(), 6);
        assert_eq!(Algorithm::PAPER.len(), 4);
    }

    #[test]
    fn every_algorithm_has_a_unique_name_and_short_name() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        let mut shorts: Vec<&str> = Algorithm::ALL.iter().map(|a| a.short_name()).collect();
        names.sort_unstable();
        names.dedup();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len(), "duplicate display name");
        assert_eq!(shorts.len(), Algorithm::ALL.len(), "duplicate short name");
    }

    #[test]
    fn dispatch_runs_every_traversal_algorithm_and_agrees() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i, i + 1, 1.0 + (i % 3) as f64).unwrap();
        }
        b.add_edge(0, 7, 2.5).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(8, [NodeId::new(1), NodeId::new(4), NodeId::new(6)]);
        let table = MaterializedKnn::build(&g, &pts, 2);
        let q = NodeId::new(2);

        let reference = run_rknn(Algorithm::Naive, &g, &pts, Precomputed::none(), q, 2);
        for algo in Algorithm::ALL {
            if algo.needs_hub_labels() {
                continue; // needs an oracle; covered by the tests below
            }
            let out = run_rknn(algo, &g, &pts, Precomputed::materialized(&table), q, 2);
            assert_eq!(out.points, reference.points, "{algo}");
        }
    }

    #[test]
    #[should_panic]
    fn eager_m_without_table_panics() {
        let g = GraphBuilder::new(2).build().unwrap();
        let pts = NodePointSet::empty(2);
        let _ = run_rknn(
            Algorithm::EagerMaterialized,
            &g,
            &pts,
            Precomputed::none(),
            NodeId::new(0),
            1,
        );
    }

    #[test]
    #[should_panic]
    fn hub_label_without_index_panics() {
        let g = GraphBuilder::new(2).build().unwrap();
        let pts = NodePointSet::empty(2);
        let _ = run_rknn(Algorithm::HubLabel, &g, &pts, Precomputed::none(), NodeId::new(0), 1);
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

    /// A 9x9 grid with a point on every seventh node, and its 2-NN table.
    fn setup() -> (Graph, NodePointSet, MaterializedKnn) {
        let g = grid(9);
        let pts = NodePointSet::from_nodes(81, (0..81).step_by(7).map(NodeId::new));
        let table = MaterializedKnn::build(&g, &pts, 2);
        (g, pts, table)
    }

    /// A stand-in hub-label oracle backed by the naive algorithm, so the
    /// dispatch of [`Algorithm::HubLabel`] is exercised without depending on
    /// `rnn-index` (which sits above this crate). The real labeling is
    /// cross-checked in the workspace-level `hub_label_index` suite.
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
            naive::naive_rknn_from(self.topo, self.points, &query.into(), k, scratch)
        }
    }

    /// Lazy at `k = 1` from every data-point node, on one scratch.
    fn lazy_from_each_point<T: Topology + ?Sized>(
        topo: &T,
        pts: &NodePointSet,
    ) -> Vec<RknnOutcome> {
        let mut scratch = Scratch::new();
        let pre = Precomputed::none();
        pts.nodes()
            .iter()
            .map(|&q| run_rknn_with(Algorithm::Lazy, topo, pts, pre, q, 1, &mut scratch))
            .collect()
    }

    #[test]
    fn dyn_world_matches_the_concrete_call_for_every_algorithm() {
        // The server holds its world as Arc<dyn Topology + Send + Sync> /
        // Arc<dyn PointsOnNodes + Send + Sync> and dispatches over their
        // unsized targets on one long-lived scratch.
        let (g, pts, table) = setup();
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let pre = Precomputed::materialized(&table).with_hub_labels(&oracle);
        let topo: Arc<dyn Topology + Send + Sync> = Arc::new(g.clone());
        let points: Arc<dyn PointsOnNodes + Send + Sync> = Arc::new(pts.clone());
        let mut scratch = Scratch::new();
        for algorithm in Algorithm::ALL {
            for &q in pts.nodes() {
                let via_dyn = run_rknn_with(algorithm, &*topo, &*points, pre, q, 2, &mut scratch);
                let direct = run_rknn(algorithm, &g, &pts, pre, q, 2);
                assert_eq!(via_dyn, direct, "{algorithm} q={q}");
            }
        }
    }

    #[test]
    fn run_rknn_with_works_over_unsized_trait_objects() {
        // The server holds its world as Arc<dyn Topology> / Arc<dyn
        // PointsOnNodes>; the dispatch must accept the unsized targets
        // directly.
        let (g, pts, _) = setup();
        let topo: Arc<dyn Topology + Send + Sync> = Arc::new(g.clone());
        let points: Arc<dyn PointsOnNodes + Send + Sync> = Arc::new(pts.clone());
        let (q, pre) = (NodeId::new(40), Precomputed::none());
        let via_dyn =
            run_rknn_with(Algorithm::Lazy, &*topo, &*points, pre, q, 1, &mut Scratch::new());
        assert!(!via_dyn.points.is_empty());
        assert_eq!(via_dyn, run_rknn(Algorithm::Lazy, &g, &pts, pre, q, 1));
    }

    #[test]
    #[should_panic]
    fn eager_m_without_table_panics_through_run_rknn_with() {
        // As the server would call it: over a dyn world, on a caller's
        // scratch, with no table attached.
        let (g, pts, _) = setup();
        let topo: Arc<dyn Topology + Send + Sync> = Arc::new(g);
        let points: Arc<dyn PointsOnNodes + Send + Sync> = Arc::new(pts);
        let _ = run_rknn_with(
            Algorithm::EagerMaterialized,
            &*topo,
            &*points,
            Precomputed::none(),
            NodeId::new(0),
            1,
            &mut Scratch::new(),
        );
    }

    #[test]
    fn hub_label_dispatch_requires_a_matching_index() {
        let (g, pts, _) = setup();
        let q = NodeId::new(40);
        let oracle = NaiveOracle { topo: &g, points: &pts };
        let out = run_rknn(Algorithm::HubLabel, &g, &pts, Precomputed::hub_labels(&oracle), q, 2);
        assert_eq!(out, naive::naive_rknn(&g, &pts, q, 2));

        // A mismatched index (different point count) is rejected loudly.
        let fewer = NodePointSet::from_nodes(81, [NodeId::new(0)]);
        let stale = NaiveOracle { topo: &g, points: &fewer };
        let err = std::panic::catch_unwind(|| {
            run_rknn(Algorithm::HubLabel, &g, &pts, Precomputed::hub_labels(&stale), q, 2)
        });
        assert!(err.is_err(), "point-set mismatch must panic");
    }

    /// The scratch-reuse acceptance test: after the first (warm-up) query,
    /// repeated queries create no new buffers — every checkout is an arena
    /// reset of a pooled buffer.
    #[test]
    fn steady_state_queries_reuse_scratch_buffers_instead_of_allocating() {
        let (g, pts, _) = setup();
        let (q, pre) = (NodeId::new(40), Precomputed::none());
        for algorithm in [Algorithm::Eager, Algorithm::Lazy, Algorithm::LazyExtendedPruning] {
            let mut scratch = Scratch::new();
            let first = run_rknn_with(algorithm, &g, &pts, pre, q, 2, &mut scratch);
            let created_after_warmup = scratch.created();
            let reuses_after_warmup = scratch.reuses();
            assert!(created_after_warmup > 0, "{algorithm}: the warm-up query fills the pools");
            for _ in 0..49 {
                let again = run_rknn_with(algorithm, &g, &pts, pre, q, 2, &mut scratch);
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
    fn io_attribution_on_a_shared_paged_graph() {
        let (g, pts, _) = setup();
        let paged =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 8, IoCounters::new()).unwrap();
        // A loop's I/O is the diff of the pool's count around it.
        let before = paged.io_stats();
        let results = lazy_from_each_point(&paged, &pts);
        let io = paged.io_stats().since(&before);
        assert!(io.accesses >= results.len() as u64, "every query fetched a page: {io:?}");
        assert!(io.evictions <= io.faults && io.faults <= io.accesses, "{io:?}");
        // Results on the paged backend equal the in-memory ones.
        assert_eq!(results, lazy_from_each_point(&g, &pts));
        // Every loop does the same work, so each later one adds exactly the
        // accesses of the first.
        for loops in 2..=4 {
            lazy_from_each_point(&paged, &pts);
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
            armed: AtomicBool,
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
        // Warm-up: the count now stands far above what one query adds.
        let warm = lazy_from_each_point(&paged, &pts);
        let before = paged.io_stats();
        assert!(before.accesses > 0);

        let resetting = ResetAfterFirstFetch { paged: &paged, armed: AtomicBool::new(true) };
        let q = pts.nodes()[0];
        let one = run_rknn(Algorithm::Lazy, &resetting, &pts, Precomputed::none(), q, 1);
        assert_eq!(one, warm[0], "the reset never changes an answer");
        let counted = paged.io_stats();
        assert!(counted.accesses < before.accesses, "the reset landed mid-query");
        let diff = counted.since(&before);
        assert_eq!(diff.accesses, 0, "the diff saturates at nothing-since");
        assert!(diff.faults <= counted.faults);
    }
}
