//! Measurement utilities of the experiments. Nothing here reads a clock: a
//! measurement is the page I/O and the work counters every query already
//! returns, so two runs of one commit — on any machine — measure the same.

use rnn_core::materialize::MaterializedKnn;
use rnn_core::unrestricted::{
    transform_to_restricted, unrestricted_eager_rknn, unrestricted_lazy_rknn,
    unrestricted_naive_rknn,
};
use rnn_core::{run_rknn, Algorithm, Precomputed, QueryStats, RknnOutcome};
use rnn_graph::{EdgePointSet, Graph, NodeId, NodePointSet, PointId, Route};
use rnn_index::HubLabelIndex;
use rnn_storage::{IoCounters, IoStats, LayoutStrategy, PagedGraph};

/// Experiment scale: laptop-friendly or the paper's cardinalities.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (default): every experiment finishes in seconds to a few
    /// minutes on a laptop.
    Quick,
    /// The paper's sizes (up to 360K nodes); substantially slower.
    Full,
}

impl Scale {
    /// Picks `quick` or `full` depending on the scale.
    pub(crate) fn pick<T: Copy>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Number of queries per workload (the paper uses 50).
    pub(crate) fn queries(self) -> usize {
        self.pick(20, 50)
    }
}

/// A restricted-network workload ready to be measured: the in-memory graph,
/// its paged counterpart, a data point set and the query nodes.
pub struct Workload {
    /// The in-memory graph (used to build materializations and transforms).
    pub graph: Graph,
    /// The disk-page backed view used for the measured traversals.
    pub paged: PagedGraph,
    /// The data points.
    pub points: NodePointSet,
    /// Query nodes, drawn from the data points.
    pub queries: Vec<NodeId>,
}

impl Workload {
    /// Builds a workload with the paper's default 256-page buffer.
    pub fn new(graph: Graph, points: NodePointSet, queries: Vec<NodeId>) -> Self {
        Self::with_buffer(graph, points, queries, 256)
    }

    /// Builds a workload with an explicit buffer capacity (in pages) and a
    /// single-shard pool (the paper's exact victim order).
    pub fn with_buffer(
        graph: Graph,
        points: NodePointSet,
        queries: Vec<NodeId>,
        buffer_pages: usize,
    ) -> Self {
        let paged = PagedGraph::build_with(
            &graph,
            LayoutStrategy::BfsLocality,
            buffer_pages,
            IoCounters::new(),
        )
        .expect("paged graph construction");
        Workload { graph, paged, points, queries }
    }
}

/// What running one algorithm over a workload counted, summed over its
/// queries.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// The algorithm that was measured.
    pub algorithm: Algorithm,
    /// Number of queries (or routes) the sums below cover.
    pub queries: usize,
    /// Page accesses, buffer faults and evictions of the whole workload.
    pub io: IoStats,
    /// Summed work counters of the queries.
    pub stats: QueryStats,
    /// Summed result cardinality.
    pub results: usize,
}

impl Measurement {
    /// Names of the per-query columns [`Measurement::values`] fills, in order.
    pub const COLUMNS: [&'static str; 6] =
        ["faults", "accesses", "settled", "aux settled", "verifs", "results"];

    fn new(algorithm: Algorithm, queries: usize) -> Self {
        Measurement {
            algorithm,
            queries,
            io: IoStats::default(),
            stats: QueryStats::default(),
            results: 0,
        }
    }

    fn record(&mut self, outcome: &RknnOutcome) {
        self.stats += &outcome.stats;
        self.results += outcome.len();
    }

    /// Per-query averages in [`Measurement::COLUMNS`] order: buffer faults
    /// (the paper's I/O cost), page accesses, nodes settled by the main and by
    /// the auxiliary expansions, verification queries and result size.
    pub fn values(&self) -> [f64; 6] {
        [
            per(self.io.faults, self.queries),
            per(self.io.accesses, self.queries),
            per(self.stats.nodes_settled, self.queries),
            per(self.stats.auxiliary_settled, self.queries),
            per(self.stats.verifications, self.queries),
            per(self.results as u64, self.queries),
        ]
    }
}

/// `total` averaged over `operations` (an empty workload averages to the total).
pub(crate) fn per(total: u64, operations: usize) -> f64 {
    total as f64 / operations.max(1) as f64
}

/// Measures one algorithm over a restricted workload. The buffer is cold at
/// the start of the workload and shared across its queries, as in the paper.
///
/// [`Algorithm::HubLabel`] builds its index here, *before* the cold start:
/// like the caller-provided materialized table, the labeling is
/// preprocessing, so its page accesses stay out of the measured query I/O
/// (the queries themselves then touch no pages at all — that is the point).
pub fn measure_restricted(
    algorithm: Algorithm,
    workload: &Workload,
    table: Option<&MaterializedKnn>,
    k: usize,
) -> Measurement {
    let hub_index = algorithm
        .needs_hub_labels()
        .then(|| HubLabelIndex::build(&workload.paged, &workload.points));
    let mut pre = Precomputed::none();
    if let Some(t) = table {
        pre = pre.with_materialized(t);
    }
    if let Some(ix) = &hub_index {
        pre = pre.with_hub_labels(ix);
    }
    workload.paged.cold_start();
    if let Some(t) = table {
        t.reset_io();
    }
    let mut m = Measurement::new(algorithm, workload.queries.len());
    for &q in &workload.queries {
        m.record(&run_rknn(algorithm, &workload.paged, &workload.points, pre, q, k));
    }
    m.io = workload.paged.io_stats();
    if let Some(t) = table {
        m.io += t.io_stats();
    }
    m
}

/// An unrestricted workload: the spatial graph, data points on its edges and
/// query points (drawn from the data points).
pub struct UnrestrictedWorkload {
    /// The in-memory road graph.
    pub graph: Graph,
    /// The paged view used for the measured traversals.
    pub paged: PagedGraph,
    /// Data points on edges.
    pub points: EdgePointSet,
    /// Query points.
    pub queries: Vec<PointId>,
}

impl UnrestrictedWorkload {
    /// Builds an unrestricted workload with a given buffer capacity.
    pub fn with_buffer(
        graph: Graph,
        points: EdgePointSet,
        queries: Vec<PointId>,
        buffer_pages: usize,
    ) -> Self {
        let paged = PagedGraph::build_with(
            &graph,
            LayoutStrategy::BfsLocality,
            buffer_pages,
            IoCounters::new(),
        )
        .expect("paged graph construction");
        UnrestrictedWorkload { graph, paged, points, queries }
    }
}

/// Measures eager / lazy / naive natively on an unrestricted workload.
/// `Algorithm::EagerMaterialized`, `Algorithm::LazyExtendedPruning` and
/// `Algorithm::HubLabel` are measured on the equivalent restricted
/// transformation (`rnn_core::unrestricted::transform_to_restricted`) — the
/// hub labeling is built over the transformed graph.
pub fn measure_unrestricted(
    algorithm: Algorithm,
    workload: &UnrestrictedWorkload,
    k: usize,
    table_capacity: usize,
) -> Measurement {
    match algorithm {
        Algorithm::Eager | Algorithm::Lazy | Algorithm::Naive => {
            workload.paged.cold_start();
            let mut m = Measurement::new(algorithm, workload.queries.len());
            for &q in &workload.queries {
                let (paged, points) = (&workload.paged, &workload.points);
                let query = points.position(q);
                let out = match algorithm {
                    Algorithm::Eager => unrestricted_eager_rknn(paged, points, &query, k),
                    Algorithm::Lazy => unrestricted_lazy_rknn(paged, points, &query, k),
                    Algorithm::Naive => unrestricted_naive_rknn(paged, points, &query, k),
                    Algorithm::EagerMaterialized
                    | Algorithm::LazyExtendedPruning
                    | Algorithm::HubLabel => {
                        unreachable!("handled by the transform branch of the outer match")
                    }
                };
                m.record(&out);
            }
            m.io = workload.paged.io_stats();
            m
        }
        Algorithm::EagerMaterialized | Algorithm::LazyExtendedPruning | Algorithm::HubLabel => {
            // Transform to a restricted instance and measure there.
            let view = transform_to_restricted(&workload.graph, &workload.points)
                .expect("datagen produces transformable instances");
            let queries: Vec<NodeId> =
                workload.queries.iter().map(|&q| view.node_of_point[q.index()]).collect();
            let restricted = Workload::with_buffer(
                view.graph.clone(),
                view.points.clone(),
                queries,
                workload.paged.buffer_capacity(),
            );
            let table = if algorithm.needs_materialization() {
                Some(MaterializedKnn::build(
                    &restricted.paged,
                    &restricted.points,
                    table_capacity.max(k),
                ))
            } else {
                None
            };
            measure_restricted(algorithm, &restricted, table.as_ref(), k)
        }
    }
}

/// Measures continuous queries (eager or lazy) over routes on a restricted
/// workload view of the graph.
pub fn measure_continuous(
    algorithm: Algorithm,
    paged: &PagedGraph,
    points: &NodePointSet,
    routes: &[Route],
    k: usize,
) -> Measurement {
    paged.cold_start();
    let mut m = Measurement::new(algorithm, routes.len());
    for route in routes {
        let out = match algorithm {
            Algorithm::Eager => {
                rnn_core::continuous::continuous_eager_rknn(paged, points, route, k)
            }
            Algorithm::Lazy => rnn_core::continuous::continuous_lazy_rknn(paged, points, route, k),
            Algorithm::Naive => {
                rnn_core::continuous::naive_continuous_rknn(paged, points, route, k)
            }
            Algorithm::EagerMaterialized | Algorithm::LazyExtendedPruning | Algorithm::HubLabel => {
                // No continuous variant exists for these (the paper evaluates
                // eager/lazy; hub labels would need a route-transformed
                // labeling). Fail loudly instead of silently measuring a
                // stand-in.
                panic!("continuous measurement supports eager / lazy / naive, not {algorithm}")
            }
        };
        m.record(&out);
    }
    m.io = paged.io_stats();
    m
}

/// Measures bichromatic queries — eager (Lemma 1 over the sites) or its naive
/// oracle — over a paged graph: `targets` are reported, `sites` compete with
/// the query.
pub fn measure_bichromatic(
    algorithm: Algorithm,
    paged: &PagedGraph,
    targets: &NodePointSet,
    sites: &NodePointSet,
    queries: &[NodeId],
    k: usize,
) -> Measurement {
    let run = match algorithm {
        Algorithm::Eager => rnn_core::bichromatic::bichromatic_rknn,
        Algorithm::Naive => rnn_core::bichromatic::naive_bichromatic_rknn,
        _ => panic!("bichromatic measurement supports eager / naive, not {algorithm}"),
    };
    paged.cold_start();
    let mut m = Measurement::new(algorithm, queries.len());
    for &q in queries {
        m.record(&run(paged, targets, sites, q, k));
    }
    m.io = paged.io_stats();
    m
}

/// What one kind of table update (insertion or deletion) counted, summed
/// over the updates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UpdateMeasurement {
    /// Number of updates the sums below cover.
    pub updates: usize,
    /// Page I/O of the graph and of the table's own pages.
    pub io: IoStats,
    /// Nodes the update expansions examined.
    pub nodes_visited: u64,
    /// Nodes whose materialized list was modified.
    pub lists_changed: u64,
}

impl UpdateMeasurement {
    /// Names of the per-update columns [`UpdateMeasurement::values`] fills.
    pub const COLUMNS: [&'static str; 4] = ["faults", "accesses", "visited", "changed"];

    /// Per-update averages in [`UpdateMeasurement::COLUMNS`] order.
    pub fn values(&self) -> [f64; 4] {
        [
            per(self.io.faults, self.updates),
            per(self.io.accesses, self.updates),
            per(self.nodes_visited, self.updates),
            per(self.lists_changed, self.updates),
        ]
    }
}

/// Measures the maintenance of the materialized k-NN table: what the
/// insertions and then the deletions cost, each from a cold buffer.
pub fn measure_updates(
    paged: &PagedGraph,
    points: &NodePointSet,
    capacity_k: usize,
    insert_nodes: &[NodeId],
    delete_nodes: &[NodeId],
) -> (UpdateMeasurement, UpdateMeasurement) {
    let mut table = MaterializedKnn::build(paged, points, capacity_k);
    let mut measure = |nodes: &[NodeId], insert: bool| {
        paged.cold_start();
        table.reset_io();
        let mut m = UpdateMeasurement { updates: nodes.len(), ..Default::default() };
        for &n in nodes {
            let stats =
                if insert { table.insert_point(paged, n) } else { table.delete_point(paged, n) };
            m.nodes_visited += stats.nodes_visited;
            m.lists_changed += stats.lists_changed;
        }
        m.io = paged.io_stats();
        m.io += table.io_stats();
        m
    };
    (measure(insert_nodes, true), measure(delete_nodes, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};

    fn small_workload() -> Workload {
        let g = grid_map(&GridConfig { rows: 20, cols: 20, ..Default::default() });
        let pts = place_points_on_nodes(&g, 0.05, 3);
        let queries = sample_node_queries(&pts, 5, 4);
        Workload::new(g, pts, queries)
    }

    #[test]
    fn all_algorithms_produce_identical_result_sizes_and_positive_io() {
        let w = small_workload();
        let table = MaterializedKnn::build(&w.graph, &w.points, 2);
        let mut sizes = Vec::new();
        for algo in Algorithm::ALL {
            let m = measure_restricted(algo, &w, Some(&table), 1);
            assert_eq!(m.algorithm, algo);
            assert_eq!(m.queries, w.queries.len());
            if algo.needs_hub_labels() {
                // Label-served queries never touch the paged graph; their
                // index construction I/O happens before the cold start.
                assert_eq!(m.io.accesses, 0, "{algo} must answer without page accesses");
                assert!(m.stats.label_scans > 0, "{algo} must scan labels");
            } else {
                assert!(m.io.accesses > 0, "{algo} must access pages");
                assert!(m.io.faults > 0, "{algo} starts on a cold buffer");
                assert!(m.stats.nodes_settled > 0, "{algo} must expand");
            }
            assert_eq!(m.values()[1], m.io.accesses as f64 / m.queries as f64);
            sizes.push(m.results);
        }
        for s in &sizes {
            assert_eq!(*s, sizes[0], "every algorithm reports the same result sizes");
        }
        // Averaging over no queries is guarded: zeros, not NaN.
        let empty = Workload::new(w.graph.clone(), w.points.clone(), Vec::new());
        assert_eq!(measure_restricted(Algorithm::Eager, &empty, None, 1).values(), [0.0; 6]);
    }

    #[test]
    fn scale_helpers() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert_eq!(Scale::Full.queries(), 50);
        assert_eq!(Scale::Quick.queries(), 20);
    }

    #[test]
    fn update_measurements_are_positive() {
        let w = small_workload();
        let inserts: Vec<NodeId> = (0..5)
            .map(|i| NodeId::new(i * 7 + 3))
            .filter(|n| {
                use rnn_graph::PointsOnNodes;
                !w.points.contains_node(*n)
            })
            .collect();
        let deletes: Vec<NodeId> = w.points.nodes().iter().take(3).copied().collect();
        let (ins, del) = measure_updates(&w.paged, &w.points, 2, &inserts, &deletes);
        assert_eq!((ins.updates, del.updates), (inserts.len(), deletes.len()));
        for m in [ins, del] {
            assert!(m.io.accesses > 0 && m.io.faults > 0, "every update pass starts cold");
            assert!(m.nodes_visited > 0 && m.lists_changed > 0);
            assert!(m.values().iter().all(|v| *v > 0.0));
        }
    }
}
