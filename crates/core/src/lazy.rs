//! The *lazy* RkNN algorithm (Section 3.3, Fig. 7 of the paper).
//!
//! Lazy delays pruning until data points are discovered: the expansion around
//! the query proceeds like Dijkstra, and when a node containing a data point
//! is de-heaped, a verification query is issued. The nodes visited by that
//! verification are closer to the discovered point than to the query, so they
//! cannot lead to reverse neighbors: already-visited nodes have the heap
//! entries created during their processing removed (through the back-pointer
//! every frontier entry carries to the node that pushed it), and
//! not-yet-visited nodes are remembered in a counter so they are discarded
//! when they are eventually de-heaped. For RkNN with `k > 1` a node is only
//! discarded once `k` distinct points have been counted against it.

use crate::candidates::Candidates;
use crate::expansion::{for_each_candidate_at, NetworkExpansion};
use crate::node_table::NodeTable;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::{Reset, Scratch};
use crate::verify::VerifyParams;
use rnn_graph::{NodeId, PointId, PointSource, PointsOnNodes, Revealed, Topology, Weight};

/// The reusable allocation state of the lazy main loop beside its expansion,
/// pooled by [`Scratch`].
#[derive(Debug, Default)]
pub(crate) struct LazyBuffers {
    /// Verification counters: how many distinct data points are known to be
    /// strictly closer to the node than the query.
    counters: NodeTable<usize>,
}

impl Reset for LazyBuffers {
    fn reset(&mut self) {
        self.counters.clear();
    }
}

/// Runs the lazy RkNN algorithm.
///
/// Returns every data point (other than one located exactly at the query
/// node) that has the query among its `k` nearest neighbors.
///
/// # Panics
/// Panics if `k == 0`.
pub fn lazy_rknn<T, P>(topo: &T, points: &P, query: NodeId, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    lazy_rknn_in(topo, points, query, k, &mut Scratch::new())
}

/// [`lazy_rknn`] on the recycled buffers of `scratch`: the main expansion,
/// every node table and every verification expansion run allocation-free in
/// the steady state.
pub fn lazy_rknn_in<T, P>(
    topo: &T,
    points: &P,
    query: NodeId,
    k: usize,
    scratch: &mut Scratch,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    lazy_rknn_from(topo, points, &query.into(), k, scratch)
}

/// The lazy algorithm for a query at any location of any [`PointSource`],
/// as for [`crate::eager::eager_rknn_from`].
///
/// # Panics
/// Panics if `k == 0`.
pub fn lazy_rknn_from<T, S>(
    topo: &T,
    points: &S,
    query: &S::Location,
    k: usize,
    scratch: &mut Scratch,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    S: PointSource + ?Sized,
{
    assert!(k >= 1, "RkNN queries require k >= 1");
    let mut stats = QueryStats::default();
    let mut cands = Candidates::new(VerifyParams { k, collect_visited: true }, scratch);
    let mut bufs = scratch.take_lazy();
    let LazyBuffers { counters } = &mut bufs;
    let pruned = |counters: &NodeTable<usize>, n: NodeId| counters.get(n).is_some_and(|c| *c >= k);

    // Verifies a discovered point (once), then counts it against every node
    // its verification settled strictly within d(p, q): those are strictly
    // closer to p than to the query. `frontier` is the distance the main
    // expansion `exp` has reached.
    let mut discover = |p: PointId,
                        frontier: Weight,
                        exp: &NetworkExpansion<'_, T>,
                        counters: &mut NodeTable<usize>,
                        stats: &mut QueryStats,
                        scratch: &mut Scratch| {
        if !cands.discover(p) || points.is_at(p, query) {
            return;
        }
        let v = cands.verify(topo, points, p, query, stats, scratch);
        for &(m, dm) in &v.visited {
            let counted = match exp.settled_distance(m) {
                // Visited node: count only when provably closer to p than to
                // the query.
                Some(dq) => dm < dq,
                // Unvisited node: its eventual distance from the query is at
                // least the current frontier distance.
                None => dm < frontier,
            };
            if counted {
                *counters.entry(m, 0) += 1;
            }
        }
        scratch.put_node_dists(v.visited);
    };

    let mut exp = NetworkExpansion::reusing(topo, scratch.take_expansion(), points.seeds(query));
    // What the query reaches without passing a node is discovered before
    // any node is.
    points.beside(query, None, |what, _| {
        if let Revealed::Point(p) = what {
            discover(p, Weight::ZERO, &exp, counters, &mut stats, scratch);
        }
    });
    // An entry pushed while processing a node that has been counted against
    // k points since is removed from the heap (the paper's hash-table based
    // deletion): it is refused here, and its node stays unvisited.
    while let Some((node, dist)) =
        exp.next_settled_unexpanded_if(|_, pusher| !pusher.is_some_and(|m| pruned(counters, m)))
    {
        stats.nodes_settled += 1;

        // A node already counted against k distinct closer points cannot lead
        // to (or be) a reverse neighbor.
        if pruned(counters, node) {
            continue;
        }

        // Process the data points this node reveals.
        for_each_candidate_at(topo, points, node, |p| {
            discover(p, dist, &exp, counters, &mut stats, scratch);
        });

        // Re-check the counter: the verification of a point on this very
        // node counts the node itself (the point is at distance 0 from it),
        // which is exactly what stops the k=1 expansion at nodes containing
        // points.
        if pruned(counters, node) {
            continue;
        }

        // Expand the node; the entries it pushes carry it as their pusher.
        exp.expand_from(node, dist);
    }

    stats.heap_pushes = exp.pushes();
    scratch.put_expansion(exp.into_buffers());
    scratch.put_lazy(bufs);
    cands.finish(stats, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::eager_rknn;
    use crate::naive::naive_rknn;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    /// Same running-example graph as in `eager::tests`.
    fn fig3() -> (Graph, NodePointSet, NodeId) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(3, 2, 4.0).unwrap();
        b.add_edge(3, 0, 5.0).unwrap();
        b.add_edge(2, 5, 3.0).unwrap();
        b.add_edge(2, 0, 6.0).unwrap();
        b.add_edge(0, 4, 3.0).unwrap();
        b.add_edge(4, 1, 2.0).unwrap();
        b.add_edge(1, 5, 8.0).unwrap();
        b.add_edge(1, 6, 7.0).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(7, [NodeId::new(5), NodeId::new(4), NodeId::new(6)]);
        (g, pts, NodeId::new(3))
    }

    #[test]
    fn matches_eager_and_naive_on_running_example() {
        let (g, pts, q) = fig3();
        for k in 1..=3 {
            let l = lazy_rknn(&g, &pts, q, k);
            let e = eager_rknn(&g, &pts, q, k);
            let n = naive_rknn(&g, &pts, q, k);
            assert_eq!(l.points, e.points, "k={k}");
            assert_eq!(l.points, n.points, "k={k}");
        }
    }

    #[test]
    fn verification_prunes_the_search_space() {
        // Path graph with points surrounding the query: lazy should not walk
        // to the ends of the path.
        let n = 200;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let q = NodeId::new(100);
        let pts = NodePointSet::from_nodes(n, [NodeId::new(97), NodeId::new(103)]);
        let out = lazy_rknn(&g, &pts, q, 1);
        assert_eq!(out.len(), 2);
        assert!(
            out.stats.nodes_settled < 20,
            "lazy should prune after discovering the two points, settled {}",
            out.stats.nodes_settled
        );
    }

    #[test]
    fn counters_allow_expansion_past_points_for_larger_k() {
        // One point right next to the query, another farther away: for k=2
        // the expansion must pass through the first point's node.
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let q = NodeId::new(0);
        let pts = NodePointSet::from_nodes(6, [NodeId::new(1), NodeId::new(4)]);
        let k1 = lazy_rknn(&g, &pts, q, 1);
        let k2 = lazy_rknn(&g, &pts, q, 2);
        // k=1: the point at node 4 has the point at node 1 closer (distance 3
        // vs 4), so only the nearby point is a reverse NN.
        assert_eq!(k1.len(), 1);
        // k=2: both points have q among their 2 nearest neighbors.
        assert_eq!(k2.len(), 2);
        assert_eq!(k1.points, naive_rknn(&g, &pts, q, 1).points);
        assert_eq!(k2.points, naive_rknn(&g, &pts, q, 2).points);
    }

    #[test]
    fn query_node_point_is_not_reported() {
        let (g, pts, _) = fig3();
        let out = lazy_rknn(&g, &pts, NodeId::new(4), 1);
        assert!(!out.contains(pts.point_at(NodeId::new(4)).unwrap()));
        assert_eq!(out.points, naive_rknn(&g, &pts, NodeId::new(4), 1).points);
    }

    #[test]
    fn empty_point_set_is_handled() {
        let (g, _, q) = fig3();
        let out = lazy_rknn(&g, &NodePointSet::empty(7), q, 2);
        assert!(out.is_empty());
        // without points, lazy degenerates to a full Dijkstra over the graph
        assert_eq!(out.stats.nodes_settled, 7);
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, pts, q) = fig3();
        let _ = lazy_rknn(&g, &pts, q, 0);
    }
}
