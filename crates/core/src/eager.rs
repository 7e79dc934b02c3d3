//! The *eager* RkNN algorithm (Section 3.2, Fig. 4 of the paper).
//!
//! Eager traverses the network around the query like Dijkstra's algorithm and
//! applies Lemma 1 as soon as a node is de-heaped: a range-NN query around
//! the node checks whether `k` data points lie strictly closer to it than the
//! query does. If so, the expansion does not proceed through that node
//! (points farther out whose shortest path passes through it cannot be
//! reverse neighbors), and the discovered points themselves are checked with
//! verification queries.

use crate::candidates::Candidates;
use crate::expansion::{for_each_candidate_at, NetworkExpansion};
use crate::knn::range_nn_into;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use crate::verify::VerifyParams;
use rnn_graph::{NodeId, PointId, PointSource, PointsOnNodes, Revealed, Topology, Weight};

/// Runs the eager RkNN algorithm.
///
/// Returns every data point (other than one located exactly at the query
/// node) that has the query among its `k` nearest neighbors.
///
/// # Panics
/// Panics if `k == 0`.
pub fn eager_rknn<T, P>(topo: &T, points: &P, query: NodeId, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    eager_rknn_in(topo, points, query, k, &mut Scratch::new())
}

/// [`eager_rknn`] on the recycled buffers of `scratch`: the main expansion,
/// every range-NN probe and every verification run allocation-free in the
/// steady state.
pub fn eager_rknn_in<T, P>(
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
    eager_rknn_from(topo, points, &query.into(), k, scratch)
}

/// The eager algorithm for a query at any location of any [`PointSource`]:
/// a node or the nodes of a route over points on nodes (the distance of a
/// node from a route is its distance from the nearest route node), a position
/// on an edge over points on edges. Points at the query location are not
/// reported.
///
/// # Panics
/// Panics if `k == 0`.
pub fn eager_rknn_from<T, S>(
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
    let mut cands = Candidates::new(VerifyParams { k, collect_visited: false }, scratch);
    let mut probe_found = scratch.take_found();
    // A point at the query location can never be strictly closer to anything
    // than the query is, so the probes exclude it: it must neither contribute
    // to the pruning count (its distance is re-derived by a second expansion
    // whose floating-point sums need not match `dist` exactly, so a tie can
    // land on either side) nor occupy one of the k probe slots. It is also
    // excluded from the result by definition.
    let at_query = |p: PointId| points.is_at(p, query);
    // Every candidate is verified exactly once.
    let mut consider = |p: PointId, stats: &mut QueryStats, scratch: &mut Scratch| {
        if cands.discover(p) && !at_query(p) {
            cands.verify(topo, points, p, query, stats, scratch);
        }
    };

    // What the query reaches without passing a node is a candidate whatever
    // the expansion over the nodes does.
    points.beside(query, None, |what, _| {
        if let Revealed::Point(p) = what {
            consider(p, &mut stats, scratch);
        }
    });

    let mut exp = NetworkExpansion::reusing(topo, scratch.take_expansion(), points.seeds(query));
    while let Some((node, dist)) = exp.next_settled_unexpanded() {
        stats.nodes_settled += 1;

        // Lemma 1 probe: the k nearest data points strictly within d(q, n).
        probe_found.clear();
        if dist > Weight::ZERO {
            stats.range_nn_queries += 1;
            stats.auxiliary_settled +=
                range_nn_into(topo, points, node, k, dist, &at_query, scratch, &mut probe_found);
        }
        // (At distance zero of the query no point can be strictly closer.)

        // Candidates: the points the probe discovered, and those the node
        // itself reveals (on an adjacent edge they may lie outside the probe
        // range and still be reverse neighbors).
        for &(p, _) in &probe_found {
            consider(p, &mut stats, scratch);
        }
        for_each_candidate_at(topo, points, node, |p| consider(p, &mut stats, scratch));

        // Expansion proceeds only when fewer than k points were found
        // strictly closer to the node than the query (the probe already
        // excluded the points at the query).
        if probe_found.len() < k {
            exp.expand_from(node, dist);
        }
    }
    stats.heap_pushes = exp.pushes();
    scratch.put_expansion(exp.into_buffers());
    scratch.put_found(probe_found);
    cands.finish(stats, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    /// The running example of Section 3 (Fig. 3a): nodes n1..n7 mapped to
    /// ids 0..6, query at n4 (id 3), points p1 at n6 (id 5), p2 at n5
    /// (id 4), p3 at n7 (id 6).
    ///
    /// Edge weights are chosen so the walk-through of the paper holds:
    /// d(q,n3)=4 > d(p1,n3)=3 (so the expansion stops at n3 and verifies p1),
    /// d(q,n1)=5 > d(p2,n1)=3 (stops at n1 and verifies p2), and the reverse
    /// nearest neighbors of q are exactly {p1, p2} while p3's NN is p2.
    fn fig3() -> (Graph, NodePointSet, NodeId) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(3, 2, 4.0).unwrap(); // n4-n3
        b.add_edge(3, 0, 5.0).unwrap(); // n4-n1
        b.add_edge(2, 5, 3.0).unwrap(); // n3-n6
        b.add_edge(2, 0, 6.0).unwrap(); // n3-n1
        b.add_edge(0, 4, 3.0).unwrap(); // n1-n5
        b.add_edge(4, 1, 2.0).unwrap(); // n5-n2
        b.add_edge(1, 5, 8.0).unwrap(); // n2-n6
        b.add_edge(1, 6, 7.0).unwrap(); // n2-n7
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(7, [NodeId::new(5), NodeId::new(4), NodeId::new(6)]);
        (g, pts, NodeId::new(3))
    }

    #[test]
    fn paper_running_example_returns_p1_and_p2() {
        let (g, pts, q) = fig3();
        let out = eager_rknn(&g, &pts, q, 1);
        // In the paper's walk-through, both p1 and p2 are verified as RNNs of q.
        let p1 = pts.point_at(NodeId::new(5)).unwrap();
        let p2 = pts.point_at(NodeId::new(4)).unwrap();
        let p3 = pts.point_at(NodeId::new(6)).unwrap();
        assert!(out.contains(p1));
        assert!(out.contains(p2));
        assert!(!out.contains(p3), "p3's NN is p2, not the query");
        assert_eq!(out.len(), 2);
        assert!(out.stats.range_nn_queries > 0);
        assert!(out.stats.verifications >= 2);
    }

    #[test]
    fn pruning_limits_the_expansion() {
        // A long path with a point right next to the query on each side: the
        // expansion must stop after the immediate neighbors.
        let n = 100;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let q = NodeId::new(50);
        let pts = NodePointSet::from_nodes(n, [NodeId::new(48), NodeId::new(52)]);
        let out = eager_rknn(&g, &pts, q, 1);
        assert_eq!(out.len(), 2);
        assert!(
            out.stats.nodes_settled <= 10,
            "expansion should stay local, settled {}",
            out.stats.nodes_settled
        );
    }

    #[test]
    fn query_on_a_point_node_excludes_that_point() {
        let (g, pts, _) = fig3();
        // Query placed on n5 (which holds p2): p2 itself must not be reported.
        let out = eager_rknn(&g, &pts, NodeId::new(4), 1);
        let p2 = pts.point_at(NodeId::new(4)).unwrap();
        assert!(!out.contains(p2));
    }

    #[test]
    fn k_larger_than_point_count_returns_all_other_points() {
        let (g, pts, q) = fig3();
        let out = eager_rknn(&g, &pts, q, 10);
        // With k larger than |P|, every point trivially has q among its kNN.
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, pts, q) = fig3();
        let _ = eager_rknn(&g, &pts, q, 0);
    }

    #[test]
    fn empty_point_set_returns_empty_result() {
        let (g, _, q) = fig3();
        let empty = NodePointSet::empty(7);
        let out = eager_rknn(&g, &empty, q, 1);
        assert!(out.is_empty());
    }

    /// Regression: the Lemma-1 probe re-derives the distance of the query
    /// node's own data point by summing the path in the opposite order, so on
    /// weights like 0.1/0.2/0.3 the probe sees `(0.3+0.2)+0.1 = 0.6` while
    /// the main expansion settled the node at `(0.1+0.2)+0.3 = 0.6 + 1 ulp`.
    /// Counting that spurious "strictly closer" point over-pruned the
    /// expansion and dropped reverse neighbors behind the node.
    #[test]
    fn float_tie_with_query_point_does_not_over_prune() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.1).unwrap();
        b.add_edge(1, 2, 0.2).unwrap();
        b.add_edge(2, 3, 0.3).unwrap();
        b.add_edge(3, 4, 10.0).unwrap();
        let g = b.build().unwrap();
        // A point on the query node and one far point reachable only through
        // node 3, whose settle distance ties with the probe's view of p0.
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(4)]);
        let q = NodeId::new(0);
        let far = pts.point_at(NodeId::new(4)).unwrap();

        let reference = crate::naive::naive_rknn(&g, &pts, q, 1);
        assert!(reference.contains(far), "p4 ties with p0 and is a reverse neighbor");
        let out = eager_rknn(&g, &pts, q, 1);
        assert_eq!(out.points, reference.points);
    }
}
