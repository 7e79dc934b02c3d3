//! Naive RkNN baseline.
//!
//! The straightforward method sketched (and dismissed) in Section 3.1 of the
//! paper: traverse the network from the query and, for every data point
//! encountered, issue a nearest-neighbor query to decide whether the query is
//! among its k nearest neighbors. Because the RNN set has no bounded radius,
//! this visits every data point and serves here as (a) the correctness oracle
//! for the property tests and (b) the straw-man baseline in the benchmark
//! harness.

use crate::candidates::Candidates;
use crate::expansion::PointExpansion;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use crate::verify::VerifyParams;
use rnn_graph::{NodeId, PointSource, PointsOnNodes, Topology, Weight};

/// Runs the naive RkNN baseline: a full expansion from the query followed by
/// one bounded NN probe per data point.
///
/// # Panics
/// Panics if `k == 0`.
pub fn naive_rknn<T, P>(topo: &T, points: &P, query: NodeId, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    naive_rknn_in(topo, points, query, k, &mut Scratch::new())
}

/// [`naive_rknn`] on the recycled buffers of `scratch`.
pub fn naive_rknn_in<T, P>(
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
    naive_rknn_from(topo, points, &query.into(), k, scratch)
}

/// The naive baseline for a query at any location of any [`PointSource`], as
/// for [`crate::eager::eager_rknn_from`].
///
/// # Panics
/// Panics if `k == 0`.
pub fn naive_rknn_from<T, S>(
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

    // Full single-source shortest paths from the query: the traversal the
    // naive method cannot avoid. It reaches every data point that can be
    // reached; those at distance zero sit at the query.
    let mut exp =
        PointExpansion::from_location(topo, points, query, None, scratch.take_expansion());
    let mut reachable_points = scratch.take_found();
    while let Some(event) = exp.next_event() {
        if let Some(p) = exp.revealed(&event).filter(|_| event.dist() > Weight::ZERO) {
            reachable_points.push((p, event.dist()));
        }
    }
    stats.nodes_settled = exp.settled_count();
    stats.heap_pushes = exp.pushes();
    scratch.put_expansion(exp.into_buffers());

    // Each encountered point is checked with the same verification primitive
    // the other algorithms use (a NN expansion around the point that stops
    // when the query is reached), so tie handling is identical everywhere.
    // The expansion reveals each point once, so none needs a mark.
    let mut cands = Candidates::new(VerifyParams { k, collect_visited: false }, scratch);
    for &(p, _) in &reachable_points {
        cands.verify(topo, points, p, query, &mut stats, scratch);
    }
    scratch.put_found(reachable_points);
    cands.finish(stats, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{GraphBuilder, NodePointSet};

    #[test]
    fn naive_matches_manual_analysis_on_a_cycle() {
        // Cycle of 6 nodes, unit weights, points on 1, 3 and 4; query at 0.
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge(i, (i + 1) % 6, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(6, [NodeId::new(1), NodeId::new(3), NodeId::new(4)]);
        // distances to q(0): p@1 -> 1, p@3 -> 3, p@4 -> 2
        // p@1: nearest other point at distance 2 (node 3) -> RNN (1 <= 2)
        // p@3: both other points are strictly closer (1 and 2) than the query
        //      (3) -> reverse neighbor only for k >= 3
        // p@4: the point at node 3 is strictly closer (1 < 2), the point at
        //      node 1 is not (3 >= 2) -> reverse neighbor for k >= 2
        let r1 = naive_rknn(&g, &pts, NodeId::new(0), 1);
        assert_eq!(r1.points, vec![pts.point_at(NodeId::new(1)).unwrap()]);
        let r2 = naive_rknn(&g, &pts, NodeId::new(0), 2);
        assert_eq!(r2.len(), 2);
        assert!(r2.contains(pts.point_at(NodeId::new(4)).unwrap()));
        let r3 = naive_rknn(&g, &pts, NodeId::new(0), 3);
        assert_eq!(r3.len(), 3);
    }

    #[test]
    fn excludes_point_at_query_and_unreachable_points() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        // nodes 3-4 disconnected
        b.add_edge(3, 4, 1.0).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(2), NodeId::new(4)]);
        let r = naive_rknn(&g, &pts, NodeId::new(0), 1);
        // the point at the query node is excluded; the point at node 4 is
        // unreachable; the point at node 2 has no other reachable point
        // closer than the query... the point at node 0 is at distance 2 ==
        // d(p2, q) so it does not disqualify it.
        assert_eq!(r.points, vec![pts.point_at(NodeId::new(2)).unwrap()]);
    }

    #[test]
    fn naive_visits_every_reachable_node() {
        let mut b = GraphBuilder::new(50);
        for i in 0..49 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(50, [NodeId::new(10), NodeId::new(40)]);
        let r = naive_rknn(&g, &pts, NodeId::new(25), 1);
        assert_eq!(r.stats.nodes_settled, 50, "naive has no pruning");
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let g = GraphBuilder::new(1).build().unwrap();
        let _ = naive_rknn(&g, &NodePointSet::empty(1), NodeId::new(0), 0);
    }
}
