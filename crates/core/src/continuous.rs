//! Continuous RkNN queries along a route (Section 5.1 of the paper).
//!
//! Linear-motion continuous queries do not translate to graphs, so the paper
//! defines the continuous query over a predefined route `r = <n_1 ... n_r>`:
//! `cRkNN(r)` is the union of the RkNN sets of all route nodes, and the
//! distance of a node from the route is `d(r, n) = min_i d(n_i, n)`. Both
//! eager and lazy apply directly with a multi-source expansion seeded with
//! every route node at distance zero; a candidate point belongs to the result
//! iff some route node is reached before `k` other data points, i.e. iff it
//! belongs to the RkNN set of its *nearest* route node.

use crate::eager::eager_rknn_from;
use crate::lazy::lazy_rknn_from;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use rnn_graph::{NodeLocation, PointId, PointsOnNodes, Route, Topology};

/// Continuous RkNN with the eager algorithm: the eager query whose source set
/// is the route — multi-source expansion, Lemma 1 pruning with the route
/// distance, and verification against the nearest route node.
///
/// Points residing on route nodes (distance zero from the route) are not
/// reported, consistently with the single-query semantics.
///
/// # Panics
/// Panics if `k == 0` or the route is empty.
pub fn continuous_eager_rknn<T, P>(topo: &T, points: &P, route: &Route, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    assert!(!route.is_empty(), "continuous queries require a non-empty route");
    eager_rknn_from(topo, points, &NodeLocation::of_route(route), k, &mut Scratch::new())
}

/// Continuous RkNN with the lazy algorithm: the lazy query whose source set
/// is the route, pruning through the verification counters exactly as the
/// single-source query does.
///
/// # Panics
/// Panics if `k == 0` or the route is empty.
pub fn continuous_lazy_rknn<T, P>(topo: &T, points: &P, route: &Route, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    assert!(!route.is_empty(), "continuous queries require a non-empty route");
    lazy_rknn_from(topo, points, &NodeLocation::of_route(route), k, &mut Scratch::new())
}

/// Naive continuous baseline: the union of per-route-node naive RkNN queries,
/// minus points residing on the route itself. Used as the correctness oracle.
pub fn naive_continuous_rknn<T, P>(topo: &T, points: &P, route: &Route, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    assert!(k >= 1, "RkNN queries require k >= 1");
    assert!(!route.is_empty(), "continuous queries require a non-empty route");
    let on_route = NodeLocation::of_route(route);
    let mut stats = QueryStats::default();
    let mut all: Vec<PointId> = Vec::new();
    for &n in route.nodes() {
        let out = crate::naive::naive_rknn(topo, points, n, k);
        stats += &out.stats;
        all.extend(out.points);
    }
    all.retain(|&p| !on_route.contains(points.node_of(p)));
    RknnOutcome::from_points(all, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodeId, NodePointSet, Route};

    fn ladder() -> (Graph, NodePointSet) {
        // Two parallel paths of 8 nodes with rungs; points scattered on both.
        let mut b = GraphBuilder::new(16);
        for i in 0..7 {
            b.add_edge(i, i + 1, 1.0).unwrap();
            b.add_edge(i + 8, i + 9, 1.2).unwrap();
        }
        for i in 0..8 {
            b.add_edge(i, i + 8, 0.8).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(16, [2, 5, 9, 12, 15].map(NodeId::new));
        (g, pts)
    }

    #[test]
    fn eager_and_lazy_match_the_union_of_single_queries() {
        let (g, pts) = ladder();
        for len in [1usize, 3, 5] {
            let route = Route::new(&g, (0..len).map(NodeId::new).collect()).unwrap();
            for k in 1..=2 {
                let e = continuous_eager_rknn(&g, &pts, &route, k);
                let l = continuous_lazy_rknn(&g, &pts, &route, k);
                let n = naive_continuous_rknn(&g, &pts, &route, k);
                assert_eq!(e.points, n.points, "eager, len={len} k={k}");
                assert_eq!(l.points, n.points, "lazy, len={len} k={k}");
            }
        }
    }

    #[test]
    fn longer_routes_never_shrink_the_result() {
        let (g, _) = ladder();
        // Use a point set with no points on the route nodes (0..6), so the
        // union over a growing route can only grow.
        let pts = NodePointSet::from_nodes(16, [9, 12, 15].map(NodeId::new));
        let mut previous = 0usize;
        for len in 1..=6 {
            let route = Route::new(&g, (0..len).map(NodeId::new).collect()).unwrap();
            let out = continuous_eager_rknn(&g, &pts, &route, 1);
            assert!(out.len() >= previous, "len={len}");
            previous = out.len();
        }
    }

    #[test]
    fn points_on_the_route_are_not_reported() {
        let (g, pts) = ladder();
        // Route passes through node 2, which holds a point.
        let route = Route::new(&g, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]).unwrap();
        let e = continuous_eager_rknn(&g, &pts, &route, 1);
        let l = continuous_lazy_rknn(&g, &pts, &route, 1);
        let on_route_point = pts.point_at(NodeId::new(2)).unwrap();
        assert!(!e.contains(on_route_point));
        assert!(!l.contains(on_route_point));
        assert_eq!(e.points, naive_continuous_rknn(&g, &pts, &route, 1).points);
        assert_eq!(l.points, e.points);
    }

    #[test]
    fn single_node_route_equals_plain_query() {
        let (g, pts) = ladder();
        let route = Route::new(&g, vec![NodeId::new(4)]).unwrap();
        let cont = continuous_eager_rknn(&g, &pts, &route, 2);
        let plain = crate::eager::eager_rknn(&g, &pts, NodeId::new(4), 2);
        assert_eq!(cont.points, plain.points);
    }

    #[test]
    #[should_panic]
    fn empty_route_panics() {
        let (g, pts) = ladder();
        let route = Route::new_unchecked(vec![]);
        let _ = continuous_eager_rknn(&g, &pts, &route, 1);
    }
}
