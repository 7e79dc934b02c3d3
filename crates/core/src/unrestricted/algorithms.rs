//! Eager, lazy and naive RkNN on unrestricted networks: the algorithms of
//! [`crate::eager`], [`crate::lazy`] and [`crate::naive`] with an
//! [`EdgePointSet`] as the point source and an [`EdgePosition`] as the query.
//!
//! What Section 5.2 of the paper changes against Section 3 is all in the
//! source: candidates are the data points on the edges adjacent to de-heaped
//! nodes (and on the query's own edge), range-NN and verification find points
//! on the arcs they traverse, and a verification is aimed at a position on an
//! edge. `topo` is the traversed topology, in memory or paged; nothing else
//! of the graph is needed, the point set knows the edges its points lie on.

use super::EdgePosition;
use crate::query::RknnOutcome;
use crate::scratch::Scratch;
use rnn_graph::{EdgePointSet, Topology};

/// Eager RkNN on an unrestricted network. Points coinciding with the query
/// position are not reported.
///
/// # Panics
/// Panics if `k == 0`.
pub fn unrestricted_eager_rknn<T: Topology + ?Sized>(
    topo: &T,
    points: &EdgePointSet,
    query: &EdgePosition,
    k: usize,
) -> RknnOutcome {
    crate::eager::eager_rknn_from(topo, points, query, k, &mut Scratch::new())
}

/// Lazy RkNN on an unrestricted network: pruning happens when data points are
/// discovered on the edges adjacent to de-heaped nodes, through the
/// verification counters of the lazy algorithm.
///
/// # Panics
/// Panics if `k == 0`.
pub fn unrestricted_lazy_rknn<T: Topology + ?Sized>(
    topo: &T,
    points: &EdgePointSet,
    query: &EdgePosition,
    k: usize,
) -> RknnOutcome {
    crate::lazy::lazy_rknn_from(topo, points, query, k, &mut Scratch::new())
}

/// Naive RkNN baseline on an unrestricted network: computes the distance of
/// every data point from the query and verifies each one independently.
///
/// # Panics
/// Panics if `k == 0`.
pub fn unrestricted_naive_rknn<T: Topology + ?Sized>(
    topo: &T,
    points: &EdgePointSet,
    query: &EdgePosition,
    k: usize,
) -> RknnOutcome {
    crate::naive::naive_rknn_from(topo, points, query, k, &mut Scratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{EdgePointSetBuilder, Graph, GraphBuilder, NodeId, PointId, Weight};

    /// A small "road network": a 3x3 grid with Euclidean-ish weights and
    /// points scattered on edges.
    fn road() -> (Graph, EdgePointSet) {
        let mut b = GraphBuilder::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    b.add_edge(v, v + 1, 4.0 + (v as f64) * 0.5).unwrap();
                }
                if r + 1 < 3 {
                    b.add_edge(v, v + 3, 5.0 + (v as f64) * 0.3).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        // place points on a few edges at varying offsets
        let place = [
            (0usize, 1usize, 1.2),
            (1, 2, 3.0),
            (3, 4, 2.5),
            (4, 7, 1.0),
            (6, 7, 3.3),
            (2, 5, 0.7),
        ];
        for (a, bnode, off) in place {
            let e = g.edge_between(NodeId::new(a), NodeId::new(bnode)).unwrap();
            pb.add_point(e, off).unwrap();
        }
        let pts = pb.build();
        (g, pts)
    }

    #[test]
    fn eager_and_lazy_match_naive_for_point_queries() {
        let (g, pts) = road();
        for qi in 0..pts.num_points() {
            let query = pts.position(PointId::new(qi));
            for k in 1..=3 {
                let e = unrestricted_eager_rknn(&g, &pts, &query, k);
                let l = unrestricted_lazy_rknn(&g, &pts, &query, k);
                let n = unrestricted_naive_rknn(&g, &pts, &query, k);
                assert_eq!(e.points, n.points, "eager vs naive, q={qi} k={k}");
                assert_eq!(l.points, n.points, "lazy vs naive, q={qi} k={k}");
                // the query point itself is never reported
                assert!(!e.contains(PointId::new(qi)));
            }
        }
    }

    /// The twin of the dispatch's scratch-reuse test for restricted queries:
    /// after one warm-up query, further queries on the same arena — also from
    /// other positions — create no buffer and only reset pooled ones.
    #[test]
    fn steady_state_queries_reuse_scratch_buffers_instead_of_allocating() {
        use crate::{eager::eager_rknn_from, lazy::lazy_rknn_from};
        type Driver = fn(&Graph, &EdgePointSet, &EdgePosition, usize, &mut Scratch) -> RknnOutcome;
        let (g, pts) = road();
        for (name, run) in [("eager", eager_rknn_from as Driver), ("lazy", lazy_rknn_from)] {
            let mut scratch = Scratch::new();
            let fresh =
                |q: usize| run(&g, &pts, &pts.position(PointId::new(q)), 2, &mut Scratch::new());
            assert_eq!(run(&g, &pts, &pts.position(PointId::new(3)), 2, &mut scratch), fresh(3));
            let (created, reuses) = (scratch.created(), scratch.reuses());
            assert!(created > 0, "{name}: the warm-up query fills the pools");
            for round in 0..20 {
                let q = round % pts.num_points();
                let pooled = run(&g, &pts, &pts.position(PointId::new(q)), 2, &mut scratch);
                assert_eq!(pooled, fresh(q), "{name}: reuse must not change results");
            }
            assert_eq!(scratch.created(), created, "{name}: steady state allocates no buffer");
            assert!(scratch.reuses() >= reuses + 20, "{name}: every query resets pooled buffers");
        }
    }

    #[test]
    fn query_in_the_middle_of_an_empty_edge() {
        let (g, pts) = road();
        // a query on an edge with no data points
        let e = g.edge_between(NodeId::new(7), NodeId::new(8)).unwrap();
        let query = EdgePosition::resolve(
            &g,
            rnn_graph::EdgeLocation { edge: e, offset: Weight::new(2.0) },
        );
        for k in 1..=2 {
            let eager = unrestricted_eager_rknn(&g, &pts, &query, k);
            let naive = unrestricted_naive_rknn(&g, &pts, &query, k);
            assert_eq!(eager.points, naive.points, "k={k}");
        }
    }

    #[test]
    fn long_edge_point_is_still_found() {
        // Regression for the coverage subtlety discussed in the module docs:
        // a point in the middle of a long edge, farther from both endpoints
        // than the endpoints are from the query, must still be reported.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 3.0).unwrap();
        b.add_edge(0, 2, 4.0).unwrap();
        b.add_edge(1, 2, 10.0).unwrap();
        let g = b.build().unwrap();
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(e12, 5.0).unwrap(); // the only data point, mid-edge
        let pts = pb.build();
        let query = EdgePosition::resolve(
            &g,
            rnn_graph::EdgeLocation { edge: e01, offset: Weight::new(0.5) },
        );
        let naive = unrestricted_naive_rknn(&g, &pts, &query, 1);
        assert_eq!(naive.len(), 1);
        let eager = unrestricted_eager_rknn(&g, &pts, &query, 1);
        let lazy = unrestricted_lazy_rknn(&g, &pts, &query, 1);
        assert_eq!(eager.points, naive.points);
        assert_eq!(lazy.points, naive.points);
    }

    #[test]
    fn same_edge_neighbors_dominate() {
        // Two points on the same long edge, query between them: both are
        // reverse nearest neighbors through the direct along-edge distance.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 20.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(2, 3, 2.0).unwrap();
        b.add_edge(3, 0, 2.0).unwrap();
        let g = b.build().unwrap();
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(e01, 6.0).unwrap();
        pb.add_point(e01, 12.0).unwrap();
        let pts = pb.build();
        let query = EdgePosition::resolve(
            &g,
            rnn_graph::EdgeLocation { edge: e01, offset: Weight::new(9.0) },
        );
        let out = unrestricted_eager_rknn(&g, &pts, &query, 1);
        let naive = unrestricted_naive_rknn(&g, &pts, &query, 1);
        assert_eq!(out.points, naive.points);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, pts) = road();
        let query = pts.position(PointId::new(0));
        let _ = unrestricted_naive_rknn(&g, &pts, &query, 0);
    }

    /// Boundary offsets are valid placements, so a point can sit exactly on a
    /// node. A query on a *different* edge but at the same node is the same
    /// physical location: the point must be excluded from the result (its
    /// distance is zero) and from the Lemma-1 pruning count, even though the
    /// two positions have different `(edge, offset)` representations.
    #[test]
    fn point_on_endpoint_of_adjacent_edge_counts_as_the_query_location() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(2, 3, 2.0).unwrap();
        b.add_edge(3, 0, 2.0).unwrap();
        let g = b.build().unwrap();
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(e01, 2.0).unwrap(); // exactly on node 1
        pb.add_point(e12, 1.5).unwrap(); // a genuine reverse neighbor
        let pts = pb.build();
        // Query at node 1 too, but represented on edge (1,2) at offset 0.
        let query = EdgePosition::resolve(
            &g,
            rnn_graph::EdgeLocation { edge: e12, offset: Weight::new(0.0) },
        );
        assert!(pts.position(PointId::new(0)).same_location(&query));

        let naive = unrestricted_naive_rknn(&g, &pts, &query, 1);
        let eager = unrestricted_eager_rknn(&g, &pts, &query, 1);
        let lazy = unrestricted_lazy_rknn(&g, &pts, &query, 1);
        assert!(!naive.contains(PointId::new(0)), "collocated point is never reported");
        assert_eq!(eager.points, naive.points);
        assert_eq!(lazy.points, naive.points);
        assert!(naive.contains(PointId::new(1)), "the interior point is a reverse neighbor");
    }
}
