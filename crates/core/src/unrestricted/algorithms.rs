//! Eager, lazy and naive RkNN algorithms on unrestricted networks.
//!
//! The main loops mirror their restricted counterparts (Section 3), with the
//! differences described in Section 5.2 of the paper: candidates are the data
//! points on the edges adjacent to de-heaped nodes (and on the query's own
//! edge), range-NN / verification use the unrestricted expansion, and Lemma 1
//! pruning compares the query distance of a node with the distances of the
//! points discovered around it.

use super::expansion::{
    unrestricted_range_nn, unrestricted_verify, Event, ProbeBuffers, UnrestrictedExpansion,
};
use super::EdgePosition;
use crate::fast_hash::{fast_map, fast_set, FastMap, FastSet};
use crate::query::{QueryStats, RknnOutcome};
use rnn_graph::{for_each_neighbor, EdgePointSet, Graph, NodeId, PointId, Topology, Weight};

/// Collects the candidate points on the edges adjacent to `node`, excluding
/// points that coincide with the query location.
fn adjacent_candidates<T: Topology + ?Sized>(
    topo: &T,
    points: &EdgePointSet,
    node: NodeId,
) -> Vec<PointId> {
    let mut out = Vec::new();
    for_each_neighbor(topo, node, |nb| {
        for ep in points.points_on_edge(nb.edge) {
            out.push(ep.point);
        }
    });
    out
}

fn resolve_point(graph: &Graph, points: &EdgePointSet, p: PointId) -> EdgePosition {
    EdgePosition::of_point(graph, points, p)
}

/// Eager RkNN on an unrestricted network.
///
/// `graph` provides edge endpoints / weights for resolving positions (it is
/// *not* used for traversal); `topo` is the traversed topology (in-memory or
/// paged) and `points` the data points on edges. Points coinciding with the
/// query position are not reported.
///
/// # Panics
/// Panics if `k == 0`.
pub fn unrestricted_eager_rknn<T: Topology + ?Sized>(
    topo: &T,
    graph: &Graph,
    points: &EdgePointSet,
    query: &EdgePosition,
    k: usize,
) -> RknnOutcome {
    assert!(k >= 1, "RkNN queries require k >= 1");
    let mut stats = QueryStats::default();
    let mut result: Vec<PointId> = Vec::new();
    let mut verified: FastSet<PointId> = fast_set();
    // One set of expansion buffers serves every probe of the query in turn.
    let mut probe = ProbeBuffers::default();

    let verify_point = |p: PointId,
                        stats: &mut QueryStats,
                        result: &mut Vec<PointId>,
                        verified: &mut FastSet<PointId>,
                        probe: &mut ProbeBuffers| {
        if !verified.insert(p) {
            return;
        }
        let pos = resolve_point(graph, points, p);
        if pos.same_location(query) {
            return;
        }
        stats.candidates += 1;
        stats.verifications += 1;
        let (accepted, settled) = unrestricted_verify(topo, points, p, &pos, query, k, probe);
        stats.auxiliary_settled += settled;
        if accepted {
            result.push(p);
        }
    };

    // Points on the query's own edge are candidates regardless of the node
    // expansion (their shortest path to the query may not pass any node).
    for ep in points.points_on_edge(query.edge) {
        verify_point(ep.point, &mut stats, &mut result, &mut verified, &mut probe);
    }

    // Main expansion over nodes, pruned by Lemma 1.
    let mut exp = UnrestrictedExpansion::from_position(topo, points, query, None);
    while let Some(event) = exp.next_event_unexpanded() {
        let (node, dist) = match event {
            Event::Node(n, d) => (n, d),
            _ => continue, // point events of the main expansion are ignored here
        };
        stats.nodes_settled += 1;

        // Lemma 1 probe. A data point coinciding with the query position ties
        // with the query everywhere and is excluded at probe level: the probe
        // re-derives its distance by a second expansion (summing the path in
        // the opposite order), so a floating-point tie can land on either
        // side of `dist` and k=1 queries would over-prune; excluding it also
        // keeps it from wasting one of the k probe slots.
        let closer = if dist > Weight::ZERO {
            stats.range_nn_queries += 1;
            let at_query = |p| resolve_point(graph, points, p).same_location(query);
            let (found, settled) =
                unrestricted_range_nn(topo, points, node, k, dist, at_query, &mut probe);
            stats.auxiliary_settled += settled;
            for &(p, _) in &found {
                verify_point(p, &mut stats, &mut result, &mut verified, &mut probe);
            }
            found.len()
        } else {
            0
        };

        // Candidates on adjacent edges (they may lie outside the probe range
        // but can still be reverse neighbors).
        for p in adjacent_candidates(topo, points, node) {
            verify_point(p, &mut stats, &mut result, &mut verified, &mut probe);
        }

        if closer < k {
            exp.expand_node(node, dist);
        }
    }
    stats.heap_pushes = exp.pushes();
    RknnOutcome::from_points(result, stats)
}

/// Lazy RkNN on an unrestricted network: pruning happens when data points are
/// discovered on the edges adjacent to de-heaped nodes, using the same
/// verification-counter mechanism as the restricted lazy algorithm.
///
/// # Panics
/// Panics if `k == 0`.
pub fn unrestricted_lazy_rknn<T: Topology + ?Sized>(
    topo: &T,
    graph: &Graph,
    points: &EdgePointSet,
    query: &EdgePosition,
    k: usize,
) -> RknnOutcome {
    assert!(k >= 1, "RkNN queries require k >= 1");
    let mut stats = QueryStats::default();
    let mut result: Vec<PointId> = Vec::new();
    let mut verified: FastSet<PointId> = fast_set();
    let mut counters: FastMap<NodeId, usize> = fast_map();
    // One set of expansion buffers serves every verification in turn.
    let mut probe = ProbeBuffers::default();

    let mut process_candidate =
        |p: PointId,
         frontier: Weight,
         stats: &mut QueryStats,
         result: &mut Vec<PointId>,
         verified: &mut FastSet<PointId>,
         counters: &mut FastMap<NodeId, usize>,
         main: &UnrestrictedExpansion<'_, T>| {
            if !verified.insert(p) {
                return;
            }
            let pos = resolve_point(graph, points, p);
            if pos.same_location(query) {
                return;
            }
            stats.candidates += 1;
            stats.verifications += 1;
            // A verification expansion that also records the visited nodes for
            // the counter-based pruning.
            let mut exp = UnrestrictedExpansion::from_position_in(
                topo,
                points,
                &pos,
                Some(*query),
                std::mem::take(&mut probe),
            );
            let mut others: Vec<Weight> = Vec::new();
            let mut visited: Vec<(NodeId, Weight)> = Vec::new();
            let mut accepted = false;
            while let Some(event) = exp.next_event() {
                match event {
                    Event::Target(d) => {
                        let strictly_closer = others.iter().filter(|&&x| x < d).count();
                        accepted = strictly_closer < k;
                        visited.retain(|&(_, vd)| vd < d);
                        break;
                    }
                    Event::Point(q, d) => {
                        if q != p {
                            others.push(d);
                        }
                    }
                    Event::Node(n, d) => {
                        visited.push((n, d));
                        if others.len() >= k && d > others[k - 1] {
                            visited.retain(|&(_, vd)| vd < d);
                            break;
                        }
                    }
                }
            }
            stats.auxiliary_settled += exp.settled_nodes();
            probe = exp.into_buffers();
            if accepted {
                result.push(p);
            }
            // Counter side effects: only count nodes that are provably closer to
            // the point than to the query.
            for (m, dm) in visited {
                let counted = match main.settled_distance(m) {
                    Some(dq) => dm < dq,
                    None => dm < frontier,
                };
                if counted {
                    *counters.entry(m).or_insert(0) += 1;
                }
            }
        };

    let mut exp = UnrestrictedExpansion::from_position(topo, points, query, None);

    // Candidates on the query's own edge.
    for ep in points.points_on_edge(query.edge) {
        process_candidate(
            ep.point,
            Weight::ZERO,
            &mut stats,
            &mut result,
            &mut verified,
            &mut counters,
            &exp,
        );
    }

    while let Some(event) = exp.next_event_unexpanded() {
        let (node, dist) = match event {
            Event::Node(n, d) => (n, d),
            _ => continue,
        };
        stats.nodes_settled += 1;
        if counters.get(&node).copied().unwrap_or(0) >= k {
            continue;
        }

        for p in adjacent_candidates(topo, points, node) {
            process_candidate(p, dist, &mut stats, &mut result, &mut verified, &mut counters, &exp);
        }

        if counters.get(&node).copied().unwrap_or(0) >= k {
            continue;
        }
        exp.expand_node(node, dist);
    }
    stats.heap_pushes = exp.pushes();
    RknnOutcome::from_points(result, stats)
}

/// Naive RkNN baseline on an unrestricted network: computes the distance of
/// every data point from the query and verifies each one independently.
///
/// # Panics
/// Panics if `k == 0`.
pub fn unrestricted_naive_rknn<T: Topology + ?Sized>(
    topo: &T,
    graph: &Graph,
    points: &EdgePointSet,
    query: &EdgePosition,
    k: usize,
) -> RknnOutcome {
    assert!(k >= 1, "RkNN queries require k >= 1");
    let mut stats = QueryStats::default();
    let mut result: Vec<PointId> = Vec::new();

    // Distance of every data point from the query (full expansion).
    let mut exp = UnrestrictedExpansion::from_position(topo, points, query, None);
    let mut dist_to_query: FastMap<PointId, Weight> = fast_map();
    while let Some(event) = exp.next_event() {
        if let Event::Point(p, d) = event {
            dist_to_query.insert(p, d);
        }
    }
    stats.nodes_settled += exp.settled_nodes();
    stats.heap_pushes = exp.pushes();

    let mut probe = ProbeBuffers::default();
    for (p, _) in points.iter() {
        let Some(&dq) = dist_to_query.get(&p) else { continue };
        if dq == Weight::ZERO {
            continue; // coincides with the query location
        }
        stats.candidates += 1;
        stats.verifications += 1;
        let pos = resolve_point(graph, points, p);
        let (accepted, settled) = unrestricted_verify(topo, points, p, &pos, query, k, &mut probe);
        stats.auxiliary_settled += settled;
        if accepted {
            result.push(p);
        }
    }
    RknnOutcome::from_points(result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{EdgePointSetBuilder, GraphBuilder};

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
            let query = EdgePosition::of_point(&g, &pts, PointId::new(qi));
            for k in 1..=3 {
                let e = unrestricted_eager_rknn(&g, &g, &pts, &query, k);
                let l = unrestricted_lazy_rknn(&g, &g, &pts, &query, k);
                let n = unrestricted_naive_rknn(&g, &g, &pts, &query, k);
                assert_eq!(e.points, n.points, "eager vs naive, q={qi} k={k}");
                assert_eq!(l.points, n.points, "lazy vs naive, q={qi} k={k}");
                // the query point itself is never reported
                assert!(!e.contains(PointId::new(qi)));
            }
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
            let eager = unrestricted_eager_rknn(&g, &g, &pts, &query, k);
            let naive = unrestricted_naive_rknn(&g, &g, &pts, &query, k);
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
        let naive = unrestricted_naive_rknn(&g, &g, &pts, &query, 1);
        assert_eq!(naive.len(), 1);
        let eager = unrestricted_eager_rknn(&g, &g, &pts, &query, 1);
        let lazy = unrestricted_lazy_rknn(&g, &g, &pts, &query, 1);
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
        let out = unrestricted_eager_rknn(&g, &g, &pts, &query, 1);
        let naive = unrestricted_naive_rknn(&g, &g, &pts, &query, 1);
        assert_eq!(out.points, naive.points);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, pts) = road();
        let query = EdgePosition::of_point(&g, &pts, PointId::new(0));
        let _ = unrestricted_naive_rknn(&g, &g, &pts, &query, 0);
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
        assert!(EdgePosition::of_point(&g, &pts, PointId::new(0)).same_location(&query));

        let naive = unrestricted_naive_rknn(&g, &g, &pts, &query, 1);
        let eager = unrestricted_eager_rknn(&g, &g, &pts, &query, 1);
        let lazy = unrestricted_lazy_rknn(&g, &g, &pts, &query, 1);
        assert!(!naive.contains(PointId::new(0)), "collocated point is never reported");
        assert_eq!(eager.points, naive.points);
        assert_eq!(lazy.points, naive.points);
        assert!(naive.contains(PointId::new(1)), "the interior point is a reverse neighbor");
    }
}
