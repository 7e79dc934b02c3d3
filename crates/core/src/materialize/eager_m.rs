//! The *eager-M* algorithm: eager over the materialized k-NN table
//! (Section 4.1 of the paper).
//!
//! When a node is de-heaped, eager-M reads its materialized list instead of
//! running a range-NN expansion, and verifies a candidate point without any
//! expansion whenever the upper bound `d(q, n) + d(n, p)` already proves the
//! query to be within the candidate's k-th NN distance. Only when the
//! materialized information is inconclusive does it fall back to an explicit
//! verification query.

use super::MaterializedKnn;
use crate::candidates::Candidates;
use crate::expansion::NetworkExpansion;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use crate::verify::VerifyParams;
use rnn_graph::{NodeId, NodeLocation, PointsOnNodes, Topology, Weight};

/// Runs the eager-M RkNN algorithm over a materialized table.
///
/// # Panics
/// Panics if `k == 0` or if `k` exceeds the `K` the table was built for.
pub fn eager_m_rknn<T, P>(
    topo: &T,
    points: &P,
    table: &MaterializedKnn,
    query: NodeId,
    k: usize,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    eager_m_rknn_in(topo, points, table, query, k, &mut Scratch::new())
}

/// [`eager_m_rknn`] on the recycled buffers of `scratch`.
pub(crate) fn eager_m_rknn_in<T, P>(
    topo: &T,
    points: &P,
    table: &MaterializedKnn,
    query: NodeId,
    k: usize,
    scratch: &mut Scratch,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    assert!(k >= 1, "RkNN queries require k >= 1");
    assert!(
        k <= table.capacity_k(),
        "the materialized table stores K = {} neighbors but the query asks for k = {}",
        table.capacity_k(),
        k
    );
    let mut stats = QueryStats::default();
    let mut cands = Candidates::new(VerifyParams { k, collect_visited: false }, scratch);
    let mut candidates = scratch.take_node_dists();
    let target = NodeLocation::from(query);

    let mut exp = NetworkExpansion::reusing(
        topo,
        scratch.take_expansion(),
        std::iter::once((query, Weight::ZERO)),
    );
    while let Some((node, dist)) = exp.next_settled_unexpanded() {
        stats.nodes_settled += 1;

        // Candidate points: the k nearest materialized entries that are
        // strictly closer to this node than the query is. An entry on the
        // query node itself is skipped outright — it ties with the query by
        // definition (its materialized distance was computed independently of
        // `dist`, so a floating-point tie can land on either side) and must
        // neither count against the Lemma-1 bound nor waste one of the k
        // candidate slots.
        candidates.clear();
        if dist > Weight::ZERO {
            stats.range_nn_queries += 1; // a table lookup replaces the range-NN probe
            for &(loc, d) in table.knn_of(node).iter() {
                if d >= dist || candidates.len() == k {
                    break;
                }
                if loc != query {
                    candidates.push((loc, d));
                }
            }
        }

        for &(loc, d_to_node) in &candidates {
            // The table may be momentarily out of sync with an ad hoc point
            // set; skip entries that no longer hold a point.
            let Some(p) = points.point_at(loc).filter(|&p| cands.discover(p)) else {
                continue;
            };
            // Upper bound for d(p, q): through the settled node.
            let upper_bound = dist + d_to_node;
            match table.kth_other_distance(loc, loc, k) {
                // The materialized information already proves membership.
                Some(kth) if upper_bound <= kth => cands.accept(p, &mut stats),
                _ => {
                    cands.verify(topo, points, p, &target, &mut stats, scratch);
                }
            }
        }

        // Lemma 1: stop the expansion once k materialized points are strictly
        // closer to the node than the query (the candidate collection above
        // already excluded the query's own entry).
        if candidates.len() < k {
            exp.expand_from(node, dist);
        }
    }
    stats.heap_pushes = exp.pushes();
    scratch.put_expansion(exp.into_buffers());
    scratch.put_node_dists(candidates);
    cands.finish(stats, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::eager_rknn;
    use crate::naive::naive_rknn;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    fn web_graph() -> (Graph, NodePointSet) {
        // 12 nodes: a ladder with some rungs removed and varied weights.
        let mut b = GraphBuilder::new(12);
        for i in 0..5 {
            b.add_edge(i, i + 1, 1.0 + (i as f64) * 0.4).unwrap();
            b.add_edge(i + 6, i + 7, 1.3 + (i as f64) * 0.3).unwrap();
        }
        b.add_edge(0, 6, 2.0).unwrap();
        b.add_edge(2, 8, 1.1).unwrap();
        b.add_edge(5, 11, 0.9).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(12, [1, 4, 7, 10].map(NodeId::new));
        (g, pts)
    }

    #[test]
    fn matches_eager_and_naive_for_all_queries_and_k() {
        let (g, pts) = web_graph();
        for big_k in [2usize, 4] {
            let table = MaterializedKnn::build(&g, &pts, big_k);
            for k in 1..=big_k {
                for q in g.node_ids() {
                    let em = eager_m_rknn(&g, &pts, &table, q, k);
                    let e = eager_rknn(&g, &pts, q, k);
                    let n = naive_rknn(&g, &pts, q, k);
                    assert_eq!(em.points, e.points, "q={q} k={k} K={big_k}");
                    assert_eq!(em.points, n.points, "q={q} k={k} K={big_k}");
                }
            }
        }
    }

    #[test]
    fn materialization_skips_most_verifications() {
        // On a long path with regularly spaced points, the upper-bound
        // shortcut proves membership for the points adjacent to the query.
        let n = 60;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(n, (0..n).step_by(6).map(NodeId::new));
        let table = MaterializedKnn::build(&g, &pts, 1);
        let q = NodeId::new(25);
        let em = eager_m_rknn(&g, &pts, &table, q, 1);
        let e = eager_rknn(&g, &pts, q, 1);
        assert_eq!(em.points, e.points);
        assert!(
            em.stats.verifications <= e.stats.verifications,
            "eager-M should not need more explicit verifications than eager"
        );
        assert!(em.stats.auxiliary_settled < e.stats.auxiliary_settled);
    }

    #[test]
    fn table_io_is_recorded_during_queries() {
        let (g, pts) = web_graph();
        let table = MaterializedKnn::build(&g, &pts, 2);
        table.reset_io();
        let _ = eager_m_rknn(&g, &pts, &table, NodeId::new(3), 2);
        assert!(table.io_stats().accesses > 0);
    }

    #[test]
    #[should_panic]
    fn k_beyond_capacity_panics() {
        let (g, pts) = web_graph();
        let table = MaterializedKnn::build(&g, &pts, 1);
        let _ = eager_m_rknn(&g, &pts, &table, NodeId::new(0), 2);
    }
}
