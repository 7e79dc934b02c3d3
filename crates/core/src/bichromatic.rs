//! Bichromatic reverse k nearest neighbor queries (Section 5.1 of the paper).
//!
//! Given two data sets `P` (e.g. residential blocks) and `Q` (e.g. rival
//! restaurants) and a query location `q`, `bRkNN(q)` returns the points of
//! `P` that are closer to `q` than to their k-th nearest point of `Q`. The
//! paper reduces the problem to the monochromatic case with `Q` as the data
//! set: the expansion around `q` is pruned by Lemma 1 over `Q`, and every
//! node that keeps `q` among its k nearest `Q`-points contributes the
//! `P`-points it contains. Because the de-heaped distances are exact, no
//! verification step is needed.

use crate::expansion::NetworkExpansion;
use crate::knn::range_nn_into;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use rnn_graph::{NodeId, PointId, PointsOnNodes, Topology, Weight};

/// Runs the bichromatic RkNN query with the eager (Lemma 1) pruning.
///
/// `targets` is the set `P` whose points are reported; `sites` is the set `Q`
/// against which proximity is judged (the query competes with the sites). A
/// target point located exactly at the query node is not reported, mirroring
/// the monochromatic semantics.
///
/// # Panics
/// Panics if `k == 0`.
pub fn bichromatic_rknn<T, P, Q>(
    topo: &T,
    targets: &P,
    sites: &Q,
    query: NodeId,
    k: usize,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
    Q: PointsOnNodes + ?Sized,
{
    assert!(k >= 1, "bichromatic RkNN queries require k >= 1");
    // The main expansion and every range-NN probe share one arena.
    let scratch = &mut Scratch::new();
    let mut stats = QueryStats::default();
    let mut result: Vec<PointId> = Vec::new();
    let mut probe_found = scratch.take_found();
    // A site on the query node itself ties with the query everywhere and must
    // not count as "strictly closer" (the probe re-derives its distance with
    // a second expansion, so a floating-point tie can land on either side of
    // `dist`); excluding it at probe level also keeps it from wasting one of
    // the k probe slots.
    let exclude = |p: PointId| sites.node_of(p) == query;

    let mut exp = NetworkExpansion::reusing(
        topo,
        scratch.take_expansion(),
        std::iter::once((query, Weight::ZERO)),
    );
    while let Some((node, dist)) = exp.next_settled_unexpanded() {
        stats.nodes_settled += 1;

        // How many sites are strictly closer to this node than the query is?
        let closer_sites = if dist > Weight::ZERO {
            stats.range_nn_queries += 1;
            stats.auxiliary_settled +=
                range_nn_into(topo, sites, node, k, dist, &exclude, scratch, &mut probe_found);
            probe_found.len()
        } else {
            0
        };

        if closer_sites < k {
            // The node keeps the query among its k nearest sites, so every
            // target point it contains belongs to the result.
            if dist > Weight::ZERO {
                if let Some(p) = targets.point_at(node) {
                    stats.candidates += 1;
                    result.push(p);
                }
            }
            exp.expand_from(node, dist);
        }
        // Otherwise Lemma 1 (over Q) prunes the node: neither the node nor
        // anything whose shortest path to the query passes through it can
        // keep the query among its k nearest sites.
    }
    stats.heap_pushes = exp.pushes();
    scratch.put_expansion(exp.into_buffers());
    scratch.put_found(probe_found);
    RknnOutcome::from_points(result, stats)
}

/// Naive bichromatic baseline: computes, for every target point, its distance
/// to the query and counts the sites that are strictly closer. Used as the
/// correctness oracle.
pub fn naive_bichromatic_rknn<T, P, Q>(
    topo: &T,
    targets: &P,
    sites: &Q,
    query: NodeId,
    k: usize,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
    Q: PointsOnNodes + ?Sized,
{
    assert!(k >= 1, "bichromatic RkNN queries require k >= 1");
    let mut stats = QueryStats::default();
    let mut result: Vec<PointId> = Vec::new();

    let mut exp = NetworkExpansion::new(topo, query);
    let mut reachable: Vec<(PointId, NodeId, Weight)> = Vec::new();
    while let Some((node, dist)) = exp.next_settled() {
        stats.nodes_settled += 1;
        if dist > Weight::ZERO {
            if let Some(p) = targets.point_at(node) {
                reachable.push((p, node, dist));
            }
        }
    }
    stats.heap_pushes = exp.pushes();

    for (p, node, dist) in reachable {
        stats.candidates += 1;
        // Exclude a site residing on the query node: it ties with the query
        // by definition (see the eager variant above).
        let closer = crate::verify::count_points_strictly_within(
            topo,
            sites,
            node,
            sites.point_at(query),
            dist,
            k,
        );
        if closer < k {
            result.push(p);
        }
    }
    RknnOutcome::from_points(result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    /// Road-network flavoured example in the spirit of Fig. 1b: blocks (P)
    /// and restaurants (Q) spread over a small network.
    fn scenario() -> (Graph, NodePointSet, NodePointSet) {
        let mut b = GraphBuilder::new(10);
        for i in 0..9 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        b.add_edge(0, 9, 2.5).unwrap();
        b.add_edge(2, 7, 1.5).unwrap();
        let g = b.build().unwrap();
        let blocks = NodePointSet::from_nodes(10, [1, 3, 4, 6, 8].map(NodeId::new));
        let restaurants = NodePointSet::from_nodes(10, [0, 5, 9].map(NodeId::new));
        (g, blocks, restaurants)
    }

    #[test]
    fn matches_naive_for_every_query_site_and_k() {
        let (g, blocks, restaurants) = scenario();
        for q in g.node_ids() {
            for k in 1..=3 {
                let fast = bichromatic_rknn(&g, &blocks, &restaurants, q, k);
                let slow = naive_bichromatic_rknn(&g, &blocks, &restaurants, q, k);
                assert_eq!(fast.points, slow.points, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn result_is_monotone_in_k() {
        let (g, blocks, restaurants) = scenario();
        let q = NodeId::new(2);
        let r1 = bichromatic_rknn(&g, &blocks, &restaurants, q, 1);
        let r2 = bichromatic_rknn(&g, &blocks, &restaurants, q, 2);
        for p in &r1.points {
            assert!(r2.contains(*p), "bR1NN must be a subset of bR2NN");
        }
        assert!(r2.len() >= r1.len());
    }

    #[test]
    fn sites_farther_than_query_do_not_steal_targets() {
        // Single site far away: every block is closer to the query.
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let blocks = NodePointSet::from_nodes(6, [1, 2, 3].map(NodeId::new));
        let sites = NodePointSet::from_nodes(6, [NodeId::new(5)]);
        let out = bichromatic_rknn(&g, &blocks, &sites, NodeId::new(0), 1);
        assert_eq!(
            out.len(),
            2,
            "blocks at nodes 1 and 2 are closer to q; node 3 ties with the site"
        );
        let naive = naive_bichromatic_rknn(&g, &blocks, &sites, NodeId::new(0), 1);
        assert_eq!(out.points, naive.points);
    }

    #[test]
    fn empty_site_set_returns_all_reachable_targets() {
        let (g, blocks, _) = scenario();
        let empty = NodePointSet::empty(10);
        let out = bichromatic_rknn(&g, &blocks, &empty, NodeId::new(0), 1);
        assert_eq!(out.len(), blocks.num_points());
    }

    #[test]
    fn query_on_a_block_excludes_it() {
        let (g, blocks, restaurants) = scenario();
        let out = bichromatic_rknn(&g, &blocks, &restaurants, NodeId::new(3), 1);
        assert!(!out.contains(blocks.point_at(NodeId::new(3)).unwrap()));
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, blocks, restaurants) = scenario();
        let _ = bichromatic_rknn(&g, &blocks, &restaurants, NodeId::new(0), 0);
    }
}
