//! Integration tests for the hub-label pipeline (`rnn-index`):
//!
//! * parallel label construction is **identical** to the sequential build —
//!   same CSR, same entry order — at 1, 2 and 8 threads, on the grid and
//!   BRITE generators and on random zoo graphs;
//! * every label byte of the 2-thread build is pinned by hash on the BRITE
//!   2000-node and 2500-node grid graphs;
//! * the compressed tiers answer like the exact one: delta-varint ranks with
//!   exact distances decode bit-identically, and the `f32` tier stays within
//!   `Weight::approx_eq` of exact while producing the *same* k-NN orders and
//!   RkNN result sets;
//! * a randomized 500-op insert/remove trace maintained incrementally
//!   (sorted bucket splices, radius splices and recomputations) equals a
//!   from-scratch rebuild after every single op — table, radii and index
//!   alike.

mod common;

use common::build_connected_graph;
use rnn_datagen::{brite_topology, grid_map, place_points_on_nodes, BriteConfig, GridConfig};
use rnn_graph::{NodeId, NodePointSet};
use rnn_index::{HubLabelIndex, HubLabeling, HubPointTable, LabelDecoder, LabelPrecision};

const SEED: u64 = 7;

/// A deterministic splitmix-style stream, so the trace needs no RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn zoo_graphs() -> Vec<(String, rnn_graph::Graph)> {
    let mut graphs = vec![
        ("grid".to_string(), grid_map(&GridConfig::with_nodes(900, 4.0, SEED))),
        (
            "brite".to_string(),
            brite_topology(&BriteConfig { num_nodes: 700, seed: SEED, ..Default::default() }),
        ),
    ];
    let mut rng = Lcg(SEED);
    for round in 0..3 {
        let n = 16 + rng.below(48);
        let parents: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
        let extra: Vec<(usize, usize)> = (0..2 * n).map(|_| (rng.below(n), rng.below(n))).collect();
        let weights: Vec<u8> = (0..37).map(|_| rng.next() as u8).collect();
        graphs.push((format!("zoo-{round}"), build_connected_graph(n, &parents, &extra, &weights)));
    }
    graphs
}

#[test]
fn parallel_build_is_identical_to_sequential_at_1_2_8_threads() {
    for (name, graph) in zoo_graphs() {
        let sequential = HubLabeling::build(&graph);
        for threads in [1, 2, 8] {
            let parallel = HubLabeling::build_with_threads(&graph, threads);
            assert!(
                parallel == sequential,
                "{name}: {threads}-thread labeling must equal the sequential one"
            );
        }
        // The full index (labeling + point table) is equally deterministic.
        let points = place_points_on_nodes(&graph, 0.05, SEED + 1);
        let reference = HubLabelIndex::build(&graph, &points);
        for threads in [2, 8] {
            let built = HubLabelIndex::build_with_threads(&graph, &points, threads);
            assert!(built == reference, "{name}: {threads}-thread index must equal sequential");
        }
    }
}

/// FNV-1a over every label of `labeling`, node by node: the entry count,
/// then each hub rank and the bits of its distance, little-endian.
fn label_hash(labeling: &HubLabeling) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut dec = LabelDecoder::new();
    for v in 0..labeling.num_nodes() {
        let (ranks, dists) = labeling.label(NodeId::new(v), &mut dec);
        eat(&(ranks.len() as u64).to_le_bytes());
        for (&r, d) in ranks.iter().zip(dists) {
            eat(&r.to_le_bytes());
            eat(&d.value().to_bits().to_le_bytes());
        }
    }
    hash
}

/// Every label byte of the 2-thread build, pinned on the two graphs of
/// `BENCH_index.json`: BRITE |V| = 2000 (~35 hubs per node) and the
/// 2500-node grid (~388 hubs per node, so a label spans many blocks of the
/// construction arena). A change to how labels are built or stored may not
/// move either value.
#[test]
fn label_bytes_of_the_two_thread_build_are_pinned() {
    let brite = brite_topology(&BriteConfig { num_nodes: 2_000, seed: 42, ..Default::default() });
    let grid = grid_map(&GridConfig::with_nodes(2_500, 4.0, 42));
    let hashes = [&brite, &grid]
        .map(|g| format!("{:#018x}", label_hash(&HubLabeling::build_with_threads(g, 2))));
    assert_eq!(hashes, ["0x5fcc3e6dae45b092", "0x7135147476fa73a5"]);
}

#[test]
fn compressed_tiers_match_exact_answers_and_f32_stays_within_approx_eq() {
    let graph = brite_topology(&BriteConfig { num_nodes: 500, seed: SEED, ..Default::default() });
    let points = place_points_on_nodes(&graph, 0.05, SEED + 1);
    let exact = HubLabelIndex::build(&graph, &points);
    let compact_exact = exact.compressed(LabelPrecision::Exact);
    let compact_f32 = exact.compressed(LabelPrecision::F32);

    let mut rng = Lcg(SEED + 2);
    let queries: Vec<NodeId> = (0..64).map(|_| NodeId::new(rng.below(graph.num_nodes()))).collect();
    let mut pairs = Vec::new();
    for _ in 0..128 {
        pairs.push((
            NodeId::new(rng.below(graph.num_nodes())),
            NodeId::new(rng.below(graph.num_nodes())),
        ));
    }

    // Distances: exact-compressed is bit-identical, f32 within approx_eq.
    for &(u, v) in &pairs {
        let full = exact.distance(u, v);
        assert_eq!(full, compact_exact.distance(u, v), "pair ({u}, {v}): exact tier drifted");
        match (full, compact_f32.distance(u, v)) {
            (Some(d), Some(f)) => assert!(
                d.approx_eq(f, 1e-6),
                "pair ({u}, {v}): f32 distance {f} too far from exact {d}"
            ),
            (None, None) => {}
            (d, f) => panic!("pair ({u}, {v}): reachability disagrees ({d:?} vs {f:?})"),
        }
    }

    // Queries: result sets must be identical across tiers — compression may
    // round distances but must never change an answer.
    for &q in &queries {
        for k in [1usize, 2, 3] {
            let reference = exact.rknn(q, k);
            assert_eq!(
                reference.points,
                compact_exact.rknn(q, k).points,
                "rknn({q}, {k}): exact-compressed tier drifted"
            );
            assert_eq!(
                reference.points,
                compact_f32.rknn(q, k).points,
                "rknn({q}, {k}): f32 tier drifted"
            );

            let knn = exact.k_nearest(q, k);
            let knn_f32 = compact_f32.k_nearest(q, k);
            let ids: Vec<_> = knn.iter().map(|&(p, _)| p).collect();
            let ids_f32: Vec<_> = knn_f32.iter().map(|&(p, _)| p).collect();
            assert_eq!(ids, ids_f32, "k_nearest({q}, {k}): f32 tier reordered the result");
            assert_eq!(
                knn,
                compact_exact.k_nearest(q, k),
                "k_nearest({q}, {k}): exact-compressed tier drifted"
            );
            for (&(_, d), &(_, f)) in knn.iter().zip(&knn_f32) {
                assert!(d.approx_eq(f, 1e-6), "k_nearest({q}, {k}): f32 distance drifted");
            }
        }
    }
}

#[test]
fn randomized_insert_remove_trace_matches_fresh_rebuild_after_every_op() {
    let graph = grid_map(&GridConfig::with_nodes(400, 4.0, SEED));
    let labeling = HubLabeling::build(&graph);
    let n = graph.num_nodes();

    // Churn on a small candidate pool so the trace repeatedly empties and
    // refills the same buckets (including the drain-to-empty edge).
    let mut rng = Lcg(SEED + 3);
    let candidates: Vec<NodeId> = {
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < 32 {
            seen.insert(rng.below(n));
        }
        seen.into_iter().map(NodeId::new).collect()
    };

    let mut occupied = vec![false; n];
    let mut table = HubPointTable::build(&labeling, &NodePointSet::empty(n));
    let mut index = HubLabelIndex::from_labeling(labeling.clone(), &NodePointSet::empty(n));

    for op in 0..500 {
        let node = candidates[rng.below(candidates.len())];
        if occupied[node.index()] {
            let removed = table.remove_point(&labeling, node);
            assert!(removed.is_some(), "op {op}: removing an occupied node must succeed");
            assert_eq!(index.remove_point(node), removed, "op {op}: index/table id mismatch");
            occupied[node.index()] = false;
        } else {
            let inserted = table.insert_point(&labeling, node);
            assert_eq!(index.insert_point(node), inserted, "op {op}: index/table id mismatch");
            occupied[node.index()] = true;
            assert_eq!(table.point_of(node), Some(inserted), "op {op}: directory splice");
        }

        let points = NodePointSet::from_nodes(
            n,
            occupied.iter().enumerate().filter(|&(_, &o)| o).map(|(i, _)| NodeId::new(i)),
        );
        let fresh_table = HubPointTable::build(&labeling, &points);
        assert!(
            table == fresh_table,
            "op {op}: incrementally maintained table must equal a fresh build"
        );
        let fresh_index = HubLabelIndex::from_labeling(labeling.clone(), &points);
        assert_eq!(
            index.radii(),
            fresh_index.radii(),
            "op {op}: incrementally maintained radii must equal a fresh build's"
        );
        assert!(
            index == fresh_index,
            "op {op}: incrementally maintained index must equal a fresh build"
        );
    }
    assert!(table.num_points() > 0, "the trace must leave some points behind");
}
