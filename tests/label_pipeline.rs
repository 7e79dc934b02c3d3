//! Integration tests for the hub-label pipeline (`rnn-index`):
//!
//! * parallel label construction is **identical** to the sequential build —
//!   same CSR, same entry order — at 1, 2, 4 and 8 threads, on the grid and
//!   BRITE generators and on random zoo graphs;
//! * every label byte of the 2-thread build is pinned by hash on the BRITE
//!   2000-node and 2500-node grid graphs, and the BRITE labeling hashes to
//!   the same pin at 1, 2, 4 and 8 threads;
//! * a randomized 500-op insert/remove trace maintained incrementally
//!   (sorted bucket splices, radius splices and recomputations) equals a
//!   from-scratch rebuild after every single op — table, radii and index
//!   alike.

mod common;

use common::{build_connected_graph, label_hash};
use rnn_datagen::{brite_topology, grid_map, place_points_on_nodes, BriteConfig, GridConfig};
use rnn_graph::{NodeId, NodePointSet};
use rnn_index::{HubLabelIndex, HubLabeling, HubPointTable};

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
fn parallel_build_is_identical_to_sequential_at_1_2_4_8_threads() {
    for (name, graph) in zoo_graphs() {
        let sequential = HubLabeling::build(&graph);
        for threads in [1, 2, 4, 8] {
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

/// Every label byte of the 2-thread build, pinned on the two graphs of
/// `BENCH_index.json`: BRITE |V| = 2000 (~35 hubs per node) and the
/// 2500-node grid (~388 hubs per node, so a label spans many blocks of the
/// construction arena). A change to how labels are built or stored may not
/// move either value. The BRITE labeling hashes to its pin at 1, 2, 4 and 8
/// threads too.
#[test]
fn label_bytes_of_the_two_thread_build_are_pinned() {
    let brite = brite_topology(&BriteConfig { num_nodes: 2_000, seed: 42, ..Default::default() });
    let grid = grid_map(&GridConfig::with_nodes(2_500, 4.0, 42));
    let hash =
        |g, threads| format!("{:#018x}", label_hash(&HubLabeling::build_with_threads(g, threads)));
    assert_eq!([hash(&brite, 2), hash(&grid, 2)], ["0x5fcc3e6dae45b092", "0x7135147476fa73a5"]);
    for threads in [1, 4, 8] {
        assert_eq!(hash(&brite, threads), "0x5fcc3e6dae45b092", "threads = {threads}");
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
