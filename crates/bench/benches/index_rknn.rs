//! Criterion micro-bench for the label-served RkNN query
//! (`HubLabelIndex::rknn_in`), the layer `labels-churn` spends its index
//! time in, and for the point maintenance its swaps run.
//!
//! Each row times 256 operations on fixed pseudo-random nodes of the
//! benchmark's own topology (BRITE, 5×10⁴ nodes, point density 0.01), so a
//! row divided by 256 is the per-operation cost: `rknn` on a reused `Scratch`
//! at `k = 1`, `k = 4` and `k = 5` (the first `k` above the stored radii);
//! `insert_remove`, one `insert_point` plus the `remove_point` that undoes it
//! on an unoccupied node; and `k_nearest` — label scans that share nothing
//! with the RkNN gated scan — as the control row.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use rnn_core::Scratch;
use rnn_datagen::{brite_topology, place_points_on_nodes, BriteConfig};
use rnn_graph::{NodeId, PointsOnNodes};
use rnn_index::HubLabelIndex;
use rnn_storage::lru::mix64;
use std::hint::black_box;

const QUERIES: u64 = 256;

fn bench(c: &mut Criterion) {
    let graph = brite_topology(&BriteConfig { num_nodes: 50_000, seed: 42, ..Default::default() });
    let points = place_points_on_nodes(&graph, 0.01, 43);
    let mut exact = HubLabelIndex::build_with_threads(&graph, &points, 2);
    let nodes: Vec<NodeId> =
        (0..QUERIES).map(|i| NodeId::new((mix64(i) % graph.num_nodes() as u64) as usize)).collect();

    let mut group = c.benchmark_group("index_rknn");
    let mut scratch = Scratch::new();
    for k in [1usize, 4, 5] {
        group.bench_function(format!("rknn/exact/k{k}"), |b| {
            b.iter(|| {
                for &node in &nodes {
                    black_box(exact.rknn_in(node, k, &mut scratch));
                }
            })
        });
    }
    group.bench_function("k_nearest/exact/k4", |b| {
        b.iter(|| {
            for &node in &nodes {
                black_box(exact.k_nearest(node, 4));
            }
        })
    });
    let free: Vec<NodeId> =
        nodes.iter().copied().filter(|&n| points.point_at(n).is_none()).collect();
    group.bench_function("insert_remove/exact", |b| {
        b.iter(|| {
            for &node in &free {
                black_box(exact.insert_point(node));
                black_box(exact.remove_point(node));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::quick_criterion();
    targets = bench
}
criterion_main!(benches);
