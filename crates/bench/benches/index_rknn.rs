//! Criterion micro-bench for the label-served RkNN query
//! (`HubLabelIndex::rknn_in`), the layer `labels-churn` spends its index
//! time in.
//!
//! Each row times 256 queries on fixed pseudo-random nodes of the
//! benchmark's own topology (BRITE, 5×10⁴ nodes, point density 0.01) on a
//! reused `Scratch`, so a row divided by 256 is the per-query cost: `rknn`
//! at `k = 1` and `k = 4` over the full-width and the `f32` label stores,
//! and `k_nearest` — label scans that share nothing with the RkNN fold — as
//! the control row.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use rnn_core::Scratch;
use rnn_datagen::{brite_topology, place_points_on_nodes, BriteConfig};
use rnn_graph::NodeId;
use rnn_index::{HubLabelIndex, LabelPrecision};
use rnn_storage::lru::mix64;
use std::hint::black_box;

const QUERIES: u64 = 256;

fn bench(c: &mut Criterion) {
    let graph = brite_topology(&BriteConfig { num_nodes: 50_000, seed: 42, ..Default::default() });
    let points = place_points_on_nodes(&graph, 0.01, 43);
    let full = HubLabelIndex::build_with_threads(&graph, &points, 2);
    let f32_store = full.compressed(LabelPrecision::F32);
    let nodes: Vec<NodeId> =
        (0..QUERIES).map(|i| NodeId::new((mix64(i) % graph.num_nodes() as u64) as usize)).collect();

    let mut group = c.benchmark_group("index_rknn");
    let mut scratch = Scratch::new();
    for (store, index) in [("full", &full), ("f32", &f32_store)] {
        for k in [1usize, 4] {
            group.bench_function(format!("rknn/{store}/k{k}"), |b| {
                b.iter(|| {
                    for &node in &nodes {
                        black_box(index.rknn_in(node, k, &mut scratch));
                    }
                })
            });
        }
    }
    group.bench_function("k_nearest/full/k4", |b| {
        b.iter(|| {
            for &node in &nodes {
                black_box(full.k_nearest(node, 4));
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
