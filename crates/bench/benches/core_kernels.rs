//! Criterion micro-bench for the kernels under every restricted-network
//! query in `rnn-core`, the layer the `mem-kernel` workload of the standalone
//! benchmark measures end to end.
//!
//! * `node_state/*`: the direct-address [`NodeTable`] every per-node and
//!   per-point state of a query lives in. The table has held 50 000 entries
//!   before the timed loop, as a pooled buffer that once served a large
//!   query has: `fill_clear/200` is the cycle of one small probe on such a
//!   buffer (the table clears in O(1), whatever its capacity),
//!   `fill_clear/50000` the large query itself, `get/*` 1024 lookups (half of
//!   them misses) at that many live entries.
//! * `frontier/push_pop/{32,1024}`: the expansion's frontier held at that
//!   many entries — 64 passes of 4096 settle-and-relax steps over a topology
//!   of disjoint chains (one arc per node, grid-like weights in `[0.8, 1.2)`),
//!   so every pop is followed by one push. The heap is private to `rnn-core`; this
//!   drives it through [`NetworkExpansion`], label table included. The rows
//!   to watch after touching `flat_heap.rs`: an edit that brings branches
//!   back into the child pick of `pop` shows here first.
//! * `range_nn`, `eager`, `lazy_ep`, `lazy`: 64 range-NN probes and 8 full
//!   queries per row on a 10⁴-node grid at point density 0.01, `k = 1`, on a
//!   reused `Scratch`.
//! * `eager_visitor_only/8_queries`: the `eager` row through a topology that
//!   does not lend its adjacency slices ([`Topology::adjacency`] left at
//!   `None`), as a paged or wrapped graph does not; the distance to `eager`
//!   is what the lent slice saves.
//! * `continuous_lazy`, `unrestricted_eager`, `unrestricted_lazy`: 8 queries
//!   per row on the same grid (routes of 12 nodes; points on edges at density
//!   0.01), `k = 1` — the only timing these paths have.
//! * `update/64_insert_delete_pairs`: a point inserted into and deleted from
//!   the materialized 1-NN table of a 10⁵-node grid at density 0.05 — a local
//!   update (~100 nodes visited per pair) that must not cost O(graph).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use rnn_core::continuous::continuous_lazy_rknn;
use rnn_core::expansion::{ExpansionBuffers, NetworkExpansion};
use rnn_core::knn::range_nn_into;
use rnn_core::materialize::MaterializedKnn;
use rnn_core::unrestricted::{unrestricted_eager_rknn, unrestricted_lazy_rknn, EdgePosition};
use rnn_core::{run_rknn_with, Algorithm, NodeTable, Precomputed, Scratch};
use rnn_datagen::{
    grid_map, place_points_on_edges, place_points_on_nodes, sample_edge_queries,
    sample_node_queries, sample_routes, GridConfig,
};
use rnn_graph::{EdgeId, Graph, Neighbor, NodeId, PointId, PointsOnNodes, Topology, Weight};
use rnn_storage::lru::mix64;
use std::hint::black_box;

const ID_SPACE: u64 = 100_000;
const LARGE: usize = 50_000;

/// `count` distinct pseudo-random node ids below [`ID_SPACE`].
fn distinct_nodes(count: usize) -> Vec<NodeId> {
    let mut seen = vec![false; ID_SPACE as usize];
    (0u64..)
        .map(|i| (mix64(i) % ID_SPACE) as usize)
        .filter(|&n| !std::mem::replace(&mut seen[n], true))
        .take(count)
        .map(NodeId::new)
        .collect()
}

fn bench_node_state(c: &mut Criterion) {
    let all = distinct_nodes(LARGE + 512);
    let (nodes, misses) = all.split_at(LARGE);
    let mut group = c.benchmark_group("core_kernels/node_state");
    for live in [200usize, LARGE] {
        let keys = &nodes[..live];
        // Half the probes hit a live entry, half miss.
        let probes: Vec<NodeId> = (0..1024)
            .map(|i| if i % 2 == 0 { keys[i * 7 % live] } else { misses[i / 2] })
            .collect();

        let mut table: NodeTable<f64> = NodeTable::new();
        for &n in nodes {
            table.insert(n, 0.0);
        }
        group.bench_function(format!("table/fill_clear/{live}"), |b| {
            b.iter(|| {
                table.clear();
                for &n in keys {
                    table.insert(n, 1.0);
                }
                black_box(table.len())
            })
        });
        // The table now holds exactly `keys`.
        group.bench_function(format!("table/get/{live}"), |b| {
            b.iter(|| probes.iter().filter_map(|&n| table.get(n)).sum::<f64>())
        });
    }
    group.finish();
}

/// Disjoint chains: node `i` has one arc, to node `i + width`, so an
/// expansion seeded with nodes `0..width` pushes exactly one entry per node it
/// settles and its frontier stays `width` entries wide.
struct Chains {
    arcs: Vec<Neighbor>,
    width: usize,
}

impl Chains {
    fn new(width: usize, steps: usize) -> Self {
        let arcs = (0..steps)
            .map(|i| Neighbor {
                node: NodeId::new(i + width),
                weight: Weight::new(0.8 + 0.4 * (mix64(i as u64) % 1024) as f64 / 1024.0),
                edge: EdgeId::new(i),
            })
            .collect();
        Chains { arcs, width }
    }
}

impl Topology for Chains {
    fn num_nodes(&self) -> usize {
        self.arcs.len() + self.width
    }

    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        self.adjacency(node).into_iter().flatten().copied().for_each(visit);
    }

    fn adjacency(&self, node: NodeId) -> Option<&[Neighbor]> {
        Some(self.arcs.get(node.index()..=node.index()).unwrap_or(&[]))
    }
}

fn bench_frontier(c: &mut Criterion) {
    const STEPS: usize = 4096;
    const PASSES: usize = 64;
    let mut group = c.benchmark_group("core_kernels/frontier");
    for width in [32usize, 1024] {
        let chains = Chains::new(width, STEPS);
        let sources: Vec<(NodeId, Weight)> =
            (0..width).map(|i| (NodeId::new(i), chains.arcs[i].weight)).collect();
        let mut bufs = ExpansionBuffers::new();
        group.bench_function(format!("push_pop/{width}"), |b| {
            b.iter(|| {
                let mut last = Weight::ZERO;
                for _ in 0..PASSES {
                    let recycled = std::mem::take(&mut bufs);
                    let mut exp =
                        NetworkExpansion::reusing(&chains, recycled, sources.iter().copied());
                    for _ in 0..STEPS {
                        (_, last) = exp.next_settled().expect("a chain ends after the last step");
                    }
                    bufs = exp.into_buffers();
                }
                black_box(last)
            })
        });
    }
    group.finish();
}

/// A graph that keeps its adjacency slices to itself.
struct VisitorOnly<'g>(&'g Graph);

impl Topology for VisitorOnly<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        self.0.visit_neighbors(node, visit)
    }
}

fn bench_queries(c: &mut Criterion) {
    let graph = grid_map(&GridConfig { rows: 100, cols: 100, seed: 5, ..Default::default() });
    let points = place_points_on_nodes(&graph, 0.01, 6);
    let queries = sample_node_queries(&points, 8, 7);
    let sources: Vec<NodeId> =
        (0..64u64).map(|i| NodeId::new((mix64(i) % graph.num_nodes() as u64) as usize)).collect();
    let mut scratch = Scratch::new();
    let mut group = c.benchmark_group("core_kernels");
    group.bench_function("range_nn/64_probes", |b| {
        let mut found = Vec::new();
        let keep_all = |_: PointId| false;
        b.iter(|| {
            let mut settled = 0;
            for &source in &sources {
                let range = Weight::new(8.0);
                settled += range_nn_into(
                    &graph,
                    &points,
                    source,
                    1,
                    range,
                    &keep_all,
                    &mut scratch,
                    &mut found,
                );
            }
            black_box(settled)
        })
    });
    for (name, algorithm) in [
        ("eager", Algorithm::Eager),
        ("lazy_ep", Algorithm::LazyExtendedPruning),
        ("lazy", Algorithm::Lazy),
    ] {
        group.bench_function(format!("{name}/8_queries"), |b| {
            b.iter(|| {
                for &q in &queries {
                    let none = Precomputed::none();
                    black_box(run_rknn_with(algorithm, &graph, &points, none, q, 1, &mut scratch));
                }
            })
        });
    }
    group.bench_function("eager_visitor_only/8_queries", |b| {
        let (topo, none) = (VisitorOnly(&graph), Precomputed::none());
        b.iter(|| {
            for &q in &queries {
                black_box(run_rknn_with(
                    Algorithm::Eager,
                    &topo,
                    &points,
                    none,
                    q,
                    1,
                    &mut scratch,
                ));
            }
        })
    });
    let routes = sample_routes(&graph, 12, 8, 7);
    group.bench_function("continuous_lazy/8_queries", |b| {
        b.iter(|| {
            for route in &routes {
                black_box(continuous_lazy_rknn(&graph, &points, route, 1));
            }
        })
    });
    let edge_points = place_points_on_edges(&graph, 0.01, 6);
    let positions: Vec<EdgePosition> = sample_edge_queries(&edge_points, 8, 7)
        .into_iter()
        .map(|p| edge_points.position(p))
        .collect();
    for (name, run) in [
        ("unrestricted_eager", unrestricted_eager_rknn as fn(_, _, _, _) -> _),
        ("unrestricted_lazy", unrestricted_lazy_rknn),
    ] {
        group.bench_function(format!("{name}/8_queries"), |b| {
            b.iter(|| {
                for query in &positions {
                    black_box(run(&graph, &edge_points, query, 1));
                }
            })
        });
    }
    group.finish();
}

fn bench_updates(c: &mut Criterion) {
    let graph = grid_map(&GridConfig { rows: 316, cols: 316, seed: 5, ..Default::default() });
    let points = place_points_on_nodes(&graph, 0.05, 6);
    let mut table = MaterializedKnn::build(&graph, &points, 1);
    let free: Vec<NodeId> = (0u64..)
        .map(|i| NodeId::new((mix64(i) % graph.num_nodes() as u64) as usize))
        .filter(|&n| points.point_at(n).is_none())
        .take(64)
        .collect();
    c.bench_function("core_kernels/update/64_insert_delete_pairs", |b| {
        b.iter(|| {
            let mut visited = 0;
            for &node in &free {
                visited += table.insert_point(&graph, node).nodes_visited;
                visited += table.delete_point(&graph, node).nodes_visited;
            }
            black_box(visited)
        })
    });
}

criterion_group! {
    name = benches;
    config = common::quick_criterion();
    targets = bench_node_state, bench_frontier, bench_queries, bench_updates
}
criterion_main!(benches);
