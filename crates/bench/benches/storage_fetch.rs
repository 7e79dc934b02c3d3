//! Criterion micro-bench for the layer under every paged query: one
//! adjacency fetch as `rnn-core` makes it (`for_each_neighbor` behind
//! `&dyn Topology`, which on a paged graph is `Topology::with_adjacency`),
//! and the `Lru` kernel below it.
//!
//! Each row times 1024 fetches of a fixed pseudo-random node sequence on a
//! 10⁴-node grid map (degree ≤ 4, BFS-locality layout), so the rows divide
//! directly: the in-memory `Graph` is the floor, the fully resident pools
//! are the hit path (index load + pool hit + in-place decode) at 1 and 8
//! shards, `*_visitor` is the same hit path entered through
//! `Topology::visit_neighbors`, and the 1-page pools fault on every access —
//! `MemoryDisk` adds the evict/insert work, `FileDisk` the positional read
//! on top.
//!
//! What the hit costs, in ns per fetch (row / 1024), before and after
//! `PagedGraph::with_adjacency` moved onto `BufferPool::read_with` (closure
//! on the resident page under the shard lock, no `Page` clone, ≤ 16 arcs
//! copied to the caller's stack, list lent after the lock is released). The
//! 2-vCPU box drifts by ±15 % over minutes, so each line is one sitting of
//! alternated runs of the two builds, this file identical in both:
//!
//! | row | before | after |
//! |---|---|---|
//! | `paged/resident/1_shards`, quiet sitting (5 / 1 runs) | 60–67 | 44 |
//! | `paged/resident/1_shards`, busy sitting (3 / 3 runs) | 74–76 | 53–54 |
//! | `paged/resident/1_shards_visitor`, busy sitting | 73–76 | 54–58 |
//! | `paged/resident/8_shards`, busy sitting | 72–77 | 53–59 |
//! | `paged/1_page_pool/memory_disk`, busy sitting | 150–165 | 154–174 |
//! | `graph/in_memory_floor` | 2.6–3.3 | 2.6–4.1 |
//!
//! The miss path is not what this change is about (it gained a closure call
//! and reads 3–5 % slower here, inside the sittings' spread); at the
//! benchmark's 2 % fault rate the hit decides (`paged-cold` +13.9 %).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use rnn_datagen::{grid_map, GridConfig};
use rnn_graph::{for_each_neighbor, Graph, NodeId, Topology};
use rnn_storage::lru::mix64;
use rnn_storage::{
    BufferPool, BufferPoolConfig, FileDisk, IoCounters, LayoutStrategy, Lru, MemoryDisk,
    PageLayout, PageStore, PagedGraph,
};
use std::hint::black_box;

const FETCHES: usize = 1024;

/// Sums the edge weights of `nodes`' adjacency lists — enough work per
/// neighbor that the visit cannot be optimized away, little enough that the
/// fetch dominates. Fetches the way `rnn-core` does: `for_each_neighbor`
/// behind `&dyn Topology`.
fn visit_all(topology: &dyn Topology, nodes: &[NodeId]) -> f64 {
    let mut sum = 0.0;
    for &node in nodes {
        for_each_neighbor(topology, node, |n| sum += n.weight.value());
    }
    sum
}

/// [`visit_all`] through the per-arc visitor, which wrapped topologies (the
/// benchmark's `SpanTopology`) still enter by.
fn visit_all_visitor(topology: &dyn Topology, nodes: &[NodeId]) -> f64 {
    let mut sum = 0.0;
    for &node in nodes {
        topology.visit_neighbors(node, &mut |n| sum += n.weight.value());
    }
    sum
}

fn paged<S: PageStore>(store: S, layout: &PageLayout, config: BufferPoolConfig) -> PagedGraph<S> {
    let pool = BufferPool::with_config(store, config, IoCounters::new());
    PagedGraph::from_parts(pool, layout.index.clone(), layout.index.num_nodes())
}

fn bench(c: &mut Criterion) {
    let graph: Graph =
        grid_map(&GridConfig { rows: 100, cols: 100, seed: 5, ..Default::default() });
    let layout = PageLayout::build(&graph, LayoutStrategy::BfsLocality).expect("layout");
    // A fixed sequence in which no two consecutive nodes share a page, so a
    // 1-page pool faults on every single access.
    let mut nodes: Vec<NodeId> = Vec::with_capacity(FETCHES);
    let mut step = 0u64;
    while nodes.len() < FETCHES {
        let node = NodeId::new((mix64(step) % graph.num_nodes() as u64) as usize);
        step += 1;
        let page = layout.index.entry(node).first_page;
        if nodes.last().is_none_or(|&prev| layout.index.entry(prev).first_page != page) {
            nodes.push(node);
        }
    }
    let memory = || MemoryDisk::new(layout.pages.clone());
    let path = std::env::temp_dir().join(format!("rnn_storage_fetch_{}.pages", std::process::id()));

    let mut group = c.benchmark_group("storage_fetch");
    group.bench_function("graph/in_memory_floor", |b| {
        b.iter(|| black_box(visit_all(&graph, &nodes)))
    });
    for shards in [1usize, 8] {
        // Pages hash to shards unevenly, and capacity is split evenly: room
        // for every page in every shard is what keeps the whole file resident.
        let resident = BufferPoolConfig::new(shards * layout.num_pages()).with_shards(shards);
        let pg = paged(memory(), &layout, resident);
        visit_all(&pg, &nodes); // fault everything in once
        let warm_faults = pg.io_stats().faults;
        group.bench_function(format!("paged/resident/{shards}_shards"), |b| {
            b.iter(|| black_box(visit_all(&pg, &nodes)))
        });
        if shards == 1 {
            group.bench_function("paged/resident/1_shards_visitor", |b| {
                b.iter(|| black_box(visit_all_visitor(&pg, &nodes)))
            });
        }
        assert_eq!(pg.io_stats().faults, warm_faults, "a resident pool must not fault");
    }
    let pg = paged(memory(), &layout, BufferPoolConfig::new(1));
    group.bench_function("paged/1_page_pool/memory_disk", |b| {
        b.iter(|| black_box(visit_all(&pg, &nodes)))
    });
    let io = pg.io_stats();
    assert_eq!(io.faults, io.accesses, "the sequence must fault on every access");

    let disk = FileDisk::create(&path, &layout.pages).expect("page file");
    let pg = paged(disk, &layout, BufferPoolConfig::new(1));
    group.bench_function("paged/1_page_pool/file_disk", |b| {
        b.iter(|| black_box(visit_all(&pg, &nodes)))
    });
    drop(pg);
    std::fs::remove_file(&path).ok();

    // The kernel under the pool's hit and miss paths, on its own.
    let mut lru: Lru<u32, u32> = Lru::new(256);
    for key in 0..256 {
        lru.insert(key, key);
    }
    group.bench_function("lru/1024_hits", |b| {
        b.iter(|| {
            for &node in &nodes {
                black_box(lru.get(&(node.0 % 256)));
            }
        })
    });
    let mut next = 256u32;
    group.bench_function("lru/1024_evicting_inserts", |b| {
        b.iter(|| {
            for _ in 0..FETCHES {
                black_box(lru.insert(next, next));
                next = next.wrapping_add(1);
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
