//! Disk-resident serving quickstart: a workload of RkNN queries executed by
//! the query engine's thread pool against a `PagedGraph` whose buffer pool
//! is striped over independently locked shards.
//!
//! This is the regime the paper targets (the graph lives on disk pages
//! behind an LRU buffer) combined with the serving layers built on top: the
//! workers share one sharded pool, every page access is counted once by the
//! shard that serves it, and the batch must reproduce the in-memory
//! sequential results byte for byte.
//!
//! Run with `cargo run --release --example paged_serving -- [THREADS]`
//! (default: 2 worker threads).

use rnn_core::engine::{QueryEngine, Workload};
use rnn_core::{run_rknn_with, Algorithm, Precomputed, Scratch};
use rnn_datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn_graph::PointsOnNodes;
use rnn_storage::{BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph};
use std::time::Instant;

fn main() {
    let threads: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2).max(1);

    // The paper's synthetic road-network setup, paged onto 4 KB disk pages
    // with the default 256-page (1 MB) buffer — striped over 8 shards so
    // concurrent fetches of distinct pages never share a lock.
    let graph = grid_map(&GridConfig::with_nodes(10_000, 4.0, 42));
    let points = place_points_on_nodes(&graph, 0.01, 43);
    let query_nodes = sample_node_queries(&points, 64, 44);
    let paged = PagedGraph::build_with_config(
        &graph,
        LayoutStrategy::BfsLocality,
        BufferPoolConfig::new(256).with_shards(8),
        IoCounters::new(),
    )
    .expect("paged graph");
    println!(
        "grid map: {} nodes on {} pages, {} points, {} queries (k = 1), \
         {}-page buffer in {} shards",
        graph.num_nodes(),
        paged.num_pages(),
        points.num_points(),
        query_nodes.len(),
        paged.buffer_capacity(),
        paged.buffer().num_shards(),
    );

    for algorithm in [Algorithm::Eager, Algorithm::Lazy] {
        // In-memory sequential reference: what the answers must be.
        let mut scratch = Scratch::new();
        let sequential: Vec<_> = query_nodes
            .iter()
            .map(|&q| {
                run_rknn_with(algorithm, &graph, &points, Precomputed::none(), q, 1, &mut scratch)
            })
            .collect();

        // The same workload through the thread pool, on the paged backend.
        paged.cold_start();
        let engine = QueryEngine::new(&paged, &points).with_threads(threads);
        let workload = Workload::uniform(algorithm, 1, query_nodes.iter().copied());
        let before = paged.io_stats();
        let start = Instant::now();
        let batch = engine.run_batch(&workload);
        let secs = start.elapsed().as_secs_f64();
        // The batch's I/O: the pool's one count, diffed around it.
        let io = paged.io_stats().since(&before);

        // Paged + parallel never changes answers.
        assert_eq!(
            batch.results, sequential,
            "{algorithm}: paged batch must match the in-memory sequential loop"
        );
        assert!(io.accesses >= workload.len() as u64, "every query fetched a page");
        // The shards partition the batch's accesses.
        let pool = paged.pool_stats();
        assert_eq!(pool.total.as_io_stats(), io, "the shards partition the batch's I/O");

        println!(
            "  {:<8} {} threads {:>8.1} q/s | {:>7} accesses, {:>5} faults \
             (hit ratio {:.3}) | busiest shard {:>6} accesses",
            algorithm.name(),
            threads,
            query_nodes.len() as f64 / secs.max(1e-9),
            io.accesses,
            io.faults,
            io.hit_ratio(),
            pool.per_shard.iter().map(|s| s.accesses()).max().unwrap_or(0),
        );
    }

    println!(
        "\nPaged serving is deterministic: sharded buffers and worker threads change cost, \
         never answers."
    );
}
