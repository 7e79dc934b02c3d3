//! Disk-resident serving quickstart: RkNN queries served by `rnn-server`'s
//! worker pool from a `PagedGraph` whose buffer pool is striped over
//! independently locked shards.
//!
//! This is the regime the paper targets (the graph lives on disk pages
//! behind an LRU buffer) combined with the serving layers built on top: the
//! workers share one sharded pool, every page access is counted once by the
//! shard that serves it, and the served answers must reproduce the in-memory
//! sequential results byte for byte.
//!
//! Run with `cargo run --release --example paged_serving -- [WORKERS]`
//! (default: 2 workers).

use rnn_core::{run_rknn_with, Algorithm, Precomputed, Scratch};
use rnn_datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn_graph::PointsOnNodes;
use rnn_server::{Request, Server, ServerConfig, World};
use rnn_storage::{BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let workers: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2).max(1);

    // The paper's synthetic road-network setup, paged onto 4 KB disk pages
    // with the default 256-page (1 MB) buffer — striped over 8 shards so
    // concurrent fetches of distinct pages never share a lock.
    let graph = grid_map(&GridConfig::with_nodes(10_000, 4.0, 42));
    let points = Arc::new(place_points_on_nodes(&graph, 0.01, 43));
    let query_nodes = sample_node_queries(&points, 64, 44);
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(256).with_shards(8),
            IoCounters::new(),
        )
        .expect("paged graph"),
    );
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

    // The server reads the pool's one I/O count into every stats poll.
    let server = Server::start_with_io(
        World::new(paged.clone(), points.clone()),
        ServerConfig::default().with_workers(workers),
        paged.counters().clone(),
    );

    for algorithm in [Algorithm::Eager, Algorithm::Lazy] {
        // In-memory sequential reference: what the answers must be.
        let mut scratch = Scratch::new();
        let sequential: Vec<_> = query_nodes
            .iter()
            .map(|&q| {
                run_rknn_with(algorithm, &graph, &*points, Precomputed::none(), q, 1, &mut scratch)
            })
            .collect();

        // The same queries as one burst through the server, on the paged
        // backend. A cold start zeroes the pool's count, so the stats read
        // after the burst are the burst's I/O.
        paged.cold_start();
        let requests: Vec<Request> =
            query_nodes.iter().map(|&q| Request::new(algorithm, q, 1)).collect();
        let start = Instant::now();
        let served: Vec<_> = server
            .submit_all(&requests)
            .into_iter()
            .map(|ticket| ticket.expect("admitted").wait().expect("served").outcome)
            .collect();
        let secs = start.elapsed().as_secs_f64();
        let io = server.stats().io;

        // Paged + concurrent never changes answers.
        assert_eq!(
            served, sequential,
            "{algorithm}: paged serving must match the in-memory sequential loop"
        );
        assert!(io.accesses >= requests.len() as u64, "every query fetched a page");
        // The shards partition the burst's accesses.
        let pool = paged.pool_stats();
        assert_eq!(pool.total.as_io_stats(), io, "the shards partition the burst's I/O");

        println!(
            "  {:<8} {} workers {:>8.1} q/s | {:>7} accesses, {:>5} faults \
             (hit ratio {:.3}) | busiest shard {:>6} accesses",
            algorithm.name(),
            workers,
            query_nodes.len() as f64 / secs.max(1e-9),
            io.accesses,
            io.faults,
            io.hit_ratio(),
            pool.per_shard.iter().map(|s| s.accesses()).max().unwrap_or(0),
        );
    }
    server.shutdown();

    println!(
        "\nPaged serving is deterministic: sharded buffers and server workers change cost, \
         never answers."
    );
}
