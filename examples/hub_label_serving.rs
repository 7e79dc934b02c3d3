//! Hub-label serving: answer RkNN queries from a precomputed labeling
//! through `rnn-server` — the ReHub-style serving stack end to end. Construction runs on the
//! requested number of threads (identical output at any count) and the
//! queries are served from the exact label distances.
//!
//! Run with `cargo run --release --example hub_label_serving -- [THREADS]`
//! (default: 2 build threads and server workers). Self-asserting: every
//! hub-label result is compared against the paper's eager algorithm.

use rnn_core::{Algorithm, RknnOutcome};
use rnn_datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn_graph::{NodeId, PointsOnNodes};
use rnn_index::HubLabelIndex;
use rnn_server::{Request, Server, ServerConfig, World};
use std::sync::Arc;
use std::time::Instant;

/// Submits one burst of `algorithm` queries at `k = 2` and waits on every
/// ticket; returns the outcomes in query order.
fn serve(server: &Server, algorithm: Algorithm, nodes: &[NodeId]) -> Vec<RknnOutcome> {
    let requests: Vec<Request> = nodes.iter().map(|&q| Request::new(algorithm, q, 2)).collect();
    server
        .submit_all(&requests)
        .into_iter()
        .map(|ticket| ticket.expect("admitted").wait().expect("served").outcome)
        .collect()
}

fn main() {
    let threads: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2).max(1);

    // A grid map with data points at density 0.02 — the paper's synthetic
    // road-network setup, on the in-memory backend.
    let graph = Arc::new(grid_map(&GridConfig::with_nodes(2_500, 4.0, 42)));
    let points = Arc::new(place_points_on_nodes(&graph, 0.02, 43));
    let hot_nodes = sample_node_queries(&points, 50, 44);
    println!(
        "grid map: {} nodes, {} points; {} hot query nodes",
        graph.num_nodes(),
        points.num_points(),
        hot_nodes.len()
    );

    // One-time preprocessing: the pruned landmark labeling + inverted table,
    // built level-parallel on the worker threads (the labeling is identical
    // at any thread count).
    let start = Instant::now();
    let index = Arc::new(HubLabelIndex::build_with_threads(&*graph, &*points, threads));
    let build = start.elapsed();
    let stats = index.labeling().stats();
    const MIB: f64 = 1024.0 * 1024.0;
    println!(
        "labeling built in {build:.2?} on {threads} thread(s): {:.1} hubs/node (max {}), \
         {:.2} MiB of labels, {} inverted point entries",
        stats.avg_label(),
        stats.max_label,
        stats.label_bytes() as f64 / MIB,
        index.point_table().entries(),
    );

    // A serving workload where every hot query repeats three times.
    let mut serving_nodes = Vec::new();
    for _ in 0..3 {
        serving_nodes.extend(hot_nodes.iter().copied());
    }

    let label_server = Server::start(
        World::new(graph.clone(), points.clone()).with_hub_label_index(index),
        ServerConfig::default().with_workers(threads),
    );
    // A first burst over the distinct hot nodes, then the measured repeated
    // burst. The server memoizes nothing: every repeat runs the label query
    // again.
    let first_results = serve(&label_server, Algorithm::HubLabel, &hot_nodes);
    let start = Instant::now();
    let label_results = serve(&label_server, Algorithm::HubLabel, &serving_nodes);
    let label_secs = start.elapsed().as_secs_f64().max(1e-9);
    label_server.shutdown();

    // The same workload answered by the paper's eager expansion.
    let eager_server =
        Server::start(World::new(graph, points), ServerConfig::default().with_workers(threads));
    let start = Instant::now();
    let eager_results = serve(&eager_server, Algorithm::Eager, &serving_nodes);
    let eager_secs = start.elapsed().as_secs_f64().max(1e-9);
    eager_server.shutdown();

    // Labels must reproduce the expansion results exactly, query by query.
    assert_eq!(label_results.len(), eager_results.len());
    for (i, (hl, e)) in label_results.iter().zip(&eager_results).enumerate() {
        assert_eq!(hl.points, e.points, "query #{i}: hub-label must agree with eager");
    }
    // ...and every repeat reproduces the first burst's outcome for its node,
    // at any worker count.
    for (i, repeat) in label_results.iter().enumerate() {
        let first = &first_results[i % hot_nodes.len()];
        assert_eq!(repeat, first, "query #{i}: a repeat must answer as the first burst did");
    }

    let qps = |secs: f64| serving_nodes.len() as f64 / secs;
    println!(
        "hub-label: {:>9.0} q/s | eager expansion: {:>8.0} q/s | speedup x{:.1}",
        qps(label_secs),
        qps(eager_secs),
        eager_secs / label_secs,
    );
    println!("all {} hub-label results identical to eager expansion.", label_results.len());
}
