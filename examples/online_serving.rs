//! Online serving quickstart: a long-running worker pool answering a mixed
//! stream of RkNN requests, with admission control and latency accounting.
//!
//! This drives the `rnn-server` subsystem end-to-end: all six algorithms
//! submitted through the bounded request queue in mixed interactive/batch
//! priority classes — single submits and `submit_all` bursts — each caller
//! awaiting its own [`Ticket`], every served result asserted byte-identical
//! to the sequential `run_rknn` loop, per-class latency accounting printed
//! from a wait-free `stats()` snapshot, a point-set swap whose next answer
//! comes from the new points, and a graceful drain-then-join shutdown whose final
//! accounting must conserve every request, per class and in total
//! (`completed + rejected + shed == submitted`).
//!
//! Run with `cargo run --release --example online_serving -- [WORKERS]`
//! (default: 2 worker threads).

use rnn::core::{run_rknn_with, Algorithm, MaterializedKnn, Precomputed, Scratch};
use rnn::datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn::graph::PointsOnNodes;
use rnn::index::HubLabelIndex;
use rnn::server::{Priority, Request, ServeError, Server, ServerConfig, World};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let workers: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2).max(1);

    // The world: a synthetic road network with data points on 1% of the
    // nodes, plus the two precomputed structures that admit eager-M and
    // hub-label requests.
    let graph = Arc::new(grid_map(&GridConfig::with_nodes(2_500, 4.0, 42)));
    let points = Arc::new(place_points_on_nodes(&graph, 0.01, 43));
    let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*points));
    let query_nodes = sample_node_queries(&points, 48, 44);
    println!(
        "grid map: {} nodes, {} points, {} query nodes, {} workers",
        graph.num_nodes(),
        points.num_points(),
        query_nodes.len(),
        workers,
    );

    // Sequential oracle: every served answer must match these bytes.
    let mut scratch = Scratch::new();
    let pre = Precomputed::materialized(&table).with_hub_labels(&*hub_index);
    let mut oracle = Vec::new();
    for algorithm in Algorithm::ALL {
        for &q in &query_nodes {
            oracle.push((
                algorithm,
                q,
                run_rknn_with(algorithm, &*graph, &*points, pre, q, 2, &mut scratch),
            ));
        }
    }

    // The server. None of the stream below carries a deadline, so a full
    // queue would park the submitter rather than drop anything.
    let world = World::new(graph.clone(), points.clone())
        .with_materialized(Arc::clone(&table))
        .with_hub_label_index(hub_index.clone());
    let server = Server::start(world, ServerConfig::default().with_workers(workers));

    // Submit the whole mixed stream, then await each ticket: submission
    // order and completion order are decoupled — that is the point of the
    // ticket handle. Every fourth request rides the batch class (workers
    // drain interactive first, with one batch pop forced after four
    // interactive ones while batch work waits), and the stream goes in as
    // submit_all bursts of 8 — one queue lock round-trip per burst instead
    // of eight.
    let requests: Vec<Request> = oracle
        .iter()
        .enumerate()
        .map(|(i, &(algorithm, q, _))| {
            let priority = if i % 4 == 3 { Priority::Batch } else { Priority::Interactive };
            Request::new(algorithm, q, 2).with_priority(priority)
        })
        .collect();
    let mut tickets = Vec::with_capacity(requests.len());
    for burst in requests.chunks(8) {
        for admitted in server.submit_all(burst) {
            tickets.push(admitted.expect("admitted"));
        }
    }
    for (ticket, (algorithm, q, expected)) in tickets.into_iter().zip(&oracle) {
        let served = ticket.wait().expect("served");
        assert_eq!(
            served.outcome, *expected,
            "{algorithm} at {q}: served result must equal the sequential loop"
        );
    }

    // A wait-free snapshot of the counts: stats() loads the server's
    // counters and each worker's own histograms, taking no lock a worker
    // holds while it serves (only the queue lock, for the depth).
    let stats = server.stats();
    println!("\nserved {} requests over {} micro-batches:", stats.completed, stats.micro_batches);
    for (algorithm, count) in &stats.per_algorithm {
        println!("  {:<22} {count:>5}", algorithm.name());
    }
    for (priority, class) in &stats.per_class {
        assert_eq!(class.accounted(), class.submitted, "{priority}: per-class conservation");
        println!(
            "{:<12} {:>4} served   queue wait p50 {:>9.1?} p99 {:>9.1?}   service p50 {:>9.1?} p99 {:>9.1?}",
            priority.name(),
            class.completed,
            class.queue_wait.p50(),
            class.queue_wait.p99(),
            class.service.p50(),
            class.service.p99(),
        );
    }
    println!(
        "queue wait: p50 {:>9.1?}  p90 {:>9.1?}  p99 {:>9.1?}  max {:>9.1?}",
        stats.queue_wait.p50(),
        stats.queue_wait.p90(),
        stats.queue_wait.p99(),
        stats.queue_wait.max(),
    );
    println!(
        "service:    p50 {:>9.1?}  p90 {:>9.1?}  p99 {:>9.1?}  max {:>9.1?}",
        stats.service.p50(),
        stats.service.p90(),
        stats.service.p99(),
        stats.service.max(),
    );

    // A point-set swap installs the new points under the world write lock:
    // the server must serve the *new* answers immediately afterwards.
    let new_points = Arc::new(place_points_on_nodes(&graph, 0.02, 45));
    let swap_query = query_nodes[0];
    let expected_after = run_rknn_with(
        Algorithm::Eager,
        &*graph,
        &*new_points,
        Precomputed::none(),
        swap_query,
        2,
        &mut scratch,
    );
    server.swap_points(new_points.clone(), None, None);
    let served = server
        .submit(Request::new(Algorithm::Eager, swap_query, 2))
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(served.outcome, expected_after, "post-swap queries see the new point set");
    // The precomputed structures were dropped by the swap, so eager-M is now
    // turned away at admission instead of panicking a worker.
    assert_eq!(
        server.submit(Request::new(Algorithm::EagerMaterialized, swap_query, 2)).err(),
        Some(ServeError::Unservable),
    );
    println!("\npoint-set swap: new answers served, stale algorithms turned away");

    // Graceful shutdown: drain, join, and account for every request. The
    // last request carries a live 5 s deadline; the idle queue serves it long
    // before that, so it completes instead of being shed.
    let last = server
        .submit(
            Request::new(Algorithm::Lazy, swap_query, 2).with_deadline_in(Duration::from_secs(5)),
        )
        .expect("admitted");
    let stats = server.shutdown();
    assert!(last.wait().is_ok(), "accepted requests are drained before the join");
    assert_eq!(
        stats.completed + stats.rejected + stats.shed,
        stats.submitted,
        "shutdown accounting must conserve every request"
    );
    assert_eq!(stats.queue_depth, 0, "the queue is drained");
    println!(
        "\nshutdown: {} submitted = {} completed + {} rejected + {} shed — nothing lost",
        stats.submitted, stats.completed, stats.rejected, stats.shed
    );
    println!(
        "Online serving is deterministic: queues, workers and caching change latency, never answers."
    );
}
