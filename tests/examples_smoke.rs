//! Smoke test mirroring `examples/quickstart.rs` end-to-end on the same tiny
//! graph, so `cargo test` exercises the exact flow the example demonstrates
//! (every example additionally compiles as part of `cargo test`; CI runs the
//! quickstart binary itself on top of this).

mod common;

use common::serve_all;
use rnn::core::materialize::MaterializedKnn;
use rnn::core::{run_rknn, Algorithm, Precomputed};
use rnn::graph::{GraphBuilder, NodeId, NodePointSet};
use rnn::index::HubLabelIndex;
use rnn::server::{Request, Server, ServerConfig, World};
use rnn::storage::{BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph};
use std::sync::Arc;

/// The quickstart network: an 8-junction ring with two chords.
fn quickstart_network() -> rnn::graph::Graph {
    let mut builder = GraphBuilder::new(8);
    let ring = [
        (0, 1, 4.0),
        (1, 2, 3.0),
        (2, 3, 5.0),
        (3, 4, 2.0),
        (4, 5, 4.0),
        (5, 6, 3.0),
        (6, 7, 2.0),
        (7, 0, 5.0),
    ];
    for (a, b, w) in ring {
        builder.add_edge(a, b, w).expect("valid edge");
    }
    builder.add_edge(1, 5, 6.0).expect("valid edge");
    builder.add_edge(2, 6, 7.0).expect("valid edge");
    builder.build().expect("valid graph")
}

#[test]
fn quickstart_flow_runs_end_to_end_and_all_algorithms_agree() {
    let graph = quickstart_network();
    let cafes = NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new));
    let proposed_site = NodeId::new(1);

    let table = MaterializedKnn::build(&graph, &cafes, 2);
    let hub_index = HubLabelIndex::build(&graph, &cafes);
    let pre = Precomputed::materialized(&table).with_hub_labels(&hub_index);
    for k in [1usize, 2] {
        let reference = run_rknn(Algorithm::Naive, &graph, &cafes, pre, proposed_site, k);
        assert!(!reference.is_empty(), "the toy instance has reverse neighbors for k={k}");
        for algorithm in Algorithm::ALL {
            let outcome = run_rknn(algorithm, &graph, &cafes, pre, proposed_site, k);
            assert_eq!(outcome.points, reference.points, "{algorithm} vs naive, k={k}");
            // The example prints these stats; they must be populated.
            assert!(outcome.stats.nodes_settled > 0, "{algorithm} settled no nodes");
        }
    }
}

#[test]
fn quickstart_flow_works_identically_on_the_paged_backend() {
    let graph = quickstart_network();
    let cafes = NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new));
    let proposed_site = NodeId::new(1);

    let paged =
        PagedGraph::build_with(&graph, LayoutStrategy::BfsLocality, 4, IoCounters::new()).unwrap();
    let table = MaterializedKnn::build(&graph, &cafes, 2);
    for k in [1usize, 2] {
        let in_memory = run_rknn(
            Algorithm::Eager,
            &graph,
            &cafes,
            Precomputed::materialized(&table),
            proposed_site,
            k,
        );
        let on_disk = run_rknn(
            Algorithm::Eager,
            &paged,
            &cafes,
            Precomputed::materialized(&table),
            proposed_site,
            k,
        );
        assert_eq!(in_memory.points, on_disk.points, "k={k}");
    }
    assert!(paged.io_stats().accesses > 0, "the paged run must be accounted");
}

/// Mirrors `examples/paged_serving.rs` on the quickstart network: a server
/// over a `PagedGraph` with a *sharded* buffer pool reproduces the in-memory
/// sequential answers at every worker count, and a burst's I/O — the
/// server's rollup of the pool's one count, zeroed by a cold start before
/// it — is partitioned by the shards.
#[test]
fn paged_serving_flow_matches_in_memory_results_on_a_sharded_pool() {
    let graph = quickstart_network();
    let cafes = Arc::new(NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new)));
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(4).with_shards(2),
            IoCounters::new(),
        )
        .unwrap(),
    );

    for workers in [1usize, 2, 4] {
        let server = Server::start_with_io(
            World::new(paged.clone(), cafes.clone()),
            ServerConfig::default().with_workers(workers),
            paged.counters().clone(),
        );
        for algorithm in [Algorithm::Eager, Algorithm::Lazy] {
            let requests: Vec<Request> =
                graph.node_ids().map(|q| Request::new(algorithm, q, 1)).collect();
            let sequential: Vec<_> = graph
                .node_ids()
                .map(|q| run_rknn(algorithm, &graph, &*cafes, Precomputed::none(), q, 1))
                .collect();
            paged.cold_start();
            let served = serve_all(&server, &requests);
            let io = server.stats().io;
            assert_eq!(served, sequential, "{algorithm} at {workers} workers");
            assert!(io.accesses >= requests.len() as u64, "{algorithm}: every query fetched");
            let pool = paged.pool_stats();
            assert_eq!(pool.per_shard.len(), 2);
            assert_eq!(
                pool.total.as_io_stats(),
                io,
                "{algorithm} at {workers} workers: the shards partition the burst's I/O"
            );
        }
        server.shutdown();
    }
}

/// Mirrors `examples/online_serving.rs` on the quickstart network: a mixed
/// all-algorithm stream through the server equals the sequential loop, a
/// point-set swap serves the new answers with the cache enabled, and the
/// shutdown accounting conserves every request.
#[test]
fn online_serving_flow_matches_sequential_queries_and_conserves_requests() {
    let graph = Arc::new(quickstart_network());
    let cafes = Arc::new(NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new)));
    let table = Arc::new(MaterializedKnn::build(&*graph, &*cafes, 2));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*cafes));

    let pre = Precomputed::materialized(&table).with_hub_labels(&*hub_index);
    let world = World::new(graph.clone(), cafes.clone())
        .with_materialized(Arc::clone(&table))
        .with_hub_label_index(hub_index.clone());
    let server =
        Server::start(world, ServerConfig::default().with_workers(2).with_result_cache(16, 0));

    let tickets: Vec<_> = Algorithm::ALL
        .iter()
        .flat_map(|&algorithm| graph.node_ids().map(move |q| (algorithm, q)).collect::<Vec<_>>())
        .map(|(algorithm, q)| {
            (algorithm, q, server.submit(Request::new(algorithm, q, 1)).expect("admitted"))
        })
        .collect();
    for (algorithm, q, ticket) in tickets {
        let served = ticket.wait().expect("served");
        let direct = run_rknn(algorithm, &*graph, &*cafes, pre, q, 1);
        assert_eq!(served.outcome, direct, "{algorithm} at {q}");
    }

    // Swap to a different cafe set: the cached answers must not survive.
    let new_cafes = Arc::new(NodePointSet::from_nodes(8, [1, 4].map(NodeId::new)));
    server.swap_points(new_cafes.clone(), None, None);
    let q = NodeId::new(5);
    let served = server.submit(Request::new(Algorithm::Eager, q, 1)).unwrap().wait().unwrap();
    let direct = run_rknn(Algorithm::Eager, &*graph, &*new_cafes, Precomputed::none(), q, 1);
    assert_eq!(served.outcome, direct, "post-swap answers come from the new point set");

    let stats = server.shutdown();
    assert_eq!(stats.completed + stats.rejected + stats.shed, stats.submitted);
    assert_eq!(stats.completed, 6 * 8 + 1);
    assert!(stats.cache.lookups() > 0);
}

/// Mirrors `examples/hub_label_serving.rs` on the quickstart network: the
/// hub-label server (with result cache) reproduces the expansion answers, and
/// after a warm-up burst whose tickets are all awaited, the repeated burst is
/// served entirely from the cache.
#[test]
fn hub_label_serving_flow_matches_expansion_and_hits_the_cache() {
    let graph = Arc::new(quickstart_network());
    let cafes = Arc::new(NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new)));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*cafes));
    let server = Server::start(
        World::new(graph.clone(), cafes.clone()).with_hub_label_index(hub_index),
        ServerConfig::default().with_workers(2).with_result_cache(2 * 8, 2),
    );

    let requests: Vec<Request> =
        graph.node_ids().map(|q| Request::new(Algorithm::HubLabel, q, 1)).collect();
    serve_all(&server, &requests);
    let warm = server.stats().cache;
    assert_eq!(warm.lookups(), graph.num_nodes() as u64);
    let served = serve_all(&server, &requests);
    let cache = server.shutdown().cache.since(&warm);

    for (q, hl) in graph.node_ids().zip(&served) {
        let e = run_rknn(Algorithm::Eager, &*graph, &*cafes, Precomputed::none(), q, 1);
        assert_eq!(hl.points, e.points, "hub-label must agree with eager at {q}");
    }
    assert_eq!(cache.hits, graph.num_nodes() as u64, "the repeat burst hits the cache");
    assert_eq!(cache.misses, 0);
}

/// Mirrors `examples/observability.rs` on the quickstart network: one
/// registry snapshot carries server counters, label gauges and per-algorithm
/// trace aggregates, the slow-query log captures the traffic, and both
/// exporters render byte-deterministically.
#[test]
fn observability_flow_snapshots_every_layer_deterministically() {
    use rnn::obs::{prometheus_text, report_json, MetricsRegistry};

    let registry = MetricsRegistry::new();
    let graph = Arc::new(quickstart_network());
    let cafes = Arc::new(NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new)));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*cafes));
    hub_index.register_metrics(&registry);

    let world = World::new(graph.clone(), cafes.clone()).with_hub_label_index(hub_index.clone());
    let server = Server::start_observed(
        world,
        ServerConfig::default().with_workers(2).with_slow_query_log(4, 2, 8, 7),
        None,
        &registry,
    );
    for algorithm in [Algorithm::Eager, Algorithm::HubLabel] {
        for q in graph.node_ids() {
            let served = server.submit(Request::new(algorithm, q, 1)).unwrap().wait().unwrap();
            let direct =
                run_rknn(algorithm, &*graph, &*cafes, Precomputed::hub_labels(&*hub_index), q, 1);
            assert_eq!(served.outcome.points, direct.points, "{algorithm} at {q}");
        }
    }
    let report = server.drain_slow_queries();
    assert_eq!(report.worst.len(), 4);
    server.shutdown();

    let snap = registry.snapshot();
    assert_eq!(snap.counter("rnn_server_completed_total"), Some(16));
    assert_eq!(snap.gauge("rnn_label_nodes"), Some(8));
    assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"eager\"}"), Some(8));
    assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"hub-label\"}"), Some(8));
    let text = prometheus_text(&snap);
    assert_eq!(text, prometheus_text(&snap));
    assert!(text.contains("rnn_server_completed_total 16"));
    let json = report_json(&snap);
    assert_eq!(json, report_json(&snap));
    assert!(json.contains("\"schema\": \"rnn-bench-report/v1\""));
}
