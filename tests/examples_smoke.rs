//! Smoke test mirroring `examples/quickstart.rs` end-to-end on the same tiny
//! graph, so `cargo test` exercises the exact flow the example demonstrates
//! (every example additionally compiles as part of `cargo test`; CI runs the
//! quickstart binary itself on top of this).

use rnn::core::engine::{QueryEngine, Workload};
use rnn::core::materialize::MaterializedKnn;
use rnn::core::{run_rknn, Algorithm, Precomputed};
use rnn::datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
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

/// Mirrors `examples/batch_throughput.rs` on the quickstart network: the
/// engine's batch execution reproduces the sequential per-query loop at
/// every thread count.
#[test]
fn batch_throughput_flow_matches_sequential_queries() {
    let graph = quickstart_network();
    let cafes = NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new));

    for algorithm in [Algorithm::Eager, Algorithm::Lazy] {
        let workload = Workload::uniform(algorithm, 1, graph.node_ids());
        let sequential: Vec<_> = graph
            .node_ids()
            .map(|q| run_rknn(algorithm, &graph, &cafes, Precomputed::none(), q, 1))
            .collect();
        for threads in [1usize, 2, 4] {
            let engine = QueryEngine::new(&graph, &cafes).with_threads(threads);
            let batch = engine.run_batch(&workload);
            assert_eq!(batch.results, sequential, "{algorithm} at {threads} threads");
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

/// Mirrors `examples/paged_serving.rs` on the quickstart network: the
/// engine's thread pool over a `PagedGraph` with a *sharded* buffer pool
/// reproduces the in-memory sequential answers, and a batch's I/O — the
/// diff of the pool's count around it — is partitioned by its shards.
#[test]
fn paged_serving_flow_matches_in_memory_results_on_a_sharded_pool() {
    let graph = quickstart_network();
    let cafes = NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new));
    let paged = PagedGraph::build_with_config(
        &graph,
        LayoutStrategy::BfsLocality,
        BufferPoolConfig::new(4).with_shards(2),
        IoCounters::new(),
    )
    .unwrap();

    for algorithm in [Algorithm::Eager, Algorithm::Lazy] {
        let workload = Workload::uniform(algorithm, 1, graph.node_ids());
        let sequential: Vec<_> = graph
            .node_ids()
            .map(|q| run_rknn(algorithm, &graph, &cafes, Precomputed::none(), q, 1))
            .collect();
        for threads in [1usize, 2, 4] {
            paged.cold_start();
            let engine = QueryEngine::new(&paged, &cafes).with_threads(threads);
            let before = paged.io_stats();
            let batch = engine.run_batch(&workload);
            let io = paged.io_stats().since(&before);
            assert_eq!(batch.results, sequential, "{algorithm} at {threads} threads");
            assert!(io.accesses >= workload.len() as u64, "{algorithm}: every query fetched");
            let pool = paged.pool_stats();
            assert_eq!(pool.per_shard.len(), 2);
            assert_eq!(
                pool.total.as_io_stats(),
                io,
                "{algorithm} at {threads} threads: the shards partition the batch's I/O"
            );
        }
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
        .with_hub_labels(hub_index.clone());
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
/// hub-label engine (with result cache) reproduces the expansion answers,
/// and repeated queries are served from the cache.
#[test]
fn hub_label_serving_flow_matches_expansion_and_hits_the_cache() {
    let graph = quickstart_network();
    let cafes = NodePointSet::from_nodes(8, [0, 3, 6].map(NodeId::new));
    let hub_index = HubLabelIndex::build(&graph, &cafes);

    // Each query node twice: the second round must be pure cache hits on a
    // single-threaded engine.
    let mut nodes: Vec<NodeId> = graph.node_ids().collect();
    nodes.extend(graph.node_ids());
    let workload = Workload::uniform(Algorithm::HubLabel, 1, nodes.iter().copied());
    let engine = QueryEngine::new(&graph, &cafes).with_hub_labels(&hub_index).with_result_cache(32);
    let batch = engine.run_batch(&workload);

    let expansion: Vec<_> = nodes
        .iter()
        .map(|&q| run_rknn(Algorithm::Eager, &graph, &cafes, Precomputed::none(), q, 1))
        .collect();
    for (hl, e) in batch.results.iter().zip(&expansion) {
        assert_eq!(hl.points, e.points, "hub-label must agree with eager");
    }
    assert_eq!(batch.cache.misses, graph.num_nodes() as u64);
    assert_eq!(batch.cache.hits, graph.num_nodes() as u64, "the repeat round hits the cache");
    assert_eq!(engine.cache_stats(), batch.cache);
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

    let world = World::new(graph.clone(), cafes.clone()).with_hub_labels(hub_index.clone());
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

/// Mirrors the time-aware act of `examples/observability.rs` at reduced
/// scale: a calibrated latency SLO stays ok through healthy closed-loop
/// epochs, flips to critical within one epoch of an open-loop overload
/// burst, recovers after a full long window, and the evidence — windowed
/// vs cumulative p99, slow queries, the flight recorder, a Chrome trace
/// that parses back — all drains from the joined server.
#[test]
fn observability_time_aware_flow_detects_overload_and_recovers() {
    use rnn::obs::{chrome_trace, JsonValue, MetricsRegistry};
    use rnn::server::{EventKind, Priority, SloSpec, SloState, TelemetryConfig};
    use std::time::{Duration, Instant};

    let graph = Arc::new(grid_map(&GridConfig::with_nodes(1_200, 4.0, 42)));
    let points = Arc::new(place_points_on_nodes(&graph, 0.02, 43));
    let query_nodes = sample_node_queries(&points, 24, 44);

    // The example's calibration, scaled down: objective = 32x the
    // sequential mean (floored at 10ms), burst = 40 threshold-multiples of
    // work, capped to keep the debug-build test quick — the cap still
    // leaves the burst's tail queue wait far over the objective.
    let started = Instant::now();
    for &q in &query_nodes {
        run_rknn(Algorithm::Eager, &*graph, &*points, Precomputed::none(), q, 1);
    }
    let mean_nanos = (started.elapsed().as_nanos() as f64 / query_nodes.len() as f64).max(1.0);
    let threshold_nanos = (32.0 * mean_nanos).max(10_000_000.0);
    let threshold = Duration::from_nanos(threshold_nanos as u64);
    let burst_len = ((40.0 * threshold_nanos / mean_nanos).ceil() as usize).clamp(512, 4_000);

    let registry = MetricsRegistry::new();
    let mut server = Server::start_with_telemetry(
        World::new(graph.clone(), points.clone()),
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(burst_len)
            .with_tracing(true)
            .with_slow_query_log(4, 0, 0, 3),
        TelemetryConfig::new().with_window_epochs(4).with_recorder_capacity(2048).with_latency_slo(
            Priority::Interactive,
            SloSpec::latency("interactive_p99", 0.99, threshold)
                .with_windows(1, 4)
                .with_burns(5.0, 10.0),
        ),
        None,
        &registry,
    );
    let engine = server.slo().expect("telemetry server carries an SLO engine");

    // Two healthy closed-loop epochs.
    let mut served = 0u64;
    for _ in 0..2 {
        for &q in &query_nodes {
            server.submit(Request::new(Algorithm::Eager, q, 1)).unwrap().wait().unwrap();
            served += 1;
        }
        let transitions = server.advance_epoch();
        assert!(transitions.iter().all(|t| t.to != SloState::Critical));
    }
    assert_eq!(engine.state(0), Some(SloState::Ok));

    // The overload burst flips the SLO within one epoch.
    let requests: Vec<Request> = (0..burst_len)
        .map(|i| Request::new(Algorithm::Eager, query_nodes[i % query_nodes.len()], 1))
        .collect();
    for ticket in server.submit_all(&requests) {
        ticket.expect("admitted under Block").wait().expect("served");
        served += 1;
    }
    let transitions = server.advance_epoch();
    assert!(
        transitions.iter().any(|t| t.name == "interactive_p99" && t.to == SloState::Critical),
        "the overload burst must flip the latency SLO to critical within one epoch"
    );

    // Recovery: one full long window of healthy epochs.
    for _ in 0..4 {
        for &q in query_nodes.iter().take(8) {
            server.submit(Request::new(Algorithm::Eager, q, 1)).unwrap().wait().unwrap();
            served += 1;
        }
        server.advance_epoch();
    }
    assert_eq!(engine.state(0), Some(SloState::Ok), "recovered after a full long window");

    // The evidence survives the join: windowed-vs-cumulative contrast,
    // slow queries, the ordered flight recorder, a Chrome trace.
    server.join();
    assert_eq!(server.stats().completed, served);
    let snap = registry.snapshot();
    let win = snap.histogram("rnn_server_latency_nanos_window{class=\"interactive\"}").unwrap();
    let cum = snap.histogram("rnn_server_latency_nanos{class=\"interactive\"}").unwrap();
    assert_eq!(win.count(), 3 * 8, "the burst epoch has left the 4-epoch window");
    assert!(win.p99() < threshold);
    assert!(cum.p99() >= threshold, "the cumulative p99 never forgets the burst");
    assert_eq!(cum.count(), served);

    let slow = server.drain_slow_queries();
    assert_eq!(slow.worst.len(), 4);
    let drained = server.drain_events();
    assert_eq!(drained.dropped, 0);
    assert!(drained.events.windows(2).all(|w| w[0].seq < w[1].seq));
    let slo_events: Vec<(u64, u64)> = drained
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SloTransition { slo: 0, from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    let flip = slo_events
        .iter()
        .position(|&(_, to)| to == SloState::Critical.code())
        .expect("the flip reaches the flight recorder");
    assert!(slo_events[flip + 1..].iter().any(|&(_, to)| to == SloState::Ok.code()));

    let trace = chrome_trace(&slow.worst, &drained.events);
    let parsed = JsonValue::parse(&trace).expect("the Chrome trace parses back");
    let spans = parsed.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let transitions_rendered = spans
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("slo_transition"))
        .count();
    assert_eq!(transitions_rendered, slo_events.len());
    assert!(spans.len() > slow.worst.len());
}
