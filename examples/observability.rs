//! Observability quickstart: one metrics registry watching the whole stack,
//! plus the evidence a serving run leaves behind — the slow-query log, the
//! flight recorder and a Chrome trace.
//!
//! Act one drives the `rnn-obs` layer end-to-end: a paged world
//! (storage-layer I/O counters), a hub-label index (size gauges and
//! build-progress counters), and a traced server with a slow-query log, all
//! registered into **one** [`MetricsRegistry`]. A single `snapshot()` then
//! answers what previously took four different polls — admission counters,
//! per-algorithm phase breakdowns, buffer faults, label sizes.
//!
//! Act two pulls the evidence from the joined server: the slow-query log
//! names the worst queries with their per-phase split, the flight recorder
//! drains the run's structured events (worker lifecycle, slow-query
//! captures) in sequence order, and both export as one Chrome trace you can
//! open in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with `cargo run --release --example observability -- [WORKERS]`
//! (default: 2 worker threads).

use rnn::core::{run_rknn, Algorithm, Precomputed};
use rnn::datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn::graph::PointsOnNodes;
use rnn::index::{HubLabelIndex, HubLabeling, LabelBuildProgress};
use rnn::obs::{chrome_trace, prometheus_text, report_json, JsonValue, MetricsRegistry, Phase};
use rnn::server::{EventKind, Request, Server, ServerConfig, World};
use rnn::storage::{
    register_io_counters, BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph,
};
use std::sync::Arc;

fn main() {
    let workers: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2).max(1);
    let registry = MetricsRegistry::new();

    // The world: a paged grid topology with I/O counters, data points on 2%
    // of the nodes, and a hub-label index whose build streams progress
    // counters into the registry.
    let graph = Arc::new(grid_map(&GridConfig::with_nodes(2_500, 4.0, 42)));
    let points = Arc::new(place_points_on_nodes(&graph, 0.02, 43));
    let counters = IoCounters::new();
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(128).with_shards(workers.max(2)),
            counters.clone(),
        )
        .expect("paged graph"),
    );
    register_io_counters(&registry, "graph", &counters);

    let progress = LabelBuildProgress::register(&registry);
    let labeling = HubLabeling::build_with_threads_observed(&*graph, workers, &progress);
    let hub_index = Arc::new(HubLabelIndex::from_labeling(labeling, &*points));
    hub_index.register_metrics(&registry);
    println!(
        "label build observed: {} roots committed, {} entries",
        progress.roots_done(),
        progress.entries_committed(),
    );
    assert_eq!(progress.roots_done() as usize, graph.num_nodes());

    // An observed server over the paged world: phase tracing, worst-8 slow
    // queries plus a 1-in-4 sample, and a flight recorder — all on the same
    // registry. Closed-loop traffic from three algorithms, each answer
    // checked against the sequential call.
    let query_nodes = sample_node_queries(&points, 48, 44);
    let world = World::new(paged, points.clone()).with_hub_label_index(hub_index.clone());
    let mut server = Server::start_observed(
        world,
        ServerConfig::default()
            .with_workers(workers)
            .with_result_cache(64, 0)
            .with_tracing(true)
            .with_slow_query_log(8, 4, 32, 9),
        Some(counters),
        &registry,
    );
    let precomputed = Precomputed::hub_labels(&*hub_index);
    let mut served = 0u64;
    for algorithm in [Algorithm::Eager, Algorithm::Lazy, Algorithm::HubLabel] {
        for &q in &query_nodes {
            let done = server
                .submit(Request::new(algorithm, q, 2))
                .expect("admitted")
                .wait()
                .expect("served");
            let direct = run_rknn(algorithm, &*graph, &*points, precomputed, q, 2);
            assert_eq!(done.outcome.points, direct.points, "{algorithm} at {q}");
            served += 1;
        }
    }

    // Quiesce the workers, then pull the evidence from the *joined* (closed
    // but not dropped) server — nothing is lost to the join.
    server.join();
    assert_eq!(server.stats().completed, served);
    let snap = registry.snapshot();

    // Where did the time go? The slow-query log names the worst offenders
    // with their per-phase breakdown — still drainable after the join.
    let report = server.drain_slow_queries();
    println!("\nslow queries (worst {} of {served}):", report.worst.len());
    for trace in &report.worst {
        let phases: Vec<String> = Phase::ALL
            .iter()
            .filter(|&&p| trace.phase(p).calls > 0)
            .map(|&p| format!("{p}={}us", trace.phase(p).nanos / 1_000))
            .collect();
        println!(
            "  {:>9} q={:<5} k={} service={:>6}us  {}",
            trace.algorithm,
            trace.query,
            trace.k,
            trace.service_nanos / 1_000,
            phases.join(" "),
        );
    }
    assert!(!report.worst.is_empty(), "traced traffic must surface slow queries");
    assert!(
        report.worst.windows(2).all(|w| w[0].service_nanos >= w[1].service_nanos),
        "worst traces come slowest-first"
    );

    // The flight recorder drains in seq order: every worker's lifecycle and
    // every worst-N capture are on the record.
    let drained = server.drain_events();
    assert_eq!(drained.dropped, 0, "the 4096-event ring holds the whole run");
    assert!(drained.events.windows(2).all(|w| w[0].seq < w[1].seq), "drain order is by seq");
    let count =
        |pred: fn(&EventKind) -> bool| drained.events.iter().filter(|e| pred(&e.kind)).count();
    let captures = count(|k| matches!(k, EventKind::SlowQuery { .. }));
    assert_eq!(count(|k| matches!(k, EventKind::WorkerStart { .. })), workers);
    assert_eq!(count(|k| matches!(k, EventKind::WorkerStop { .. })), workers);
    assert!(captures >= report.worst.len(), "every kept worst trace was captured once");
    println!(
        "\nflight recorder: {} events ({captures} slow-query captures), 0 dropped",
        drained.events.len(),
    );

    // Span-timeline export: worst-query spans plus instant events, written
    // where a browser can load it — and parsed back to prove it's valid.
    let trace = chrome_trace(&report.worst, &drained.events);
    let parsed = JsonValue::parse(&trace).expect("the Chrome trace must parse back as JSON");
    let spans = parsed.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    let instants = |name: &str| {
        spans.iter().filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name)).count()
    };
    assert_eq!(instants("slow_query"), captures, "captures render as instants");
    assert!(spans.len() > report.worst.len());
    let trace_path = std::env::temp_dir().join("rnn_observability_trace.json");
    std::fs::write(&trace_path, &trace).expect("write the Chrome trace");
    println!(
        "chrome trace: {} events -> {} (open in chrome://tracing or ui.perfetto.dev)",
        spans.len(),
        trace_path.display(),
    );

    // One snapshot, every layer — the flight recorder's counters included.
    assert_eq!(snap.counter("rnn_server_completed_total"), Some(served));
    assert!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}").unwrap() > 0);
    assert_eq!(snap.gauge("rnn_label_points"), Some(points.num_points() as u64));
    assert_eq!(snap.gauge("rnn_recorder_capacity"), Some(4096));
    assert_eq!(snap.counter("rnn_recorder_recorded_total"), Some(drained.events.len() as u64));
    for algorithm in [Algorithm::Lazy, Algorithm::HubLabel] {
        let name = format!("rnn_trace_queries_total{{algorithm=\"{}\"}}", algorithm.name());
        assert_eq!(snap.counter(&name), Some(query_nodes.len() as u64), "{name}");
    }

    // Both exporters render the same snapshot byte-deterministically.
    let text = prometheus_text(&snap);
    assert_eq!(text, prometheus_text(&snap), "prometheus text must be byte-deterministic");
    let json = report_json(&snap);
    assert_eq!(json, report_json(&snap), "report json must be byte-deterministic");
    assert!(json.contains("\"schema\": \"rnn-bench-report/v1\""));

    println!("\nprometheus excerpt:");
    for line in text
        .lines()
        .filter(|l| l.starts_with("rnn_recorder_") || l.starts_with("rnn_server_completed_total"))
    {
        println!("  {line}");
    }
    println!(
        "\nsnapshot: {} counters, {} gauges, {} histograms; text {} bytes, json {} bytes",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        text.len(),
        json.len(),
    );
    println!("observability example: all assertions passed");
}
