//! Observability quickstart: one metrics registry watching the whole stack,
//! plus the time-aware half — windowed telemetry, SLO burn rates, and the
//! flight recorder.
//!
//! Act one drives the `rnn-obs` layer end-to-end: a paged world
//! (storage-layer I/O counters), a hub-label index (size gauges and
//! build-progress counters), and a traced server with a slow-query log, all
//! registered into **one** [`MetricsRegistry`]. A single `snapshot()` then
//! answers what previously took four different polls — admission counters,
//! per-algorithm phase breakdowns, buffer faults, label sizes.
//!
//! Act two turns on the clock: the server carries a latency SLO (p99 under
//! a calibrated threshold, short/long burn windows of 1/4 epochs). Healthy
//! closed-loop epochs keep it `Ok`; one open-loop overload burst flips it
//! to `Critical` within a single epoch; healthy recovery epochs bring it
//! back. The windowed p99 *forgets* the burst as it leaves the 4-epoch
//! window while the cumulative p99 never does — the contrast windowed
//! telemetry exists for. Every transition lands in the flight recorder,
//! and the whole run exports as a Chrome trace you can open in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with `cargo run --release --example observability -- [WORKERS]`
//! (default: 2 worker threads).

use rnn::core::{run_rknn, Algorithm, Precomputed};
use rnn::datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn::graph::PointsOnNodes;
use rnn::index::{HubLabelIndex, HubLabeling, LabelBuildProgress};
use rnn::obs::{
    chrome_trace, prometheus_text, report_json, JsonValue, LatencyHistogram, MetricsRegistry, Phase,
};
use rnn::server::{
    EventKind, Priority, Request, Server, ServerConfig, SloSpec, SloState, TelemetryConfig, World,
};
use rnn::storage::{
    register_io_counters, BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    // Calibrate the SLO before starting the server: a sequential pass over
    // the query set gives the mean service time; the p99 objective is 32x
    // that mean (floored at 10ms so a scheduler hiccup can't breach a
    // healthy epoch), and the burst carries 40 threshold-multiples of work
    // so the overload unambiguously dwarfs the objective on any machine.
    let query_nodes = sample_node_queries(&points, 48, 44);
    let started = Instant::now();
    for &q in &query_nodes {
        run_rknn(Algorithm::Eager, &*graph, &*points, Precomputed::none(), q, 2);
    }
    let mean_nanos = (started.elapsed().as_nanos() as f64 / query_nodes.len() as f64).max(1.0);
    let threshold_nanos = (32.0 * mean_nanos).max(10_000_000.0);
    let threshold = Duration::from_nanos(threshold_nanos as u64);
    let burst_len = ((40.0 * threshold_nanos / mean_nanos).ceil() as usize).clamp(256, 20_000);
    println!(
        "slo calibration: p99 objective {:.1}ms ({:.0}us sequential mean), burst of {burst_len}",
        threshold_nanos / 1e6,
        mean_nanos / 1e3,
    );

    // A telemetry server over the paged world: phase tracing, worst-8 slow
    // queries, 4-epoch windowed latency views, a latency SLO with 1/4-epoch
    // burn windows, and a flight recorder — all on the same registry.
    let world = World::new(paged, points.clone()).with_hub_label_index(hub_index.clone());
    let mut server = Server::start_with_telemetry(
        world,
        ServerConfig::default()
            .with_workers(workers)
            .with_queue_capacity(burst_len)
            .with_result_cache(64, 0)
            .with_tracing(true)
            .with_slow_query_log(8, 4, 32, 9),
        TelemetryConfig::new()
            .with_window_epochs(4)
            .with_recorder_capacity(4096)
            .with_latency_slo(
                Priority::Interactive,
                SloSpec::latency("interactive_p99", 0.99, threshold)
                    .with_windows(1, 4)
                    .with_burns(5.0, 10.0),
            )
            .with_dropped_slo(
                Priority::Interactive,
                SloSpec::error_ratio("interactive_drops", 0.05),
            ),
        Some(counters),
        &registry,
    );
    let engine = server.slo().expect("telemetry server carries an SLO engine");

    // Three healthy epochs, one per algorithm: closed-loop traffic stays
    // far under the objective, so the SLO must read Ok after each tick.
    let mut served = 0u64;
    for algorithm in [Algorithm::Eager, Algorithm::Lazy, Algorithm::HubLabel] {
        for &q in &query_nodes {
            server.submit(Request::new(algorithm, q, 2)).expect("admitted").wait().expect("served");
            served += 1;
        }
        let transitions = server.advance_epoch();
        assert!(
            transitions.iter().all(|t| t.to != SloState::Critical),
            "healthy closed-loop traffic must not read critical"
        );
    }
    assert_eq!(engine.state(0), Some(SloState::Ok), "three healthy epochs: latency SLO ok");

    // The overload burst: one open-loop submit_all. Queue wait grows
    // linearly through the burst, so the total-latency tail dwarfs the
    // objective and both burn windows exceed the critical rate.
    let requests: Vec<Request> = (0..burst_len)
        .map(|i| Request::new(Algorithm::Eager, query_nodes[i % query_nodes.len()], 2))
        .collect();
    let mut burst = LatencyHistogram::new();
    for ticket in server.submit_all(&requests) {
        let done = ticket.expect("admitted under Block").wait().expect("served");
        burst.record(done.queue_wait + done.service_time);
        served += 1;
    }
    let transitions = server.advance_epoch();
    let detected = transitions
        .iter()
        .find(|t| t.name == "interactive_p99" && t.to == SloState::Critical)
        .expect("the overload burst must flip the latency SLO to critical within one epoch");
    println!(
        "\nslo flip detected at epoch {}: {} {:?} -> {:?} (short burn {:.1}, long burn {:.1}; \
         burst p99 {:.1}ms vs {:.1}ms objective)",
        detected.epoch,
        detected.name,
        detected.from,
        detected.to,
        detected.short_burn,
        detected.long_burn,
        burst.p99().as_secs_f64() * 1e3,
        threshold_nanos / 1e6,
    );

    // Recovery: four healthy epochs — one full long window. The short
    // window clears immediately; by the end the burst epoch has left the
    // 4-epoch window view entirely.
    for _ in 0..4 {
        for &q in query_nodes.iter().take(16) {
            server.submit(Request::new(Algorithm::Eager, q, 2)).unwrap().wait().unwrap();
            served += 1;
        }
        server.advance_epoch();
    }
    assert_eq!(engine.state(0), Some(SloState::Ok), "recovered to ok after the burst");
    assert_eq!(engine.state(1), Some(SloState::Ok), "Block never drops: ratio SLO stays ok");

    // Quiesce the workers, then pull the evidence from the *joined* (closed
    // but not dropped) server — nothing is lost to the join.
    server.join();
    assert_eq!(server.stats().completed, served);

    // Windowed vs cumulative, side by side: the window forgot the burst,
    // the cumulative never will.
    let snap = registry.snapshot();
    let win = snap
        .histogram("rnn_server_latency_nanos_window{class=\"interactive\"}")
        .expect("windowed latency view");
    let cum = snap
        .histogram("rnn_server_latency_nanos{class=\"interactive\"}")
        .expect("cumulative latency view");
    println!(
        "\nlatency p99, windowed vs cumulative: win4 {:.2}ms ({} samples) vs cum {:.2}ms \
         ({} samples)",
        win.p99().as_secs_f64() * 1e3,
        win.count(),
        cum.p99().as_secs_f64() * 1e3,
        cum.count(),
    );
    assert!(win.p99() < threshold, "the burst has left the 4-epoch window view");
    assert!(cum.p99() >= threshold, "the cumulative p99 never forgets the burst");
    assert_eq!(cum.count(), served);

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

    // The flight recorder drains in seq order; the SLO flip and recovery
    // are both on the record.
    let drained = server.drain_events();
    assert_eq!(drained.dropped, 0, "the 4096-event ring holds the whole run");
    assert!(drained.events.windows(2).all(|w| w[0].seq < w[1].seq), "drain order is by seq");
    let slo_events: Vec<(u64, u64)> = drained
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SloTransition { slo: 0, from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    let crit = SloState::Critical.code();
    let flip = slo_events.iter().position(|&(_, to)| to == crit).expect("flip on the record");
    assert!(
        slo_events[flip + 1..].iter().any(|&(_, to)| to == SloState::Ok.code()),
        "the recovery transition follows the flip"
    );
    println!(
        "\nflight recorder: {} events ({} slo transitions), 0 dropped",
        drained.events.len(),
        slo_events.len(),
    );

    // Span-timeline export: worst-query spans plus instant events, written
    // where a browser can load it — and parsed back to prove it's valid.
    let trace = chrome_trace(&report.worst, &drained.events);
    let parsed = JsonValue::parse(&trace).expect("the Chrome trace must parse back as JSON");
    let spans = parsed.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    let instants = |name: &str| {
        spans.iter().filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name)).count()
    };
    assert_eq!(instants("slo_transition"), slo_events.len(), "transitions render as instants");
    assert!(instants("slow_query") > 0 && spans.len() > report.worst.len());
    let trace_path = std::env::temp_dir().join("rnn_observability_trace.json");
    std::fs::write(&trace_path, &trace).expect("write the Chrome trace");
    println!(
        "chrome trace: {} events -> {} (open in chrome://tracing or ui.perfetto.dev)",
        spans.len(),
        trace_path.display(),
    );

    // One snapshot, every layer — time-aware metrics included.
    assert_eq!(snap.counter("rnn_server_completed_total"), Some(served));
    assert!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}").unwrap() > 0);
    assert_eq!(snap.gauge("rnn_label_points"), Some(points.num_points() as u64));
    assert_eq!(snap.gauge("rnn_slo_state{slo=\"interactive_p99\"}"), Some(0));
    assert_eq!(snap.gauge("rnn_telemetry_epoch"), Some(8), "3 healthy + 1 burst + 4 recovery");
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
    for line in
        text.lines().filter(|l| l.starts_with("rnn_slo_") || l.starts_with("rnn_telemetry_"))
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
