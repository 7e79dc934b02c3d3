//! The observability layer, end to end.
//!
//! Four pinned properties of `rnn-obs` and its wiring into the stack:
//!
//! 1. **Histogram algebra** — [`LatencyHistogram::merge`] is commutative and
//!    associative, and merging per-shard histograms equals building one
//!    histogram from the concatenated samples; count/min/max agree exactly
//!    with a sorted-vector reference, and every quantile lands in the bucket
//!    the reference value falls into (property-tested).
//! 2. **Registry consistency** — counters registered coarse-before-fine
//!    keep `fine <= coarse` in *every* snapshot taken concurrently with
//!    recorders, and successive snapshots are monotone.
//! 3. **Slow-query capture** — replaying a trace stream into a
//!    [`SlowQueryLog`] (from many threads) always recovers the true worst-N
//!    by service time, and the uniform sample is a deterministic function
//!    of the seed.
//! 4. **One snapshot, whole stack** — a traced server over a paged world
//!    with hub labels exposes server admission counters, storage I/O and
//!    label-index metrics plus non-trivial per-algorithm
//!    phase aggregates for **all six algorithms** in a single
//!    [`MetricsRegistry::snapshot`], and both exporters render it
//!    byte-deterministically.

use proptest::prelude::*;
use rnn::core::{Algorithm, MaterializedKnn};
use rnn::datagen::{grid_map, GridConfig};
use rnn::graph::{NodeId, NodePointSet, PointsOnNodes};
use rnn::index::HubLabelIndex;
use rnn::obs::{
    prometheus_text, report_json, EventKind, LatencyHistogram, MetricsRegistry, MetricsSnapshot,
    Phase, QueryTrace, SlowQueryLog,
};
use rnn::server::{PointUpdate, Request, ServeError, Server, ServerConfig, World};
use rnn::storage::{
    register_io_counters, BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph,
};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// 1. Histogram algebra vs. a sorted-vector reference
// ---------------------------------------------------------------------------

fn build(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(Duration::from_nanos(s));
    }
    h
}

/// Structural equality via the raw representation (`LatencyHistogram`
/// deliberately exposes no `PartialEq`; tests compare exact state).
fn same(a: &LatencyHistogram, b: &LatencyHistogram) -> bool {
    let (ab, ac, asum, amax, amin) = a.raw();
    let (bb, bc, bsum, bmax, bmin) = b.raw();
    ab == bb && ac == bc && asum == bsum && amax == bmax && amin == bmin
}

fn merged(parts: &[&LatencyHistogram]) -> LatencyHistogram {
    let mut out = LatencyHistogram::new();
    for p in parts {
        out.merge(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn histogram_merge_is_commutative_associative_and_matches_concat(
        a in proptest::collection::vec(0u64..=10_000_000_000, 0..80),
        b in proptest::collection::vec(0u64..=10_000_000_000, 0..80),
        c in proptest::collection::vec(0u64..=10_000_000_000, 0..80),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        // Commutativity and associativity.
        prop_assert!(same(&merged(&[&ha, &hb]), &merged(&[&hb, &ha])));
        let left = merged(&[&merged(&[&ha, &hb]), &hc]);
        let right = merged(&[&ha, &merged(&[&hb, &hc])]);
        prop_assert!(same(&left, &right));

        // Merging shards == building from the concatenated stream.
        let mut all: Vec<u64> = Vec::new();
        all.extend(&a);
        all.extend(&b);
        all.extend(&c);
        let direct = build(&all);
        prop_assert!(same(&left, &direct));

        // Exact aggregates against the sorted-vector reference.
        all.sort_unstable();
        prop_assert_eq!(direct.count(), all.len() as u64);
        if all.is_empty() {
            prop_assert!(direct.is_empty());
            prop_assert_eq!(direct.min(), Duration::ZERO);
            prop_assert_eq!(direct.max(), Duration::ZERO);
        } else {
            prop_assert_eq!(direct.min().as_nanos(), u128::from(all[0]));
            prop_assert_eq!(direct.max().as_nanos(), u128::from(*all.last().unwrap()));
            let (_, _, sum, _, _) = direct.raw();
            prop_assert_eq!(sum, all.iter().map(|&s| u128::from(s)).sum::<u128>());
            // Every reported quantile is the upper bound of the bucket the
            // reference order statistic falls into: reference <= reported,
            // and reported < 2 * max(reference, 1) by the power-of-two
            // bucket geometry.
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
                let reference = all[rank - 1];
                let reported = direct.quantile(q).as_nanos() as u64;
                prop_assert!(reported >= reference, "q={q}: {reported} < ref {reference}");
                prop_assert!(
                    u128::from(reported) < 2 * u128::from(reference.max(1)),
                    "q={q}: {reported} not in ref {reference}'s bucket"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Registry snapshots stay consistent under concurrent recording
// ---------------------------------------------------------------------------

#[test]
fn registry_counters_keep_coarse_bounds_fine_under_concurrent_snapshots() {
    let registry = MetricsRegistry::new();
    // Coarse registered (and always bumped) before fine: the snapshot's
    // reverse-registration-order walk then guarantees fine <= coarse in
    // every snapshot, no matter how recorders interleave.
    let accesses = registry.counter("accesses_total");
    let faults = registry.counter("faults_total");
    let evictions = registry.counter("evictions_total");
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let (accesses, faults, evictions) =
                (accesses.clone(), faults.clone(), evictions.clone());
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    accesses.inc();
                    if (i + t) % 3 == 0 {
                        faults.inc();
                        if (i + t) % 9 == 0 {
                            evictions.inc();
                        }
                    }
                }
            });
        }
        let registry = registry.clone();
        scope.spawn(move || {
            let (mut last_a, mut last_f, mut last_e) = (0u64, 0u64, 0u64);
            for _ in 0..300 {
                let snap = registry.snapshot();
                let a = snap.counter("accesses_total").unwrap();
                let f = snap.counter("faults_total").unwrap();
                let e = snap.counter("evictions_total").unwrap();
                assert!(e <= f && f <= a, "torn snapshot: {e} <= {f} <= {a} violated");
                assert!(
                    a >= last_a && f >= last_f && e >= last_e,
                    "counters went backwards across snapshots"
                );
                (last_a, last_f, last_e) = (a, f, e);
            }
        });
    });
    let snap = registry.snapshot();
    assert_eq!(snap.counter("accesses_total"), Some(15_000));
}

// ---------------------------------------------------------------------------
// 3. Slow-query worst-N replay vs. reference
// ---------------------------------------------------------------------------

#[test]
fn slow_query_log_recovers_the_true_worst_n_from_a_replayed_stream() {
    // A deterministic pseudo-random service-time stream with duplicates.
    let services: Vec<u64> =
        (0..4_000u64).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) % 1_000_000).collect();
    let trace = |service_nanos: u64| QueryTrace {
        algorithm: "eager",
        query: service_nanos,
        service_nanos,
        ..Default::default()
    };

    for workers in [1usize, 4] {
        let log = SlowQueryLog::new(16, 0, 0, 7);
        std::thread::scope(|scope| {
            for chunk in services.chunks(services.len() / workers) {
                let log = &log;
                scope.spawn(move || {
                    for &s in chunk {
                        log.observe(&trace(s));
                    }
                });
            }
        });
        let got: Vec<u64> = log.drain().worst.iter().map(|t| t.service_nanos).collect();

        let mut reference = services.clone();
        reference.sort_unstable_by_key(|&s| std::cmp::Reverse(s));
        reference.truncate(16);
        assert_eq!(got, reference, "worst-16 at {workers} observer threads");
    }
}

// ---------------------------------------------------------------------------
// 4. One snapshot covers the whole stack; exporters are deterministic
// ---------------------------------------------------------------------------

#[test]
fn one_snapshot_exposes_every_layer_and_exports_deterministically() {
    let registry = MetricsRegistry::new();

    // The world: a paged grid topology (storage layer), a materialized
    // k-NN table and a hub-label index (all six algorithms serveable).
    let graph =
        Arc::new(grid_map(&GridConfig { rows: 12, cols: 12, seed: 42, ..Default::default() }));
    let n = graph.num_nodes();
    let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
    let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*points));
    let counters = IoCounters::new();
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(64).with_shards(2),
            counters.clone(),
        )
        .expect("paged graph"),
    );

    // Register every layer into the one registry.
    register_io_counters(&registry, "graph", &counters);
    hub_index.register_metrics(&registry);

    let world = World::new(paged.clone(), points.clone())
        .with_materialized(Arc::clone(&table))
        .with_hub_label_index(hub_index.clone())
        .with_storage_control(paged);
    let server = Server::start_observed(
        world,
        ServerConfig::default().with_workers(2).with_slow_query_log(8, 4, 32, 9),
        Some(counters),
        &registry,
    );

    let queries: Vec<NodeId> = points.nodes().iter().copied().take(12).collect();
    let mut expected_per_algorithm = 0u64;
    for algorithm in Algorithm::ALL {
        for &q in &queries {
            server.submit(Request::new(algorithm, q, 2)).unwrap().wait().unwrap();
        }
        expected_per_algorithm = queries.len() as u64;
    }

    // The slow-query log saw the traffic (drained before shutdown consumes
    // the handle).
    let report = server.drain_slow_queries();
    assert_eq!(report.worst.len(), 8);
    assert!(!report.samples.is_empty());
    // Every ticket above has returned, so the snapshot already carries its
    // service sample; shutting down first just ends the workers.
    server.shutdown();

    let snap = registry.snapshot();
    // Server layer.
    let total = 6 * expected_per_algorithm;
    assert_eq!(snap.counter("rnn_server_completed_total"), Some(total));
    assert_eq!(snap.histogram("rnn_server_service_nanos").unwrap().count(), total);
    // Storage layer: the paged world faulted pages in through the pool.
    assert!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}").unwrap() > 0);
    assert!(
        snap.counter("rnn_io_faults_total{pool=\"graph\"}").unwrap()
            <= snap.counter("rnn_io_accesses_total{pool=\"graph\"}").unwrap()
    );
    // ...and the server source's per-shard hit rate, one gauge per shard.
    for shard in 0..2 {
        let name = format!("rnn_server_storage_shard_hit_rate_permille{{shard=\"{shard}\"}}");
        assert!(snap.gauge(&name).is_some_and(|permille| permille <= 1000), "{name}");
    }
    // Index layer.
    assert_eq!(snap.gauge("rnn_label_nodes"), Some(n as u64));
    assert_eq!(snap.gauge("rnn_label_points"), Some(points.num_points() as u64));

    // Per-algorithm phase aggregates: every algorithm traced every query,
    // and every algorithm spent time in at least one phase.
    for algorithm in Algorithm::ALL {
        let a = algorithm.name();
        assert_eq!(
            snap.counter(&format!("rnn_trace_queries_total{{algorithm=\"{a}\"}}")),
            Some(expected_per_algorithm),
            "{a}: one trace per served query"
        );
        let (mut calls, mut nanos) = (0u64, 0u64);
        for phase in Phase::ALL {
            calls += snap
                .counter(&format!(
                    "rnn_trace_phase_calls_total{{algorithm=\"{a}\",phase=\"{phase}\"}}"
                ))
                .unwrap();
            nanos += snap
                .counter(&format!(
                    "rnn_trace_phase_nanos_total{{algorithm=\"{a}\",phase=\"{phase}\"}}"
                ))
                .unwrap();
        }
        assert!(calls > 0 && nanos > 0, "{a}: non-trivial phase counters ({calls} calls)");
    }

    // Exporters: same snapshot, same bytes; key lines present in both.
    let text = prometheus_text(&snap);
    assert_eq!(text, prometheus_text(&snap), "prometheus text is byte-deterministic");
    assert!(text.contains("# TYPE rnn_server_completed_total counter"));
    assert!(text.contains("rnn_io_accesses_total{pool=\"graph\"}"));
    assert!(text.contains("rnn_server_service_nanos_bucket{le=\"+Inf\"}"));
    let json = report_json(&snap);
    assert_eq!(json, report_json(&snap), "report json is byte-deterministic");
    assert!(json.contains("\"schema\": \"rnn-bench-report/v1\""));
    assert!(json.contains("rnn_trace_queries_total{algorithm=\\\"hub-label\\\"}"));
}

// ---------------------------------------------------------------------------
// 5. Metric-name hygiene and the golden exporter layout
// ---------------------------------------------------------------------------

/// Builds the fully-wired registry: every layer of the stack — paged
/// storage, hub labels, the traced server and its flight recorder — with
/// traffic from all six algorithms so every aggregate is live.
fn fully_wired_snapshot() -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    let graph =
        Arc::new(grid_map(&GridConfig { rows: 10, cols: 10, seed: 42, ..Default::default() }));
    let n = graph.num_nodes();
    let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
    let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*points));
    let counters = IoCounters::new();
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(64).with_shards(2),
            counters.clone(),
        )
        .expect("paged graph"),
    );
    register_io_counters(&registry, "graph", &counters);
    hub_index.register_metrics(&registry);

    let world =
        World::new(paged, points.clone()).with_materialized(table).with_hub_label_index(hub_index);
    let server = Server::start_observed(
        world,
        ServerConfig::default().with_workers(2).with_slow_query_log(4, 4, 16, 9),
        Some(counters),
        &registry,
    );
    let queries: Vec<NodeId> = points.nodes().iter().copied().take(6).collect();
    for algorithm in Algorithm::ALL {
        for &q in &queries {
            server.submit(Request::new(algorithm, q, 2)).unwrap().wait().unwrap();
        }
    }
    server.shutdown();
    registry.snapshot()
}

#[test]
fn metric_names_are_unique_snake_case_and_rnn_prefixed() {
    let snap = fully_wired_snapshot();
    let mut names: Vec<&String> = Vec::new();
    names.extend(snap.counters.iter().map(|(n, _)| n));
    names.extend(snap.gauges.iter().map(|(n, _)| n));
    names.extend(snap.histograms.iter().map(|(n, _)| n));
    assert!(names.len() > 50, "the fully-wired registry must be rich ({} names)", names.len());

    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(seen.insert(name.as_str()), "duplicate metric name (across kinds): {name}");
        let base = name.split('{').next().unwrap();
        assert!(base.starts_with("rnn_"), "{name}: metric not rnn_-prefixed");
        assert!(
            base.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "{name}: base name not snake_case"
        );
        assert!(!base.contains("__") && !base.ends_with('_'), "{name}: malformed snake_case");
        if let Some(i) = name.find('{') {
            assert!(name.ends_with('}'), "{name}: unterminated label set");
            for label in name[i + 1..name.len() - 1].split(',') {
                let (key, value) = label.split_once('=').expect("label is key=\"value\"");
                assert!(
                    key.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                    "{name}: label key {key:?} not snake_case"
                );
                assert!(
                    value.starts_with('"') && value.ends_with('"') && value.len() >= 2,
                    "{name}: label value {value:?} not quoted"
                );
            }
        }
    }
}

#[test]
fn prometheus_text_layout_is_pinned_by_a_golden_file() {
    let mut snap = fully_wired_snapshot();
    // Normalize the measured values: the golden pins the *name set and
    // rendered layout* (so exporter renames are deliberate), not the
    // machine-dependent numbers.
    for (_, v) in &mut snap.counters {
        *v = 0;
    }
    for (_, v) in &mut snap.gauges {
        *v = 0;
    }
    for (_, h) in &mut snap.histograms {
        *h = LatencyHistogram::new();
    }
    let text = prometheus_text(&snap);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/prometheus_text.golden");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &text).expect("bless the golden file");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("committed golden file missing; regenerate with GOLDEN_BLESS=1");
    assert_eq!(
        text, golden,
        "prometheus_text drifted from tests/golden/prometheus_text.golden; renames must be \
         deliberate — rerun this test with GOLDEN_BLESS=1 and review the diff"
    );
}

// ---------------------------------------------------------------------------
// 6. Serving evidence survives close (join), before drop
// ---------------------------------------------------------------------------

#[test]
fn slow_queries_and_flight_recorder_drain_from_a_joined_server() {
    let registry = MetricsRegistry::new();
    let graph = Arc::new(grid_map(&GridConfig { rows: 9, cols: 9, seed: 7, ..Default::default() }));
    let n = graph.num_nodes();
    let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(5).map(NodeId::new)));
    let mut server = Server::start_observed(
        World::new(graph, points.clone()),
        ServerConfig::default().with_workers(2).with_tracing(true).with_slow_query_log(4, 0, 0, 3),
        None,
        &registry,
    );
    let queries: Vec<NodeId> = points.nodes().iter().copied().take(10).collect();
    for &q in &queries {
        server.submit(Request::new(Algorithm::Eager, q, 1)).unwrap().wait().unwrap();
    }

    // Quiesce the workers *first*, then pull the evidence from the closed
    // (not yet dropped) handle: worst-N slow queries, ordered flight
    // recorder, final stats — nothing of it is lost to the join.
    server.join();
    assert_eq!(server.stats().completed, queries.len() as u64);
    let slow = server.drain_slow_queries();
    assert_eq!(slow.worst.len(), 4, "worst-N capture survives the join");
    let drained = server.drain_events();
    assert_eq!(drained.dropped, 0);
    assert!(drained.events.windows(2).all(|w| w[0].seq < w[1].seq), "drain order is by seq");
    let count =
        |pred: fn(&EventKind) -> bool| drained.events.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::WorkerStart { .. })), 2);
    assert_eq!(count(|k| matches!(k, EventKind::WorkerStop { .. })), 2);
    assert!(count(|k| matches!(k, EventKind::SlowQuery { .. })) > 0);
    // A second drain finds the ring empty; submissions are refused.
    assert!(server.drain_events().events.is_empty());
    assert!(server.submit(Request::new(Algorithm::Eager, queries[0], 1)).is_err());
}

// ---------------------------------------------------------------------------
// 7. The flight recorder's event vocabulary, pinned on one scripted run
// ---------------------------------------------------------------------------

/// One scripted run through every server and storage path that records an
/// event — worker lifecycle, slow-query captures, an admission shed at the
/// full edge and one at dequeue, both point-swap kinds, a pool resize and a
/// clear — pinned as the multiset of `(kind, payload)`. Sequence numbers,
/// timestamps and a captured query's service time are left out: admission
/// sheds run on the submitter thread, so cross-thread order (and any
/// clock) is not fixed by the script.
#[test]
fn flight_recorder_pins_the_events_of_a_scripted_run() {
    let registry = MetricsRegistry::new();
    let graph = Arc::new(grid_map(&GridConfig { rows: 9, cols: 9, seed: 7, ..Default::default() }));
    let n = graph.num_nodes();
    let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(5).map(NodeId::new)));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*points));
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(64).with_shards(2),
            IoCounters::new(),
        )
        .expect("paged graph"),
    );
    let world = World::new(paged.clone(), points.clone())
        .with_storage_control(paged.clone())
        .with_hub_label_index(hub_index.clone());
    let mut server = Server::start_observed(
        world,
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_slow_query_log(8, 0, 0, 3),
        None,
        &registry,
    );
    let q = |i: usize| points.nodes()[i];
    let expired = |node| Request::new(Algorithm::Eager, node, 1).with_deadline_in(Duration::ZERO);

    // Two served queries; with room in the worst-N set, each is captured.
    for (algorithm, node) in [(Algorithm::Eager, q(0)), (Algorithm::HubLabel, q(1))] {
        server.submit(Request::new(algorithm, node, 1)).unwrap().wait().unwrap();
    }
    // The queue (capacity 1) is empty: one batch fills it with a served
    // request, and the expired request behind it is shed at the full edge.
    let tickets = server.submit_all(&[Request::new(Algorithm::HubLabel, q(2), 1), expired(q(3))]);
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.unwrap().wait()).collect();
    assert!(outcomes[0].is_ok());
    assert_eq!(outcomes[1].as_ref().unwrap_err(), &ServeError::Shed);
    // Alone in an empty queue, an expired request is shed at dequeue.
    assert_eq!(server.submit(expired(q(4))).unwrap().wait().unwrap_err(), ServeError::Shed);
    let stats = server.stats();
    assert_eq!((stats.shed, stats.shed_at_dequeue), (2, 1));

    // Both swap kinds: the full swap keeps the index the delta swap updates.
    server.swap_points(points.clone(), None, Some(hub_index));
    let free = (0..n).map(NodeId::new).find(|&v| points.point_at(v).is_none()).unwrap();
    let grown = Arc::new(points.with_point_on(free));
    assert!(server.swap_points_delta(grown, None, &[PointUpdate::Insert(free)]));

    // Storage control-plane mutations land on the same recorder.
    paged.buffer().resize(32);
    paged.buffer().clear();

    server.join();
    let drained = server.drain_events();
    assert_eq!(drained.dropped, 0);
    let mut kinds: Vec<String> = drained
        .events
        .iter()
        .map(|e| match e.kind {
            EventKind::SlowQuery { query, algorithm, .. } => {
                format!("{:?}", EventKind::SlowQuery { query, service_nanos: 0, algorithm })
            }
            kind => format!("{kind:?}"),
        })
        .collect();
    kinds.sort_unstable();
    let p = points.num_points() as u64;
    let mut expected: Vec<String> = [
        EventKind::WorkerStart { worker: 0 },
        EventKind::SlowQuery { query: q(0).index() as u64, service_nanos: 0, algorithm: 0 },
        EventKind::SlowQuery { query: q(1).index() as u64, service_nanos: 0, algorithm: 5 },
        EventKind::SlowQuery { query: q(2).index() as u64, service_nanos: 0, algorithm: 5 },
        EventKind::AdmissionShed { class: 0, count: 1 },
        EventKind::AdmissionShed { class: 0, count: 1 },
        EventKind::PointsSwap { points: p, delta: false },
        EventKind::PointsSwap { points: p + 1, delta: true },
        EventKind::PoolResize { pages: 32 },
        EventKind::PoolClear,
        EventKind::WorkerStop { worker: 0, served: 3 },
    ]
    .iter()
    .map(|k| format!("{k:?}"))
    .collect();
    expected.sort_unstable();
    assert_eq!(kinds, expected);
}
