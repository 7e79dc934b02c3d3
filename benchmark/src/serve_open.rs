//! `serve-open`: the full stack under an open loop. One generator thread
//! submits lazy-EP and eager requests (2:1) on a seeded Poisson schedule at a fixed
//! 120 q/s to a 2-worker `Server` over the paged grid graph, whose 2048-page
//! 8-shard pool holds every page — the storage *hit* path under concurrent
//! shard locking, plus queueing. The rate is absolute: it is never
//! calibrated to the build under test, so a slower build shows as latency.

use crate::inputs::{poisson_schedule, GridWorld, Op, SplitMix64, WORLD_SEED};
use crate::measure::{
    build_paged, imbalance, overhead_pct, setup_s, shard_accesses, snapshot_us, Metrics, Outcome,
    PageFile, Paged, Round, RoundClock, Timing, ROUNDS,
};
use crate::span::{self, Name, SpanTopology};
use crate::stats::{ns_to_ms, percentile, ratio, Digest};
use crate::tracefile::{OpRow, ServiceInterval, TraceFile};
use rnn_core::{run_rknn_with, Algorithm, Precomputed, QueryStats, Scratch};
use rnn_graph::{Graph, NodeId, NodePointSet, PointId, Topology};
use rnn_obs::MetricsRegistry;
use rnn_server::{Priority, Request, Server, ServerConfig, ServerStats, World};
use rnn_storage::{BufferPoolConfig, IoStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, requests per second (about 0.35 utilisation of two workers
/// on the reference box).
const RATE: usize = 120;
/// The limit behind `latency_within_limit`: a round number near the 90th
/// percentile of request latency on the reference box when the benchmark was
/// added.
const LATENCY_LIMIT_MS: f64 = 15.0;
/// Closed-loop requests served before anything is timed.
const WARMUP_REQUESTS: usize = 400;

const STREAM_REQUESTS: u64 = 11;
const STREAM_SCHEDULE: u64 = 12;
const STREAM_WARMUP: u64 = 13;

#[derive(Copy, Clone, PartialEq, Eq)]
enum Mode {
    /// `Server::start_with_io`, raw topology: what the untraced run measures.
    Plain,
    /// `Server::start_observed` with tracing on, raw topology.
    Observed,
    /// Observed, and the topology behind a [`SpanTopology`].
    Spans,
}

/// `count` requests on random nodes, two lazy-EP to one eager; every fourth
/// rides the batch class.
///
/// Not half and half: eager takes about twice as long as lazy-EP here, and
/// the median of an even mix of two separated distributions falls in the gap
/// between them. And the *set* of requests comes from `WORLD_SEED`, `seed`
/// only orders it (and draws the arrival schedule): what varies between the
/// users of an open loop is when they arrive, and ~600 draws of a service time
/// whose standard deviation equals its mean moved the median latency by 10 %
/// from seed to seed on their own.
fn requests(seed: u64, stream: u64, num_nodes: usize, count: usize) -> Vec<(Op, Priority)> {
    let mut nodes = SplitMix64::new(WORLD_SEED, stream);
    let mut ops: Vec<Op> = (0..count)
        .map(|i| {
            let algorithm =
                if i % 3 == 0 { Algorithm::Eager } else { Algorithm::LazyExtendedPruning };
            Op { algorithm, query: NodeId::new(nodes.below(num_nodes)) }
        })
        .collect();
    SplitMix64::new(seed, stream).shuffle(&mut ops);
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| (op, if i % 4 == 3 { Priority::Batch } else { Priority::Interactive }))
        .collect()
}

struct Session {
    graph: Arc<Graph>,
    points: Arc<NodePointSet>,
    paged: Arc<Paged>,
    server: Server,
    registry: MetricsRegistry,
    datagen_s: f64,
    _page_file: PageFile,
}

impl Session {
    fn build(mode: Mode) -> Session {
        let start = Instant::now();
        let GridWorld { graph, points } = GridWorld::generate();
        let datagen_s = start.elapsed().as_secs_f64();
        let (graph, points) = (Arc::new(graph), Arc::new(points));
        let (paged, page_file) = build_paged(&graph, BufferPoolConfig::new(2048).with_shards(8));
        // Fault every page in through the public trait, so the measured pass
        // runs on the hit path only (its fault count must be exactly 0).
        for node in 0..paged.num_nodes() {
            paged.visit_neighbors(NodeId::new(node), &mut |_| {});
        }
        let topo: Arc<dyn Topology + Send + Sync> = match mode {
            Mode::Spans => Arc::new(SpanTopology::new(paged.clone())),
            Mode::Plain | Mode::Observed => paged.clone(),
        };
        let world = World::new(topo, points.clone()).with_storage_control(paged.clone());
        let config = ServerConfig::default().with_workers(2);
        let counters = paged.counters().clone();
        let registry = MetricsRegistry::new();
        let server = match mode {
            Mode::Plain => Server::start_with_io(world, config, counters),
            Mode::Observed | Mode::Spans => {
                Server::start_observed(world, config.with_tracing(true), Some(counters), &registry)
            }
        };
        let session =
            Session { graph, points, paged, server, registry, datagen_s, _page_file: page_file };
        let warmup =
            requests(WORLD_SEED, STREAM_WARMUP, session.graph.num_nodes(), WARMUP_REQUESTS);
        for burst in warmup.chunks(8) {
            let burst: Vec<Request> = burst.iter().map(|&(op, p)| request(op, p)).collect();
            for ticket in session.server.submit_all(&burst) {
                ticket.expect("warm-up admitted").wait().expect("warm-up served");
            }
        }
        session
    }

    /// Submits `requests` at their due times, then collects every ticket.
    fn run_round(&self, requests: &[(Op, Priority)], schedule: &[u64]) -> Pass {
        let io_before = self.paged.io_stats();
        let shards_before = self.paged.pool_stats();
        let stats_before = self.server.stats();
        let mut tickets = Vec::with_capacity(requests.len());
        let mut refused = 0u64;
        let mut clock = RoundClock::start(1);
        let start = clock.started_at();
        for (i, (&(op, priority), &offset)) in requests.iter().zip(schedule).enumerate() {
            let due = start + Duration::from_nanos(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let request = request(op, priority);
            match self.server.submit(request) {
                Ok(ticket) => tickets.push((i, due, request.submit_instant, ticket)),
                Err(_) => refused += 1,
            }
        }
        let mut served = Vec::with_capacity(tickets.len());
        for (i, due, submitted, ticket) in tickets {
            match ticket.wait() {
                Ok(answer) => served.push(Served {
                    op: i,
                    due_ns: span::ns_of(due),
                    submit_ns: span::ns_of(submitted).max(span::ns_of(due)),
                    queue_wait_ns: answer.queue_wait.as_nanos() as u64,
                    service_ns: answer.service_time.as_nanos() as u64,
                    worker: answer.worker,
                    points: answer.outcome.points,
                    stats: answer.outcome.stats,
                }),
                Err(_) => refused += 1,
            }
        }
        // The round's one unit: first request due to last request answered.
        // Below saturation that is the schedule's length plus one latency,
        // so `throughput_qps` is the offered rate; a backlog lowers it.
        let first_due = served.iter().map(|s| s.due_ns).min().unwrap_or(0);
        let last_done = served.iter().map(|s| s.due_ns + s.latency_ns()).max().unwrap_or(0);
        clock.unit_of(last_done - first_due);
        let latencies = served.iter().map(Served::latency_ns).collect();
        Pass {
            round: clock.finish(served.len() as u64, latencies),
            served,
            refused,
            io: self.paged.io_stats().since(&io_before),
            shard_accesses: shard_accesses(&shards_before, &self.paged.pool_stats()),
            stats_before,
            stats_after: self.server.stats(),
        }
    }
}

fn request(op: Op, priority: Priority) -> Request {
    Request::new(op.algorithm, op.query, 1).with_priority(priority)
}

struct Served {
    op: usize,
    due_ns: u64,
    submit_ns: u64,
    queue_wait_ns: u64,
    service_ns: u64,
    worker: usize,
    points: Vec<PointId>,
    stats: QueryStats,
}

impl Served {
    /// From the instant the request was *due*: a generator that runs late
    /// must not hide the wait it imposes.
    fn latency_ns(&self) -> u64 {
        (self.submit_ns - self.due_ns) + self.queue_wait_ns + self.service_ns
    }
}

struct Pass {
    round: Round,
    served: Vec<Served>,
    refused: u64,
    io: IoStats,
    shard_accesses: Vec<u64>,
    stats_before: ServerStats,
    stats_after: ServerStats,
}

impl Pass {
    fn digest(&self) -> u64 {
        let mut digest = Digest::default();
        for served in &self.served {
            digest.result(&served.points);
        }
        digest.value()
    }

    /// Refused or shed requests, plus served answers that differ from eager
    /// on the in-memory graph (computed once per distinct query node).
    fn failed(&self, session: &Session, requests: &[(Op, Priority)]) -> u64 {
        let mut scratch = Scratch::new();
        let mut reference: HashMap<NodeId, Vec<PointId>> = HashMap::new();
        let mut wrong = 0;
        for served in &self.served {
            let query = requests[served.op].0.query;
            let expected = reference.entry(query).or_insert_with(|| {
                run_rknn_with(
                    Algorithm::Eager,
                    &*session.graph,
                    &*session.points,
                    Precomputed::none(),
                    query,
                    1,
                    &mut scratch,
                )
                .points
            });
            if served.points != *expected {
                wrong += 1;
            }
        }
        self.refused + wrong
    }
}

/// Requests of one round: `seconds / ROUNDS` of the offered rate.
fn round_requests(seconds: usize) -> usize {
    RATE * seconds / ROUNDS
}

pub fn run(seed: u64, seconds: usize) -> Outcome {
    let session = Session::build(Mode::Plain);
    let count = round_requests(seconds);
    let requests = requests(seed, STREAM_REQUESTS, session.graph.num_nodes(), count);
    let schedule = poisson_schedule(seed, STREAM_SCHEDULE, count, RATE as f64);
    let setup_s = setup_s();
    let mut passes: Vec<Pass> =
        (0..ROUNDS).map(|_| session.run_round(&requests, &schedule)).collect();
    let digest = passes[0].digest();
    let faults: u64 = passes.iter().map(|p| p.io.faults).sum();
    // Every page was resident before the first round, so a fault is a wrong
    // set-up, not a measurement.
    let failed = passes[0].failed(&session, &requests)
        + passes[1..].iter().map(|p| p.refused + u64::from(p.digest() != digest)).sum::<u64>()
        + faults;
    let rounds: Vec<Round> = passes.iter_mut().map(|p| std::mem::take(&mut p.round)).collect();
    let mut timing = Timing::best_of(&rounds);
    session.server.shutdown();
    Outcome {
        attempted: (ROUNDS * count) as u64,
        failed,
        digest,
        metrics: timing.end_to_end(setup_s, LATENCY_LIMIT_MS),
        notes: timing.notes(LATENCY_LIMIT_MS),
    }
}

/// The traced run: one round against the plain server (the reference), one
/// against the observed server (telemetry's own cost), one against the
/// observed server behind span adapters (layer metrics).
pub fn run_traced(seed: u64, seconds: usize) -> Outcome {
    let count = round_requests(seconds);
    let schedule = poisson_schedule(seed, STREAM_SCHEDULE, count, RATE as f64);
    let mut failed = 0;

    let mut rounds = Vec::new();
    for mode in [Mode::Plain, Mode::Observed] {
        let session = Session::build(mode);
        let requests = requests(seed, STREAM_REQUESTS, session.graph.num_nodes(), count);
        let pass = session.run_round(&requests, &schedule);
        failed += pass.failed(&session, &requests);
        rounds.push(pass.round);
        session.server.shutdown();
    }

    let session = Session::build(Mode::Spans);
    let requests = &requests(seed, STREAM_REQUESTS, session.graph.num_nodes(), count);
    span::set_enabled(true);
    let pass = session.run_round(requests, &schedule);
    for served in &pass.served {
        let service_start = served.submit_ns + served.queue_wait_ns;
        let done = service_start + served.service_ns;
        span::record_tree(
            served.op as u32,
            (Name::Request, served.due_ns, done),
            &[
                (Name::Lateness, served.due_ns, served.submit_ns),
                (Name::QueueWait, served.submit_ns, service_start),
                (Name::Service, service_start, done),
            ],
        );
    }
    let snapshot_us = snapshot_us(&session.registry);
    failed += pass.failed(&session, requests);
    let Session { server, datagen_s, .. } = session;
    // Joining the workers hands their span buffers to the collector.
    server.shutdown();
    span::set_enabled(false);
    span::flush_thread();
    let threads = span::take_collected();

    let n = pass.served.len() as f64;
    let agg = span::merge(&threads);
    let topo = agg[Name::TopoVisit as usize];
    let store = agg[Name::StoreRead as usize];
    let service_ns: u64 = pass.served.iter().map(|s| s.service_ns).sum();
    let core_self_ns = service_ns.saturating_sub(topo.total_ns);
    let mut stats = QueryStats::default();
    let mut per_worker: HashMap<usize, u64> = HashMap::new();
    for served in &pass.served {
        stats += served.stats;
        *per_worker.entry(served.worker).or_default() += 1;
    }
    let per_query_ms = |algorithm: Algorithm| {
        let times: Vec<u64> = pass
            .served
            .iter()
            .filter(|s| requests[s.op].0.algorithm == algorithm)
            .map(|s| s.service_ns)
            .collect();
        ratio(times.iter().sum::<u64>() as f64 / 1e6, times.len() as f64)
    };
    let quantile_ms = |field: fn(&Served) -> u64, q: f64| {
        let mut samples: Vec<u64> = pass.served.iter().map(field).collect();
        ns_to_ms(percentile(&mut samples, q))
    };
    let (before, after) = (&pass.stats_before, &pass.stats_after);

    let mut metrics = Metrics::from([
        ("graph.visit_neighbors.ns_per_call", ratio(topo.total_ns as f64, topo.count as f64)),
        ("graph.visit_neighbors.calls_per_op", topo.count as f64 / n),
        ("core.eager.ms_per_query", per_query_ms(Algorithm::Eager)),
        ("core.lazy_ep.ms_per_query", per_query_ms(Algorithm::LazyExtendedPruning)),
        ("core.self_ms_per_op", core_self_ns as f64 / 1e6 / n),
        ("core.ns_per_settled_node", ratio(core_self_ns as f64, stats.total_settled() as f64)),
        ("core.nodes_settled_per_op", stats.nodes_settled as f64 / n),
        ("core.aux_settled_per_op", stats.auxiliary_settled as f64 / n),
        ("core.heap_pushes_per_op", stats.heap_pushes as f64 / n),
        ("core.verifications_per_op", stats.verifications as f64 / n),
        ("core.range_nn_per_op", stats.range_nn_queries as f64 / n),
        ("core.share_pct", 100.0 * ratio(core_self_ns as f64, service_ns as f64)),
        ("core.cache.hit_rate", after.cache.since(&before.cache).hit_rate()),
        ("storage.pool.accesses_per_op", pass.io.accesses as f64 / n),
        ("storage.pool.faults_per_op", pass.io.faults as f64 / n),
        ("storage.pool.evictions_per_op", pass.io.evictions as f64 / n),
        ("storage.pool.hit_rate", pass.io.hit_ratio()),
        (
            "storage.pool.self_ns_per_access",
            ratio((topo.total_ns - store.total_ns) as f64, pass.io.accesses as f64),
        ),
        ("storage.pool.shard_imbalance", imbalance(pass.shard_accesses.iter().copied())),
        ("storage.store.read_page_us", ratio(store.total_ns as f64 / 1e3, store.count as f64)),
        ("storage.store.reads_per_op", store.count as f64 / n),
        ("storage.share_pct", 100.0 * ratio(topo.total_ns as f64, service_ns as f64)),
        ("server.queue_wait_p50_ms", quantile_ms(|s| s.queue_wait_ns, 0.50)),
        ("server.queue_wait_p99_ms", quantile_ms(|s| s.queue_wait_ns, 0.99)),
        ("server.service_p50_ms", quantile_ms(|s| s.service_ns, 0.50)),
        ("server.service_p99_ms", quantile_ms(|s| s.service_ns, 0.99)),
        (
            "server.micro_batch_mean",
            ratio(
                (after.completed - before.completed) as f64,
                (after.micro_batches - before.micro_batches) as f64,
            ),
        ),
        ("server.worker_imbalance", imbalance(per_worker.values().copied())),
        ("server.generator_lateness_p99_ms", quantile_ms(|s| s.submit_ns - s.due_ns, 0.99)),
        ("obs.serving_overhead_pct", overhead_pct(&rounds[0], &rounds[1])),
        ("obs.snapshot_us", snapshot_us),
        ("datagen.graph_s", datagen_s),
        ("bench.trace_overhead_pct", overhead_pct(&rounds[0], &pass.round)),
        ("bench.traced_ops", n),
    ]);

    let rows = pass
        .served
        .iter()
        .map(|s| OpRow {
            op: s.op as u32,
            kind: Name::Request.as_str(),
            dur_ns: s.latency_ns(),
            layers: vec![
                ("server.generator_lateness", s.submit_ns - s.due_ns),
                ("server.queue_wait", s.queue_wait_ns),
                ("server.service", s.service_ns),
            ],
        })
        .collect();
    let service = pass
        .served
        .iter()
        .map(|s| ServiceInterval {
            worker: s.worker,
            start_ns: s.submit_ns + s.queue_wait_ns,
            end_ns: s.submit_ns + s.queue_wait_ns + s.service_ns,
            op: s.op as u32,
        })
        .collect();
    let file = TraceFile { workload: "serve-open", seed, threads, rows, service };
    let (path, spans_kept) = file.write();
    metrics.insert("bench.spans_kept", spans_kept as f64);

    Outcome {
        attempted: 3 * count as u64,
        failed,
        digest: pass.digest(),
        metrics,
        notes: vec![format!("span file: {}", path.display())],
    }
}
