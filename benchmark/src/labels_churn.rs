//! `labels-churn`: reads beside writes. A 2-worker `Server` with a
//! 4096-entry result cache answers closed-loop `submit_all` bursts of 32
//! hub-label requests over a BRITE topology while the point set churns:
//! after every 16th burst one `swap_points_delta` inserts 8 points, and
//! every 8th swap also removes the 64 inserted since the last removal, so
//! the point set is back where it started after every 128-burst cycle — and
//! every round, a whole number of cycles, replays the same work. No graph is
//! traversed and no page is read: the work is label decoding in `rnn-index`,
//! per-request overhead in `rnn-server`, and the result-cache sweep every
//! write causes.

use crate::inputs::{BriteWorld, SplitMix64, WORLD_SEED};
use crate::measure::{
    imbalance, overhead_pct, setup_s, snapshot_us, Metrics, Outcome, Round, RoundClock, Timing,
    ROUNDS,
};
use crate::span::{self, Name};
use crate::stats::{ns_to_ms, percentile, ratio, Digest};
use crate::tracefile::{OpRow, TraceFile};
use rnn_core::{run_rknn_with, Algorithm, Precomputed, Scratch};
use rnn_graph::{Graph, NodeId, NodePointSet, PointId, PointsOnNodes};
use rnn_index::HubLabelIndex;
use rnn_obs::MetricsRegistry;
use rnn_server::{PointUpdate, Request, Server, ServerConfig, World};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const BURST: usize = 32;
const BURSTS_PER_SWAP: usize = 16;
const INSERTS_PER_SWAP: usize = 8;
const SWAPS_PER_REMOVAL: usize = 8;
const REMOVES_PER_REMOVAL: usize = INSERTS_PER_SWAP * SWAPS_PER_REMOVAL;
/// Requests of one cycle, after which the point count is back where it was.
const CYCLE_REQUESTS: usize = BURST * BURSTS_PER_SWAP * SWAPS_PER_REMOVAL;
/// Cycles one second of `--seconds` buys on the reference box.
const CYCLES_PER_SECOND: usize = 4;
/// Half of all requests go to this many hot nodes, so the result cache has
/// something to hit between two sweeps.
const HOT_NODES: usize = 64;
/// Requests checked against eager after the first and after the last swap
/// (eager costs ~40 ms per query on this topology).
const CHECKED: usize = 50;
/// The limit behind `latency_within_limit`: a round number near the 90th
/// percentile of request latency on the reference box when the benchmark was
/// added.
const LATENCY_LIMIT_MS: f64 = 1.5;
/// Requests whose span trees are kept in the span file.
const KEPT_REQUESTS: usize = 2_000;

const STREAM_REQUESTS: u64 = 21;
const STREAM_UPDATES: u64 = 22;
const STREAM_WARMUP: u64 = 23;
const STREAM_PROBES: u64 = 24;

/// `(query node, k)`: k = 1, every fourth request k = 4.
type Query = (NodeId, usize);

fn queries(seed: u64, stream: u64, num_nodes: usize, count: usize) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed, stream);
    let hot: Vec<NodeId> = (0..HOT_NODES).map(|_| NodeId::new(rng.below(num_nodes))).collect();
    (0..count)
        .map(|i| {
            let node = if rng.below(2) == 0 {
                hot[rng.below(HOT_NODES)]
            } else {
                NodeId::new(rng.below(num_nodes))
            };
            (node, if i % 4 == 3 { 4 } else { 1 })
        })
        .collect()
}

/// The benchmark's own copy of the point set, from which it derives every
/// delta it sends and the full set the delta must reconcile with.
struct Mirror {
    /// The points of the world, which the script never removes.
    base: Vec<NodeId>,
    /// Points inserted since the last removal, in insertion order.
    inserted: Vec<NodeId>,
    is_occupied: Vec<bool>,
    rng: SplitMix64,
}

impl Mirror {
    /// Mirrors `points`; `seed` draws the update script.
    fn new(points: &NodePointSet, seed: u64) -> Self {
        let mut is_occupied = vec![false; points.num_graph_nodes()];
        for node in points.nodes() {
            is_occupied[node.index()] = true;
        }
        Mirror {
            base: points.nodes().to_vec(),
            inserted: Vec::with_capacity(REMOVES_PER_REMOVAL),
            is_occupied,
            rng: SplitMix64::new(seed, STREAM_UPDATES),
        }
    }

    /// Restarts the update script: called between rounds, when the point
    /// set is back at `base`, so the next round draws the same deltas.
    fn restart(&mut self, seed: u64) {
        assert!(self.inserted.is_empty(), "a round is a whole number of cycles");
        self.rng = SplitMix64::new(seed, STREAM_UPDATES);
    }

    fn point_set(&self) -> NodePointSet {
        NodePointSet::from_nodes(
            self.is_occupied.len(),
            self.base.iter().chain(&self.inserted).copied(),
        )
    }

    /// The next delta of the update script, applied to the mirror.
    fn next_updates(&mut self) -> Vec<PointUpdate> {
        let mut updates = Vec::with_capacity(INSERTS_PER_SWAP + REMOVES_PER_REMOVAL);
        for _ in 0..INSERTS_PER_SWAP {
            let node = loop {
                let node = self.rng.below(self.is_occupied.len());
                if !self.is_occupied[node] {
                    break NodeId::new(node);
                }
            };
            self.is_occupied[node.index()] = true;
            self.inserted.push(node);
            updates.push(PointUpdate::Insert(node));
        }
        if self.inserted.len() == REMOVES_PER_REMOVAL {
            for node in self.inserted.drain(..) {
                self.is_occupied[node.index()] = false;
                updates.push(PointUpdate::Remove(node));
            }
        }
        updates
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Mode {
    Plain,
    Observed,
}

fn build_index(world: &BriteWorld) -> (HubLabelIndex, f64) {
    let start = Instant::now();
    let index = HubLabelIndex::build_with_threads(&world.graph, &world.points, 2);
    (index, start.elapsed().as_secs_f64())
}

struct Session {
    graph: Arc<Graph>,
    server: Server,
    registry: MetricsRegistry,
    mirror: Mirror,
    seed: u64,
    /// The point set the server currently answers from.
    points: Arc<NodePointSet>,
}

impl Session {
    fn build(seed: u64) -> Session {
        let world = BriteWorld::generate();
        let (index, _) = build_index(&world);
        Session::start(world, Arc::new(index), Mode::Plain, seed)
    }

    /// Starts the server over `index` and serves one warm-up cycle (its
    /// queries from `WORLD_SEED`: set-up is the same at every seed). The
    /// server must be the index's only owner for `swap_points_delta` to
    /// update it in place; a caller that keeps its own handle (the traced
    /// run does, to reuse one build) pays one deep copy at the first swap.
    fn start(world: BriteWorld, index: Arc<HubLabelIndex>, mode: Mode, seed: u64) -> Session {
        let BriteWorld { graph, points } = world;
        let (graph, points) = (Arc::new(graph), Arc::new(points));
        let mirror = Mirror::new(&points, seed);
        let served_world = World::new(graph.clone(), points.clone()).with_hub_label_index(index);
        let config = ServerConfig::default().with_workers(2).with_result_cache(4096, 0);
        let registry = MetricsRegistry::new();
        let server = match mode {
            Mode::Plain => Server::start(served_world, config),
            Mode::Observed => {
                Server::start_observed(served_world, config.with_tracing(true), None, &registry)
            }
        };
        let mut session = Session { graph, server, registry, mirror, seed, points };
        let warmup = queries(WORLD_SEED, STREAM_WARMUP, session.graph.num_nodes(), CYCLE_REQUESTS);
        let pass = session.run_round(&warmup, false);
        assert_eq!(pass.refused, 0, "warm-up requests must all be served");
        session
    }

    /// One closed-loop round over `queries` (a whole number of cycles) with
    /// the update script, restarted, interleaved; every burst and every swap
    /// is a timing unit. It begins and ends on the world's own point set
    /// with an empty result cache (its last operation is a swap, which
    /// sweeps it), so every round over the same queries is the same work.
    /// `keep_spans` records request span trees (traced round).
    fn run_round(&mut self, queries: &[Query], keep_spans: bool) -> Pass {
        assert_eq!(queries.len() % CYCLE_REQUESTS, 0, "a round is a whole number of cycles");
        self.mirror.restart(self.seed);
        let bursts = queries.len() / BURST;
        let swaps = bursts / BURSTS_PER_SWAP;
        let stats_before = self.server.stats();
        let mut pass = Pass {
            round: Round::default(),
            served: Vec::with_capacity(queries.len()),
            swap_ns: Vec::with_capacity(swaps),
            refused: 0,
            digest: Digest::default(),
            checked_points: None,
            checked_results: Vec::with_capacity(CHECKED),
            micro_batch_mean: 0.0,
            cache_hit_rate: 0.0,
        };
        let mut latencies = Vec::with_capacity(queries.len() + swaps);
        let mut clock = RoundClock::start(bursts + swaps);
        for (b, burst) in queries.chunks_exact(BURST).enumerate() {
            let start = Instant::now();
            let requests: Vec<Request> =
                burst.iter().map(|&(q, k)| Request::new(Algorithm::HubLabel, q, k)).collect();
            let tickets = self.server.submit_all(&requests);
            for (request, ticket) in requests.iter().zip(tickets) {
                let Ok(answer) = ticket.and_then(|t| t.wait()) else {
                    pass.refused += 1;
                    continue;
                };
                let latency_ns = start.elapsed().as_nanos() as u64;
                latencies.push(latency_ns);
                pass.digest.result(&answer.outcome.points);
                if keep_spans && pass.served.len() < KEPT_REQUESTS {
                    let submit = span::ns_of(request.submit_instant);
                    let service = submit + answer.queue_wait.as_nanos() as u64;
                    let done = service + answer.service_time.as_nanos() as u64;
                    span::record_tree(
                        pass.served.len() as u32,
                        (Name::Request, span::ns_of(start), span::ns_of(start) + latency_ns),
                        &[(Name::QueueWait, submit, service), (Name::Service, service, done)],
                    );
                }
                if pass.checked_points.is_some() && pass.checked_results.len() < CHECKED {
                    pass.checked_results.push(answer.outcome.points);
                }
                pass.served.push(Served {
                    latency_ns,
                    queue_wait_ns: answer.queue_wait.as_nanos() as u64,
                    service_ns: answer.service_time.as_nanos() as u64,
                    worker: answer.worker as u8,
                });
            }
            clock.unit_done();
            if (b + 1) % BURSTS_PER_SWAP == 0 {
                let updates = self.mirror.next_updates();
                let points = Arc::new(self.mirror.point_set());
                let start = Instant::now();
                let applied = {
                    let _span = span::enter(Name::SwapDelta);
                    self.server.swap_points_delta(points.clone(), None, &updates)
                };
                let swap_ns = start.elapsed().as_nanos() as u64;
                latencies.push(swap_ns);
                pass.swap_ns.push(swap_ns);
                pass.refused += u64::from(!applied);
                pass.checked_points.get_or_insert_with(|| points.clone());
                self.points = points;
                clock.unit_done();
            }
        }
        pass.round = clock.finish(round_ops(queries.len()), latencies);
        let stats = self.server.stats();
        pass.micro_batch_mean = ratio(
            (stats.completed - stats_before.completed) as f64,
            (stats.micro_batches - stats_before.micro_batches) as f64,
        );
        pass.cache_hit_rate = stats.cache.since(&stats_before.cache).hit_rate();
        pass
    }

    /// Wrong answers among `results` for `queries` under `points`, against
    /// eager on the in-memory graph.
    fn count_wrong(
        &self,
        points: &NodePointSet,
        queries: &[Query],
        results: &[Vec<PointId>],
    ) -> u64 {
        let mut scratch = Scratch::new();
        let mut wrong = 0;
        for (&(query, k), result) in queries.iter().zip(results) {
            let expected = run_rknn_with(
                Algorithm::Eager,
                &*self.graph,
                points,
                Precomputed::none(),
                query,
                k,
                &mut scratch,
            );
            wrong += u64::from(expected.points != *result);
        }
        wrong
    }

    /// Operations of `passes` (rounds over `queries`) that failed: refused
    /// or errored ones, rounds that did not answer like the first, wrong
    /// answers among the `CHECKED` requests that followed the first swap of
    /// the first round, and wrong answers to `CHECKED` fresh requests now
    /// that the last swap has taken every inserted point out again.
    fn failed(&self, passes: &[Pass], queries: &[Query]) -> u64 {
        let first = &passes[0];
        let refused: u64 =
            passes.iter().map(|p| p.refused + u64::from(p.digest != first.digest)).sum();
        let after_first_swap = &queries[BURST * BURSTS_PER_SWAP..][..CHECKED];
        let before = self.count_wrong(
            first.checked_points.as_ref().expect("a round has a swap"),
            after_first_swap,
            &first.checked_results,
        );
        let fresh = &queries[queries.len() - CHECKED..];
        let requests: Vec<Request> =
            fresh.iter().map(|&(q, k)| Request::new(Algorithm::HubLabel, q, k)).collect();
        let mut lost = 0;
        let results: Vec<Vec<PointId>> = self
            .server
            .submit_all(&requests)
            .into_iter()
            .map(|ticket| match ticket.and_then(|t| t.wait()) {
                Ok(answer) => answer.outcome.points,
                Err(_) => {
                    lost += 1;
                    Vec::new()
                }
            })
            .collect();
        refused + before + lost + self.count_wrong(&self.points, fresh, &results)
    }
}

#[derive(Copy, Clone)]
struct Served {
    latency_ns: u64,
    queue_wait_ns: u64,
    service_ns: u64,
    worker: u8,
}

struct Pass {
    round: Round,
    served: Vec<Served>,
    swap_ns: Vec<u64>,
    refused: u64,
    digest: Digest,
    /// The point set after the round's first swap (the world's points plus
    /// eight), and the answers to the first `CHECKED` requests served on it.
    checked_points: Option<Arc<NodePointSet>>,
    checked_results: Vec<Vec<PointId>>,
    micro_batch_mean: f64,
    cache_hit_rate: f64,
}

/// Requests of one round: `seconds / ROUNDS` of quota, in whole cycles.
fn round_requests(seconds: usize) -> usize {
    CYCLE_REQUESTS * (CYCLES_PER_SECOND * seconds / ROUNDS)
}

/// Operations (requests and swaps) of a round over `requests` requests.
fn round_ops(requests: usize) -> u64 {
    (requests + requests / BURST / BURSTS_PER_SWAP) as u64
}

pub fn run(seed: u64, seconds: usize) -> Outcome {
    let mut session = Session::build(seed);
    let count = round_requests(seconds);
    let queries = queries(seed, STREAM_REQUESTS, session.graph.num_nodes(), count);
    let setup_s = setup_s();
    let mut passes: Vec<Pass> = (0..ROUNDS).map(|_| session.run_round(&queries, false)).collect();
    let failed = session.failed(&passes, &queries);
    session.server.shutdown();
    let rounds: Vec<Round> = passes.iter_mut().map(|p| std::mem::take(&mut p.round)).collect();
    let mut timing = Timing::best_of(&rounds);
    Outcome {
        attempted: ROUNDS as u64 * round_ops(count),
        failed,
        digest: passes[0].digest.value(),
        metrics: timing.end_to_end(setup_s, LATENCY_LIMIT_MS),
        notes: timing.notes(LATENCY_LIMIT_MS),
    }
}

/// Times the benchmark's own calls into the index before the server owns
/// it: `rknn_in` on random nodes, and insert/remove pairs on free nodes
/// (each pair leaves the index as it found it).
fn probe_index(seed: u64, index: &mut HubLabelIndex, points: &NodePointSet) -> Metrics {
    const QUERIES: usize = 2_000;
    const UPDATE_PAIRS: usize = 200;
    let mut rng = SplitMix64::new(seed, STREAM_PROBES);
    let mut scratch = Scratch::new();
    let (mut label_scans, mut bucket_scans) = (0u64, 0u64);
    for _ in 0..QUERIES {
        let query = NodeId::new(rng.below(index.num_nodes()));
        let _span = span::enter(Name::IndexRknn);
        let outcome = index.rknn_in(query, 1, &mut scratch);
        label_scans += outcome.stats.label_scans;
        bucket_scans += outcome.stats.bucket_scans;
    }
    let mut pairs = 0;
    while pairs < UPDATE_PAIRS {
        let node = NodeId::new(rng.below(index.num_nodes()));
        if points.point_at(node).is_some() {
            continue;
        }
        pairs += 1;
        {
            let _span = span::enter(Name::IndexUpdate);
            index.insert_point(node);
        }
        let _span = span::enter(Name::IndexUpdate);
        index.remove_point(node);
    }
    span::flush_thread();
    let agg = span::merge(&span::take_collected());
    let (rknn, update) = (agg[Name::IndexRknn as usize], agg[Name::IndexUpdate as usize]);
    Metrics::from([
        ("index.rknn.us_per_query", ratio(rknn.total_ns as f64 / 1e3, rknn.count as f64)),
        ("index.rknn.label_scans_per_op", label_scans as f64 / QUERIES as f64),
        ("index.rknn.bucket_scans_per_op", bucket_scans as f64 / QUERIES as f64),
        ("index.update.us_per_point", ratio(update.total_ns as f64 / 1e3, update.count as f64)),
    ])
}

/// The traced run: the index is built once and probed directly; then one
/// round goes to a plain server (the reference), one to an observed one
/// (telemetry's own cost) and one to an observed one with request spans
/// recorded (layer metrics).
pub fn run_traced(seed: u64, seconds: usize) -> Outcome {
    let start = Instant::now();
    let world = BriteWorld::generate();
    let datagen_s = start.elapsed().as_secs_f64();
    let (mut index, build_s) = build_index(&world);
    let label_stats = index.labeling().stats();
    span::set_enabled(true);
    let mut metrics = probe_index(seed, &mut index, &world.points);
    span::set_enabled(false);
    let index = Arc::new(index);

    let count = round_requests(seconds);
    let queries = queries(seed, STREAM_REQUESTS, world.graph.num_nodes(), count);
    let mut failed = 0;

    let mut rounds = Vec::new();
    for mode in [Mode::Plain, Mode::Observed] {
        let mut session = Session::start(BriteWorld::generate(), index.clone(), mode, seed);
        let pass = session.run_round(&queries, false);
        failed += session.failed(std::slice::from_ref(&pass), &queries);
        rounds.push(pass.round);
        session.server.shutdown();
    }

    let mut session = Session::start(world, index, Mode::Observed, seed);
    span::set_enabled(true);
    let pass = session.run_round(&queries, true);
    let snapshot_us = snapshot_us(&session.registry);
    span::set_enabled(false);
    span::flush_thread();
    let threads = span::take_collected();
    failed += session.failed(std::slice::from_ref(&pass), &queries);
    session.server.shutdown();

    let n = pass.served.len() as f64;
    let quantile_ms = |field: fn(&Served) -> u64, q: f64| {
        let mut samples: Vec<u64> = pass.served.iter().map(field).collect();
        ns_to_ms(percentile(&mut samples, q))
    };
    let overhead_ns: u64 = pass
        .served
        .iter()
        .map(|s| s.latency_ns.saturating_sub(s.queue_wait_ns + s.service_ns))
        .sum();
    let mut per_worker: HashMap<u8, u64> = HashMap::new();
    for served in &pass.served {
        *per_worker.entry(served.worker).or_default() += 1;
    }
    let mut swap_ns = pass.swap_ns.clone();
    metrics.extend([
        ("index.build_s", build_s),
        ("index.label_mb", label_stats.label_bytes() as f64 / 1e6),
        ("index.avg_label_len", label_stats.avg_label()),
        ("core.cache.hit_rate", pass.cache_hit_rate),
        ("server.queue_wait_p50_ms", quantile_ms(|s| s.queue_wait_ns, 0.50)),
        ("server.queue_wait_p99_ms", quantile_ms(|s| s.queue_wait_ns, 0.99)),
        ("server.service_p50_ms", quantile_ms(|s| s.service_ns, 0.50)),
        ("server.service_p99_ms", quantile_ms(|s| s.service_ns, 0.99)),
        ("server.overhead_us_per_op", overhead_ns as f64 / 1e3 / n),
        ("server.micro_batch_mean", pass.micro_batch_mean),
        ("server.worker_imbalance", imbalance(per_worker.values().copied())),
        ("server.swap_delta_p50_ms", ns_to_ms(percentile(&mut swap_ns, 0.50))),
        ("server.swap_delta_p99_ms", ns_to_ms(percentile(&mut swap_ns, 0.99))),
        ("obs.serving_overhead_pct", overhead_pct(&rounds[0], &rounds[1])),
        ("obs.snapshot_us", snapshot_us),
        ("datagen.graph_s", datagen_s),
        ("bench.trace_overhead_pct", overhead_pct(&rounds[0], &pass.round)),
        ("bench.traced_ops", pass.round.ops as f64),
    ]);

    let rows = pass
        .served
        .iter()
        .enumerate()
        .map(|(i, s)| OpRow {
            op: i as u32,
            kind: Name::Request.as_str(),
            dur_ns: s.latency_ns,
            layers: vec![
                ("server.queue_wait", s.queue_wait_ns),
                ("server.service", s.service_ns),
                ("server.overhead", s.latency_ns.saturating_sub(s.queue_wait_ns + s.service_ns)),
            ],
        })
        .collect();
    let file = TraceFile { workload: "labels-churn", seed, threads, rows, service: Vec::new() };
    let (path, spans_kept) = file.write();
    metrics.insert("bench.spans_kept", spans_kept as f64);

    Outcome {
        attempted: 3 * round_ops(count),
        failed,
        digest: pass.digest.value(),
        metrics,
        notes: vec![format!("span file: {}", path.display())],
    }
}
