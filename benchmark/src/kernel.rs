//! `mem-kernel` and `paged-cold`: one thread calling `run_rknn_with` in a
//! closed loop, on the in-memory graph or through the page file behind the
//! paper's 256-page pool. Same code, same query mix; only the topology
//! differs — so the difference between the two workloads *is* the storage
//! layer.

use crate::inputs::{kernel_ops, GridWorld, Op, WORLD_SEED};
use crate::measure::{
    build_paged, imbalance, overhead_pct, setup_s, Metrics, Outcome, PageFile, Paged, Round,
    RoundClock, Timing, ROUNDS,
};
use crate::span::{self, Name, OpCost, SpanTopology};
use crate::stats::{ratio, Digest};
use crate::tracefile::{OpRow, TraceFile};
use rnn_core::{run_rknn_with, Algorithm, Precomputed, QueryStats, Scratch};
use rnn_graph::{Graph, NodeId, NodePointSet, PointId, Topology};
use rnn_storage::{BufferPoolConfig, IoStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    Memory,
    PagedCold,
}

impl Backend {
    /// `(eager and lazy-EP, lazy)` queries one second of `--seconds` buys on
    /// the reference box. Lazy settles ~46 000 nodes per query at this scale
    /// (eager: 137 plus 16 000 auxiliary), so it runs at a twentieth of the
    /// count or it would be the whole workload.
    fn quota(self) -> (usize, usize) {
        match self {
            Backend::Memory => (190, 10),
            Backend::PagedCold => (63, 4),
        }
    }

    /// The operation list of one round: `seconds / ROUNDS` of quota.
    fn ops(self, seed: u64, stream: u64, num_nodes: usize, seconds: usize) -> Vec<Op> {
        let (eager, lazy) = self.quota();
        kernel_ops(seed, stream, num_nodes, eager * seconds / ROUNDS, lazy * seconds / ROUNDS)
    }

    /// The limit behind `latency_within_limit`: a round number near the
    /// workload's 90th percentile on the reference box when the benchmark was
    /// added.
    fn latency_limit_ms(self) -> f64 {
        match self {
            Backend::Memory => 5.0,
            Backend::PagedCold => 12.0,
        }
    }

    fn workload(self) -> &'static str {
        match self {
            Backend::Memory => "mem-kernel",
            Backend::PagedCold => "paged-cold",
        }
    }
}

/// Sub-streams of the seed.
const STREAM_OPS: u64 = 1;
const STREAM_WARMUP: u64 = 2;

/// Full span trees kept per algorithm (one lazy query alone is ~100 000
/// spans).
fn keep_quota(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::Eager => 2,
        Algorithm::LazyExtendedPruning => 4,
        _ => 1,
    }
}

fn span_name(algorithm: Algorithm) -> Name {
    match algorithm {
        Algorithm::Eager => Name::CoreEager,
        Algorithm::LazyExtendedPruning => Name::CoreLazyEp,
        _ => Name::CoreLazy,
    }
}

/// Everything built before the first measured operation.
struct Session {
    graph: Arc<Graph>,
    points: NodePointSet,
    paged: Option<(Arc<Paged>, PageFile)>,
    /// What the queries run against: the graph, the paged graph, or either
    /// behind a [`SpanTopology`].
    topo: Arc<dyn Topology + Send + Sync>,
    scratch: Scratch,
    datagen_s: f64,
}

impl Session {
    fn build(backend: Backend, traced: bool) -> Session {
        let start = Instant::now();
        let GridWorld { graph, points } = GridWorld::generate();
        let datagen_s = start.elapsed().as_secs_f64();
        let graph = Arc::new(graph);
        let paged = (backend == Backend::PagedCold)
            .then(|| build_paged(&graph, BufferPoolConfig::paper_default()));
        let base: Arc<dyn Topology + Send + Sync> = match &paged {
            Some((paged, _)) => paged.clone(),
            None => graph.clone(),
        };
        let topo = if traced { Arc::new(SpanTopology::new(base)) } else { base };
        let mut session =
            Session { graph, points, paged, topo, scratch: Scratch::new(), datagen_s };
        // One second's quota of other queries: fills the CPU caches, the
        // scratch buffers and the page pool before anything is timed.
        let warmup = backend.ops(WORLD_SEED, STREAM_WARMUP, session.graph.num_nodes(), ROUNDS);
        session.run_round(&warmup);
        session
    }

    /// One pass over `ops`. The paged backend starts it from an empty pool
    /// with zeroed counters, so every pass over a list is the same work.
    fn run_round(&mut self, ops: &[Op]) -> Pass {
        if let Some((paged, _)) = &self.paged {
            paged.cold_start();
        }
        let mut pass = Pass {
            results: Vec::with_capacity(ops.len()),
            costs: Vec::with_capacity(ops.len()),
            ..Pass::default()
        };
        let mut latencies = Vec::with_capacity(ops.len());
        let mut kept: HashMap<Algorithm, usize> = HashMap::new();
        let mut clock = RoundClock::start(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let keep = {
                let seen = kept.entry(op.algorithm).or_default();
                *seen += 1;
                *seen <= keep_quota(op.algorithm)
            };
            let (outcome, cost) = span::in_op(span_name(op.algorithm), i as u32, keep, || {
                run_rknn_with(
                    op.algorithm,
                    &*self.topo,
                    &self.points,
                    Precomputed::none(),
                    op.query,
                    1,
                    &mut self.scratch,
                )
            });
            latencies.push(clock.unit_done());
            pass.stats += outcome.stats;
            pass.results.push(outcome.points);
            pass.costs.push(cost);
        }
        pass.round = clock.finish(ops.len() as u64, latencies);
        if let Some((paged, _)) = &self.paged {
            pass.io = paged.io_stats();
            pass.shard_accesses =
                paged.pool_stats().per_shard.iter().map(|shard| shard.accesses()).collect();
        }
        pass
    }
}

/// What one pass over an operation list produced.
#[derive(Default)]
struct Pass {
    round: Round,
    results: Vec<Vec<PointId>>,
    stats: QueryStats,
    costs: Vec<OpCost>,
    io: IoStats,
    shard_accesses: Vec<u64>,
}

impl Pass {
    fn digest(&self) -> u64 {
        let mut digest = Digest::default();
        for result in &self.results {
            digest.result(result);
        }
        digest.value()
    }
}

/// Counts operations whose answer is wrong: lazy-EP and lazy must equal
/// eager on the same query, and on the paged backend eager must equal eager
/// on the in-memory graph.
fn count_wrong(session: &mut Session, ops: &[Op], results: &[Vec<PointId>]) -> u64 {
    let mut eager: HashMap<NodeId, &Vec<PointId>> = HashMap::new();
    for (op, result) in ops.iter().zip(results) {
        if op.algorithm == Algorithm::Eager {
            eager.entry(op.query).or_insert(result);
        }
    }
    let mut wrong = 0;
    for (op, result) in ops.iter().zip(results) {
        let expected = eager.get(&op.query).expect("every query node has an eager op");
        if op.algorithm != Algorithm::Eager && result != *expected {
            wrong += 1;
        }
    }
    if session.paged.is_some() {
        for (op, result) in ops.iter().zip(results) {
            if op.algorithm != Algorithm::Eager {
                continue;
            }
            let reference = run_rknn_with(
                Algorithm::Eager,
                &*session.graph,
                &session.points,
                Precomputed::none(),
                op.query,
                1,
                &mut session.scratch,
            );
            if reference.points != *result {
                wrong += 1;
            }
        }
    }
    wrong
}

/// The untraced run: end-to-end metrics.
pub fn run(backend: Backend, seed: u64, seconds: usize) -> Outcome {
    let mut session = Session::build(backend, false);
    let ops = backend.ops(seed, STREAM_OPS, session.graph.num_nodes(), seconds);
    let setup_s = setup_s();
    let mut passes: Vec<Pass> = (0..ROUNDS).map(|_| session.run_round(&ops)).collect();
    let (digest, faults) = (passes[0].digest(), passes[0].io.faults);
    // Every round replays the same list from the same state, so it must
    // answer the same and fault exactly as often.
    let unequal_rounds =
        passes.iter().filter(|p| p.digest() != digest || p.io.faults != faults).count() as u64;
    let failed = count_wrong(&mut session, &ops, &passes[0].results) + unequal_rounds;
    let rounds: Vec<Round> = passes.iter_mut().map(|p| std::mem::take(&mut p.round)).collect();
    let mut timing = Timing::best_of(&rounds);
    let limit_ms = backend.latency_limit_ms();
    let mut notes = timing.notes(limit_ms);
    if backend == Backend::PagedCold {
        let per_op = faults as f64 / ops.len() as f64;
        notes
            .push(format!("page_faults_per_op={per_op} (pool demand faults; same in every round)"));
    }
    Outcome {
        attempted: (ROUNDS * ops.len()) as u64,
        failed,
        digest,
        metrics: timing.end_to_end(setup_s, limit_ms),
        notes,
    }
}

/// The traced run: the round's operation list once with recording off (the
/// reference) and once with it on; per-layer metrics from the second.
pub fn run_traced(backend: Backend, seed: u64, seconds: usize) -> Outcome {
    let mut session = Session::build(backend, true);
    let ops = backend.ops(seed, STREAM_OPS, session.graph.num_nodes(), seconds);

    let reference = session.run_round(&ops);
    span::set_enabled(true);
    let traced = session.run_round(&ops);
    span::set_enabled(false);
    span::flush_thread();
    let threads = span::take_collected();

    let mut failed = count_wrong(&mut session, &ops, &traced.results);
    if reference.digest() != traced.digest() {
        failed += 1;
    }

    let n = ops.len() as f64;
    let agg = span::merge(&threads);
    let topo = agg[Name::TopoVisit as usize];
    let store = agg[Name::StoreRead as usize];
    let op_ns: u64 = traced.costs.iter().map(|c| c.dur_ns).sum();
    let core_self_ns: u64 = traced.costs.iter().map(|c| c.core_self_ns()).sum();
    let topo_self_ns: u64 = traced.costs.iter().map(|c| c.topo_self_ns()).sum();
    let per_query_ms = |algorithm: Algorithm| {
        let a = agg[span_name(algorithm) as usize];
        ratio(a.total_ns as f64 / 1e6, a.count as f64)
    };
    let stats = traced.stats;
    let paged = backend == Backend::PagedCold;
    // On the paged backend the topology span *is* the pool (lookup, miss
    // handling, page decode) and belongs to storage; in memory it is the CSR
    // walk of rnn-graph.
    let (graph_ns, storage_ns) = if paged { (0, topo.total_ns) } else { (topo.total_ns, 0) };

    let mut metrics = Metrics::from([
        ("graph.visit_neighbors.ns_per_call", ratio(topo.total_ns as f64, topo.count as f64)),
        ("graph.visit_neighbors.calls_per_op", topo.count as f64 / n),
        ("core.eager.ms_per_query", per_query_ms(Algorithm::Eager)),
        ("core.lazy_ep.ms_per_query", per_query_ms(Algorithm::LazyExtendedPruning)),
        ("core.lazy.ms_per_query", per_query_ms(Algorithm::Lazy)),
        ("core.self_ms_per_op", core_self_ns as f64 / 1e6 / n),
        ("core.ns_per_settled_node", ratio(core_self_ns as f64, stats.total_settled() as f64)),
        ("core.nodes_settled_per_op", stats.nodes_settled as f64 / n),
        ("core.aux_settled_per_op", stats.auxiliary_settled as f64 / n),
        ("core.heap_pushes_per_op", stats.heap_pushes as f64 / n),
        ("core.verifications_per_op", stats.verifications as f64 / n),
        ("core.range_nn_per_op", stats.range_nn_queries as f64 / n),
        ("core.share_pct", 100.0 * ratio(core_self_ns as f64, op_ns as f64)),
        ("graph.share_pct", 100.0 * ratio(graph_ns as f64, op_ns as f64)),
        ("storage.share_pct", 100.0 * ratio(storage_ns as f64, op_ns as f64)),
        ("datagen.graph_s", session.datagen_s),
        ("bench.trace_overhead_pct", overhead_pct(&reference.round, &traced.round)),
        ("bench.traced_ops", n),
    ]);
    if paged {
        let io = traced.io;
        metrics.extend([
            ("storage.pool.accesses_per_op", io.accesses as f64 / n),
            ("storage.pool.faults_per_op", io.faults as f64 / n),
            ("storage.pool.evictions_per_op", io.evictions as f64 / n),
            ("storage.pool.hit_rate", io.hit_ratio()),
            ("storage.pool.self_ns_per_access", ratio(topo_self_ns as f64, io.accesses as f64)),
            ("storage.pool.shard_imbalance", imbalance(traced.shard_accesses.iter().copied())),
            ("storage.store.read_page_us", ratio(store.total_ns as f64 / 1e3, store.count as f64)),
            ("storage.store.reads_per_op", store.count as f64 / n),
        ]);
    }

    let rows = ops
        .iter()
        .zip(&traced.costs)
        .enumerate()
        .map(|(i, (op, cost))| OpRow {
            op: i as u32,
            kind: span_name(op.algorithm).as_str(),
            dur_ns: cost.dur_ns,
            layers: vec![
                ("core", cost.core_self_ns()),
                (if paged { "storage.pool" } else { "graph" }, cost.topo_self_ns()),
                ("storage.store", cost.store_ns),
            ],
        })
        .collect();
    let file = TraceFile { workload: backend.workload(), seed, threads, rows, service: Vec::new() };
    let (path, spans_kept) = file.write();
    metrics.insert("bench.spans_kept", spans_kept as f64);

    Outcome {
        attempted: 2 * ops.len() as u64,
        failed,
        digest: traced.digest(),
        metrics,
        notes: vec![format!("span file: {}", path.display())],
    }
}
