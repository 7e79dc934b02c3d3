//! Per-query phase tracing.
//!
//! A latency histogram says a query was slow; a [`QueryTrace`] says *where*
//! the time went. Each algorithm's work decomposes into a small fixed set of
//! [`Phase`]s — the traversal family (eager, eager-M, lazy, lazy-EP, naive)
//! splits into expansion / range-NN probes / verification, the hub-label
//! algorithm into candidate generation / counting — and the trace records
//! per phase the wall time, the number of spans and an algorithm-specific
//! work counter (nodes settled, bucket entries scanned, ...).
//!
//! The [`Tracer`] is embedded in `rnn-core`'s `Scratch` arena: a fixed-size
//! value, no allocation, owned by exactly one worker. Instrumentation points
//! call [`Tracer::begin`] / [`Tracer::end`] around a phase; when no trace is
//! active both are a branch on a `None` — the steady-state cost of compiled-
//! in tracing is one predictable branch per span, which is what keeps the
//! traced serving path within the <5% overhead budget the `obs-overhead`
//! experiment asserts.
//!
//! Aggregation: a [`TraceRecorder`] folds finished traces into
//! algorithm×phase counters of a [`MetricsRegistry`]
//! through wait-free pre-resolved handles (no name lookup per query).

use crate::registry::{Counter, Histogram, MetricsRegistry};
use std::sync::Mutex;
use std::time::Instant;

/// Locks ignoring poison: telemetry must not cascade a panicking recorder
/// into every thread that shares the structure.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A phase of query execution. The first three belong to the traversal
/// algorithms, the last two to the hub-label algorithm; every phase of every
/// algorithm maps to exactly one variant so registry aggregation is a dense
/// `algorithm x phase` table.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Main network expansion: de-heaping and expanding nodes around the
    /// query (for the traversal family this is the residual service time
    /// not attributed to the probe phases below).
    Expansion,
    /// Range-NN probes: the Lemma-1 check around a settled node.
    RangeNn,
    /// Verification queries: the per-candidate k-NN check.
    Verification,
    /// Hub-label candidate generation: folding the query label's hub buckets
    /// into per-node distance minima.
    CandidateGen,
    /// Hub-label counting: scanning candidate labels' bucket prefixes for
    /// strictly closer points.
    Counting,
}

impl Phase {
    /// Every phase, in [`Phase::index`] order.
    pub const ALL: [Phase; 5] = [
        Phase::Expansion,
        Phase::RangeNn,
        Phase::Verification,
        Phase::CandidateGen,
        Phase::Counting,
    ];

    /// Number of phases (the length of the per-trace phase array).
    pub const COUNT: usize = Self::ALL.len();

    /// Position of this phase in [`Phase::ALL`] and in
    /// [`QueryTrace::phases`].
    pub fn index(self) -> usize {
        match self {
            Phase::Expansion => 0,
            Phase::RangeNn => 1,
            Phase::Verification => 2,
            Phase::CandidateGen => 3,
            Phase::Counting => 4,
        }
    }

    /// Lower-snake-case name, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Expansion => "expansion",
            Phase::RangeNn => "range_nn",
            Phase::Verification => "verification",
            Phase::CandidateGen => "candidate_gen",
            Phase::Counting => "counting",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated cost of one phase within one query.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Wall time spent in the phase, nanoseconds.
    pub nanos: u64,
    /// Number of spans (e.g. individual range-NN probes) folded in.
    pub calls: u64,
    /// Algorithm-specific work units (nodes settled, label entries or
    /// bucket entries scanned, ...).
    pub work: u64,
}

/// One query's complete trace: identity, end-to-end latency split, and the
/// per-phase breakdown. `Copy` and fixed-size so traces move through the
/// serving path without allocation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// The algorithm's display name (`"eager"`, `"hub-label"`, ...).
    pub algorithm: &'static str,
    /// The query node's index.
    pub query: u64,
    /// The `k` of the RkNN query.
    pub k: u32,
    /// Submit-to-dequeue wait, nanoseconds (0 outside a server).
    pub queue_wait_nanos: u64,
    /// Dequeue-to-completion service time, nanoseconds.
    pub service_nanos: u64,
    /// Service start on the owning process's monotonic timeline, nanoseconds
    /// (0 when unstamped). The server stamps this so the Chrome-trace
    /// exporter ([`crate::export::chrome_trace`]) can place the queue-wait
    /// and phase spans on a shared timeline.
    pub start_nanos: u64,
    /// Index of the worker that served the query (one exporter track per
    /// worker; 0 when unstamped).
    pub worker: u32,
    /// Per-phase breakdown, indexed by [`Phase::index`].
    pub phases: [PhaseRecord; Phase::COUNT],
}

impl Default for QueryTrace {
    fn default() -> Self {
        QueryTrace {
            algorithm: "",
            query: 0,
            k: 0,
            queue_wait_nanos: 0,
            service_nanos: 0,
            start_nanos: 0,
            worker: 0,
            phases: [PhaseRecord::default(); Phase::COUNT],
        }
    }
}

impl QueryTrace {
    /// The record of `phase`.
    pub fn phase(&self, phase: Phase) -> &PhaseRecord {
        &self.phases[phase.index()]
    }

    /// Nanoseconds attributed to phases (at most `service_nanos` once the
    /// trace is finished).
    pub fn phase_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }
}

/// A running phase span, returned by [`Tracer::begin`]. `None` inside when
/// no trace is active — ending such a timer is a no-op, so instrumentation
/// points need no enabled-checks of their own.
#[derive(Copy, Clone, Debug)]
pub struct PhaseTimer(Option<Instant>);

/// The per-worker trace collector, embedded in `rnn-core`'s `Scratch`.
///
/// Inactive (the default) it records nothing and costs one branch per
/// instrumentation point. A tracing server worker activates it per query
/// with [`Tracer::start`]; the algorithms mark phases with [`Tracer::begin`] /
/// [`Tracer::end`]; [`Tracer::finish`] closes the query, attributing
/// untimed residual service time to the query's designated remainder phase,
/// and parks the trace for [`Tracer::take_completed`].
#[derive(Debug, Default)]
pub struct Tracer {
    started: Option<Instant>,
    remainder: Option<Phase>,
    trace: QueryTrace,
    completed: Option<QueryTrace>,
}

impl Tracer {
    /// An inactive tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Returns `true` while a query trace is being collected.
    pub fn is_active(&self) -> bool {
        self.started.is_some()
    }

    /// Opens a trace for one query. `remainder` names the phase that
    /// absorbs service time not covered by explicit spans (the expansion
    /// phase for traversal algorithms; `None` drops the residual).
    pub fn start(&mut self, algorithm: &'static str, query: u64, k: u32, remainder: Option<Phase>) {
        self.trace = QueryTrace { algorithm, query, k, ..QueryTrace::default() };
        self.remainder = remainder;
        self.completed = None;
        self.started = Some(Instant::now());
    }

    /// Starts timing a phase span. Reads the clock only while a trace is
    /// active.
    #[inline]
    pub fn begin(&self) -> PhaseTimer {
        PhaseTimer(if self.started.is_some() { Some(Instant::now()) } else { None })
    }

    /// Ends a phase span, folding its wall time plus `work` units into the
    /// phase. No-op for a timer begun outside an active trace.
    #[inline]
    pub fn end(&mut self, phase: Phase, timer: PhaseTimer, work: u64) {
        if let Some(t0) = timer.0 {
            let rec = &mut self.trace.phases[phase.index()];
            rec.nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.calls += 1;
            rec.work += work;
        }
    }

    /// Adds work units to a phase without timing (e.g. nodes settled by the
    /// main expansion, which is timed as the remainder).
    #[inline]
    pub fn add_work(&mut self, phase: Phase, work: u64) {
        if self.started.is_some() {
            self.trace.phases[phase.index()].work += work;
        }
    }

    /// Closes the active trace: stamps `service_nanos` with the total time
    /// since [`Tracer::start`], attributes the untimed residual to the
    /// remainder phase, and parks the trace for
    /// [`Tracer::take_completed`]. No-op when inactive.
    pub fn finish(&mut self) {
        if let Some(t0) = self.started.take() {
            let total = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.trace.service_nanos = total;
            if let Some(phase) = self.remainder {
                let timed = self.trace.phase_nanos();
                let rec = &mut self.trace.phases[phase.index()];
                rec.nanos += total.saturating_sub(timed);
                rec.calls += 1;
            }
            self.completed = Some(self.trace);
        }
    }

    /// Takes the last finished trace, leaving `None`.
    pub fn take_completed(&mut self) -> Option<QueryTrace> {
        self.completed.take()
    }
}

struct PhaseCells {
    nanos: Counter,
    calls: Counter,
    work: Counter,
}

struct AlgoCells {
    queries: Counter,
    service: Histogram,
    phases: Vec<PhaseCells>,
}

/// Pre-resolved registry handles for folding finished traces into
/// `algorithm x phase` aggregates without any per-query name lookup.
///
/// Registers, per algorithm `A` and phase `P`:
/// `rnn_trace_queries_total{algorithm="A"}`,
/// `rnn_trace_service_nanos{algorithm="A"}` (a histogram), and
/// `rnn_trace_phase_{nanos,calls,work}_total{algorithm="A",phase="P"}`.
pub struct TraceRecorder {
    algos: Vec<AlgoCells>,
}

impl TraceRecorder {
    /// Creates the dense counter table for `algorithms` (display names, in
    /// the caller's canonical index order) in `registry`.
    pub fn new(registry: &MetricsRegistry, algorithms: &[&str]) -> Self {
        let algos = algorithms
            .iter()
            .map(|a| AlgoCells {
                queries: registry.counter(&format!("rnn_trace_queries_total{{algorithm=\"{a}\"}}")),
                service: registry
                    .histogram(&format!("rnn_trace_service_nanos{{algorithm=\"{a}\"}}")),
                phases: Phase::ALL
                    .iter()
                    .map(|p| PhaseCells {
                        nanos: registry.counter(&format!(
                            "rnn_trace_phase_nanos_total{{algorithm=\"{a}\",phase=\"{p}\"}}"
                        )),
                        calls: registry.counter(&format!(
                            "rnn_trace_phase_calls_total{{algorithm=\"{a}\",phase=\"{p}\"}}"
                        )),
                        work: registry.counter(&format!(
                            "rnn_trace_phase_work_total{{algorithm=\"{a}\",phase=\"{p}\"}}"
                        )),
                    })
                    .collect(),
            })
            .collect();
        TraceRecorder { algos }
    }

    /// Number of algorithm slots.
    pub fn algorithms(&self) -> usize {
        self.algos.len()
    }

    /// Folds one finished trace into the aggregates. `algo_index` must be
    /// the index `algorithms` was passed in with. Wait-free.
    pub fn record(&self, algo_index: usize, trace: &QueryTrace) {
        let cells = &self.algos[algo_index];
        cells.queries.inc();
        cells.service.record_nanos(trace.service_nanos);
        for (phase, rec) in Phase::ALL.iter().zip(&trace.phases) {
            if rec.calls == 0 && rec.work == 0 {
                continue;
            }
            let c = &cells.phases[phase.index()];
            c.nanos.add(rec.nanos);
            c.calls.add(rec.calls);
            c.work.add(rec.work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::COUNT, 5);
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT, "phase names are unique");
    }

    #[test]
    fn inactive_tracer_is_a_no_op() {
        let mut t = Tracer::new();
        assert!(!t.is_active());
        let timer = t.begin();
        t.end(Phase::RangeNn, timer, 10);
        t.add_work(Phase::Expansion, 5);
        t.finish();
        assert!(t.take_completed().is_none());
    }

    #[test]
    fn trace_collects_phases_and_remainder() {
        let mut t = Tracer::new();
        t.start("eager", 42, 2, Some(Phase::Expansion));
        assert!(t.is_active());
        let timer = t.begin();
        std::thread::sleep(Duration::from_millis(2));
        t.end(Phase::RangeNn, timer, 7);
        t.add_work(Phase::Expansion, 3);
        std::thread::sleep(Duration::from_millis(1));
        t.finish();
        assert!(!t.is_active());
        let trace = t.take_completed().expect("finished trace");
        assert!(t.take_completed().is_none(), "taken once");
        assert_eq!(trace.algorithm, "eager");
        assert_eq!(trace.query, 42);
        assert_eq!(trace.k, 2);
        let probe = trace.phase(Phase::RangeNn);
        assert_eq!((probe.calls, probe.work), (1, 7));
        assert!(probe.nanos >= 1_000_000, "slept 2ms inside the span");
        let exp = trace.phase(Phase::Expansion);
        assert_eq!(exp.work, 3);
        assert!(exp.nanos > 0, "remainder time lands on expansion");
        assert!(trace.service_nanos >= trace.phase_nanos());
    }

    #[test]
    fn starting_anew_discards_the_previous_query() {
        let mut t = Tracer::new();
        t.start("lazy", 1, 1, None);
        t.add_work(Phase::Verification, 9);
        // Never finished — e.g. the algorithm panicked and the worker reused
        // the scratch. The next query must not inherit its phases.
        t.start("naive", 2, 1, None);
        t.finish();
        let trace = t.take_completed().unwrap();
        assert_eq!(trace.algorithm, "naive");
        assert_eq!(trace.phase(Phase::Verification).work, 0);
    }

    #[test]
    fn recorder_aggregates_per_algorithm_and_phase() {
        let reg = MetricsRegistry::new();
        let rec = TraceRecorder::new(&reg, &["eager", "hub-label"]);
        assert_eq!(rec.algorithms(), 2);
        let mut trace = QueryTrace { algorithm: "eager", service_nanos: 500, ..Default::default() };
        trace.phases[Phase::RangeNn.index()] = PhaseRecord { nanos: 300, calls: 4, work: 11 };
        rec.record(0, &trace);
        rec.record(0, &trace);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("rnn_trace_phase_work_total{algorithm=\"eager\",phase=\"range_nn\"}"),
            Some(22)
        );
        assert_eq!(
            snap.counter("rnn_trace_phase_calls_total{algorithm=\"eager\",phase=\"range_nn\"}"),
            Some(8)
        );
        assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"eager\"}"), Some(2));
        assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"hub-label\"}"), Some(0));
        let service = snap.histogram("rnn_trace_service_nanos{algorithm=\"eager\"}").unwrap();
        assert_eq!(service.count(), 2);
    }
}
