//! Observability for the RkNN workspace: one place to record, aggregate and
//! export what every other layer measures.
//!
//! Before this crate the system had disconnected telemetry islands — the
//! server's `ServerStats`, the storage layer's I/O counters and the
//! per-query `QueryStats` — none of which could answer "why was *this*
//! query slow?" or be scraped as one snapshot.
//! This crate unifies them:
//!
//! * [`MetricsRegistry`] — named counters, gauges
//!   and histograms with wait-free record paths (striped relaxed atomics),
//!   plus pollable *sources* through which the server, buffer pool and
//!   hub-label index contribute their own internally consistent counter
//!   groups. One [`snapshot`](registry::MetricsRegistry::snapshot) replaces
//!   ad-hoc polling of each API.
//! * [`LatencyHistogram`] — the fixed-bucket
//!   log-scale latency distribution (moved here from `rnn-server` so every
//!   layer can use it), now with an exact minimum, p99.9 and zero-copy
//!   bucket iteration for exporters.
//! * [`QueryTrace`] / [`Tracer`] — a
//!   lightweight per-query span record capturing queue wait, service time
//!   and per-phase timings + work counters (expansion vs. range-NN vs.
//!   verification for the traversal algorithms, candidate generation vs.
//!   counting for hub-label). The tracer lives in `rnn-core`'s `Scratch`
//!   arena, so the steady state stays allocation-free and tracing off costs
//!   one branch per instrumentation point.
//! * [`SlowQueryLog`] — a fixed-capacity record of
//!   the N worst traces by service time plus 1-in-M uniform samples from a
//!   seeded deterministic sampler; the common case (fast, unsampled query)
//!   never takes its lock.
//! * [`FlightRecorder`] — a fixed-capacity lock-free ring of structured
//!   events (admission sheds, point swaps, buffer-pool resizes and clears,
//!   worker lifecycle, slow-query captures) that answers "what happened, in
//!   what order"; the server and the buffer pool record into one.
//! * [`export`] — a Prometheus-style text format and the workspace's
//!   `rnn-bench-report/v1` JSON, rendered from the same snapshot, plus a
//!   Chrome trace of slow-query spans and recorder events. All are
//!   byte-deterministic for given inputs (metric names are sorted).
//!
//! The crate sits at the bottom of the workspace dependency graph (std
//! only), so `rnn-storage`, `rnn-core`, `rnn-index`, `rnn-server` and
//! `rnn-bench` can all record into the same registry without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use export::{bench_report_json, chrome_trace, prometheus_text, report_json};
pub use histogram::LatencyHistogram;
pub use json::{JsonError, JsonValue};
pub use recorder::{Drained, Event, EventKind, FlightRecorder};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SampleSet};
pub use slowlog::{SlowQueryLog, SlowQueryReport};
pub use trace::{Phase, PhaseRecord, PhaseTimer, QueryTrace, TraceRecorder, Tracer};
