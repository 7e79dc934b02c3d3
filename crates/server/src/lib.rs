//! Online RkNN serving: the subsystem that turns the RkNN dispatch into a
//! long-running service, and the workspace's one concurrent executor.
//!
//! The layers below this crate answer queries one at a time
//! ([`rnn_core::run_rknn_with`]); none of them *accepts* them or runs them
//! concurrently. ReHub (Efentakis & Pfoser) frames RkNN as an **online**
//! problem: requests arrive continuously, with different algorithms,
//! priorities, deadlines and arrival bursts, and the system must decide what
//! to admit, when to run it, and how long everything waited.
//! This crate is that missing layer:
//!
//! * [`RequestQueue`](queue) — a hand-rolled bounded MPMC queue (mutex +
//!   two condvars) with one sub-queue per [`Priority`] class and one
//!   admission rule at the full-queue edge, read from the request's own
//!   deadline: an expired newcomer is shed directly, else the
//!   earliest-deadline expired resident is dropped to make room, else a
//!   request with a deadline gets `QueueFull` and one without parks until
//!   space frees. Deadline-bearing requests are served
//!   **earliest-deadline-first** from a binary heap, ahead of the FIFO
//!   ring; workers drain interactive before batch traffic, forcing one
//!   batch pop after four interactive ones while batch work waits.
//! * [`Ticket`] — a oneshot completion handle per request: callers submit
//!   (singly, or batched via [`Server::submit_all`] for one lock round-trip
//!   per burst), then await their own result while other traffic
//!   interleaves. Every accepted request resolves its ticket exactly once.
//! * [`Server`] — N long-lived workers, each with its own [`Scratch`]
//!   arena, draining the queue in micro-batches and answering each request
//!   through [`rnn_core::run_rknn_with`] (tracing it when asked to); on
//!   paged worlds they share one striped buffer pool that counts each page
//!   access once. No answer is memoized: every request prices its own work.
//!   Graceful drain-then-join shutdown; atomic point-set swaps.
//! * [`ServerStats`] — **wait-free** runtime snapshots: global and
//!   per-class ([`ClassStats`]) admission counters and latency histograms,
//!   published by workers through seqlock-style double-buffered cells
//!   ([`stats`]) so a poll never contends with an in-flight micro-batch.
//! * [`rnn_obs::LatencyHistogram`] — fixed-bucket
//!   log-scale latency accounting with the queue-wait / service-time split,
//!   mergeable across workers. Queue waits include requests shed at dequeue,
//!   so overload telemetry is not survivorship-biased.
//! * **Observability** — [`Server::start_observed`] registers the server as
//!   a pollable source of an [`rnn_obs::MetricsRegistry`] (admission
//!   counters, per-class histograms, per-algorithm serve counts, the I/O
//!   rollup, all from one wait-free stats poll);
//!   [`ServerConfig::with_tracing`] turns on per-query phase tracing
//!   (folded into `algorithm x phase` registry aggregates), and
//!   [`ServerConfig::with_slow_query_log`] captures the worst-N traces plus
//!   a deterministic uniform sample, drained via
//!   [`Server::drain_slow_queries`].
//!   The same server keeps a flight recorder of structured serving events
//!   (admission sheds, point swaps, worker lifecycle, slow-query captures,
//!   and the buffer pool's resizes and clears), drained through
//!   [`Server::drain_events`] and exportable as a Chrome trace together
//!   with the slow-query spans ([`rnn_obs::chrome_trace`]).
//!
//! Serving never changes answers: for any admitted request the outcome is
//! byte-identical to the sequential [`rnn_core::run_rknn`] call against the
//! same world, regardless of worker count, deadlines or priority class — the
//! `server_determinism` integration suite pins this down for all six
//! algorithms.
//!
//! [`Scratch`]: rnn_core::Scratch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod request;
pub mod server;
pub mod stats;

pub use request::{Priority, Request, ServeError, ServeResult, ServedQuery, Ticket};
pub use server::{PointUpdate, Server, ServerConfig, World};
pub use stats::{ClassStats, ServerStats};
