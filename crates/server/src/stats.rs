//! Server statistics: the instruments the server counts through and the
//! snapshot types [`Server::stats`](crate::Server::stats) assembles from them.
//!
//! A serving system's stats endpoint is polled — by dashboards, autoscalers,
//! load-balancer health checks — and a poll must never get in the way of the
//! traffic it observes. Every count is an [`rnn_obs`] instrument, so
//! recording is a few atomic operations and a poll never waits while a
//! worker serves:
//!
//! * Admission and completion counts are [`Counter`]s, six per class plus
//!   one per algorithm, bumped by submitters and workers alike. A counter
//!   is striped over cache lines assigned round-robin per thread, so a
//!   submitter and a few workers do not write one line.
//! * Each worker owns a `LatencyPair` per class — queue-wait and service
//!   [`Histogram`]s — that only it records into, so workers never share a
//!   histogram's cache lines either. A snapshot merges the workers'
//!   [`Histogram::load`]s.
//!
//! A worker bumps a request's counters, then records its latencies, then
//! resolves its ticket. Counter bumps and the histogram's count are
//! `Release`, and a snapshot reads the histograms first, the counters after
//! and `submitted` last, each with `Acquire`: so every snapshot keeps
//! `queue_wait.count() <= completed + shed_at_dequeue` and
//! `accounted() <= submitted`, and a request is counted by the time its
//! [`Ticket::wait`](crate::Ticket::wait) returns. A poll takes two locks
//! only: the queue's, for the depth, which a worker holds just to pop a
//! batch, and — on a server given a paged world's counters — the buffer
//! pool's shard locks, under which its I/O rollup reads the pool's count.

use crate::request::Priority;
use rnn_core::Algorithm;
use rnn_obs::{Counter, Histogram, LatencyHistogram};
use rnn_storage::IoStats;

/// The position of `algorithm` in [`Algorithm::ALL`] — kept as a
/// wildcard-free match (the workspace contract: adding a variant must break
/// this build, not silently share a counter).
pub(crate) fn algorithm_index(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::Eager => 0,
        Algorithm::EagerMaterialized => 1,
        Algorithm::Lazy => 2,
        Algorithm::LazyExtendedPruning => 3,
        Algorithm::Naive => 4,
        Algorithm::HubLabel => 5,
    }
}

/// One admission class's counters (the counting side of [`ClassStats`]).
pub(crate) struct ClassCounters {
    pub(crate) submitted: Counter,
    pub(crate) accepted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) shed: Counter,
    pub(crate) shed_at_dequeue: Counter,
    pub(crate) completed: Counter,
}

impl ClassCounters {
    pub(crate) fn new() -> Self {
        ClassCounters {
            submitted: Counter::detached(),
            accepted: Counter::detached(),
            rejected: Counter::detached(),
            shed: Counter::detached(),
            shed_at_dequeue: Counter::detached(),
            completed: Counter::detached(),
        }
    }
}

/// One worker's latency split for one admission class.
pub(crate) struct LatencyPair {
    /// Submit to dequeue (includes queue waits of requests shed at dequeue,
    /// so overload telemetry is not survivorship-biased).
    pub(crate) queue_wait: Histogram,
    /// Dequeue to completion (served requests only).
    pub(crate) service: Histogram,
}

impl LatencyPair {
    pub(crate) fn new() -> Self {
        LatencyPair { queue_wait: Histogram::detached(), service: Histogram::detached() }
    }
}

/// One admission class's slice of a [`ServerStats`] snapshot: the class's
/// admission counters and latency histograms. Per-class conservation mirrors
/// the global one: `completed + rejected + shed == submitted` at quiescence.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Requests of this class handed to `submit` / `submit_all`.
    pub submitted: u64,
    /// Requests of this class admitted to the queue.
    pub accepted: u64,
    /// Requests of this class turned away without being served (queue full,
    /// unservable, shutting down — at admission or at dequeue after a swap).
    pub rejected: u64,
    /// Requests of this class dropped past their deadline (at admission or
    /// at dequeue).
    pub shed: u64,
    /// The subset of `shed` dropped at *dequeue* — these have a recorded
    /// queue wait: `queue_wait.count() == completed + shed_at_dequeue`.
    pub shed_at_dequeue: u64,
    /// Requests of this class served to completion.
    pub completed: u64,
    /// Submit-to-dequeue latency of this class, merged across workers.
    /// Includes requests shed at dequeue (see `shed_at_dequeue`), so the
    /// histogram shows overload instead of hiding it.
    pub queue_wait: LatencyHistogram,
    /// Dequeue-to-completion latency of this class (served requests only).
    pub service: LatencyHistogram,
}

impl ClassStats {
    /// `completed + rejected + shed` — equals `submitted` at quiescence.
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.shed
    }
}

/// A point-in-time snapshot of a server's counters and latency split —
/// global rollups plus the per-class breakdown. Wait-free to take (I/O
/// rollup aside): counter and histogram loads; a poll never waits on an
/// in-flight micro-batch.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Requests handed to [`crate::Server::submit`] /
    /// [`crate::Server::submit_all`].
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests turned away without being served: synchronously at
    /// admission (queue full, unservable, shutting down), or at dequeue
    /// when a point-set swap removed the precomputed structure an
    /// already-queued request needs (its ticket resolves to
    /// [`crate::ServeError::Unservable`]).
    pub rejected: u64,
    /// Accepted requests dropped past their deadline, plus expired
    /// newcomers resolved as shed at the full-queue edge.
    pub shed: u64,
    /// The subset of `shed` dropped at dequeue (their queue waits are in the
    /// histograms; admission-edge sheds never waited in the queue).
    pub shed_at_dequeue: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Served-request counts per algorithm, in [`Algorithm::ALL`] order.
    pub per_algorithm: Vec<(Algorithm, u64)>,
    /// Per-class counters and latency split, in [`Priority::ALL`] order.
    pub per_class: Vec<(Priority, ClassStats)>,
    /// Requests sitting in the queue at snapshot time.
    pub queue_depth: usize,
    /// Worker wakeups that processed at least one request (micro-batching
    /// makes this less than `completed` under load).
    pub micro_batches: u64,
    /// Submit-to-dequeue latency, merged across workers and classes.
    pub queue_wait: LatencyHistogram,
    /// Dequeue-to-completion latency, merged across workers and classes.
    pub service: LatencyHistogram,
    /// Always zero: the server memoizes no answers. Kept only because the
    /// standalone benchmark still reads it; it goes once ROADMAP item 10
    /// drops that read.
    pub cache: CacheStats,
    /// The paged world's buffer-pool count, read through the handle the
    /// server was started with (zeros without one).
    pub io: IoStats,
}

/// Result-cache hit/miss counters, always zero: the server has no result
/// cache. Kept only as the type of [`ServerStats::cache`], which the
/// standalone benchmark still reads; it goes once ROADMAP item 10 drops that
/// read.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a cache.
    pub hits: u64,
    /// Queries that were executed.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups() as f64
    }

    /// The difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

impl ServerStats {
    /// Served-request count for one algorithm.
    pub fn algorithm_count(&self, algorithm: Algorithm) -> u64 {
        self.per_algorithm[algorithm_index(algorithm)].1
    }

    /// The counters and latency split of one admission class.
    pub fn class(&self, priority: Priority) -> &ClassStats {
        &self.per_class[priority.index()].1
    }

    /// `completed + rejected + shed` — equals `submitted` at quiescence
    /// (nothing in flight), which is the no-request-lost invariant.
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_stats_accounting_helper() {
        let stats = ClassStats {
            submitted: 10,
            accepted: 8,
            rejected: 2,
            shed: 3,
            shed_at_dequeue: 1,
            completed: 5,
            ..Default::default()
        };
        assert_eq!(stats.accounted(), 10);
    }
}
