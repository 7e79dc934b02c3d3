//! Server statistics: per-class accounting and the wait-free snapshot path.
//!
//! A serving system's stats endpoint is polled — by dashboards, autoscalers,
//! load-balancer health checks — and a poll must never get in the way of the
//! traffic it observes. The first cut of `rnn-server` had each worker guard
//! its latency histograms with a mutex that `stats()` also took: a poll
//! arriving while a worker folded a micro-batch waited, and (worse) the
//! worker's *next* fold waited on a slow poller. This module removes both
//! waits with a **seqlock-style double-buffered snapshot**:
//!
//! * Each worker owns a `PublishedMetrics`: two buffers of plain atomic
//!   words plus a version counter. After every micro-batch the worker writes
//!   its cumulative metrics into the buffer the readers are *not* looking at
//!   (the one of opposite parity to the version), then bumps the version
//!   with a release store. The worker never blocks and never retries —
//!   publishing is wait-free.
//! * [`Server::stats`](crate::Server::stats) reads the stable buffer
//!   (version parity selects it), then re-checks the version; if a publish
//!   completed in between it simply rereads. Readers never block a worker
//!   and a worker's publish window is a few hundred relaxed stores, so the
//!   retry loop terminates immediately in practice.
//!
//! The consistency argument is the classic seqlock one (every word is an
//! atomic, so racing reads are defined behavior; the acquire fence before
//! the version re-check makes a torn read visible as a version change), with
//! the double buffer removing the writer-side "odd = mid-write" wait: a
//! writer always has a free buffer to publish into.
//!
//! The rest of the server's own counters are already wait-free: admission
//! counters are relaxed atomics, so a `stats()` poll never contends with an
//! in-flight micro-batch over them — pinned by the
//! `polling_stats_never_blocks_and_never_tears` test. The one exception is
//! the I/O rollup of a server given a paged world's counters: it is the
//! buffer pool's own count, read under the pool's shard locks.

use crate::request::Priority;
use rnn_core::Algorithm;
use rnn_obs::histogram::{LatencyHistogram, BUCKETS};
use rnn_storage::IoStats;
use std::sync::atomic::{fence, AtomicU64, Ordering};

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

/// One admission class's latency pair: where its requests' time went.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClassLatencies {
    /// Submit to dequeue (includes queue waits of requests shed at dequeue,
    /// so overload telemetry is not survivorship-biased).
    pub(crate) queue_wait: LatencyHistogram,
    /// Dequeue to completion (served requests only).
    pub(crate) service: LatencyHistogram,
}

/// One worker's cumulative metrics — owned by the worker thread, published
/// through its [`PublishedMetrics`] after every micro-batch.
#[derive(Default)]
pub(crate) struct WorkerMetrics {
    pub(crate) classes: [ClassLatencies; Priority::ALL.len()],
    pub(crate) micro_batches: u64,
}

/// One histogram's worth of atomic words in a snapshot buffer.
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_lo: AtomicU64,
    sum_hi: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Writer side: copy `h` into this cell, word by word (relaxed — the
    /// version store orders the whole publish).
    fn store(&self, h: &LatencyHistogram) {
        let (buckets, count, sum, max, min) = h.raw();
        for (cell, &value) in self.buckets.iter().zip(buckets) {
            cell.store(value, Ordering::Relaxed);
        }
        self.count.store(count, Ordering::Relaxed);
        self.sum_lo.store(sum as u64, Ordering::Relaxed);
        self.sum_hi.store((sum >> 64) as u64, Ordering::Relaxed);
        self.max.store(max, Ordering::Relaxed);
        self.min.store(min, Ordering::Relaxed);
    }

    /// Reader side: rebuild the histogram from the cell's words.
    fn load(&self) -> LatencyHistogram {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let sum = u128::from(self.sum_lo.load(Ordering::Relaxed))
            | (u128::from(self.sum_hi.load(Ordering::Relaxed)) << 64);
        LatencyHistogram::from_raw(
            buckets,
            self.count.load(Ordering::Relaxed),
            sum,
            self.max.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
        )
    }
}

/// One snapshot buffer: a cell pair per class plus the micro-batch counter.
struct MetricsBuffer {
    classes: [[HistogramCell; 2]; Priority::ALL.len()],
    micro_batches: AtomicU64,
}

impl MetricsBuffer {
    fn new() -> Self {
        MetricsBuffer {
            classes: std::array::from_fn(|_| [HistogramCell::new(), HistogramCell::new()]),
            micro_batches: AtomicU64::new(0),
        }
    }
}

/// One worker's double-buffered, versioned metrics snapshot. Single writer
/// (the owning worker), any number of concurrent readers; neither side ever
/// blocks the other.
pub(crate) struct PublishedMetrics {
    /// Number of completed publishes. Parity selects the stable buffer
    /// (`version & 1`); the writer fills the other one.
    version: AtomicU64,
    buffers: [MetricsBuffer; 2],
}

impl PublishedMetrics {
    pub(crate) fn new() -> Self {
        PublishedMetrics {
            version: AtomicU64::new(0),
            buffers: [MetricsBuffer::new(), MetricsBuffer::new()],
        }
    }

    /// Writer side (the owning worker only): publish `metrics` as the new
    /// stable snapshot. Wait-free — writes the back buffer, then flips the
    /// version with a release store.
    pub(crate) fn publish(&self, metrics: &WorkerMetrics) {
        let version = self.version.load(Ordering::Relaxed);
        let back = &self.buffers[((version + 1) & 1) as usize];
        for (cells, latencies) in back.classes.iter().zip(&metrics.classes) {
            cells[0].store(&latencies.queue_wait);
            cells[1].store(&latencies.service);
        }
        back.micro_batches.store(metrics.micro_batches, Ordering::Relaxed);
        self.version.store(version + 1, Ordering::Release);
    }

    /// Reader side: a consistent snapshot of the last published metrics.
    /// Lock-free — retries only if a publish completed mid-read, and each
    /// retry observes a strictly newer version, so it cannot livelock
    /// against a worker publishing at micro-batch granularity.
    pub(crate) fn read(&self) -> WorkerMetrics {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            let stable = &self.buffers[(v1 & 1) as usize];
            let mut metrics = WorkerMetrics::default();
            for (cells, latencies) in stable.classes.iter().zip(&mut metrics.classes) {
                latencies.queue_wait = cells[0].load();
                latencies.service = cells[1].load();
            }
            metrics.micro_batches = stable.micro_batches.load(Ordering::Relaxed);
            // The classic seqlock read fence: if any word above came from a
            // later publish into this buffer, the version re-read below is
            // guaranteed to see that publish's version bump and retry.
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                return metrics;
            }
        }
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
/// global rollups plus the per-class breakdown. Wait-free to take: atomic
/// counter loads plus one seqlock snapshot read per worker; a poll never
/// waits on an in-flight micro-batch.
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// A snapshot is internally consistent iff its bucket counts add up to
    /// its total count — any torn mix of two publishes breaks this.
    fn consistent(h: &LatencyHistogram) -> bool {
        let (buckets, count, _, _, _) = h.raw();
        buckets.iter().sum::<u64>() == count
    }

    fn metrics_with(samples: u64) -> WorkerMetrics {
        let mut m = WorkerMetrics::default();
        for i in 0..samples {
            let d = Duration::from_nanos(100 + i * 37);
            m.classes[0].queue_wait.record(d);
            m.classes[0].service.record(2 * d);
            m.classes[1].queue_wait.record(3 * d);
            m.classes[1].service.record(d / 2);
        }
        m.micro_batches = samples;
        m
    }

    #[test]
    fn publish_then_read_round_trips_every_field() {
        let published = PublishedMetrics::new();
        let metrics = metrics_with(50);
        published.publish(&metrics);
        let read = published.read();
        assert_eq!(read.micro_batches, 50);
        for class in 0..Priority::ALL.len() {
            for (mine, theirs) in [
                (&read.classes[class].queue_wait, &metrics.classes[class].queue_wait),
                (&read.classes[class].service, &metrics.classes[class].service),
            ] {
                assert_eq!(mine.count(), theirs.count());
                assert_eq!(mine.mean(), theirs.mean());
                assert_eq!(mine.max(), theirs.max());
                assert_eq!(mine.p99(), theirs.p99());
            }
        }
    }

    #[test]
    fn unpublished_metrics_read_as_zeros() {
        let published = PublishedMetrics::new();
        let read = published.read();
        assert_eq!(read.micro_batches, 0);
        assert!(read.classes.iter().all(|c| c.queue_wait.is_empty() && c.service.is_empty()));
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_snapshot() {
        // The writer publishes snapshots whose internal invariant (bucket
        // sum == count, and service count == queue-wait count) only holds
        // for a complete publish: any interleaving of two publishes would
        // break it. Readers hammer in parallel and assert the invariant
        // plus monotonicity of the published count.
        let published = Arc::new(PublishedMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let published = Arc::clone(&published);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last_count = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let m = published.read();
                        let qw = &m.classes[0].queue_wait;
                        let sv = &m.classes[0].service;
                        assert!(consistent(qw), "torn bucket/count pair");
                        assert!(consistent(sv), "torn bucket/count pair");
                        assert_eq!(
                            qw.count(),
                            sv.count(),
                            "torn snapshot: histograms from different publishes"
                        );
                        assert_eq!(qw.count(), m.micro_batches, "torn counter");
                        assert!(qw.count() >= last_count, "published count went backwards");
                        last_count = qw.count();
                    }
                });
            }
            let mut metrics = WorkerMetrics::default();
            for i in 0..20_000u64 {
                let d = Duration::from_nanos(1 + (i * 2654435761) % 1_000_000);
                metrics.classes[0].queue_wait.record(d);
                metrics.classes[0].service.record(d);
                metrics.micro_batches += 1;
                published.publish(&metrics);
            }
            stop.store(true, Ordering::Relaxed);
        });
        let final_read = published.read();
        assert_eq!(final_read.micro_batches, 20_000);
        assert_eq!(final_read.classes[0].queue_wait.count(), 20_000);
    }

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
