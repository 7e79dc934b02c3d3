//! The process-wide metrics registry.
//!
//! A [`MetricsRegistry`] hands out named [`Counter`]s, [`Gauge`]s and
//! [`Histogram`]s whose record paths are **wait-free** — a fixed number of
//! atomic operations, no locks, no allocation — and produces one
//! [`MetricsSnapshot`] covering everything, including the *sources*
//! (server stats, buffer-pool counters, hub-label telemetry) registered by
//! the other crates.
//!
//! # Consistency discipline
//!
//! The registry reuses the two orderings the workspace's existing telemetry
//! already proved out:
//!
//! * **Within a source** (`register_source`): the closure polls one
//!   underlying API — the server's seqlock-published `ServerStats`, the
//!   storage layer's `IoCounters`, which sums its pool's shard counters with
//!   every shard lock held — whose snapshot is internally consistent by
//!   that API's own construction. The registry never mixes a source's
//!   values with a second read.
//! * **Across the registry's own counters**: [`Counter::add`] publishes with
//!   `Release` and the snapshot reads with `Acquire`, walking counters in
//!   **reverse registration order**. Register coarse counters first and bump
//!   them first (`accesses`, then `faults`, then `evictions`): the snapshot
//!   then reads the finest counter first, and by the release-sequence rule
//!   every observed fine increment implies its earlier coarse increment is
//!   visible — so invariants like `evictions <= faults <= accesses` hold in
//!   *every* snapshot, concurrent recorders notwithstanding (the
//!   `observability` integration suite hammers exactly this).
//!
//! Counters are striped over `STRIPES` cache-line-padded atomics with a
//! per-thread stripe assignment, so concurrent recorders do not contend on
//! one line; a counter's value is the stripe sum. Per-stripe values are
//! monotone and read coherently, so successive snapshots never go backwards.

use crate::histogram::{bucket_of, LatencyHistogram, BUCKETS};
use crate::trace::lock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of counter stripes. Enough that a handful of worker threads land
/// on distinct cache lines with high probability; snapshot cost stays
/// trivial (a 16-element sum).
pub(crate) const STRIPES: usize = 16;

/// One cache line per stripe so concurrent recorders do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    /// This thread's stripe, assigned round-robin on first use.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

fn my_stripe() -> usize {
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(v);
        }
        v
    })
}

#[derive(Default)]
struct CounterCell {
    stripes: [PaddedU64; STRIPES],
}

impl CounterCell {
    fn add(&self, n: u64) {
        // Release so that a snapshot observing this increment also observes
        // every earlier increment by the same thread (see module docs).
        self.stripes[my_stripe()].0.fetch_add(n, Ordering::Release);
    }

    fn value(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Acquire)).sum()
    }
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// A counter not attached to any registry (useful as an optional
    /// progress hook).
    pub fn detached() -> Self {
        Counter(Arc::new(CounterCell::default()))
    }

    /// Adds `n`. Wait-free: one striped `fetch_add`.
    pub fn add(&self, n: u64) {
        self.0.add(n);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value (sum over stripes, `Acquire` per stripe).
    pub fn value(&self) -> u64 {
        self.0.value()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A last-write-wins instantaneous value (queue depth, resident pages).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge. Wait-free.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// The concurrent form of [`LatencyHistogram`]: the same log-scale buckets,
/// recorded with relaxed atomics from any thread.
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_lo: AtomicU64,
    sum_hi: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }
}

impl HistogramCell {
    fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        // 128-bit sum out of two 64-bit words: carry into `hi` when `lo`
        // wraps. A reader racing the carry sees the sum off by 2^64 for one
        // instant; the mean is advisory, the counts are what invariants use.
        let old = self.sum_lo.fetch_add(nanos, Ordering::Relaxed);
        if old.wrapping_add(nanos) < old {
            self.sum_hi.fetch_add(1, Ordering::Relaxed);
        }
        self.max.fetch_max(nanos, Ordering::Relaxed);
        self.min.fetch_min(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// A point-in-time read. `count` is loaded first (`Acquire`, matching
    /// the `Release` bump that ends every record) so a mid-record snapshot
    /// under-counts rather than showing buckets that sum below `count`.
    fn load(&self) -> LatencyHistogram {
        let count = self.count.load(Ordering::Acquire);
        let mut buckets = [0u64; BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(&self.buckets) {
            *b = cell.load(Ordering::Relaxed);
        }
        let lo = self.sum_lo.load(Ordering::Relaxed);
        let hi = self.sum_hi.load(Ordering::Relaxed);
        let sum = (u128::from(hi) << 64) | u128::from(lo);
        let max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        LatencyHistogram::from_raw(buckets, count, sum, max, min)
    }
}

/// A concurrent latency histogram handle. Cloning shares the cell.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Records one sample. Wait-free: a handful of relaxed atomics.
    pub fn record(&self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.0.record(nanos);
    }

    /// Records a sample already expressed in nanoseconds.
    pub(crate) fn record_nanos(&self, nanos: u64) {
        self.0.record(nanos);
    }

    /// A point-in-time [`LatencyHistogram`] of everything recorded so far.
    pub fn load(&self) -> LatencyHistogram {
        self.0.load()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.load().fmt(f)
    }
}

enum Kind {
    Counter(Arc<CounterCell>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

impl Kind {
    fn type_name(&self) -> &'static str {
        match self {
            Kind::Counter(_) => "counter",
            Kind::Gauge(_) => "gauge",
            Kind::Histogram(_) => "histogram",
        }
    }
}

struct Metric {
    name: String,
    kind: Kind,
}

type SourceFn = Box<dyn Fn(&mut SampleSet) + Send + Sync>;

struct Inner {
    /// Registration order — the snapshot walks this **in reverse** (see the
    /// module docs for why that ordering carries cross-counter invariants).
    metrics: Mutex<Vec<Metric>>,
    sources: Mutex<Vec<(String, SourceFn)>>,
}

/// The process-wide registry. Cloning shares the same metric set; hand a
/// clone to every layer that records or registers a source.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                metrics: Mutex::new(Vec::new()),
                sources: Mutex::new(Vec::new()),
            }),
        }
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> (Kind, T),
        reuse: impl FnOnce(&Kind) -> Option<T>,
    ) -> T {
        let mut metrics = lock(&self.inner.metrics);
        if let Some(m) = metrics.iter().find(|m| m.name == name) {
            return reuse(&m.kind).unwrap_or_else(|| {
                panic!("metric '{name}' already registered as a {}", m.kind.type_name())
            });
        }
        let (kind, handle) = make();
        metrics.push(Metric { name: name.to_string(), kind });
        handle
    }

    /// The counter named `name`, created on first use. Registration order is
    /// meaningful: register (and bump) coarse counters before the finer ones
    /// they bound, and every snapshot preserves `fine <= coarse`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            || {
                let cell = Arc::new(CounterCell::default());
                (Kind::Counter(Arc::clone(&cell)), Counter(cell))
            },
            |k| match k {
                Kind::Counter(c) => Some(Counter(Arc::clone(c))),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            || {
                let cell = Arc::new(AtomicU64::new(0));
                (Kind::Gauge(Arc::clone(&cell)), Gauge(cell))
            },
            |k| match k {
                Kind::Gauge(g) => Some(Gauge(Arc::clone(g))),
                _ => None,
            },
        )
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            || {
                let cell = Arc::new(HistogramCell::default());
                (Kind::Histogram(Arc::clone(&cell)), Histogram(cell))
            },
            |k| match k {
                Kind::Histogram(h) => Some(Histogram(Arc::clone(h))),
                _ => None,
            },
        )
    }

    /// Registers a pollable source: at snapshot time `collect` is called
    /// with a [`SampleSet`] to fill. Use this to bridge an existing
    /// consistent-snapshot API (server stats, I/O counters) into the
    /// registry without double-maintaining counters on the hot path.
    pub fn register_source(
        &self,
        name: &str,
        collect: impl Fn(&mut SampleSet) + Send + Sync + 'static,
    ) {
        lock(&self.inner.sources).push((name.to_string(), Box::new(collect)));
    }

    /// One consistent, point-in-time view of every registered metric and
    /// source, with all names sorted — the exporters render it
    /// byte-deterministically.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = SampleSet::default();
        {
            // Reverse registration order: the invariant-carrying read (see
            // module docs).
            let metrics = lock(&self.inner.metrics);
            for m in metrics.iter().rev() {
                match &m.kind {
                    Kind::Counter(c) => out.counter(&m.name, c.value()),
                    Kind::Gauge(g) => out.gauge(&m.name, g.load(Ordering::Relaxed)),
                    Kind::Histogram(h) => out.histogram(&m.name, h.load()),
                }
            }
        }
        {
            let sources = lock(&self.inner.sources);
            for (_, collect) in sources.iter() {
                collect(&mut out);
            }
        }
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters: out.counters, gauges: out.gauges, histograms: out.histograms }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &lock(&self.inner.metrics).len())
            .field("sources", &lock(&self.inner.sources).len())
            .finish()
    }
}

/// The buffer a source fills at snapshot time.
#[derive(Default)]
pub struct SampleSet {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, LatencyHistogram)>,
}

impl SampleSet {
    /// Contributes one counter sample.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Contributes one gauge sample.
    pub fn gauge(&mut self, name: &str, value: u64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Contributes one histogram sample.
    pub fn histogram(&mut self, name: &str, h: LatencyHistogram) {
        self.histograms.push((name.to_string(), h));
    }
}

/// A point-in-time view of the whole registry. Every `Vec` is sorted by
/// name; values of counters are monotone across successive snapshots.
#[derive(Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, distribution)` for every histogram, sorted by name.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| self.gauges[i].1)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x_total"), Some(4));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(7);
        g.set(5);
        assert_eq!(reg.snapshot().gauge("depth"), Some(5));
    }

    #[test]
    fn histograms_record_concurrently_and_load_consistently() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i * 17 + 1));
                    }
                });
            }
        });
        let loaded = reg.snapshot().histogram("lat").unwrap().clone();
        assert_eq!(loaded.count(), 4000);
        assert_eq!(loaded.max(), Duration::from_nanos(999 * 17 + 1));
        assert_eq!(loaded.min(), Duration::from_nanos(1));
        let bucket_sum: u64 = loaded.buckets().map(|(_, n)| n).sum();
        assert_eq!(bucket_sum, 4000);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("same");
        let _g = reg.gauge("same");
    }

    #[test]
    fn sources_contribute_and_names_sort() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total").add(1);
        reg.register_source("extra", |out| {
            out.counter("a_total", 10);
            out.gauge("a_gauge", 2);
        });
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
        assert_eq!(snap.gauge("a_gauge"), Some(2));
    }

    #[test]
    fn detached_counter_counts() {
        let c = Counter::detached();
        c.add(2);
        c.inc();
        assert_eq!(c.value(), 3);
    }
}
