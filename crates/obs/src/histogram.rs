//! Fixed-bucket log-scale latency accounting.
//!
//! A serving system is judged by its tail: averages hide the p99, and storing
//! every sample to sort later is unbounded memory on an open-ended stream.
//! [`LatencyHistogram`] is the standard compromise — a fixed array of
//! power-of-two nanosecond buckets, so `record` is O(1) with no allocation,
//! `merge` (folding per-worker histograms into one snapshot) is element-wise
//! addition, and any quantile is one cumulative walk.
//!
//! The price is resolution: a sample lands in the bucket
//! `[2^(i-1), 2^i)` ns and a quantile reports that bucket's inclusive upper
//! bound, so a reported percentile is at most 2x the true sample value (and
//! never *below* it — the histogram errs pessimistic, the safe direction for
//! latency targets). The maximum and minimum are tracked exactly.
//!
//! The server keeps **two** histograms per worker — queue wait (submit to
//! dequeue) and service time (dequeue to completion) — because the split is
//! the first diagnostic of an overloaded server: rising queue wait with flat
//! service time means admission control, not the algorithms, is the
//! bottleneck. The metrics registry ([`crate::registry`]) reuses the same
//! bucket layout for its concurrent histograms, and the exporters walk the
//! buckets in place via [`LatencyHistogram::buckets`] — no copying.

use std::time::Duration;

/// One bucket per power of two of nanoseconds. Bucket 0 holds zero-duration
/// samples; bucket `i >= 1` holds `[2^(i-1), 2^i - 1]` ns, with the last
/// bucket absorbing everything from `2^62` ns (~146 years) up.
pub(crate) const BUCKETS: usize = 64;

/// A bounded-memory latency distribution: counts in log-scale buckets plus
/// an exact count, sum, minimum and maximum.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u128,
    max_nanos: u64,
    /// `u64::MAX` until the first sample — the identity of `min`, so
    /// `record` and `merge` need no empty-check.
    min_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
            min_nanos: u64::MAX,
        }
    }
}

/// The bucket a duration of `nanos` lands in.
pub(crate) fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        ((u64::BITS - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i`, in nanoseconds.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. O(1), never allocates.
    pub fn record(&mut self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
    }

    /// Folds `other` into `self`: afterwards `self` reports exactly what a
    /// histogram fed both sample streams would. This is how per-worker
    /// histograms roll up into one server-wide snapshot.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        self.min_nanos = self.min_nanos.min(other.min_nanos);
    }

    /// The raw state `(buckets, count, sum_nanos, max_nanos, min_nanos)`,
    /// which the exporters read the exact sum from. `min_nanos` is
    /// `u64::MAX` while the histogram is empty.
    pub fn raw(&self) -> (&[u64; BUCKETS], u64, u128, u64, u64) {
        (&self.buckets, self.count, self.sum_nanos, self.max_nanos, self.min_nanos)
    }

    /// Rebuilds a histogram from raw state read back out of the registry's
    /// concurrent cell (inverse of [`LatencyHistogram::raw`]).
    pub(crate) fn from_raw(
        buckets: [u64; BUCKETS],
        count: u64,
        sum_nanos: u128,
        max_nanos: u64,
        min_nanos: u64,
    ) -> Self {
        LatencyHistogram { buckets, count, sum_nanos, max_nanos, min_nanos }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact mean of all samples ([`Duration::ZERO`] when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(
            u64::try_from(self.sum_nanos / u128::from(self.count)).unwrap_or(u64::MAX),
        )
    }

    /// The exact maximum sample ([`Duration::ZERO`] when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The exact minimum sample ([`Duration::ZERO`] when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.min_nanos)
    }

    /// Iterates `(inclusive_upper_bound_nanos, count)` over the buckets, in
    /// ascending bound order, without copying the bucket array — exporters
    /// walk this to emit cumulative-bucket lines in place.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(i, &n)| (bucket_upper(i), n))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), as the upper bound of the bucket the
    /// rank-`ceil(q * count)` sample landed in, capped by the exact maximum:
    /// never below the true sample, at most 2x above it.
    /// [`Duration::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(bucket_upper(i).min(self.max_nanos));
            }
        }
        self.max()
    }

    /// Median (see [`LatencyHistogram::quantile`] for the error bound).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Duration {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub(crate) fn p999(&self) -> Duration {
        self.quantile(0.999)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p90", &self.p90())
            .field("p99", &self.p99())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.p999(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn bucket_iteration_matches_boundaries_and_counts() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(700)); // bucket 10: [512, 1023]
        h.record(Duration::from_nanos(800));
        h.record(Duration::ZERO); // bucket 0
        let walked: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(walked.len(), BUCKETS);
        assert_eq!(walked[0], (0, 1));
        assert_eq!(walked[10], (1023, 2));
        let total: u64 = walked.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, h.count());
        // Bounds ascend strictly.
        for w in walked.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn quantiles_never_undershoot_and_stay_within_2x() {
        let mut h = LatencyHistogram::new();
        // 100 samples: 1us, 2us, ..., 100us.
        for i in 1..=100u64 {
            h.record(us(i));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), us(100));
        assert_eq!(h.min(), us(1));
        assert_eq!(h.mean(), Duration::from_nanos(50_500));
        for (q, true_value) in [(0.50, us(50)), (0.90, us(90)), (0.99, us(99)), (1.0, us(100))] {
            let reported = h.quantile(q);
            assert!(reported >= true_value, "q={q}: {reported:?} < {true_value:?}");
            assert!(reported <= 2 * true_value, "q={q}: {reported:?} > 2x {true_value:?}");
        }
        // Monotone in q.
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
    }

    #[test]
    fn p999_reaches_a_tail_p99_misses() {
        // 99 body samples + 1 outlier: rank ceil(0.99*100) = 99 stays in
        // the body, rank ceil(0.999*100) = 100 is the outlier.
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(us(10));
        }
        h.record(us(5_000));
        assert!(h.p99() < us(100));
        assert_eq!(h.p999(), us(5_000), "capped by the exact max");
    }

    #[test]
    fn exact_values_for_single_bucket_distributions() {
        // All samples in one bucket: every quantile is that bucket's upper
        // bound capped by the exact max.
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(Duration::from_nanos(700)); // bucket [512, 1023]
        }
        assert_eq!(h.p50(), Duration::from_nanos(700), "capped by the exact max");
        assert_eq!(h.p99(), Duration::from_nanos(700));
        assert_eq!(h.min(), Duration::from_nanos(700));
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..200u64 {
            let d = Duration::from_nanos(i * i * 37 + i);
            if i % 3 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), all.count());
        assert_eq!(merged.max(), all.max());
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.mean(), all.mean());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), all.quantile(q), "q={q}");
        }
        // Merging an empty histogram changes nothing.
        let before = format!("{merged:?}");
        merged.merge(&LatencyHistogram::new());
        assert_eq!(format!("{merged:?}"), before);
        assert!(before.contains("p99"));
    }

    #[test]
    fn min_survives_raw_round_trip_and_empty_merges() {
        let mut h = LatencyHistogram::new();
        h.record(us(3));
        h.record(us(9));
        let (buckets, count, sum, max, min) = h.raw();
        let back = LatencyHistogram::from_raw(*buckets, count, sum, max, min);
        assert_eq!(back.min(), us(3));
        assert_eq!(back.max(), us(9));
        // An empty histogram merged into an empty one still reports min 0.
        let mut e = LatencyHistogram::new();
        e.merge(&LatencyHistogram::new());
        assert_eq!(e.min(), Duration::ZERO);
        // Merging samples into an empty histogram adopts their min.
        e.merge(&h);
        assert_eq!(e.min(), us(3));
    }

    #[test]
    fn huge_samples_saturate_instead_of_wrapping() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::MAX);
        h.record(Duration::from_nanos(1));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Duration::from_nanos(u64::MAX));
        assert_eq!(h.min(), Duration::from_nanos(1));
        assert!(h.quantile(1.0) >= Duration::from_nanos(u64::MAX - 1));
    }
}
