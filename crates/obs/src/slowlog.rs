//! Sampled slow-query capture.
//!
//! Aggregates answer "how slow is the service"; a [`SlowQueryLog`] answers
//! "show me the queries that were slow" — it keeps the N **worst** traces by
//! service time seen since the last drain, plus an unbiased 1-in-M uniform
//! sample of all traffic (so the log also shows what *normal* looks like,
//! not just the tail).
//!
//! The record path is wait-free in the common case: one atomic sequence
//! bump, one deterministic hash to decide sampling, one atomic threshold
//! load to decide "is this among the worst so far". Only queries that pass
//! either gate take the internal lock. The sampler is a seeded SplitMix64
//! over the arrival sequence number, so a replayed workload samples the
//! same arrivals — reproducibility over randomness, as everywhere in this
//! workspace.

use crate::trace::{lock, QueryTrace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// SplitMix64: a tiny, well-mixed 64-bit permutation — the standard choice
/// for turning a counter into uniform bits without carrying RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct State {
    /// The worst traces so far, unordered; bounded by `worst_capacity`.
    worst: Vec<QueryTrace>,
    /// Uniform samples in arrival order; bounded by `sample_capacity`.
    samples: VecDeque<QueryTrace>,
}

/// What a drain returns: the tail and the baseline, separated.
#[derive(Debug, Default)]
pub struct SlowQueryReport {
    /// The worst traces by service time, **slowest first**.
    pub worst: Vec<QueryTrace>,
    /// The 1-in-M uniform samples, in arrival order (newest kept when the
    /// ring overflows).
    pub samples: Vec<QueryTrace>,
}

/// A fixed-capacity log of the worst-N traces plus deterministic uniform
/// samples. Shareable across workers (`&self` record path).
pub struct SlowQueryLog {
    worst_capacity: usize,
    sample_capacity: usize,
    /// Sample every M-th arrival on average; 0 disables uniform sampling.
    sample_every: u64,
    seed: u64,
    /// Arrival sequence number, also the sampler's input.
    seq: AtomicU64,
    /// Service-time admission threshold for the worst set: 0 until the set
    /// is full, then the smallest service time in it. A stale read only
    /// causes a harmless extra lock acquisition.
    threshold: AtomicU64,
    state: Mutex<State>,
}

impl SlowQueryLog {
    /// A log keeping the `worst_capacity` worst traces and up to
    /// `sample_capacity` uniform samples drawn one per `sample_every`
    /// arrivals (0 disables sampling), deterministically from `seed`.
    pub fn new(
        worst_capacity: usize,
        sample_every: u64,
        sample_capacity: usize,
        seed: u64,
    ) -> Self {
        SlowQueryLog {
            worst_capacity,
            sample_capacity,
            sample_every,
            seed,
            seq: AtomicU64::new(0),
            threshold: AtomicU64::new(0),
            state: Mutex::new(State {
                worst: Vec::with_capacity(worst_capacity),
                samples: VecDeque::with_capacity(sample_capacity),
            }),
        }
    }

    /// Number of arrivals observed since construction (drains do not reset
    /// it — the sampler sequence keeps advancing deterministically).
    pub(crate) fn observed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Offers one finished trace. Wait-free unless the trace is sampled or
    /// beats the current worst-N threshold. Returns `true` when the trace
    /// was admitted into the worst-N set (a *capture* — the server turns
    /// these into flight-recorder events), `false` for fast-path exits and
    /// uniform samples.
    pub fn observe(&self, trace: &QueryTrace) -> bool {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let sampled =
            self.sample_every > 0 && splitmix64(self.seed ^ n).is_multiple_of(self.sample_every);
        let slow = self.worst_capacity > 0
            && trace.service_nanos >= self.threshold.load(Ordering::Relaxed);
        if !sampled && !slow {
            return false;
        }
        let mut state = lock(&self.state);
        if sampled && self.sample_capacity > 0 {
            if state.samples.len() == self.sample_capacity {
                state.samples.pop_front();
            }
            state.samples.push_back(*trace);
        }
        let mut captured = false;
        if slow {
            if state.worst.len() < self.worst_capacity {
                state.worst.push(*trace);
                captured = true;
            } else if let Some((i, min)) = state
                .worst
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.service_nanos)
                .map(|(i, t)| (i, t.service_nanos))
            {
                if trace.service_nanos > min {
                    state.worst[i] = *trace;
                    captured = true;
                }
            }
            if state.worst.len() == self.worst_capacity {
                let min = state.worst.iter().map(|t| t.service_nanos).min().unwrap_or(0);
                self.threshold.store(min, Ordering::Relaxed);
            }
        }
        captured
    }

    /// Takes everything captured so far (worst traces slowest-first, samples
    /// in arrival order) and resets the capture — the next window starts
    /// empty.
    pub fn drain(&self) -> SlowQueryReport {
        let mut state = lock(&self.state);
        let mut worst: Vec<QueryTrace> = state.worst.drain(..).collect();
        worst.sort_by_key(|t| std::cmp::Reverse(t.service_nanos));
        let samples: Vec<QueryTrace> = state.samples.drain(..).collect();
        self.threshold.store(0, Ordering::Relaxed);
        SlowQueryReport { worst, samples }
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.state);
        f.debug_struct("SlowQueryLog")
            .field("observed", &self.observed())
            .field("worst", &state.worst.len())
            .field("samples", &state.samples.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(service_nanos: u64) -> QueryTrace {
        QueryTrace { algorithm: "eager", query: service_nanos, service_nanos, ..Default::default() }
    }

    #[test]
    fn keeps_the_true_worst_n() {
        let log = SlowQueryLog::new(3, 0, 0, 1);
        // A shuffled stream with known extremes.
        for s in [50u64, 900, 10, 700, 30, 800, 20, 60, 40] {
            log.observe(&trace(s));
        }
        let report = log.drain();
        let services: Vec<u64> = report.worst.iter().map(|t| t.service_nanos).collect();
        assert_eq!(services, vec![900, 800, 700], "worst three, slowest first");
        assert!(report.samples.is_empty());
        // Drained: the next window starts from scratch.
        log.observe(&trace(5));
        assert_eq!(log.drain().worst.len(), 1);
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let a = SlowQueryLog::new(0, 4, 100, 42);
        let b = SlowQueryLog::new(0, 4, 100, 42);
        let c = SlowQueryLog::new(0, 4, 100, 7);
        for s in 0..200u64 {
            a.observe(&trace(s));
            b.observe(&trace(s));
            c.observe(&trace(s));
        }
        let (ra, rb, rc) = (a.drain(), b.drain(), c.drain());
        let ids = |r: &SlowQueryReport| r.samples.iter().map(|t| t.query).collect::<Vec<_>>();
        assert_eq!(ids(&ra), ids(&rb), "same seed, same sample set");
        assert!(!ra.samples.is_empty(), "1-in-4 over 200 arrivals samples something");
        assert_ne!(ids(&ra), ids(&rc), "different seed, different sample set");
        // Roughly 1-in-4: within a loose band, deterministic so no flake.
        let n = ra.samples.len();
        assert!((20..=90).contains(&n), "sampled {n} of 200 at 1-in-4");
    }

    #[test]
    fn sample_ring_keeps_the_newest() {
        let log = SlowQueryLog::new(0, 1, 5, 0); // sample everything, cap 5
        for s in 0..20u64 {
            log.observe(&trace(s));
        }
        let report = log.drain();
        let ids: Vec<u64> = report.samples.iter().map(|t| t.query).collect();
        assert_eq!(ids, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn concurrent_observers_never_lose_the_maximum() {
        let log = SlowQueryLog::new(4, 0, 0, 9);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..500u64 {
                        log.observe(&trace(t * 1000 + i));
                    }
                });
            }
        });
        let report = log.drain();
        assert_eq!(report.worst.len(), 4);
        assert_eq!(report.worst[0].service_nanos, 3499, "global maximum survives");
    }
}
