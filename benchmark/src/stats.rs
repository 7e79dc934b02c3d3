//! Small numeric helpers: percentiles, ratios and the FNV-1a result digest.

use rnn_graph::PointId;

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by nearest rank; sorts in
/// place. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when nothing was counted (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over every result of a pass, in operation order: per result its
/// length, then its point ids. Pinned for seed 42 in `digests.txt`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, word: u32) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn result(&mut self, points: &[PointId]) {
        self.word(points.len() as u32);
        for &p in points {
            self.word(p.index() as u32);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
