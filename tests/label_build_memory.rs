//! Peak memory of the hub-label build at benchmark scale.
//!
//! The build appends labels into one block arena and freezes it in place
//! into the CSR, so building the labels of the `labels-churn` world (BRITE
//! 5×10⁴, seed 42, 2 threads) may raise the process's resident high-water
//! mark by at most 1.4× the label bytes it ends up holding. The arena reads
//! 1.31× here; per-node growable lists copied into the CSR read 3.15×.
//!
//! One test in its own binary, so no other test's allocations share the
//! process. Release-only, since the unoptimised build takes minutes at this
//! size; it reads `VmRSS` / `VmHWM` from `/proc/self/status` and skips where
//! that file does not exist.

use rnn_datagen::{brite_topology, BriteConfig};
use rnn_index::HubLabeling;

/// The `field` line of `/proc/self/status` in bytes, or `None` without it.
fn status_bytes(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kib: usize = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the 5x10^4-node build is slow unoptimised")]
fn label_build_peak_stays_within_1_4x_the_label_bytes() {
    let graph = brite_topology(&BriteConfig { num_nodes: 50_000, seed: 42, ..Default::default() });
    let Some(before) = status_bytes("VmRSS") else {
        eprintln!("skipped: /proc/self/status is not available");
        return;
    };
    let labeling = HubLabeling::build_with_threads(&graph, 2);
    let peak = status_bytes("VmHWM").expect("VmHWM is listed beside VmRSS");
    let label_bytes = labeling.stats().label_bytes();
    let ratio = peak.saturating_sub(before) as f64 / label_bytes as f64;
    assert!(
        ratio <= 1.4,
        "the build raised the peak by {ratio:.2}x the label bytes \
         ({} MB over {} MB resident before it, {} MB of labels)",
        peak.saturating_sub(before) >> 20,
        before >> 20,
        label_bytes >> 20,
    );
}
