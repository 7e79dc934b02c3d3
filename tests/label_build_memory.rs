//! Peak memory of the hub-label build at benchmark scale.
//!
//! The build appends labels into one block arena and freezes it in place
//! into a CSR of `u32` ranks and `f64` distances, then re-encodes the ranks
//! as varints. The arena, not the final store, sets the high-water mark, so
//! the bound is stated against the arena's entry payload: `entries × (4 + 8)`
//! bytes plus the `usize` entry offsets. Building the labels of the
//! `labels-churn` world (BRITE 5×10⁴, seed 42, 2 threads) may raise the
//! process's resident high-water mark by at most 1.4× that payload. It reads
//! 1.34× on a 2-vCPU box, a 139 MB rise, the same as when the CSR itself was
//! the store: the encode stays under the arena's peak. Against the smaller
//! varint store the same rise reads 1.76×, and per-node growable lists
//! copied into the CSR read 3.15× the payload.
//!
//! One test in its own binary, so no other test's allocations share the
//! process. Release-only, since the unoptimised build takes minutes at this
//! size; it reads `VmRSS` / `VmHWM` from `/proc/self/status` and skips where
//! that file does not exist.
//!
//! The same labeling is pinned by hash and entry count: it is the one real
//! labeling whose ranks pass 2¹⁴, so its varint rank deltas are the only ones
//! that can take three bytes.

mod common;

use common::label_hash;
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
fn label_build_peak_stays_within_1_4x_the_arena_payload() {
    let graph = brite_topology(&BriteConfig { num_nodes: 50_000, seed: 42, ..Default::default() });
    let Some(before) = status_bytes("VmRSS") else {
        eprintln!("skipped: /proc/self/status is not available");
        return;
    };
    let labeling = HubLabeling::build_with_threads(&graph, 2);
    let peak = status_bytes("VmHWM").expect("VmHWM is listed beside VmRSS");
    let stats = labeling.stats();
    let payload = stats.entries * (size_of::<u32>() + size_of::<f64>())
        + (stats.nodes + 1) * size_of::<usize>();
    let rise = peak.saturating_sub(before);
    let ratio = rise as f64 / payload as f64;
    assert!(
        ratio <= 1.4,
        "the build raised the peak by {ratio:.2}x the arena payload \
         ({} MB over {} MB resident before it, {} MB of payload, {} MB of labels)",
        rise >> 20,
        before >> 20,
        payload >> 20,
        stats.label_bytes() >> 20,
    );
    assert!(stats.label_bytes() < payload, "the varint store is smaller than the arena's CSR");
    assert_eq!(
        (format!("{:#018x}", label_hash(&labeling)), stats.entries),
        ("0x4400219e33a9db63".to_string(), 8_632_920)
    );
}
