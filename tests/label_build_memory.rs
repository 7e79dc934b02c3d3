//! Peak memory of the hub-label build at benchmark scale.
//!
//! The build appends labels into one block arena, each slot a `u16` rank
//! offset from its block's base rank beside an `f64` distance, freezes it in
//! place and writes the varint rank stream straight from the frozen offsets.
//! The arena, not the final store, sets the high-water mark, so the bound is
//! stated against the entry payload of a plain `u32`-rank arena:
//! `entries × (4 + 8)` bytes plus the `usize` entry offsets. Building the
//! labels of the `labels-churn` world (BRITE 5×10⁴, seed 42, 2 threads) may
//! raise the process's resident high-water mark by at most 1.2× that
//! payload. It reads 1.13–1.14× on a 2-vCPU box, a 112 MB rise; with `u32`
//! ranks in the arena it read 1.34–1.37×, a 132–135 MB rise, and per-node
//! growable lists copied into a CSR read 3.15× the payload.
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
fn label_build_peak_stays_within_1_2x_the_arena_payload() {
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
        ratio <= 1.2,
        "the build raised the peak by {ratio:.2}x the arena payload \
         ({} MB over {} MB resident before it, {} MB of payload, {} MB of labels)",
        rise >> 20,
        before >> 20,
        payload >> 20,
        stats.label_bytes() >> 20,
    );
    assert!(stats.label_bytes() < payload, "the varint store is smaller than the payload");
    assert_eq!(
        (format!("{:#018x}", label_hash(&labeling)), stats.entries),
        ("0x4400219e33a9db63".to_string(), 8_632_920)
    );
}
