//! Registry glue: publishing the storage layer's counters through
//! [`rnn_obs::MetricsRegistry`].
//!
//! The storage layer counts demand I/O once, in the buffer shards, and an
//! [`IoCounters`] handle reads the total — a *poll* API that takes the shard
//! locks: nothing here touches the page-access hot path. A registration
//! installs a snapshot **source** ([`MetricsRegistry::register_source`]), so
//! every [`MetricsRegistry::snapshot`] re-polls the live counters and the
//! emitted triple always comes from **one** underlying snapshot call. That
//! preserves the storage layer's own consistency guarantee in the exported
//! numbers: within a single metrics snapshot, `evictions <= faults <=
//! accesses`.
//!
//! Metric names carry the pool label inline (`{pool="graph"}`), matching the
//! exporter's Prometheus-style text format, so several pools (e.g. the graph
//! pool and the materialized-table pool of a bichromatic setup) can register
//! into one registry without clashing.

use crate::io_stats::IoCounters;
use rnn_obs::MetricsRegistry;

/// Registers an [`IoCounters`] handle as a snapshot source named
/// `io-counters/<pool>`.
///
/// Emits, per snapshot, from one [`IoCounters::snapshot`] call:
///
/// * `rnn_io_accesses_total{pool="<pool>"}` — logical page accesses;
/// * `rnn_io_faults_total{pool="<pool>"}` — buffer misses;
/// * `rnn_io_evictions_total{pool="<pool>"}` — pages evicted.
///
/// The registry keeps a clone of the handle, so accesses its pool serves
/// after registration show up in later snapshots.
pub fn register_io_counters(registry: &MetricsRegistry, pool: &str, counters: &IoCounters) {
    let accesses = format!("rnn_io_accesses_total{{pool=\"{pool}\"}}");
    let faults = format!("rnn_io_faults_total{{pool=\"{pool}\"}}");
    let evictions = format!("rnn_io_evictions_total{{pool=\"{pool}\"}}");
    let counters = counters.clone();
    registry.register_source(&format!("io-counters/{pool}"), move |set| {
        let s = counters.snapshot();
        set.counter(&accesses, s.accesses);
        set.counter(&faults, s.faults);
        set.counter(&evictions, s.evictions);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::disk_with_pages as disk;
    use crate::buffer::BufferPool;
    use crate::page::PageId;

    #[test]
    fn io_counters_source_reflects_live_counts() {
        let registry = MetricsRegistry::new();
        let counters = IoCounters::new();
        let pool = BufferPool::new(disk(4), 1, counters.clone());
        register_io_counters(&registry, "graph", &counters);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}"), Some(0));

        for id in [0, 0, 1] {
            pool.fetch(PageId(id)).unwrap(); // fault, hit, fault + eviction
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}"), Some(3));
        assert_eq!(snap.counter("rnn_io_faults_total{pool=\"graph\"}"), Some(2));
        assert_eq!(snap.counter("rnn_io_evictions_total{pool=\"graph\"}"), Some(1));
    }

    #[test]
    fn two_pools_register_without_clashing() {
        let registry = MetricsRegistry::new();
        let a = BufferPool::new(disk(2), 2, IoCounters::new());
        let b = BufferPool::new(disk(2), 2, IoCounters::new());
        register_io_counters(&registry, "graph", a.counters());
        register_io_counters(&registry, "knn-table", b.counters());
        a.fetch(PageId(0)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}"), Some(1));
        assert_eq!(snap.counter("rnn_io_accesses_total{pool=\"knn-table\"}"), Some(0));
    }

    #[test]
    fn snapshots_keep_io_invariants_under_concurrent_recording() {
        // Pollers snapshot the registry while fetchers hammer a pool; every
        // emitted triple must satisfy evictions <= faults <= accesses
        // because each collection reads one IoCounters snapshot.
        let registry = MetricsRegistry::new();
        let config = crate::buffer::BufferPoolConfig::new(4).with_shards(2);
        let pool = BufferPool::with_config(disk(16), config, IoCounters::new());
        register_io_counters(&registry, "graph", pool.counters());
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..2_000u32 {
                        pool.fetch(PageId((t + i * 3) % 16)).unwrap();
                    }
                });
            }
            let registry = registry.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = registry.snapshot();
                    let accesses = snap.counter("rnn_io_accesses_total{pool=\"graph\"}").unwrap();
                    let faults = snap.counter("rnn_io_faults_total{pool=\"graph\"}").unwrap();
                    let evictions = snap.counter("rnn_io_evictions_total{pool=\"graph\"}").unwrap();
                    assert!(evictions <= faults, "torn: {evictions} > {faults}");
                    assert!(faults <= accesses, "torn: {faults} > {accesses}");
                }
            });
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_io_accesses_total{pool=\"graph\"}"), Some(4_000));
    }
}
