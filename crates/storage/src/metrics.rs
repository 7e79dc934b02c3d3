//! Registry glue: publishing the storage layer's counters through
//! [`rnn_obs::MetricsRegistry`].
//!
//! The storage layer counts demand I/O once, in the buffer shards, and reads
//! it two ways — the total through an [`IoCounters`] handle, the per-shard
//! breakdown through [`BufferPool::io_stats`]. Both are *poll* APIs that take
//! the shard locks: nothing here touches the page-access hot path. Each
//! registration installs a snapshot **source**
//! ([`MetricsRegistry::register_source`]), so every
//! [`MetricsRegistry::snapshot`] re-polls the live counters and the emitted
//! triple always comes from **one** underlying snapshot call. That preserves
//! the storage layer's own consistency guarantee in the exported numbers:
//! within a single metrics snapshot, `evictions <= faults <= accesses` for
//! the I/O counters and `hits + faults == accesses` for every buffer shard.
//!
//! Metric names carry the pool label inline (`{pool="graph"}`), matching the
//! exporter's Prometheus-style text format, so several pools (e.g. the graph
//! pool and the materialized-table pool of a bichromatic setup) can register
//! into one registry without clashing.

use crate::buffer::BufferPool;
use crate::disk::PageStore;
use crate::io_stats::IoCounters;
use rnn_obs::MetricsRegistry;
use std::sync::Arc;

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

/// Registers a [`BufferPool`] as a snapshot source named
/// `buffer-pool/<pool>`.
///
/// Emits, per snapshot, gauges for the pool's shape —
/// `rnn_buffer_pool_capacity_pages`, `rnn_buffer_pool_shards`,
/// `rnn_buffer_pool_resident_pages` — then hit/fault/eviction and
/// `prefetch_{issued,useful,wasted}` counters for the pool total, and per
/// shard the same counters plus a
/// `rnn_buffer_pool_shard_hit_rate_permille` gauge (demand hits per 1000
/// demand accesses; 0 when the shard is untouched)
/// (`rnn_buffer_pool_shard_hits_total{pool="<pool>",shard="0"}`, …). All
/// counters of one snapshot come from a single [`BufferPool::io_stats`]
/// call, which holds every shard lock, so the per-shard breakdown always
/// sums to the emitted total.
///
/// The pool is held behind an [`Arc`] because the registry's sources are
/// `'static`: the registration keeps the pool alive for as long as the
/// registry polls it.
pub fn register_buffer_pool<S>(registry: &MetricsRegistry, pool: &str, buffer: &Arc<BufferPool<S>>)
where
    S: PageStore + Send + Sync + 'static,
{
    let label = pool.to_string();
    let buffer = Arc::clone(buffer);
    registry.register_source(&format!("buffer-pool/{pool}"), move |set| {
        let p = &label;
        set.gauge(
            &format!("rnn_buffer_pool_capacity_pages{{pool=\"{p}\"}}"),
            buffer.capacity() as u64,
        );
        set.gauge(&format!("rnn_buffer_pool_shards{{pool=\"{p}\"}}"), buffer.num_shards() as u64);
        let stats = buffer.io_stats();
        // `resident_pages` re-locks the shards, but the gauge is advisory
        // (it may lag `stats` by concurrent fetches); the counters below all
        // come from the one consistent `stats` snapshot.
        set.gauge(
            &format!("rnn_buffer_pool_resident_pages{{pool=\"{p}\"}}"),
            buffer.resident_pages() as u64,
        );
        set.counter(&format!("rnn_buffer_pool_hits_total{{pool=\"{p}\"}}"), stats.total.hits);
        set.counter(&format!("rnn_buffer_pool_faults_total{{pool=\"{p}\"}}"), stats.total.faults);
        set.counter(
            &format!("rnn_buffer_pool_evictions_total{{pool=\"{p}\"}}"),
            stats.total.evictions,
        );
        set.counter(
            &format!("rnn_buffer_pool_prefetch_issued_total{{pool=\"{p}\"}}"),
            stats.total.prefetch_issued,
        );
        set.counter(
            &format!("rnn_buffer_pool_prefetch_useful_total{{pool=\"{p}\"}}"),
            stats.total.prefetch_useful,
        );
        set.counter(
            &format!("rnn_buffer_pool_prefetch_wasted_total{{pool=\"{p}\"}}"),
            stats.total.prefetch_wasted,
        );
        for (i, shard) in stats.per_shard.iter().enumerate() {
            set.counter(
                &format!("rnn_buffer_pool_shard_hits_total{{pool=\"{p}\",shard=\"{i}\"}}"),
                shard.hits,
            );
            set.counter(
                &format!("rnn_buffer_pool_shard_faults_total{{pool=\"{p}\",shard=\"{i}\"}}"),
                shard.faults,
            );
            set.counter(
                &format!("rnn_buffer_pool_shard_evictions_total{{pool=\"{p}\",shard=\"{i}\"}}"),
                shard.evictions,
            );
            set.counter(
                &format!(
                    "rnn_buffer_pool_shard_prefetch_issued_total{{pool=\"{p}\",shard=\"{i}\"}}"
                ),
                shard.prefetch_issued,
            );
            set.counter(
                &format!(
                    "rnn_buffer_pool_shard_prefetch_useful_total{{pool=\"{p}\",shard=\"{i}\"}}"
                ),
                shard.prefetch_useful,
            );
            set.counter(
                &format!(
                    "rnn_buffer_pool_shard_prefetch_wasted_total{{pool=\"{p}\",shard=\"{i}\"}}"
                ),
                shard.prefetch_wasted,
            );
            set.gauge(
                &format!("rnn_buffer_pool_shard_hit_rate_permille{{pool=\"{p}\",shard=\"{i}\"}}"),
                shard.hit_rate_permille(),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::disk_with_pages as disk;
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
    fn buffer_pool_source_emits_shape_totals_and_shards() {
        let registry = MetricsRegistry::new();
        let pool = Arc::new(BufferPool::with_config(
            disk(8),
            crate::buffer::BufferPoolConfig::new(4).with_shards(2),
            IoCounters::new(),
        ));
        register_buffer_pool(&registry, "graph", &pool);

        pool.prefetch(&[PageId::new(0)]);
        for id in [0, 1, 0, 2, 3, 4, 5, 6, 7, 0] {
            pool.fetch(PageId::new(id)).unwrap();
        }
        let snap = registry.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("missing {name}"));
        let g = |name: &str| snap.gauge(name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(g("rnn_buffer_pool_capacity_pages{pool=\"graph\"}"), 4);
        assert_eq!(g("rnn_buffer_pool_shards{pool=\"graph\"}"), 2);
        assert!(g("rnn_buffer_pool_resident_pages{pool=\"graph\"}") <= 4);
        assert_eq!(c("rnn_buffer_pool_prefetch_issued_total{pool=\"graph\"}"), 1);
        assert_eq!(
            c("rnn_buffer_pool_prefetch_useful_total{pool=\"graph\"}"),
            1,
            "the prefetched page 0 served its first demand access"
        );

        let hits = c("rnn_buffer_pool_hits_total{pool=\"graph\"}");
        let faults = c("rnn_buffer_pool_faults_total{pool=\"graph\"}");
        let evictions = c("rnn_buffer_pool_evictions_total{pool=\"graph\"}");
        assert_eq!(hits + faults, 10, "every fetch is a hit or a fault");
        assert!(evictions <= faults);

        // The per-shard breakdown sums to the emitted totals (all read from
        // one io_stats snapshot), and the derived hit-rate gauge agrees with
        // the counters it derives from.
        let mut shard_hits = 0;
        let mut shard_faults = 0;
        let mut shard_evictions = 0;
        for i in 0..2 {
            let h = c(&format!("rnn_buffer_pool_shard_hits_total{{pool=\"graph\",shard=\"{i}\"}}"));
            let f =
                c(&format!("rnn_buffer_pool_shard_faults_total{{pool=\"graph\",shard=\"{i}\"}}"));
            shard_hits += h;
            shard_faults += f;
            shard_evictions += c(&format!(
                "rnn_buffer_pool_shard_evictions_total{{pool=\"graph\",shard=\"{i}\"}}"
            ));
            let rate = g(&format!(
                "rnn_buffer_pool_shard_hit_rate_permille{{pool=\"graph\",shard=\"{i}\"}}"
            ));
            let expected = (h * 1000).checked_div(h + f).unwrap_or(0);
            assert_eq!(rate, expected, "shard {i} hit-rate gauge");
        }
        assert_eq!(shard_hits, hits);
        assert_eq!(shard_faults, faults);
        assert_eq!(shard_evictions, evictions);
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
