//! I/O accounting.
//!
//! The experiments in the paper report the number of page accesses that miss
//! the LRU buffer (charged at 10 ms each) separately from CPU time.
//! [`IoStats`] is that triple — accesses, faults, evictions — as an immutable
//! snapshot, and [`IoCounters`] is a handle that reads it.
//!
//! There is one count. A demand access is counted once, by the buffer shard
//! that serves it, under the shard lock the access already holds
//! ([`crate::ShardStats`]); an [`IoCounters`] handed to a
//! [`crate::BufferPool`] is a read handle on that pool's shards, so its
//! [`IoCounters::snapshot`] is the pool's own total
//! (`BufferPool::io_stats().total.as_io_stats()`) by construction. There is
//! no per-thread or per-query view: a caller that wants the I/O of a stretch
//! of work diffs two snapshots around it with [`IoStats::since`].

use crate::buffer::{stats_of, Shard};
use std::ops::AddAssign;
use std::sync::{Arc, OnceLock, Weak};

/// An immutable snapshot of I/O activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Logical page accesses (every adjacency-list fetch).
    pub accesses: u64,
    /// Accesses that missed the buffer and had to "read from disk".
    pub faults: u64,
    /// Pages evicted from the buffer to make room for a faulted page.
    pub evictions: u64,
}

impl IoStats {
    /// Buffer hit ratio in `[0, 1]`; `1.0` when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        1.0 - (self.faults as f64 / self.accesses as f64)
    }

    /// The difference `self - earlier`, used to attribute I/O to a stretch
    /// of a longer workload. Saturates at zero: the pool can be cleared
    /// through `&self` (`BufferPool::clear`, `PagedGraph::cold_start`)
    /// between the two snapshots, and a clear must read as "nothing since",
    /// not as a panic or a wrapped difference.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            accesses: self.accesses.saturating_sub(earlier.accesses),
            faults: self.faults.saturating_sub(earlier.faults),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

impl AddAssign<&IoStats> for IoStats {
    fn add_assign(&mut self, other: &IoStats) {
        self.accesses += other.accesses;
        self.faults += other.faults;
        self.evictions += other.evictions;
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, other: IoStats) {
        *self += &other;
    }
}

/// A read handle on the demand counts of one buffer pool.
///
/// Create it with [`IoCounters::new`] and hand it (or a clone) to the pool's
/// constructor: the pool attaches its shards to it, and from then on every
/// clone reads that pool. Before it is handed to a pool, and after the pool
/// is dropped, a handle reads zeros. A handle reads one pool: handing an
/// attached handle to a second pool panics.
#[derive(Clone, Debug, Default)]
pub struct IoCounters {
    pool: Arc<OnceLock<Weak<[Shard]>>>,
}

impl IoCounters {
    /// A handle not yet attached to a pool (it reads zeros).
    pub fn new() -> Self {
        Self::default()
    }

    /// Points this handle and every clone of it at `shards` — called once,
    /// by the pool that owns them.
    pub(crate) fn attach(&self, shards: &Arc<[Shard]>) {
        let fresh = self.pool.set(Arc::downgrade(shards)).is_ok();
        assert!(fresh, "an IoCounters handle reads one buffer pool; give each pool its own");
    }

    /// The pool's demand accesses, faults and evictions since it was built
    /// or last cleared, summed over its shards under every shard lock — the
    /// same read as `BufferPool::io_stats`, so a snapshot never shows a
    /// half-cleared pool.
    pub fn snapshot(&self) -> IoStats {
        match self.pool.get().and_then(Weak::upgrade) {
            Some(shards) => stats_of(&shards).total.as_io_stats(),
            None => IoStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::disk_with_pages;
    use crate::buffer::{BufferPool, BufferPoolConfig};
    use crate::page::PageId;

    /// A pool of `capacity` pages over 8 one-record pages, and a second
    /// handle on it.
    fn pool(capacity: usize) -> (BufferPool<crate::MemoryDisk>, IoCounters) {
        let counters = IoCounters::new();
        let pool = BufferPool::new(disk_with_pages(8), capacity, counters.clone());
        (pool, counters)
    }

    #[test]
    fn snapshot_reflects_recorded_accesses() {
        let (pool, c) = pool(1);
        assert_eq!(c.snapshot(), IoStats::default());
        for id in [0, 0, 1] {
            pool.fetch(PageId(id)).unwrap(); // fault, hit, fault + eviction
        }
        let s = c.snapshot();
        assert_eq!(s, IoStats { accesses: 3, faults: 2, evictions: 1 });
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s, pool.io_stats().total.as_io_stats(), "the pool's own total");
    }

    #[test]
    fn clones_share_state_and_reset_clears() {
        let (pool, c) = pool(2);
        let c2 = c.clone();
        pool.fetch(PageId(0)).unwrap();
        assert_eq!(c2.snapshot().faults, 1);
        assert_eq!(pool.counters().snapshot(), c2.snapshot(), "the pool's handle is a clone too");
        pool.clear();
        assert_eq!(c.snapshot(), IoStats::default());
        assert_eq!(c2.snapshot().hit_ratio(), 1.0);
        // Counting goes on after a clear.
        pool.fetch(PageId(1)).unwrap();
        assert_eq!(c2.snapshot(), IoStats { accesses: 1, faults: 1, evictions: 0 });
    }

    #[test]
    fn since_and_add_assign() {
        let a = IoStats { accesses: 10, faults: 4, evictions: 2 };
        let b = IoStats { accesses: 7, faults: 1, evictions: 0 };
        let d = a.since(&b);
        assert_eq!(d, IoStats { accesses: 3, faults: 3, evictions: 2 });
        assert_eq!(b.since(&a), IoStats::default(), "saturates, never wraps");
        let mut acc = IoStats::default();
        acc += &a;
        acc += b; // by value
        assert_eq!(acc, IoStats { accesses: 17, faults: 5, evictions: 2 });
    }

    #[test]
    fn hit_ratio_edge_cases() {
        assert_eq!(IoStats::default().hit_ratio(), 1.0, "no accesses counts as all hits");
        let all_faults = IoStats { accesses: 5, faults: 5, evictions: 0 };
        assert_eq!(all_faults.hit_ratio(), 0.0);
        let all_hits = IoStats { accesses: 5, faults: 0, evictions: 0 };
        assert_eq!(all_hits.hit_ratio(), 1.0);
    }

    #[test]
    fn per_query_attribution_with_since() {
        // The harness pattern: snapshot before a stretch of work, diff after.
        let (pool, c) = pool(4);
        pool.fetch(PageId(0)).unwrap(); // warmup access
        let before = c.snapshot();
        for id in [1, 1, 0] {
            pool.fetch(PageId(id)).unwrap();
        }
        let query_io = c.snapshot().since(&before);
        assert_eq!(query_io, IoStats { accesses: 3, faults: 1, evictions: 0 });
    }

    #[test]
    fn concurrent_recording_loses_no_accesses_and_merge_matches_total() {
        let counters = IoCounters::new();
        let config = BufferPoolConfig::new(4).with_shards(4);
        let pool = BufferPool::with_config(disk_with_pages(8), config, counters.clone());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..500 {
                        pool.fetch(PageId((t + i) % 8)).unwrap();
                    }
                });
            }
        });
        let s = counters.snapshot();
        assert_eq!(s.accesses, 2000);
        assert!(s.evictions <= s.faults && s.faults <= s.accesses, "{s:?}");
        // The snapshot is exactly the merge of the per-shard parts.
        let per_shard = pool.io_stats().per_shard;
        assert_eq!(per_shard.len(), 4);
        let mut merged = IoStats::default();
        for shard in &per_shard {
            merged += shard.as_io_stats();
        }
        assert_eq!(merged, s);
    }

    #[test]
    fn distinct_counter_bundles_do_not_mix_even_on_one_thread() {
        let (a_pool, a) = pool(4);
        let (b_pool, b) = pool(4);
        a_pool.fetch(PageId(0)).unwrap();
        b_pool.fetch(PageId(0)).unwrap();
        b_pool.fetch(PageId(0)).unwrap();
        assert_eq!(a.snapshot(), IoStats { accesses: 1, faults: 1, evictions: 0 });
        assert_eq!(b.snapshot(), IoStats { accesses: 2, faults: 1, evictions: 0 });
    }

    #[test]
    fn a_handle_whose_pool_was_dropped_reads_zeros() {
        let (keep_pool, keep) = pool(4);
        keep_pool.fetch(PageId(0)).unwrap();
        let (dropped_pool, orphan) = pool(4);
        dropped_pool.fetch(PageId(0)).unwrap();
        assert_eq!(orphan.snapshot().accesses, 1);
        drop(dropped_pool);
        assert_eq!(orphan.snapshot(), IoStats::default());
        assert_eq!(keep.snapshot().accesses, 1, "the surviving pool is unaffected");
        assert_eq!(IoCounters::new().snapshot(), IoStats::default(), "never attached");
    }

    #[test]
    #[should_panic(expected = "reads one buffer pool")]
    fn a_handle_reads_one_pool() {
        let (_pool, c) = pool(4);
        let _second = BufferPool::new(disk_with_pages(2), 2, c);
    }
}
