//! Striped LRU buffer manager.
//!
//! The experiments in the paper use an LRU buffer of 1 MB (256 pages of
//! 4 KB); Fig. 21 varies the buffer between 0 and 1024 pages. [`BufferPool`]
//! reproduces that component: it caches [`Page`]s — the encoded bytes as
//! read from the store; a fetch decodes its one record in place and nothing
//! decoded is kept — evicts the least recently used page when full, and
//! counts every access.
//!
//! A demand access is [`BufferPool::read_with`]: the caller's closure reads
//! the page where it lies — on a hit under the shard lock, on the resident
//! page, without cloning its handle — and [`BufferPool::fetch`], which
//! returns a handle, is that call with a cloning closure. Capacity, hits,
//! faults and evictions count 4 KB encoded pages either way.
//!
//! The pool is **sharded**: the capacity is split across a power-of-two
//! number of independently locked shards and every page id maps to
//! exactly one shard (`mix64(page_id) & mask`), so concurrent fetches of
//! pages in distinct shards never contend on a lock. With one shard
//! (the default, and the only configuration before sharding existed) the
//! pool is a single LRU whose victim order is bit-compatible with the
//! paper's buffer; with N shards each shard is the same LRU over its slice
//! of the pages. Shard counts come from [`BufferPoolConfig`].
//!
//! Replacement is exact LRU and nothing else, and a page enters the pool
//! only when a demand access faults it in: the paper's cost model is faults
//! against one LRU buffer with no read-ahead (Fig. 21 varies its size and
//! nothing else), so every fault count in the repository is a statement
//! about this victim order. A shard holds its pages in the workspace's one
//! [`Lru`] directly.
//!
//! Each shard keeps its own hit/fault/eviction counters ([`ShardStats`]),
//! inside its lock: they are the one place a demand access is counted.
//! [`BufferPool::io_stats`] reports them as a [`BufferPoolStats`] breakdown
//! alongside the merged total, and the [`IoCounters`] handle the pool was
//! built with reads that same total.

use crate::disk::PageStore;
use crate::error::StorageError;
use crate::io_stats::{IoCounters, IoStats};
use crate::lru::{mix64, Lru};
use crate::page::{Page, PageId};
use rnn_obs::{EventKind, FlightRecorder};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of pages in the paper's default 1 MB buffer.
pub(crate) const DEFAULT_BUFFER_PAGES: usize = 256;

/// Configuration of a [`BufferPool`]: total capacity and shard count.
///
/// The shard count is normalized when the pool is built: it is rounded up to
/// a power of two (so the shard of a page is one mask of its mixed id) and
/// capped so that every shard holds at least one page — a 6-page pool asked
/// for 8 shards gets 4, and any pool with capacity 0 gets a single (empty)
/// shard. [`BufferPoolConfig::effective_shards`] exposes the normalized
/// count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BufferPoolConfig {
    /// Total buffer capacity in pages, split across the shards.
    pub capacity: usize,
    /// Requested shard count (normalized to a power of two when building).
    pub shards: usize,
}

impl BufferPoolConfig {
    /// A single-shard LRU pool of `capacity` pages — the classic
    /// configuration, bit-compatible with the paper's single LRU list.
    pub fn new(capacity: usize) -> Self {
        BufferPoolConfig { capacity, shards: 1 }
    }

    /// Sets the requested shard count (see the type docs for normalization).
    ///
    /// Rule of thumb: one shard per concurrent worker thread rounded up to a
    /// power of two; more shards than workers only costs a little capacity
    /// granularity, while fewer serializes distinct-page fetches.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The paper's default: 256 pages, one shard.
    pub fn paper_default() -> Self {
        Self::new(DEFAULT_BUFFER_PAGES)
    }

    /// The shard count the pool will actually use: `shards` rounded up to a
    /// power of two, then halved until every shard gets at least one page of
    /// `capacity` (always at least 1).
    pub fn effective_shards(&self) -> usize {
        crate::lru::normalized_shards(self.capacity, self.shards)
    }

    /// Per-shard capacities: `capacity` split as evenly as the shard count
    /// allows (the first `capacity % shards` shards get one extra page).
    fn shard_capacities(&self) -> Vec<usize> {
        crate::lru::split_capacity(self.capacity, self.shards)
    }
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Hit/fault/eviction counters of one buffer shard (or their sum).
///
/// `hits + faults` is the shard's demand access count, and
/// `evictions <= faults <= accesses` always holds. Like [`IoStats`] and the
/// `rnn-core`'s `QueryStats`, snapshots add with `+=` so per-shard breakdowns
/// fold into totals without ad-hoc summation code.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Demand accesses served from the shard's cache.
    pub hits: u64,
    /// Demand accesses that missed and read from the store.
    pub faults: u64,
    /// Pages evicted to make room for a faulted page.
    pub evictions: u64,
}

impl ShardStats {
    /// Total demand accesses routed to this shard.
    pub fn accesses(&self) -> u64 {
        self.hits + self.faults
    }

    /// The counts as an [`IoStats`] snapshot.
    pub fn as_io_stats(&self) -> IoStats {
        IoStats { accesses: self.accesses(), faults: self.faults, evictions: self.evictions }
    }

    /// Demand hit rate in permille (0 when the shard saw no accesses).
    pub fn hit_rate_permille(&self) -> u64 {
        (self.hits * 1000).checked_div(self.accesses()).unwrap_or(0)
    }
}

impl AddAssign<&ShardStats> for ShardStats {
    fn add_assign(&mut self, other: &ShardStats) {
        self.hits += other.hits;
        self.faults += other.faults;
        self.evictions += other.evictions;
    }
}

impl AddAssign for ShardStats {
    fn add_assign(&mut self, other: ShardStats) {
        *self += &other;
    }
}

/// A consistent snapshot of a pool's counters: the per-shard breakdown and
/// the merged total. Taken with every shard lock held, so it never shows a
/// half-cleared pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardStats>,
    /// The sum of `per_shard`.
    pub total: ShardStats,
}

/// Hasher of a shard's resident-page map: page ids are dense `u32`s under no
/// adversary's control, so one Fibonacci multiply replaces SipHash — the low
/// bits of the product (the table's bucket) stay distinct for consecutive
/// ids and the high bits (its control byte) are well mixed. It only decides
/// where the map keeps an id, never a victim: eviction order lives in the
/// recency list.
#[derive(Default, Clone, Copy)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// `PageId` hashes through `write_u32`; this is only the trait's
    /// mandatory fallback.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
}

/// One independently locked slice of the pool: the pages whose mixed id maps
/// here, in exact LRU order, plus this shard's counters.
/// Counters live *inside* the lock — every read and write happens under the
/// shard's guard — which is what makes [`BufferPool::clear`] (all guards
/// held) atomic with the pages by construction.
pub(crate) struct ShardState {
    cache: Lru<PageId, Page, BuildHasherDefault<PageIdHasher>>,
    stats: ShardStats,
}

pub(crate) type Shard = Mutex<ShardState>;

fn new_shard(capacity: usize) -> Shard {
    Mutex::new(ShardState { cache: Lru::new(capacity), stats: ShardStats::default() })
}

/// Locks `mutex`, ignoring poison: a reader whose closure panicked under a
/// shard lock must not fail every later fetch from that shard.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks every shard in index order (the one lock order in this module, so
/// multi-shard operations cannot deadlock against each other).
fn lock_all(shards: &[Shard]) -> Vec<MutexGuard<'_, ShardState>> {
    shards.iter().map(lock).collect()
}

/// The counters of every shard plus their sum, read with every shard lock
/// held — what [`BufferPool::io_stats`] and [`IoCounters::snapshot`] both
/// return.
pub(crate) fn stats_of(shards: &[Shard]) -> BufferPoolStats {
    let per_shard: Vec<ShardStats> = lock_all(shards).iter().map(|g| g.stats).collect();
    let mut total = ShardStats::default();
    for s in &per_shard {
        total += s;
    }
    BufferPoolStats { per_shard, total }
}

/// A striped LRU page buffer on top of a [`PageStore`].
pub struct BufferPool<S> {
    store: S,
    // Atomic only because [`BufferPool::resize`] rebalances through `&self`;
    // resize writes it under all shard locks, everything else reads it.
    capacity: AtomicUsize,
    mask: usize, // shards.len() - 1; shards.len() is a power of two
    // Shared only with the `IoCounters` handles, which hold it weakly.
    shards: Arc<[Shard]>,
    counters: IoCounters,
    /// Optional flight-recorder sink for control-plane events (resize,
    /// clear). Touched only on those paths — never on
    /// `fetch` — so attaching a sink costs the hot path nothing.
    events: Mutex<Option<Arc<FlightRecorder>>>,
}

impl<S: PageStore> BufferPool<S> {
    /// Creates a **single-shard** buffer of `capacity` pages over `store`,
    /// readable through `counters` — the exact buffer of the paper's
    /// experiments (one LRU list, one victim order).
    ///
    /// A capacity of 0 disables caching entirely: every access is a fault
    /// (this is the leftmost point of Fig. 21).
    pub fn new(store: S, capacity: usize, counters: IoCounters) -> Self {
        Self::with_config(store, BufferPoolConfig::new(capacity), counters)
    }

    /// Creates a buffer from a [`BufferPoolConfig`] (capacity split across
    /// the normalized shard count) and attaches `counters` — a fresh handle,
    /// or a clone of one the caller keeps — to its shards.
    ///
    /// # Panics
    /// Panics if `counters` already reads another pool.
    pub fn with_config(store: S, config: BufferPoolConfig, counters: IoCounters) -> Self {
        let shards: Arc<[Shard]> = config.shard_capacities().into_iter().map(new_shard).collect();
        debug_assert!(shards.len().is_power_of_two());
        counters.attach(&shards);
        BufferPool {
            store,
            capacity: AtomicUsize::new(config.capacity),
            mask: shards.len() - 1,
            shards,
            counters,
            events: Mutex::new(None),
        }
    }

    /// Attaches a flight recorder: from here on, every control-plane
    /// mutation — [`BufferPool::resize`], [`BufferPool::clear`] — appends a
    /// structured event ([`EventKind::PoolResize`] / [`EventKind::PoolClear`]),
    /// so runtime tuning actions land on the same timeline as the serving
    /// events. Replaces any previous sink.
    pub fn set_event_sink(&self, recorder: Arc<FlightRecorder>) {
        *lock(&self.events) = Some(recorder);
    }

    /// Appends `kind` to the attached flight recorder, if any.
    fn emit(&self, kind: EventKind) {
        let sink = lock(&self.events).clone();
        if let Some(recorder) = sink {
            recorder.record(kind);
        }
    }

    /// The total buffer capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// The number of independently locked shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `page_id` maps to.
    pub(crate) fn shard_of(&self, page_id: PageId) -> usize {
        (mix64(page_id.0 as u64) as usize) & self.mask
    }

    /// Number of pages currently resident, summed over all shards with every
    /// shard lock held — so a concurrent [`BufferPool::clear`] is seen either
    /// entirely or not at all, never half-applied.
    pub fn resident_pages(&self) -> usize {
        lock_all(&self.shards).iter().map(|g| g.cache.len()).sum()
    }

    /// The read handle this pool was built with (clones of it read the
    /// same counts).
    pub fn counters(&self) -> &IoCounters {
        &self.counters
    }

    /// A consistent snapshot of the pool's counters: per-shard
    /// hit/fault/eviction breakdowns plus the merged total, whose
    /// `as_io_stats()` is what [`BufferPool::counters`] reads.
    pub fn io_stats(&self) -> BufferPoolStats {
        stats_of(&self.shards)
    }

    /// Drops all resident pages and zeroes every count, holding every shard
    /// lock for the duration: concurrent readers observe either the
    /// pre-clear pool or the empty, zeroed one, never a torn mix, and an
    /// in-flight access is counted entirely before or entirely after the
    /// clear. This is what `PagedGraph::cold_start` calls.
    pub fn clear(&self) {
        for guard in lock_all(&self.shards).iter_mut() {
            guard.cache.clear();
            guard.stats = ShardStats::default();
        }
        self.emit(EventKind::PoolClear);
    }

    /// Rebalances the pool to `new_capacity` pages at runtime, holding every
    /// shard lock for the duration (serving systems resize buffer memory
    /// without rebuilding the pool or invalidating the page→shard mapping —
    /// the shard *count* never changes).
    ///
    /// The new capacity is re-split over the existing shards with the same
    /// remainder-first rule the constructor uses. A shrink drains each
    /// over-full shard in **exact LRU victim order** (the surviving pages
    /// are precisely the most recently used of each shard); a grow only adds
    /// headroom. With fewer pages than shards, the trailing shards get
    /// capacity 0 and cache nothing (every access to them faults).
    ///
    /// Pages dropped by a shrink are *not* counted as evictions: eviction
    /// counters mean "evicted to make room for a faulted page", and keeping
    /// resize out of them preserves `evictions <= faults`.
    pub fn resize(&self, new_capacity: usize) {
        let mut guards = lock_all(&self.shards);
        let shards = guards.len();
        let base = new_capacity / shards;
        let extra = new_capacity % shards;
        for (i, guard) in guards.iter_mut().enumerate() {
            let cap = base + usize::from(i < extra);
            guard.cache.set_capacity(cap);
            for _ in cap..guard.cache.len() {
                guard.cache.pop_lru();
            }
        }
        self.capacity.store(new_capacity, Ordering::Relaxed);
        drop(guards);
        self.emit(EventKind::PoolResize { pages: new_capacity as u64 });
    }

    /// The underlying page store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Fetches a page through the buffer, recording the access, and returns
    /// a handle to it: [`BufferPool::read_with`] with a closure that clones
    /// the page (a reference-count bump, no bytes are copied).
    ///
    /// Only the one shard owning `page_id` is locked (never across the
    /// store read): fetches of pages in distinct shards run concurrently.
    pub fn fetch(&self, page_id: PageId) -> Result<Page, StorageError> {
        self.read_with(page_id, |page| Ok(page.clone()))
    }

    /// Accesses a page through the buffer, recording the access, and returns
    /// what `read` makes of it — the pool's one demand path
    /// ([`BufferPool::fetch`] is a call to it), so a hit, a miss and their
    /// counts are written once.
    ///
    /// **On a hit `read` runs under the shard lock**, on the resident page
    /// itself: no handle is cloned, so a reader that copies a few bytes out
    /// pays no reference-count traffic. That sets its contract:
    ///
    /// * `read` must not call back into this pool (the shard lock is not
    ///   reentrant — a second access to the same shard would deadlock) and
    ///   must not block;
    /// * `read` must be short. Every other access to the shard waits for it.
    ///   [`crate::PagedGraph`] copies at most 16 decoded arcs under the
    ///   lock; for anything longer it clones the handle (as
    ///   [`BufferPool::fetch`] does) and works on that outside.
    ///
    /// On a miss the page is read from the store outside the lock, inserted
    /// under it, and `read` runs on the page just read with no lock held.
    /// The access is counted before `read` runs, so an `Err` from `read`
    /// (a record that fails validation) leaves the access counted, exactly
    /// as a `fetch` followed by a failing decode does; an `Err` from the
    /// store counts nothing.
    pub fn read_with<R>(
        &self,
        page_id: PageId,
        read: impl FnOnce(&Page) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        // The access is counted in the shard's counters, under the shard lock
        // it holds anyway, so relative to a concurrent [`BufferPool::clear`]
        // (every shard lock) it lands entirely before or entirely after it.
        let shard = &self.shards[self.shard_of(page_id)];
        if self.capacity() == 0 {
            // No buffer at all: every access is a fault and nothing is
            // cached. Counted against the page's nominal shard.
            let page = self.store.read_page(page_id)?;
            lock(shard).stats.faults += 1;
            return read(&page);
        }

        {
            let mut guard = lock(shard);
            let state = &mut *guard;
            if let Some(page) = state.cache.get(&page_id) {
                state.stats.hits += 1;
                return read(page);
            }
        }

        // Miss: read from the store outside the lock, then insert.
        let page = self.store.read_page(page_id)?;
        {
            let mut state = lock(shard);
            // Re-check: another thread may have inserted the page meanwhile
            // (then this insert refreshes it and evicts nothing).
            let evicted = state.cache.insert(page_id, page.clone()).is_some();
            state.stats.faults += 1;
            state.stats.evictions += u64::from(evicted);
        }
        read(&page)
    }
}

impl<S: PageStore> std::fmt::Debug for BufferPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("shards", &self.num_shards())
            .field("resident", &self.resident_pages())
            .field("stats", &self.io_stats().total)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::disk::MemoryDisk;
    use crate::page::{PageBuilder, PageEntry};
    use rnn_graph::{EdgeId, NodeId, Weight};

    /// `n` one-record pages; page `i`'s record is node `i`'s.
    pub(crate) fn disk_with_pages(n: usize) -> MemoryDisk {
        let pages = (0..n)
            .map(|i| {
                let mut b = PageBuilder::new();
                b.push_record(
                    NodeId(i as u32),
                    &[PageEntry { neighbor: NodeId(0), edge: EdgeId(0), weight: Weight::new(1.0) }],
                )
                .unwrap();
                b.build()
            })
            .collect();
        MemoryDisk::new(pages)
    }

    /// The merged pool-side total as an [`IoStats`] (the shape the seed
    /// tests asserted on).
    fn totals<S: PageStore>(pool: &BufferPool<S>) -> IoStats {
        pool.io_stats().total.as_io_stats()
    }

    #[test]
    fn control_plane_mutations_reach_the_attached_event_sink() {
        let pool = BufferPool::new(disk_with_pages(4), 4, IoCounters::new());
        let recorder = Arc::new(FlightRecorder::new(16));
        // Pre-attachment mutations emit nothing; fetches never do.
        pool.resize(3);
        pool.set_event_sink(Arc::clone(&recorder));
        pool.fetch(PageId(0)).unwrap();
        pool.resize(2);
        pool.clear();
        let drained = recorder.drain();
        let kinds: Vec<EventKind> = drained.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::PoolResize { pages: 2 }, EventKind::PoolClear]);
        assert_eq!(drained.dropped, 0);
    }

    #[test]
    fn hits_and_faults_are_counted() {
        let pool = BufferPool::new(disk_with_pages(3), 2, IoCounters::new());
        pool.fetch(PageId(0)).unwrap(); // fault
        pool.fetch(PageId(0)).unwrap(); // hit
        pool.fetch(PageId(1)).unwrap(); // fault
        pool.fetch(PageId(0)).unwrap(); // hit
        let s = totals(&pool);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.faults, 2);
        assert_eq!(s.evictions, 0);
        assert_eq!(pool.resident_pages(), 2);
        // The pool's handle reads the same total.
        assert_eq!(s, pool.counters().snapshot());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::new(disk_with_pages(3), 2, IoCounters::new());
        pool.fetch(PageId(0)).unwrap(); // fault, cache: [0]
        pool.fetch(PageId(1)).unwrap(); // fault, cache: [1, 0]
        pool.fetch(PageId(0)).unwrap(); // hit,   cache: [0, 1]
        pool.fetch(PageId(2)).unwrap(); // fault, evicts 1
        let s = totals(&pool);
        assert_eq!(s.faults, 3);
        assert_eq!(s.evictions, 1);
        // 1 was evicted, 0 was kept
        pool.fetch(PageId(0)).unwrap(); // hit
        pool.fetch(PageId(1)).unwrap(); // fault again
        let s = totals(&pool);
        assert_eq!(s.accesses, 6);
        assert_eq!(s.faults, 4);
    }

    #[test]
    fn zero_capacity_buffer_always_faults() {
        let pool = BufferPool::new(disk_with_pages(2), 0, IoCounters::new());
        for _ in 0..5 {
            pool.fetch(PageId(1)).unwrap();
        }
        let s = totals(&pool);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.faults, 5);
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.num_shards(), 1, "capacity 0 collapses to one empty shard");
    }

    #[test]
    fn large_capacity_buffer_faults_once_per_page() {
        let config = BufferPoolConfig::paper_default();
        let pool = BufferPool::with_config(disk_with_pages(10), config, IoCounters::new());
        assert_eq!(pool.capacity(), DEFAULT_BUFFER_PAGES);
        for round in 0..3 {
            for i in 0..10 {
                pool.fetch(PageId(i)).unwrap();
            }
            let s = totals(&pool);
            assert_eq!(s.faults, 10, "after round {round}");
        }
        assert_eq!(totals(&pool).accesses, 30);
    }

    #[test]
    fn clear_drops_pages_and_zeroes_every_count() {
        let pool = BufferPool::new(disk_with_pages(2), 2, IoCounters::new());
        pool.fetch(PageId(0)).unwrap();
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(totals(&pool), IoStats::default(), "clear zeroes the shard counters");
        assert_eq!(pool.counters().snapshot(), IoStats::default(), "and what the handle reads");
        pool.fetch(PageId(0)).unwrap(); // faults again
        assert_eq!(totals(&pool).faults, 1);
        assert_eq!(pool.counters().snapshot().faults, 1);
        assert!(format!("{pool:?}").contains("BufferPool"));
        assert_eq!(pool.store().num_pages(), 2);
    }

    #[test]
    fn out_of_bounds_pages_error_without_counting() {
        let pool = BufferPool::new(disk_with_pages(1), 2, IoCounters::new());
        assert!(pool.fetch(PageId(5)).is_err());
        assert_eq!(totals(&pool).accesses, 0);
        assert_eq!(pool.counters().snapshot().accesses, 0);
    }

    #[test]
    fn eviction_pattern_cycling_through_pages() {
        // capacity 3, cycle through 5 pages twice: every access after warmup
        // is a fault because LRU is the worst policy for cyclic scans.
        let pool = BufferPool::new(disk_with_pages(5), 3, IoCounters::new());
        for _ in 0..2 {
            for i in 0..5 {
                pool.fetch(PageId(i)).unwrap();
            }
        }
        let s = totals(&pool);
        assert_eq!(s.accesses, 10);
        assert_eq!(s.faults, 10);
        assert_eq!(s.evictions, 7);
    }

    #[test]
    fn capacity_one_buffer_keeps_only_the_last_page() {
        let pool = BufferPool::new(disk_with_pages(3), 1, IoCounters::new());
        pool.fetch(PageId(0)).unwrap(); // fault, resident: {0}
        pool.fetch(PageId(0)).unwrap(); // hit
        pool.fetch(PageId(1)).unwrap(); // fault + eviction, resident: {1}
        pool.fetch(PageId(1)).unwrap(); // hit
        pool.fetch(PageId(0)).unwrap(); // fault + eviction again
        let s = totals(&pool);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.faults, 3);
        assert_eq!(s.evictions, 2);
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn evicted_slots_are_reused_with_the_right_contents() {
        // After an eviction reuses a slot, the page served for the new id
        // must be the new page, and re-fetching the evicted id must serve its
        // original contents (read back through the store).
        let pool = BufferPool::new(disk_with_pages(4), 2, IoCounters::new());
        let direct: Vec<Page> =
            (0..4).map(|i| pool.store().read_page(PageId(i)).unwrap()).collect();
        for round in 0..3 {
            for i in 0..4 {
                let got = pool.fetch(PageId(i)).unwrap();
                assert_eq!(got, direct[i as usize], "round {round}, page {i}");
                let records = got.records(PageId(i)).unwrap();
                assert_eq!(records[0].node, NodeId(i));
            }
        }
        assert_eq!(pool.resident_pages(), 2, "resident never exceeds capacity");
    }

    #[test]
    fn exact_lru_victim_sequence() {
        // Track the precise eviction order through a mixed hit/fault pattern.
        // One shard: the pool must reproduce the seed's single-LRU victim
        // order exactly.
        let pool = BufferPool::new(disk_with_pages(5), 3, IoCounters::new());
        assert_eq!(pool.num_shards(), 1);
        let faults = |pool: &BufferPool<MemoryDisk>| totals(pool).faults;

        pool.fetch(PageId(0)).unwrap(); // LRU order (MRU first): [0]
        pool.fetch(PageId(1)).unwrap(); // [1, 0]
        pool.fetch(PageId(2)).unwrap(); // [2, 1, 0]
        pool.fetch(PageId(0)).unwrap(); // hit -> [0, 2, 1]
        pool.fetch(PageId(3)).unwrap(); // evicts 1 -> [3, 0, 2]
        assert_eq!(faults(&pool), 4);
        pool.fetch(PageId(2)).unwrap(); // still resident: hit -> [2, 3, 0]
        assert_eq!(faults(&pool), 4, "page 2 must not have been evicted");
        pool.fetch(PageId(1)).unwrap(); // fault (evicted above), evicts 0
        assert_eq!(faults(&pool), 5);
        pool.fetch(PageId(0)).unwrap(); // fault again: 0 was the LRU victim
        assert_eq!(faults(&pool), 6);
        assert_eq!(totals(&pool).evictions, 3);
    }

    /// The fixed demand trace of [`demand_trace_victims_and_counters_are_pinned`]:
    /// 84 fetches over 12 pages, the 96 steps of a generator less every
    /// eighth.
    fn demand_trace() -> impl Iterator<Item = PageId> {
        (0..96u64).filter(|step| step % 8 != 7).map(|step| PageId((mix64(step) % 12) as u32))
    }

    /// Exact accounting is pinned, not assumed: the ids LRU drops, in order,
    /// the hits / faults / evictions and the per-shard accesses of
    /// [`demand_trace`], through both access paths, as recorded while the
    /// pool still had a read-ahead path and a wrapper over its page map. How
    /// a map places an id must never reach the victim order or a counter.
    #[test]
    fn demand_trace_victims_and_counters_are_pinned() {
        // (pages / shards, victims, [hits, faults, evictions], accesses per shard)
        let pinned = [
            (
                BufferPoolConfig::new(5),
                &[
                    1, 10, 8, 0, 3, 4, 1, 5, 6, 9, 11, 10, 1, 3, 4, 7, 8, 10, 9, 3, 2, 6, 4, 10, 1,
                    9, 2, 3, 11, 7, 8, 9, 4, 6, 5, 11, 3, 7, 0, 9, 6, 4, 11, 5,
                ][..],
                [35, 49, 44],
                &[84][..],
            ),
            (
                BufferPoolConfig::new(8).with_shards(4),
                &[
                    8, 0, 4, 3, 4, 10, 1, 11, 5, 6, 3, 8, 4, 7, 8, 3, 6, 10, 4, 7, 3, 8, 7, 8, 4,
                    6, 5, 3, 7, 0, 6, 7, 4, 5, 3, 1, 11,
                ],
                [41, 43, 37],
                &[53, 17, 5, 9],
            ),
        ];
        for (config, victims, counters, per_shard) in pinned {
            let shards = config.shards;
            for access in [fetch_page, read_page_in_place] {
                let (dropped, stats) = replay_demand_trace(config, access);
                assert_eq!(dropped, victims, "{shards} shard(s): victim sequence");
                let t = stats.total;
                assert_eq!([t.hits, t.faults, t.evictions], counters, "{shards} shard(s)");
                let accesses: Vec<u64> = stats.per_shard.iter().map(ShardStats::accesses).collect();
                assert_eq!(accesses, per_shard, "{shards} shard(s): page -> shard mapping");
            }
        }
    }

    /// Replays [`demand_trace`] on a fresh pool through `access`; returns the
    /// ids dropped, in order, and the pool's counters.
    fn replay_demand_trace(
        config: BufferPoolConfig,
        access: fn(&BufferPool<MemoryDisk>, PageId),
    ) -> (Vec<u32>, BufferPoolStats) {
        let pool = BufferPool::with_config(disk_with_pages(12), config, IoCounters::new());
        let resident = |pool: &BufferPool<MemoryDisk>| -> Vec<PageId> {
            pool.shards.iter().flat_map(|shard| lock(shard).cache.keys_mru_to_lru()).collect()
        };
        let mut victims: Vec<u32> = Vec::new();
        for id in demand_trace() {
            let before = resident(&pool);
            access(&pool, id);
            let after = resident(&pool);
            victims.extend(before.iter().filter(|id| !after.contains(id)).map(|id| id.0));
        }
        (victims, pool.io_stats())
    }

    /// A demand access the way callers before `read_with` made it.
    fn fetch_page(pool: &BufferPool<MemoryDisk>, id: PageId) {
        let page = pool.fetch(id).unwrap();
        assert_eq!(page.records(id).unwrap()[0].node, NodeId(id.0));
    }

    /// A demand access that reads the record where the page lies — under the
    /// shard lock on a hit — and takes no handle.
    fn read_page_in_place(pool: &BufferPool<MemoryDisk>, id: PageId) {
        let entries = pool.read_with(id, |page| Ok(page.record_at(id, NodeId(id.0), 0)?.len()));
        assert_eq!(entries.unwrap(), 1);
    }

    /// `fetch` is a call to `read_with`, and this is what holds it there:
    /// beyond the pinned pools above, the two agree shard by shard on
    /// every counter and every victim with the pool striped and with no pool
    /// at all.
    #[test]
    fn read_with_accounts_and_evicts_exactly_like_fetch() {
        for (capacity, shards) in [(8, 8), (0, 1)] {
            let config = BufferPoolConfig::new(capacity).with_shards(shards);
            let fetched = replay_demand_trace(config, fetch_page);
            let read = replay_demand_trace(config, read_page_in_place);
            assert_eq!(read, fetched, "{capacity} pages / {shards} shards");
            assert_eq!(read.1.per_shard.len(), shards);
            assert_eq!(read.1.total.accesses(), 84);
        }
    }

    #[test]
    fn a_failing_reader_leaves_the_access_counted_and_the_lock_free() {
        let pool = BufferPool::new(disk_with_pages(2), 2, IoCounters::new());
        let wrong_node = |page: &Page| page.record_at(PageId(0), NodeId(7), 0).map(|r| r.len());
        for (accesses, faults) in [(1, 1), (2, 1)] {
            // Once on the page just read (miss), once under the lock (hit).
            let err = pool.read_with(PageId(0), wrong_node).unwrap_err();
            assert!(matches!(err, StorageError::CorruptPage { page: PageId(0), .. }), "{err}");
            let s = totals(&pool);
            assert_eq!((s.accesses, s.faults), (accesses, faults));
            assert_eq!(s, pool.counters().snapshot());
        }
        // The shard lock was released on the error path.
        assert_eq!(pool.read_with(PageId(0), |page| Ok(page.used_bytes())).unwrap(), 24);
        // A store error reaches the caller before `read` or any counter.
        let unreachable = |_: &Page| -> Result<(), StorageError> { panic!("no page to read") };
        assert!(pool.read_with(PageId(9), unreachable).is_err());
        assert_eq!(totals(&pool).accesses, 3);
    }

    #[test]
    fn concurrent_readers_of_one_hot_page_are_each_counted_once() {
        // Every access but the first faults is a hit whose closure runs under
        // the one shard lock; the barrier starts the four threads together.
        let pool = BufferPool::new(disk_with_pages(4), 4, IoCounters::new());
        let (threads, per_thread) = (4u64, 5_000u64);
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..per_thread {
                        read_page_in_place(&pool, PageId(2));
                    }
                });
            }
        });
        let stats = pool.io_stats().total;
        assert_eq!(stats.accesses(), threads * per_thread);
        assert!((1..=threads).contains(&stats.faults), "only first touches fault: {stats:?}");
        assert_eq!(stats.evictions, 0);
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn concurrent_fetches_count_every_access_exactly_once() {
        use std::sync::Arc;
        for shards in [1usize, 4] {
            let config = BufferPoolConfig::new(4).with_shards(shards);
            let pool =
                Arc::new(BufferPool::with_config(disk_with_pages(8), config, IoCounters::new()));
            assert_eq!(pool.num_shards(), shards);
            let threads = 4;
            let per_thread = 200;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        for i in 0..per_thread {
                            let id = PageId(((t * 3 + i) % 8) as u32);
                            let page = pool.fetch(id).unwrap();
                            let records = page.records(id).unwrap();
                            assert_eq!(records[0].node, NodeId(id.0));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let s = totals(&pool);
            assert_eq!(s.accesses, (threads * per_thread) as u64);
            assert!(s.faults >= 8, "each of the 8 pages faults at least once");
            assert!(s.faults <= s.accesses);
            assert!(s.evictions <= s.faults);
            assert!(pool.resident_pages() <= 4);
        }
    }

    #[test]
    fn shard_count_is_normalized_to_a_power_of_two_within_capacity() {
        assert_eq!(BufferPoolConfig::new(256).with_shards(8).effective_shards(), 8);
        assert_eq!(BufferPoolConfig::new(256).with_shards(5).effective_shards(), 8);
        assert_eq!(BufferPoolConfig::new(6).with_shards(8).effective_shards(), 4);
        assert_eq!(BufferPoolConfig::new(1).with_shards(64).effective_shards(), 1);
        assert_eq!(BufferPoolConfig::new(0).with_shards(16).effective_shards(), 1);
        assert_eq!(BufferPoolConfig::new(256).with_shards(0).effective_shards(), 1);
        assert_eq!(BufferPoolConfig::default(), BufferPoolConfig::paper_default());

        // Capacity splits evenly with a remainder spread over the first
        // shards: 10 pages over 4 shards -> 3, 3, 2, 2.
        assert_eq!(BufferPoolConfig::new(10).with_shards(4).shard_capacities(), vec![3, 3, 2, 2]);
        let pool = BufferPool::with_config(
            disk_with_pages(4),
            BufferPoolConfig::new(10).with_shards(4),
            IoCounters::new(),
        );
        assert_eq!(pool.num_shards(), 4);
        assert_eq!(pool.capacity(), 10);
    }

    #[test]
    fn sharded_pool_keeps_every_page_fetchable_and_bounded() {
        // Across shard counts, the pool serves correct pages and the
        // resident count never exceeds the total capacity.
        let n = 32;
        for shards in [1usize, 2, 4, 8] {
            let pool = BufferPool::with_config(
                disk_with_pages(n),
                BufferPoolConfig::new(8).with_shards(shards),
                IoCounters::new(),
            );
            let direct: Vec<Page> =
                (0..n as u32).map(|i| pool.store().read_page(PageId(i)).unwrap()).collect();
            for round in 0..3 {
                for i in 0..n as u32 {
                    assert_eq!(
                        pool.fetch(PageId(i)).unwrap(),
                        direct[i as usize],
                        "shards={shards} round={round} page={i}"
                    );
                }
                assert!(pool.resident_pages() <= 8, "shards={shards}");
            }
            let stats = pool.io_stats();
            assert_eq!(stats.per_shard.len(), shards);
            assert_eq!(stats.total.accesses(), 3 * n as u64);
            // Every page maps to exactly one shard, so per-shard accesses
            // partition the total.
            let mut rebuilt = ShardStats::default();
            for s in &stats.per_shard {
                rebuilt += s;
            }
            assert_eq!(rebuilt, stats.total);
            assert_eq!(stats.total.as_io_stats(), pool.counters().snapshot());
        }
    }

    #[test]
    fn shard_mapping_is_stable_and_within_bounds() {
        let pool = BufferPool::with_config(
            disk_with_pages(4),
            BufferPoolConfig::new(16).with_shards(4),
            IoCounters::new(),
        );
        for i in 0..1000u32 {
            let s = pool.shard_of(PageId(i));
            assert!(s < 4);
            assert_eq!(s, pool.shard_of(PageId(i)), "stable mapping");
        }
    }

    #[test]
    fn resize_shrink_keeps_the_most_recent_pages_in_exact_victim_order() {
        // One shard, capacity 4, recency order pinned by hits: resident MRU
        // first is [2, 0, 3, 1] after the accesses below.
        let pool = BufferPool::new(disk_with_pages(6), 4, IoCounters::new());
        for i in [0u32, 1, 2, 3] {
            pool.fetch(PageId(i)).unwrap();
        }
        pool.fetch(PageId(0)).unwrap(); // hit -> [0, 3, 2, 1]
        pool.fetch(PageId(2)).unwrap(); // hit -> [2, 0, 3, 1]
        let before = totals(&pool);

        // Shrink to 2: the LRU half (pages 1 then 3) is drained, the MRU half
        // survives — and the drain counts in neither accounting system.
        pool.resize(2);
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.resident_pages(), 2);
        assert_eq!(totals(&pool), before, "resize drains are not evictions");
        pool.fetch(PageId(2)).unwrap(); // hit: survived
        pool.fetch(PageId(0)).unwrap(); // hit: survived
        assert_eq!(totals(&pool).faults, before.faults, "the MRU pages survived the shrink");
        pool.fetch(PageId(1)).unwrap(); // fault: was drained
        pool.fetch(PageId(3)).unwrap(); // fault: was drained
        assert_eq!(totals(&pool).faults, before.faults + 2);

        // The shrunken pool now runs the exact capacity-2 LRU policy: the
        // faults above went 1 (evicting 2) then 3 (evicting 0), so 1 and 3
        // are resident and 0 faults again.
        pool.fetch(PageId(1)).unwrap(); // hit -> [1, 3]
        pool.fetch(PageId(3)).unwrap(); // hit -> [3, 1]
        assert_eq!(totals(&pool).faults, before.faults + 2, "1 and 3 are the resident pair");
        pool.fetch(PageId(0)).unwrap(); // fault: evicts the then-LRU page 1
        assert_eq!(totals(&pool).faults, before.faults + 3);
    }

    #[test]
    fn resize_matches_a_fresh_pool_after_warmup() {
        // After shrinking a warmed single-shard pool, its fault behavior must
        // equal a fresh pool of the target capacity warmed with the same
        // resident set in the same recency order.
        let trace: Vec<u32> = vec![0, 1, 2, 3, 4, 2, 0, 5, 1, 0, 3, 2, 5, 0, 1];
        let shrunk = BufferPool::new(disk_with_pages(6), 4, IoCounters::new());
        for &i in &[0u32, 1, 2, 3] {
            shrunk.fetch(PageId(i)).unwrap();
        }
        shrunk.fetch(PageId(1)).unwrap(); // MRU first: [1, 3, 2, 0]
        shrunk.resize(2); // survivors in recency order: [1, 3]
        let fresh = BufferPool::new(disk_with_pages(6), 2, IoCounters::new());
        fresh.fetch(PageId(3)).unwrap();
        fresh.fetch(PageId(1)).unwrap(); // same state: [1, 3]

        let (shrunk_base, fresh_base) = (totals(&shrunk), totals(&fresh));
        for (step, &i) in trace.iter().enumerate() {
            assert_eq!(
                shrunk.fetch(PageId(i)).unwrap(),
                fresh.fetch(PageId(i)).unwrap(),
                "step {step}"
            );
            assert_eq!(
                totals(&shrunk).since(&shrunk_base),
                totals(&fresh).since(&fresh_base),
                "step {step}: fault-for-fault identical after page {i}"
            );
        }
    }

    #[test]
    fn resize_grow_resplits_capacity_and_adds_headroom() {
        // 4 pages over 4 shards, grown to 40 (10 per shard): every page fits
        // its shard no matter how mix64 distributes the ids, so the
        // previously-thrashing working set becomes fully resident.
        let config = BufferPoolConfig::new(4).with_shards(4);
        let pool = BufferPool::with_config(disk_with_pages(10), config, IoCounters::new());
        for round in 0..2 {
            for i in 0..10u32 {
                pool.fetch(PageId(i)).unwrap();
            }
            assert!(pool.resident_pages() <= 4, "round {round}");
        }
        let thrashing = totals(&pool);
        assert!(thrashing.evictions > 0, "10 pages through 4 slots must evict");

        pool.resize(40);
        assert_eq!(pool.capacity(), 40);
        assert_eq!(pool.num_shards(), 4, "the shard count never changes");
        for i in 0..10u32 {
            pool.fetch(PageId(i)).unwrap(); // faults refill the grown pool
        }
        assert_eq!(pool.resident_pages(), 10);
        let warm = totals(&pool);
        for round in 0..3 {
            for i in 0..10u32 {
                pool.fetch(PageId(i)).unwrap();
            }
            assert_eq!(totals(&pool).faults, warm.faults, "round {round}: all hits when grown");
        }

        // Shrinking below the shard count leaves the trailing shards with
        // capacity 0; the pool still serves every page correctly.
        pool.resize(2);
        assert_eq!(pool.resident_pages(), 2);
        for i in 0..10u32 {
            let page = pool.fetch(PageId(i)).unwrap();
            assert_eq!(page.records(PageId(i)).unwrap()[0].node, NodeId(i));
        }
        assert!(pool.resident_pages() <= 2);
        // Resize to zero disables caching outright.
        pool.resize(0);
        assert_eq!(pool.resident_pages(), 0);
        let before = totals(&pool);
        pool.fetch(PageId(0)).unwrap();
        let after = totals(&pool);
        assert_eq!(after.faults, before.faults + 1, "capacity 0 always faults");
        assert_eq!(pool.resident_pages(), 0);
    }

    #[test]
    fn fetch_vs_clear_races_keep_the_handle_equal_to_the_pool_total() {
        // Regression for the fetch-vs-clear race: a fetch counts under its
        // shard lock and clear zeroes under *all* of them, so a snapshot
        // taken mid-race is a consistent cut (`evictions <= faults <=
        // accesses`), and once a round's fetchers are joined the handle reads
        // exactly the pool's total — never more than the fetches issued.
        let counters = IoCounters::new();
        let config = BufferPoolConfig::new(8).with_shards(4);
        let pool = BufferPool::with_config(disk_with_pages(32), config, counters.clone());
        let (fetchers, per_fetcher) = (3u32, 500u32);
        for round in 0..20 {
            std::thread::scope(|scope| {
                for t in 0..fetchers {
                    let pool = &pool;
                    scope.spawn(move || {
                        for i in 0..per_fetcher {
                            pool.fetch(PageId((t * 5 + i) % 32)).unwrap();
                        }
                    });
                }
                scope.spawn(|| pool.clear());
                scope.spawn(|| {
                    for _ in 0..100 {
                        let s = counters.snapshot();
                        assert!(s.evictions <= s.faults, "round {round}: torn {s:?}");
                        assert!(s.faults <= s.accesses, "round {round}: torn {s:?}");
                    }
                });
            });
            let s = counters.snapshot();
            assert_eq!(s, totals(&pool), "round {round}");
            assert!(s.accesses <= u64::from(fetchers * per_fetcher), "round {round}: {s:?}");
            pool.clear();
            assert_eq!(counters.snapshot(), IoStats::default(), "round {round}");
            assert_eq!(totals(&pool), IoStats::default(), "round {round}");
        }
    }

    #[test]
    fn clear_is_atomic_under_concurrent_readers() {
        // Regression for the all-shard-locked clear(): fill the pool to
        // capacity, then race one clear() against readers. Within a round the
        // only mutation is the clear, so every observed resident count must
        // be 0 (post-clear) or full (pre-clear) — a torn, partially drained
        // pool is a bug. Counter snapshots must flip atomically too.
        let capacity = 8;
        let num_pages = 256u32;
        let config = BufferPoolConfig::new(capacity).with_shards(4);
        let pool =
            BufferPool::with_config(disk_with_pages(num_pages as usize), config, IoCounters::new());

        for round in 0..25 {
            for i in 0..num_pages {
                pool.fetch(PageId(i)).unwrap();
            }
            assert_eq!(pool.resident_pages(), capacity, "round {round}: pool is full");
            // The refill starts from an empty, zero-counter pool every round,
            // so the pre-clear counter state is deterministic: every distinct
            // page faults once, and all but the resident ones were evicted.
            let full_stats = ShardStats {
                hits: 0,
                faults: num_pages as u64,
                evictions: (num_pages as u64) - capacity as u64,
            };
            assert_eq!(pool.io_stats().total, full_stats, "round {round}");

            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            let resident = pool.resident_pages();
                            assert!(
                                resident == 0 || resident == capacity,
                                "torn clear observed: {resident} of {capacity} pages resident"
                            );
                            let total = pool.io_stats().total;
                            assert!(
                                total == ShardStats::default() || total == full_stats,
                                "torn counter reset observed: {total:?}"
                            );
                        }
                    });
                }
                scope.spawn(|| pool.clear());
            });
            assert_eq!(pool.resident_pages(), 0, "round {round}: cleared");
            assert_eq!(totals(&pool), IoStats::default(), "round {round}: counters zeroed");
        }
    }
}
