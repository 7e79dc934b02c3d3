//! I/O accounting.
//!
//! The experiments in the paper report the number of page accesses that miss
//! the LRU buffer (charged at 10 ms each) separately from CPU time.
//! [`IoCounters`] is the shared, thread-safe counter bundle that the buffer
//! pool updates and the benchmark harness reads; [`IoStats`] is an immutable
//! snapshot.
//!
//! Counters are kept **per accessing thread** and merged on read: the global
//! snapshot is always the sum of the per-thread snapshots. This lets the
//! batched query engine attribute I/O to an individual query even while other
//! worker threads hammer the same shared buffer pool — each worker diffs its
//! *own* thread's counters around the query it is running.
//!
//! # Lock-freedom
//!
//! [`IoCounters::record_access`] runs on **every page access** of every
//! worker, so it must not serialize the pool. Each recording thread owns a
//! shard of relaxed atomic counters; the thread finds its shard through a
//! thread-local cache keyed by the counter handle's unique id, so the
//! steady-state record path is: one thread-local read, one id compare, and a
//! plain load + store of the thread's own `accesses` (a fault or an eviction
//! adds a `fetch_add`) — no lock, no locked instruction on a hit, no shared
//! cache line with other writers.
//!
//! [`IoCounters::snapshot`] is the poll path — the serving layer reads it on
//! every stats poll — and it never takes a lock either. Shards live in a
//! grow-only chunked slab (`ShardSlab`) whose published length a reader
//! walks directly, and the folded totals of retired threads sit in a cell of
//! plain atomics. The rare *structural* transitions — folding a retiring
//! thread's shard into the retired cell, or [`IoCounters::reset`] zeroing
//! everything — are sandwiched in a seqlock version window (the same
//! version/fence discipline as the server's published-metrics cells): a
//! reader that overlaps one simply rereads, so a snapshot can never see a
//! retiring thread's counts both in its shard and in the retired total (or in
//! neither).
//!
//! A mutex-protected registry still exists, but only for cold-path
//! bookkeeping: assigning a slab slot on a thread's first access, recycling
//! slots on [`IoCounters::retire_current_thread`], and
//! [`IoCounters::per_thread_snapshots`]. Only the owning thread ever *writes*
//! a live shard. Exact totals require quiescence (e.g. after a batch's
//! workers were joined), but a mid-run snapshot is still *internally
//! consistent* — the release/acquire ordering on the shard fields guarantees
//! `evictions <= faults <= accesses` at any moment.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::ops::AddAssign;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::ThreadId;

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

    /// The difference `self - earlier`, used to attribute I/O to a single
    /// query inside a longer workload. Saturates at zero: the counters can be
    /// reset through `&self` ([`IoCounters::reset`], `PagedGraph::cold_start`)
    /// between the two snapshots, and a reset must read as "nothing since",
    /// not as a panic or a wrapped difference.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            accesses: self.accesses.saturating_sub(earlier.accesses),
            faults: self.faults.saturating_sub(earlier.faults),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Sums an iterator of snapshots into one (e.g. merging the per-thread
    /// counters of a batch, or graph + materialized-table I/O).
    pub fn merged<'a, I: IntoIterator<Item = &'a IoStats>>(parts: I) -> IoStats {
        let mut total = IoStats::default();
        for p in parts {
            total += p;
        }
        total
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

/// One recording thread's counter shard. Only the owning thread increments;
/// everyone else reads when merging.
///
/// Writes and reads are ordered so that a snapshot taken *during* recording
/// still satisfies `evictions <= faults <= accesses`: the writer bumps
/// `accesses` first and publishes `faults` / `evictions` with `Release`,
/// the reader loads in the opposite order with `Acquire`. Seeing the n-th
/// fault therefore guarantees seeing its preceding access (single writer,
/// release/acquire prefix) — a mid-run `hit_ratio()` can never go negative.
#[derive(Debug, Default)]
struct ThreadShard {
    accesses: AtomicU64,
    faults: AtomicU64,
    evictions: AtomicU64,
}

impl ThreadShard {
    fn record(&self, fault: bool, evicted: bool) {
        // Single writer: a plain load + store, not a locked read-modify-write
        // — this runs once per page access, under the pool's shard lock. The
        // one other writer is `zero`, and a reset racing a recorder was
        // already approximate (see `zero`); the `Release` increments below
        // still publish this store with the fault they follow.
        self.accesses.store(self.accesses.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if fault {
            self.faults.fetch_add(1, Ordering::Release);
        }
        if evicted {
            self.evictions.fetch_add(1, Ordering::Release);
        }
    }

    fn snapshot(&self) -> IoStats {
        let evictions = self.evictions.load(Ordering::Acquire);
        let faults = self.faults.load(Ordering::Acquire);
        let accesses = self.accesses.load(Ordering::Relaxed);
        IoStats { accesses, faults, evictions }
    }

    /// Zeroing never races a [`IoCounters::snapshot`]: every `zero` call
    /// sits inside a seqlock update window (retirement, reset), so a
    /// concurrent snapshot rereads instead of observing a torn mix of old
    /// and new counts. A concurrent *recorder* racing `reset` is still
    /// inherently approximate — like the seed's mutex version, `reset` is a
    /// quiescent-point operation, and the buffer pool's `clear_and_reset` /
    /// `reset_stats` exclude its recorders via the shard locks.
    fn zero(&self) {
        self.evictions.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        self.accesses.store(0, Ordering::Relaxed);
    }
}

/// Number of chunks in a [`ShardSlab`]: chunk `c` holds `8 << c` shards, so
/// 24 chunks cover ~134 million recording threads — growth is by chunk, and
/// no chunk is allocated before a slot in it is needed.
const SLAB_CHUNKS: usize = 24;

/// A grow-only slab of [`ThreadShard`]s that readers walk without locking.
///
/// Shards must stay at stable addresses while readers traverse them, so the
/// slab never reallocates: it appends geometrically sized chunks, each
/// materialized at most once through its [`OnceLock`]. `len` is the number
/// of slots ever handed out; it is bumped with a `Release` store *after* the
/// backing chunk is initialized, so a reader that `Acquire`-loads `len` can
/// dereference every slot below it. Slots of retired threads are zeroed and
/// recycled through the registry's free list — a freed slot contributes
/// nothing to a walk until a new thread claims it.
#[derive(Debug)]
struct ShardSlab {
    len: AtomicUsize,
    chunks: [OnceLock<Box<[ThreadShard]>>; SLAB_CHUNKS],
}

impl ShardSlab {
    fn new() -> Self {
        ShardSlab { len: AtomicUsize::new(0), chunks: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// Maps a slot index to its (chunk, offset) pair: chunk `c` covers slots
    /// `[8 * (2^c - 1), 8 * (2^(c+1) - 1))`.
    fn chunk_of(slot: usize) -> (usize, usize) {
        let chunk = (slot / 8 + 1).ilog2() as usize;
        (chunk, slot - ((8 << chunk) - 8))
    }

    fn shard(&self, slot: usize) -> &ThreadShard {
        let (chunk, offset) = Self::chunk_of(slot);
        &self.chunks[chunk].get().expect("published slots live in initialized chunks")[offset]
    }

    /// Cold path (registry lock held): materialize the chunk holding `slot`
    /// (the next unused slot) and publish the grown length.
    fn grow_to(&self, slot: usize) {
        let (chunk, _) = Self::chunk_of(slot);
        self.chunks[chunk]
            .get_or_init(|| (0..8usize << chunk).map(|_| ThreadShard::default()).collect());
        self.len.store(slot + 1, Ordering::Release);
    }
}

/// The folded totals of retired threads, readable without a lock. Stores are
/// relaxed: every write happens inside the bundle's seqlock update window,
/// which is what keeps a concurrent reader from accepting a torn triple.
#[derive(Debug, Default)]
struct RetiredCell {
    accesses: AtomicU64,
    faults: AtomicU64,
    evictions: AtomicU64,
}

impl RetiredCell {
    fn load(&self) -> IoStats {
        IoStats {
            accesses: self.accesses.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn store(&self, stats: IoStats) {
        self.accesses.store(stats.accesses, Ordering::Relaxed);
        self.faults.store(stats.faults, Ordering::Relaxed);
        self.evictions.store(stats.evictions, Ordering::Relaxed);
    }
}

/// The cold-path registry: which slab slot each live recording thread owns,
/// plus the free list of recycled slots. The counters themselves live
/// outside the mutex (in the slab and the retired cell) so that reads never
/// take it.
///
/// Worker threads are expected to call [`IoCounters::retire_current_thread`]
/// before exiting (the query engine's batch workers do); that folds their
/// shard into the retired cell and recycles the slot, so neither the
/// registry nor the slab grows with the number of batches a long-lived
/// process has served.
#[derive(Debug, Default)]
struct Registry {
    free: Vec<usize>,
    threads: Vec<(ThreadId, usize)>,
}

impl Registry {
    fn position(&self, id: ThreadId) -> Option<usize> {
        self.threads.iter().position(|(t, _)| *t == id)
    }
}

#[derive(Debug)]
struct CountersInner {
    /// Unique per counter bundle (never reused), so the thread-local shard
    /// cache can key on it without any stale-pointer hazard.
    id: u64,
    /// Seqlock version for structural transitions (retire, reset). Even =
    /// stable; a writer makes it odd, moves counts, makes it even again.
    /// Writers are serialized by the registry mutex; readers never block,
    /// they reread on overlap.
    version: AtomicU64,
    retired: RetiredCell,
    slab: ShardSlab,
    registry: Mutex<Registry>,
}

impl CountersInner {
    /// Opens a structural update window (caller holds the registry mutex).
    /// The release fence pairs with the reader's acquire fence: any reader
    /// that observes a store made inside the window is guaranteed to observe
    /// the odd version on its re-check and reread.
    fn begin_update(&self) -> u64 {
        let version = self.version.load(Ordering::Relaxed);
        self.version.store(version + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        version + 2
    }

    fn end_update(&self, version: u64) {
        self.version.store(version, Ordering::Release);
    }
}

/// Source of the unique [`CountersInner::id`]s.
static NEXT_COUNTERS_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's id, cached to keep the cold paths off the
    /// `thread::current()` handle-clone path.
    static CURRENT_THREAD_ID: ThreadId = std::thread::current().id();

    /// This thread's slab slot for each counter bundle it has recorded into:
    /// `(bundle id, bundle handle, slot)` triples, scanned linearly (a
    /// thread uses one or two bundles at a time). The weak handle exists
    /// only to detect dead bundles: entries whose bundle was dropped are
    /// pruned whenever a new bundle registers.
    static SHARD_CACHE: RefCell<Vec<(u64, Weak<CountersInner>, usize)>> =
        const { RefCell::new(Vec::new()) };
}

fn current_thread_id() -> ThreadId {
    CURRENT_THREAD_ID.with(|id| *id)
}

/// Shared, thread-safe I/O counters.
///
/// Cloning an `IoCounters` yields a handle to the *same* counters, so a
/// benchmark can keep one handle while the buffer pool updates another.
#[derive(Clone, Debug)]
pub struct IoCounters {
    inner: Arc<CountersInner>,
}

impl Default for IoCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl IoCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        IoCounters {
            inner: Arc::new(CountersInner {
                id: NEXT_COUNTERS_ID.fetch_add(1, Ordering::Relaxed),
                version: AtomicU64::new(0),
                retired: RetiredCell::default(),
                slab: ShardSlab::new(),
                registry: Mutex::new(Registry::default()),
            }),
        }
    }

    /// Records one logical access; `fault` tells whether it missed the
    /// buffer, `evicted` whether a page was evicted to serve it.
    ///
    /// Lock-free on the steady state: after a thread's first access the
    /// record path is a thread-local lookup plus an increment of counters
    /// no other thread writes.
    pub fn record_access(&self, fault: bool, evicted: bool) {
        self.with_shard(|shard| shard.record(fault, evicted));
    }

    /// Runs `f` on the calling thread's shard, registering a slab slot on
    /// the first access (the only record path that ever takes the registry
    /// lock).
    fn with_shard<R>(&self, f: impl FnOnce(&ThreadShard) -> R) -> R {
        let slot = self.cached_slot().unwrap_or_else(|| self.register_current_thread());
        f(self.inner.slab.shard(slot))
    }

    /// The calling thread's slab slot for this bundle, if it has one.
    fn cached_slot(&self) -> Option<usize> {
        SHARD_CACHE.with(|cache| {
            cache.borrow().iter().find(|(id, _, _)| *id == self.inner.id).map(|&(_, _, slot)| slot)
        })
    }

    /// Cold path: assign the calling thread a slab slot (recycling a retired
    /// one if available) and remember it in the thread-local cache.
    fn register_current_thread(&self) -> usize {
        let id = current_thread_id();
        let slot = {
            let mut reg = self.inner.registry.lock();
            match reg.position(id) {
                Some(i) => reg.threads[i].1,
                None => {
                    let slot = reg.free.pop().unwrap_or_else(|| {
                        let next = self.inner.slab.len.load(Ordering::Relaxed);
                        self.inner.slab.grow_to(next);
                        next
                    });
                    reg.threads.push((id, slot));
                    slot
                }
            }
        };
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            // An entry whose counter bundle is gone can never be looked up
            // again (bundle ids are not reused): drop it so long-lived
            // threads recording into many short-lived bundles (tests,
            // benchmarks) do not grow the cache without bound.
            cache.retain(|(_, bundle, _)| bundle.strong_count() > 0);
            cache.push((self.inner.id, Arc::downgrade(&self.inner), slot));
        });
        slot
    }

    /// Returns the merged snapshot over every thread that recorded accesses,
    /// retired or live.
    ///
    /// Never takes a lock: the retired cell and the shard slab are read
    /// directly, and the seqlock version only forces a reread when the
    /// snapshot overlapped a thread retirement or an [`IoCounters::reset`] —
    /// so a poll never waits on recorders, and a retiring thread's counts
    /// are seen exactly once (in its shard before the fold, in the retired
    /// total after, never both or neither).
    pub fn snapshot(&self) -> IoStats {
        let inner = &*self.inner;
        loop {
            let v1 = inner.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut total = inner.retired.load();
            let len = inner.slab.len.load(Ordering::Acquire);
            for slot in 0..len {
                total += inner.slab.shard(slot).snapshot();
            }
            fence(Ordering::Acquire);
            if inner.version.load(Ordering::Relaxed) == v1 {
                return total;
            }
            std::hint::spin_loop();
        }
    }

    /// Returns the snapshot of the accesses recorded *by the calling thread*
    /// (since it last retired, if ever).
    ///
    /// Diffing this around a query (with [`IoStats::since`]) attributes I/O
    /// to that query even while other threads use the same buffer pool. Like
    /// the record path, this reads the thread's own shard without locking.
    pub fn snapshot_current_thread(&self) -> IoStats {
        if let Some(slot) = self.cached_slot() {
            return self.inner.slab.shard(slot).snapshot();
        }
        // Not cached on this thread: the thread never recorded (or retired),
        // so its view is empty — unless another handle on this same thread
        // registered it, which the cache covers (ids are per bundle, shared
        // by clones).
        let reg = self.inner.registry.lock();
        reg.position(current_thread_id())
            .map(|i| self.inner.slab.shard(reg.threads[i].1).snapshot())
            .unwrap_or_default()
    }

    /// Folds the calling thread's shard into the retired total and recycles
    /// its slab slot.
    ///
    /// Exiting worker threads (e.g. the query engine's batch workers) call
    /// this so the registry only ever tracks live threads — `ThreadId`s are
    /// never reused, so without retirement a long-lived process would
    /// accumulate one dead shard per worker per batch. No counts are lost:
    /// [`IoCounters::snapshot`] includes the retired total, and the fold
    /// happens inside a seqlock window so no concurrent snapshot can count
    /// the retiring shard twice (or miss it).
    pub fn retire_current_thread(&self) {
        let id = current_thread_id();
        {
            let mut reg = self.inner.registry.lock();
            if let Some(i) = reg.position(id) {
                let (_, slot) = reg.threads.swap_remove(i);
                let version = self.inner.begin_update();
                let shard = self.inner.slab.shard(slot);
                let mut retired = self.inner.retired.load();
                retired += shard.snapshot();
                self.inner.retired.store(retired);
                shard.zero();
                self.inner.end_update(version);
                reg.free.push(slot);
            }
        }
        // Drop the cache entry so a later access on this thread registers a
        // fresh slot ("the thread's live view starts over").
        SHARD_CACHE.with(|cache| {
            cache.borrow_mut().retain(|(cid, _, _)| *cid != self.inner.id);
        });
    }

    /// Live per-thread snapshots, in unspecified order. Their merge plus the
    /// retired total equals [`IoCounters::snapshot`].
    pub fn per_thread_snapshots(&self) -> Vec<IoStats> {
        let reg = self.inner.registry.lock();
        reg.threads.iter().map(|&(_, slot)| self.inner.slab.shard(slot).snapshot()).collect()
    }

    /// Resets all counters (every thread's, and the retired total) to zero.
    ///
    /// Registered threads stay registered with zeroed counts — their slab
    /// slots remain valid, so concurrent recorders keep counting into the
    /// same (now zeroed) shards. Concurrent *snapshots* reread around the
    /// reset (it runs inside a seqlock window) and therefore see either
    /// all-old or all-new counts, never a torn mix.
    pub fn reset(&self) {
        let reg = self.inner.registry.lock();
        let version = self.inner.begin_update();
        self.inner.retired.store(IoStats::default());
        let len = self.inner.slab.len.load(Ordering::Relaxed);
        for slot in 0..len {
            self.inner.slab.shard(slot).zero();
        }
        self.inner.end_update(version);
        drop(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_accesses() {
        let c = IoCounters::new();
        c.record_access(true, false);
        c.record_access(false, false);
        c.record_access(true, true);
        let s = c.snapshot();
        assert_eq!(s, IoStats { accesses: 3, faults: 2, evictions: 1 });
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        // single-threaded: the calling thread's view is the whole view
        assert_eq!(c.snapshot_current_thread(), s);
    }

    #[test]
    fn clones_share_state_and_reset_clears() {
        let c = IoCounters::new();
        let c2 = c.clone();
        c2.record_access(true, false);
        assert_eq!(c.snapshot().faults, 1);
        c.reset();
        assert_eq!(c2.snapshot(), IoStats::default());
        assert_eq!(c2.snapshot().hit_ratio(), 1.0);
        assert_eq!(c2.snapshot_current_thread(), IoStats::default());
        // Recording keeps working after a reset (the zeroed shard is reused).
        c.record_access(false, false);
        assert_eq!(c2.snapshot(), IoStats { accesses: 1, faults: 0, evictions: 0 });
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
        assert_eq!(acc.accesses, 17);
        assert_eq!(acc.faults, 5);
        assert_eq!(IoStats::merged([&a, &b]), acc);
        assert_eq!(IoStats::merged([]), IoStats::default());
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
        // The harness pattern: snapshot before each query, diff after.
        let c = IoCounters::new();
        c.record_access(true, false); // warmup access
        let before = c.snapshot();
        c.record_access(true, false);
        c.record_access(false, false);
        c.record_access(false, false);
        let query_io = c.snapshot().since(&before);
        assert_eq!(query_io, IoStats { accesses: 3, faults: 1, evictions: 0 });
    }

    #[test]
    fn concurrent_recording_loses_no_accesses_and_merge_matches_total() {
        use std::sync::Arc;
        let c = IoCounters::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        c.record_access(i % 2 == 0, i % 10 == 0);
                    }
                    // every worker sees exactly its own 500 accesses
                    assert_eq!(c.snapshot_current_thread().accesses, 500);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.accesses, 2000);
        assert_eq!(s.faults, 1000);
        assert_eq!(s.evictions, 200);
        // the global snapshot is exactly the merge of the per-thread parts
        let parts = c.per_thread_snapshots();
        assert_eq!(parts.len(), 4, "one shard per recording thread");
        assert_eq!(IoStats::merged(parts.iter()), s);
        let _ = Arc::new(c); // counters remain usable behind an Arc
    }

    #[test]
    fn retiring_folds_counts_without_losing_them() {
        let c = IoCounters::new();
        c.record_access(true, false);
        // Worker threads record, retire, and exit; the live registry must not
        // accumulate their (never reused) ThreadIds.
        for round in 0..3 {
            let worker = {
                let c = c.clone();
                std::thread::spawn(move || {
                    c.record_access(true, false);
                    c.record_access(false, false);
                    c.retire_current_thread();
                    // After retiring, the thread's live view starts over.
                    assert_eq!(c.snapshot_current_thread(), IoStats::default());
                })
            };
            worker.join().unwrap();
            assert_eq!(
                c.per_thread_snapshots().len(),
                1,
                "round {round}: only the main thread stays in the live registry"
            );
        }
        let s = c.snapshot();
        assert_eq!(s.accesses, 7, "retired totals are preserved in the merged snapshot");
        assert_eq!(s.faults, 4);
        // Retiring a thread that never recorded is a no-op.
        c.retire_current_thread();
        c.retire_current_thread();
        assert_eq!(c.snapshot().accesses, 7);
        assert!(c.per_thread_snapshots().is_empty());
        // reset clears the retired total too.
        c.reset();
        assert_eq!(c.snapshot(), IoStats::default());
    }

    #[test]
    fn recording_after_retiring_registers_a_fresh_shard() {
        let c = IoCounters::new();
        c.record_access(true, false);
        c.retire_current_thread();
        assert!(c.per_thread_snapshots().is_empty());
        c.record_access(false, false);
        assert_eq!(
            c.snapshot_current_thread(),
            IoStats { accesses: 1, faults: 0, evictions: 0 },
            "the view after retirement starts over"
        );
        assert_eq!(c.per_thread_snapshots().len(), 1);
        assert_eq!(c.snapshot().accesses, 2, "the retired access is still in the total");
    }

    #[test]
    fn thread_attribution_is_exact_under_interleaving() {
        // Two threads interleave on the same counters; each thread's local
        // snapshot diff must see only its own accesses.
        let c = IoCounters::new();
        c.record_access(true, false); // main-thread noise
        let worker = {
            let c = c.clone();
            std::thread::spawn(move || {
                let before = c.snapshot_current_thread();
                assert_eq!(before, IoStats::default());
                c.record_access(true, false);
                c.record_access(false, false);
                c.snapshot_current_thread().since(&before)
            })
        };
        let local = worker.join().unwrap();
        assert_eq!(local, IoStats { accesses: 2, faults: 1, evictions: 0 });
        assert_eq!(c.snapshot().accesses, 3);
    }

    #[test]
    fn distinct_counter_bundles_do_not_mix_even_on_one_thread() {
        // The thread-local shard cache is keyed by bundle id: two bundles
        // recorded into by the same thread must stay independent.
        let a = IoCounters::new();
        let b = IoCounters::new();
        a.record_access(true, false);
        b.record_access(false, false);
        b.record_access(false, false);
        assert_eq!(a.snapshot(), IoStats { accesses: 1, faults: 1, evictions: 0 });
        assert_eq!(b.snapshot(), IoStats { accesses: 2, faults: 0, evictions: 0 });
        assert_eq!(a.snapshot_current_thread().accesses, 1);
        assert_eq!(b.snapshot_current_thread().accesses, 2);
    }

    #[test]
    fn dropped_bundles_are_pruned_from_the_thread_local_cache() {
        // Record into many short-lived bundles on one thread; each new
        // registration prunes entries whose bundle is gone, so the cache
        // stays bounded by the number of *live* bundles.
        let keep = IoCounters::new();
        keep.record_access(false, false);
        for _ in 0..100 {
            let c = IoCounters::new();
            c.record_access(true, false);
            drop(c);
        }
        let cached = SHARD_CACHE.with(|cache| cache.borrow().len());
        assert!(cached <= 2, "cache holds live bundles only, found {cached} entries");
        assert_eq!(keep.snapshot().accesses, 1, "the surviving bundle is unaffected");
    }

    #[test]
    fn slab_slot_math_partitions_the_index_space() {
        // Chunk c covers [8 * (2^c - 1), 8 * (2^(c+1) - 1)) — contiguous,
        // gap-free, and sized 8 << c.
        let mut expected_chunk = 0;
        let mut expected_offset = 0;
        for slot in 0..10_000 {
            let (chunk, offset) = ShardSlab::chunk_of(slot);
            assert_eq!((chunk, offset), (expected_chunk, expected_offset), "slot {slot}");
            expected_offset += 1;
            if expected_offset == 8 << expected_chunk {
                expected_chunk += 1;
                expected_offset = 0;
            }
        }
    }

    #[test]
    fn retired_slab_slots_are_recycled() {
        // Threads that retire hand their slot back; the slab must not grow
        // with the number of worker generations, only with the peak number
        // of concurrently live recording threads.
        let c = IoCounters::new();
        c.record_access(false, false); // main thread takes slot 0
        for _ in 0..50 {
            let worker = {
                let c = c.clone();
                std::thread::spawn(move || {
                    c.record_access(true, false);
                    c.retire_current_thread();
                })
            };
            worker.join().unwrap();
        }
        let slots = c.inner.slab.len.load(Ordering::Relaxed);
        assert!(slots <= 2, "50 retired generations must reuse one slot, grew to {slots}");
        let s = c.snapshot();
        assert_eq!(s.accesses, 51);
        assert_eq!(s.faults, 50);
    }

    #[test]
    fn snapshots_stay_consistent_under_concurrent_retirement() {
        // Pollers hammer snapshot() while recorder threads register, record,
        // and retire in a loop. Every snapshot must be internally consistent
        // (evictions <= faults <= accesses) and never lose or double-count a
        // retiring thread's folds; the final quiescent total is exact.
        use std::sync::atomic::AtomicBool;
        let c = IoCounters::new();
        let stop = Arc::new(AtomicBool::new(false));
        const ROUNDS: u64 = 200;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        c.record_access(true, i % 4 == 0);
                        c.record_access(false, false);
                        // Retiring re-registers on the next access, cycling
                        // the slot through the free list every round.
                        c.retire_current_thread();
                    }
                });
            }
            let poller = {
                let c = c.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    // Poll first, then look at the flag: on a busy box the
                    // recorders can finish before this thread is first
                    // scheduled, and the final snapshot is as good as any.
                    let mut polls = 0u64;
                    loop {
                        let s = c.snapshot();
                        assert!(s.evictions <= s.faults, "torn snapshot: {s:?}");
                        assert!(s.faults <= s.accesses, "torn snapshot: {s:?}");
                        assert!(s.accesses <= 4 * ROUNDS, "over-counted snapshot: {s:?}");
                        polls += 1;
                        if stop.load(Ordering::Relaxed) {
                            break polls;
                        }
                    }
                })
            };
            let flagger = {
                let c = c.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    // Stop the poller once both recorders' work is fully
                    // visible: 4 * ROUNDS accesses is the quiescent total.
                    while c.snapshot().accesses < 4 * ROUNDS {
                        std::thread::yield_now();
                    }
                    stop.store(true, Ordering::Relaxed);
                })
            };
            flagger.join().unwrap();
            assert!(poller.join().unwrap() > 0, "the poller must observe at least one snapshot");
        });
        let s = c.snapshot();
        assert_eq!(s.accesses, 4 * ROUNDS, "quiescent totals are exact");
        assert_eq!(s.faults, 2 * ROUNDS);
        assert_eq!(s.evictions, 2 * (ROUNDS / 4));
        assert!(c.per_thread_snapshots().is_empty(), "all recorders retired");
    }
}
