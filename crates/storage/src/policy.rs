//! Pluggable page-eviction policies for the buffer pool.
//!
//! The paper's buffer is a single LRU list, and that stays the default —
//! bit-compatible with the seed victim order. But LRU is the worst possible
//! policy for two access patterns the serving system actually produces:
//! cyclic scans (a cold range-NN sweep flushes the entire hot working set)
//! and highly concurrent hit streams (every hit rewrites the recency list
//! under the shard lock). [`EvictionPolicy`] selects between three policies
//! per pool:
//!
//! * [`EvictionPolicy::Lru`] — exact least-recently-used, the paper's
//!   buffer. Every hit moves the entry to the MRU position.
//! * [`EvictionPolicy::Clock`] — second-chance FIFO. A hit only sets a
//!   reference bit (no list writes), and the eviction hand sweeps the ring
//!   clearing bits until it finds an unreferenced victim. Approximates LRU
//!   at a fraction of the hit-path cost.
//! * [`EvictionPolicy::TwoQ`] — the 2Q algorithm (Johnson & Shasha, VLDB
//!   '94): new pages enter a FIFO probation queue (`A1in`, ~¼ capacity) and
//!   only promote to the protected LRU main queue (`Am`) when they fault
//!   *again* while remembered by a ghost queue of recently evicted ids
//!   (`A1out`, ~½ capacity of keys, no page data). One cold scan churns
//!   through `A1in` and never touches the hot set in `Am` — scan-resistant.
//!
//! Every policy tracks, per resident page, whether it was admitted by
//! `PageCache::insert_prefetched` (a speculative read) and has not yet
//! served a demand hit. Speculative pages are admitted **cold** — at the
//! LRU/A1in victim end, or with a cleared Clock reference bit at the hand —
//! so a wrong guess is the first page out. The buffer pool turns the flag
//! into its `prefetch_useful` / `prefetch_wasted` accounting.
//!
//! `PageCache` is the crate-internal enum the pool's shards hold; enum
//! dispatch keeps the hot path monomorphic (no vtable per page access).

use crate::lru::Lru;
use crate::page::{Page, PageId};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher of the resident-page maps: page ids are dense `u32`s under no
/// adversary's control, so one Fibonacci multiply replaces SipHash — the low
/// bits of the product (the table's bucket) stay distinct for consecutive
/// ids and the high bits (its control byte) are well mixed. It only decides
/// where a map keeps an id, never a victim: eviction order lives in the
/// recency list, the Clock ring and the ghost FIFO.
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

type PageIdMap<V> = HashMap<PageId, V, BuildHasherDefault<PageIdHasher>>;
type PageLru = Lru<PageId, Resident, BuildHasherDefault<PageIdHasher>>;

/// The eviction policy of a buffer pool, selected via
/// `BufferPoolConfig::with_policy`.
///
/// See the [module docs](self) for the trade-offs. The default is
/// [`EvictionPolicy::Lru`], whose victim order is bit-compatible with the
/// paper's single-list buffer (and with every pool built before policies
/// existed).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Exact least-recently-used (the paper's buffer; the default).
    #[default]
    Lru,
    /// Second-chance FIFO: hits set a reference bit instead of rewriting a
    /// recency list; the eviction hand sweeps bits clear.
    Clock,
    /// 2Q: FIFO probation queue + ghost-promoted protected LRU queue;
    /// scan-resistant.
    TwoQ,
}

impl EvictionPolicy {
    /// All policies, in a stable order (for benches and property tests).
    pub const ALL: [EvictionPolicy; 3] =
        [EvictionPolicy::Lru, EvictionPolicy::Clock, EvictionPolicy::TwoQ];

    /// A short lowercase name (`"lru"`, `"clock"`, `"2q"`) for labels in
    /// benches and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Clock => "clock",
            EvictionPolicy::TwoQ => "2q",
        }
    }

    /// A stable numeric code (0 = LRU, 1 = Clock, 2 = 2Q) for gauge export.
    pub fn code(&self) -> u64 {
        match self {
            EvictionPolicy::Lru => 0,
            EvictionPolicy::Clock => 1,
            EvictionPolicy::TwoQ => 2,
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A resident page plus its speculative-admission flag.
#[derive(Clone, Debug)]
struct Resident {
    page: Page,
    /// Admitted by prefetch and not yet hit by a demand access.
    prefetched: bool,
}

/// A page evicted (or drained) from a [`PageCache`].
#[derive(Clone, Debug)]
pub(crate) struct Victim {
    /// The evicted page id.
    pub id: PageId,
    /// The evicted page itself (pages wrap `Bytes`, so this is a cheap
    /// handle — `BufferPool::set_policy` re-admits drained pages from it).
    pub page: Page,
    /// The page was admitted speculatively and never served a demand hit —
    /// the prefetch was wasted.
    pub prefetched_unused: bool,
}

fn victim(id: PageId, r: Resident) -> Victim {
    Victim { id, page: r.page, prefetched_unused: r.prefetched }
}

/// One shard's resident-page cache, dispatching to the configured policy.
///
/// The API is shaped by what `BufferPool::fetch`/`prefetch`/`resize` need:
/// demand lookups ([`PageCache::lookup_ref`]) report whether they are the first
/// demand use of a prefetched page, inserts return the displaced [`Victim`],
/// and [`PageCache::pop_victim`] exposes the policy's own victim order for
/// shrinking.
pub(crate) enum PageCache {
    Lru(LruPages),
    Clock(ClockPages),
    TwoQ(TwoQPages),
}

impl PageCache {
    pub fn new(policy: EvictionPolicy, capacity: usize) -> Self {
        match policy {
            EvictionPolicy::Lru => PageCache::Lru(LruPages { inner: Lru::new(capacity) }),
            EvictionPolicy::Clock => PageCache::Clock(ClockPages::new(capacity)),
            EvictionPolicy::TwoQ => PageCache::TwoQ(TwoQPages::new(capacity)),
        }
    }

    pub fn policy(&self) -> EvictionPolicy {
        match self {
            PageCache::Lru(_) => EvictionPolicy::Lru,
            PageCache::Clock(_) => EvictionPolicy::Clock,
            PageCache::TwoQ(_) => EvictionPolicy::TwoQ,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            PageCache::Lru(c) => c.inner.len(),
            PageCache::Clock(c) => c.slots.len(),
            PageCache::TwoQ(c) => c.a1in.len() + c.am.len(),
        }
    }

    pub fn capacity(&self) -> usize {
        match self {
            PageCache::Lru(c) => c.inner.capacity(),
            PageCache::Clock(c) => c.capacity,
            PageCache::TwoQ(c) => c.capacity,
        }
    }

    /// Changes the bound without dropping entries; an over-full cache is
    /// drained by the caller via [`PageCache::pop_victim`] (exactly like
    /// `Lru::set_capacity`).
    pub fn set_capacity(&mut self, capacity: usize) {
        match self {
            PageCache::Lru(c) => c.inner.set_capacity(capacity),
            PageCache::Clock(c) => c.capacity = capacity,
            PageCache::TwoQ(c) => c.set_capacity(capacity),
        }
    }

    pub fn clear(&mut self) {
        match self {
            PageCache::Lru(c) => c.inner.clear(),
            PageCache::Clock(c) => {
                c.slots.clear();
                c.map.clear();
                c.hand = 0;
            }
            PageCache::TwoQ(c) => {
                c.a1in.clear();
                c.am.clear();
                c.ghost.clear();
            }
        }
    }

    /// Residency check with **no** side effects: no recency touch, no
    /// reference bit, no flag change. Used by the prefetch path to skip
    /// already-resident pages without perturbing the policy state.
    pub fn contains(&self, id: PageId) -> bool {
        match self {
            PageCache::Lru(c) => c.inner.contains(&id),
            PageCache::Clock(c) => c.map.contains_key(&id),
            PageCache::TwoQ(c) => c.a1in.contains(&id) || c.am.contains(&id),
        }
    }

    /// Demand lookup. On a hit returns the resident page — borrowed, so a
    /// reader that only decodes a record never touches the page's reference
    /// count — and `true` iff this is the first demand use of a page
    /// admitted by prefetch (the caller counts it as `prefetch_useful`; the
    /// flag is cleared).
    pub fn lookup_ref(&mut self, id: PageId) -> Option<(&Page, bool)> {
        let r = match self {
            PageCache::Lru(c) => c.inner.get_mut(&id)?,
            PageCache::Clock(c) => {
                let &i = c.map.get(&id)?;
                let slot = &mut c.slots[i];
                slot.referenced = true;
                &mut slot.resident
            }
            PageCache::TwoQ(c) => {
                if c.am.contains(&id) {
                    // Protected queue: a hit refreshes recency.
                    c.am.get_mut(&id)?
                } else {
                    // Probation queue is a FIFO: hits do not reorder it (the
                    // "correlated references" rule that makes 2Q resistant to
                    // a page being touched twice in quick succession and then
                    // never again).
                    c.a1in.peek_mut(&id)?
                }
            }
        };
        let first_use = std::mem::replace(&mut r.prefetched, false);
        Some((&r.page, first_use))
    }

    /// Demand insert after a fault. Returns the evicted [`Victim`], if the
    /// insert displaced one; re-inserting a resident id refreshes it in
    /// place (the concurrent-fetch re-check path) and evicts nothing.
    pub fn insert(&mut self, id: PageId, page: Page) -> Option<Victim> {
        let r = Resident { page, prefetched: false };
        match self {
            PageCache::Lru(c) => c.inner.insert(id, r).map(|(k, v)| victim(k, v)),
            PageCache::Clock(c) => c.insert(id, r, true),
            PageCache::TwoQ(c) => c.insert_demand(id, r),
        }
    }

    /// Speculative insert: the page is admitted **cold** (first in the
    /// policy's victim order) and flagged, so the pool can tell a useful
    /// prefetch from a wasted one. A resident id is left untouched.
    pub fn insert_prefetched(&mut self, id: PageId, page: Page) -> Option<Victim> {
        if self.contains(id) {
            return None;
        }
        let r = Resident { page, prefetched: true };
        match self {
            PageCache::Lru(c) => c.inner.insert_cold(id, r).map(|(k, v)| victim(k, v)),
            PageCache::Clock(c) => c.insert(id, r, false),
            PageCache::TwoQ(c) => {
                let evicted = c.make_room();
                c.a1in.insert_cold(id, r);
                evicted
            }
        }
    }

    /// Removes and returns the page the policy would evict next (`None` when
    /// empty). `BufferPool::resize` drains over-full shards through this, so
    /// a shrink follows each policy's own victim order.
    pub fn pop_victim(&mut self) -> Option<Victim> {
        match self {
            PageCache::Lru(c) => c.inner.pop_lru().map(|(k, v)| victim(k, v)),
            PageCache::Clock(c) => c.pop_victim(),
            PageCache::TwoQ(c) => c.reclaim(),
        }
    }

    /// The resident ids in victim order (first entry = next victim), for
    /// tests and debugging. O(len).
    #[cfg(test)]
    pub fn victim_order(&self) -> Vec<PageId> {
        match self {
            PageCache::Lru(c) => {
                let mut ids = c.inner.keys_mru_to_lru();
                ids.reverse();
                ids
            }
            PageCache::Clock(c) => {
                // Simulate the sweep on a copy of the reference bits.
                let mut bits: Vec<bool> = c.slots.iter().map(|s| s.referenced).collect();
                let mut order = Vec::with_capacity(bits.len());
                let mut taken = vec![false; bits.len()];
                let mut hand = c.hand;
                for _ in 0..bits.len() {
                    loop {
                        if hand >= bits.len() {
                            hand = 0;
                        }
                        if taken[hand] {
                            hand += 1;
                            continue;
                        }
                        if bits[hand] {
                            bits[hand] = false;
                            hand += 1;
                            continue;
                        }
                        break;
                    }
                    taken[hand] = true;
                    order.push(c.slots[hand].id);
                    hand += 1;
                }
                order
            }
            PageCache::TwoQ(c) => {
                // Reclaim order: A1in overflow first (oldest-inserted first),
                // then Am in LRU order, then the A1in remainder.
                let mut a1in = c.a1in.keys_mru_to_lru();
                a1in.reverse(); // oldest inserted first
                let mut am = c.am.keys_mru_to_lru();
                am.reverse();
                let overflow = c.a1in.len().saturating_sub(c.kin());
                let mut order: Vec<PageId> = a1in.drain(..overflow).collect();
                order.extend(am);
                order.extend(a1in);
                order
            }
        }
    }
}

/// Exact LRU over `Lru` — the seed policy, unchanged victim order.
pub(crate) struct LruPages {
    inner: PageLru,
}

/// Second-chance FIFO ("Clock"). Slots form a ring in admission order; the
/// hand sweeps clearing reference bits until it finds one clear.
pub(crate) struct ClockPages {
    capacity: usize,
    slots: Vec<ClockSlot>,
    map: PageIdMap<usize>,
    hand: usize,
}

struct ClockSlot {
    id: PageId,
    resident: Resident,
    referenced: bool,
}

impl ClockPages {
    fn new(capacity: usize) -> Self {
        ClockPages { capacity, slots: Vec::new(), map: PageIdMap::default(), hand: 0 }
    }

    /// Advances the hand to the next victim slot, clearing reference bits on
    /// the way. Terminates: a full sweep clears every bit.
    fn sweep(&mut self) -> usize {
        debug_assert!(!self.slots.is_empty());
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
            } else {
                return self.hand;
            }
        }
    }

    /// Inserts a page. Demand admissions (`referenced = true`) get a full
    /// sweep before they are considered for eviction (the hand moves past
    /// them); speculative admissions are left *at* the hand with a clear bit,
    /// making them the next victim unless a demand hit rescues them first.
    fn insert(&mut self, id: PageId, r: Resident, referenced: bool) -> Option<Victim> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&id) {
            // Concurrent re-insert of a resident page: refresh in place.
            let slot = &mut self.slots[i];
            slot.resident = r;
            slot.referenced = true;
            return None;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(ClockSlot { id, resident: r, referenced });
            self.map.insert(id, self.slots.len() - 1);
            return None;
        }
        let i = self.sweep();
        let old = std::mem::replace(&mut self.slots[i], ClockSlot { id, resident: r, referenced });
        self.map.remove(&old.id);
        self.map.insert(id, i);
        if referenced {
            self.hand = i + 1; // demand admission: move past the new page
        }
        Some(victim(old.id, old.resident))
    }

    /// Removes the slot the hand sweep selects (for shrinking). Preserves
    /// the ring order of the remaining slots.
    fn pop_victim(&mut self) -> Option<Victim> {
        if self.slots.is_empty() {
            return None;
        }
        let i = self.sweep();
        let old = self.slots.remove(i);
        self.map.remove(&old.id);
        for idx in self.map.values_mut() {
            if *idx > i {
                *idx -= 1;
            }
        }
        if self.hand > i {
            self.hand -= 1;
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        Some(victim(old.id, old.resident))
    }
}

/// The 2Q cache: probation FIFO (`a1in`), protected LRU (`am`) and the
/// ghost queue of recently evicted probation ids (`a1out`).
pub(crate) struct TwoQPages {
    capacity: usize,
    /// Probation FIFO. Backed by `Lru` but never touched on hit, so its
    /// recency order *is* insertion order.
    a1in: PageLru,
    /// Protected LRU: pages that faulted again while ghosted.
    am: PageLru,
    ghost: GhostQueue,
}

impl TwoQPages {
    fn new(capacity: usize) -> Self {
        TwoQPages {
            capacity,
            a1in: Lru::new(capacity),
            am: Lru::new(capacity),
            ghost: GhostQueue::new(Self::kout_for(capacity)),
        }
    }

    /// Probation-queue target: ¼ of capacity (at least one page).
    fn kin(&self) -> usize {
        (self.capacity / 4).max(1)
    }

    /// Ghost-queue bound: ½ of capacity in *ids* (no page data retained).
    fn kout_for(capacity: usize) -> usize {
        (capacity / 2).max(1)
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.a1in.set_capacity(capacity);
        self.am.set_capacity(capacity);
        self.ghost.set_capacity(Self::kout_for(capacity));
    }

    /// Evicts one page if the cache is full, so an insert cannot overflow.
    fn make_room(&mut self) -> Option<Victim> {
        if self.capacity == 0 || self.a1in.len() + self.am.len() < self.capacity {
            return None;
        }
        self.reclaim()
    }

    /// The 2Q reclaim rule: evict from the probation FIFO while it exceeds
    /// its target (remembering the id in the ghost queue), otherwise from
    /// the protected LRU.
    fn reclaim(&mut self) -> Option<Victim> {
        if self.a1in.len() > self.kin() || self.am.is_empty() {
            if let Some((id, r)) = self.a1in.pop_lru() {
                // Only demand-admitted pages earn a ghost entry: a wasted
                // prefetch must not fast-track its page into the protected
                // queue on a later fault.
                if !r.prefetched {
                    self.ghost.push(id);
                }
                return Some(victim(id, r));
            }
        }
        self.am.pop_lru().map(|(id, r)| victim(id, r))
    }

    fn insert_demand(&mut self, id: PageId, r: Resident) -> Option<Victim> {
        if self.capacity == 0 {
            return None;
        }
        if self.am.contains(&id) {
            self.am.insert(id, r); // refresh + touch, never evicts
            return None;
        }
        if self.a1in.contains(&id) {
            *self.a1in.peek_mut(&id).expect("checked resident") = r;
            return None;
        }
        let evicted = self.make_room();
        if self.ghost.remove(id) {
            // Second fault within the ghost window: the page has a reuse
            // distance worth protecting.
            self.am.insert(id, r);
        } else {
            self.a1in.insert(id, r);
        }
        evicted
    }
}

/// Bounded FIFO of recently evicted page ids. Stale entries (ids that were
/// promoted out, or re-pushed later) are skipped lazily via a per-push
/// sequence number, so membership and removal stay O(1).
struct GhostQueue {
    queue: VecDeque<(PageId, u64)>,
    live: PageIdMap<u64>,
    seq: u64,
    capacity: usize,
}

impl GhostQueue {
    fn new(capacity: usize) -> Self {
        GhostQueue { queue: VecDeque::new(), live: PageIdMap::default(), seq: 0, capacity }
    }

    fn push(&mut self, id: PageId) {
        if self.capacity == 0 {
            return;
        }
        self.seq += 1;
        self.live.insert(id, self.seq);
        self.queue.push_back((id, self.seq));
        self.trim();
    }

    /// Removes `id` if it is remembered; returns whether it was.
    fn remove(&mut self, id: PageId) -> bool {
        self.live.remove(&id).is_some()
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.trim();
    }

    fn trim(&mut self) {
        while self.live.len() > self.capacity {
            let (id, seq) = self.queue.pop_front().expect("live entries are queued");
            if self.live.get(&id) == Some(&seq) {
                self.live.remove(&id);
            }
        }
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageBuilder;
    use rnn_graph::NodeId;

    fn page(i: u32) -> Page {
        let mut b = PageBuilder::new();
        b.push_record(NodeId(i), &[]).unwrap();
        b.build()
    }

    fn id(i: u32) -> PageId {
        PageId(i)
    }

    fn fill_demand(c: &mut PageCache, ids: impl IntoIterator<Item = u32>) {
        for i in ids {
            c.insert(id(i), page(i));
        }
    }

    #[test]
    fn policy_names_codes_and_display_are_stable() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Lru);
        let names: Vec<&str> = EvictionPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["lru", "clock", "2q"]);
        let codes: Vec<u64> = EvictionPolicy::ALL.iter().map(|p| p.code()).collect();
        assert_eq!(codes, vec![0, 1, 2]);
        assert_eq!(format!("{}", EvictionPolicy::TwoQ), "2q");
    }

    #[test]
    fn lru_cache_reproduces_the_seed_victim_sequence() {
        // The exact trace the seed buffer-pool test pins down.
        let mut c = PageCache::new(EvictionPolicy::Lru, 3);
        fill_demand(&mut c, [0, 1, 2]);
        assert!(c.lookup_ref(id(0)).is_some()); // hit -> [0, 2, 1]
        let v = c.insert(id(3), page(3)).expect("full cache evicts");
        assert_eq!(v.id, id(1));
        assert!(c.lookup_ref(id(2)).is_some()); // hit -> [2, 3, 0]
        let v = c.insert(id(1), page(1)).expect("evicts again");
        assert_eq!(v.id, id(0));
        assert_eq!(c.victim_order(), vec![id(3), id(2), id(1)]);
        assert_eq!(c.policy(), EvictionPolicy::Lru);
    }

    #[test]
    fn clock_hits_set_the_reference_bit_instead_of_reordering() {
        let mut c = PageCache::new(EvictionPolicy::Clock, 3);
        fill_demand(&mut c, [0, 1, 2]); // ring: [0, 1, 2], all referenced
                                        // Hit 1 and 2; the first sweep clears 0's bit (no rescue in between)
                                        // and keeps sweeping until it wraps to 0 again... all bits are set,
                                        // so the first eviction clears 0, 1, 2 and takes 0.
        assert!(c.lookup_ref(id(1)).is_some());
        let v = c.insert(id(3), page(3)).expect("full");
        assert_eq!(v.id, id(0), "first full sweep clears every bit and takes the oldest");
        // Now 1 and 2 have clear bits, 3 is referenced (demand admission,
        // hand moved past it). A hit on 2 rescues it; 1 is the next victim.
        assert!(c.lookup_ref(id(2)).is_some());
        let v = c.insert(id(4), page(4)).expect("full");
        assert_eq!(v.id, id(1), "unreferenced page at the hand loses");
        assert!(c.contains(id(2)), "the reference bit rescued page 2");
        assert!(c.contains(id(3)));
    }

    #[test]
    fn clock_resident_reinsert_refreshes_in_place() {
        let mut c = PageCache::new(EvictionPolicy::Clock, 2);
        fill_demand(&mut c, [0, 1]);
        assert!(c.insert(id(0), page(0)).is_none(), "refresh evicts nothing");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn twoq_scan_does_not_flush_the_protected_queue() {
        // Capacity 8: kin = 2, so the probation FIFO holds at most 2 pages
        // once eviction starts. Promote a hot pair into Am, then stream 100
        // cold pages through: the hot pair must survive.
        let mut c = PageCache::new(EvictionPolicy::TwoQ, 8);
        // Fault the hot pair, push it to the ghost queue, fault it again.
        fill_demand(&mut c, [100, 101]);
        for _ in 0..8 {
            c.pop_victim(); // drain probation -> ghosts 100, 101
        }
        fill_demand(&mut c, [100, 101]); // ghost hit -> protected Am
        for i in 0..100 {
            c.insert(id(i), page(i));
        }
        assert!(c.contains(id(100)), "hot page survived the scan");
        assert!(c.contains(id(101)), "hot page survived the scan");
        assert!(c.len() <= 8);
    }

    #[test]
    fn twoq_probation_hits_do_not_promote() {
        let mut c = PageCache::new(EvictionPolicy::TwoQ, 4); // kin = 1
        fill_demand(&mut c, [0, 1, 2, 3]);
        // 0 is the oldest probation entry; hitting it must not reorder the
        // FIFO, so the next reclaim still takes 0.
        assert!(c.lookup_ref(id(0)).is_some());
        let v = c.pop_victim().unwrap();
        assert_eq!(v.id, id(0), "probation is a FIFO even after a hit");
    }

    #[test]
    fn prefetched_pages_are_first_victims_until_used() {
        for policy in EvictionPolicy::ALL {
            let mut c = PageCache::new(policy, 4);
            fill_demand(&mut c, [0, 1]);
            c.insert_prefetched(id(9), page(9));
            let order = c.victim_order();
            assert_eq!(order[0], id(9), "{policy}: speculative page is the next victim");
            // A demand lookup reports first use exactly once and clears the
            // cold standing in LRU/Clock terms (recency touch / ref bit).
            let (_, first) = c.lookup_ref(id(9)).unwrap();
            assert!(first, "{policy}: first demand use of a prefetched page");
            let (_, again) = c.lookup_ref(id(9)).unwrap();
            assert!(!again, "{policy}: the flag reports only the first use");
            // Once used, the page is no longer flagged at eviction time.
            let mut drained = Vec::new();
            while let Some(v) = c.pop_victim() {
                drained.push((v.id, v.prefetched_unused));
            }
            assert!(
                drained.iter().all(|&(i, unused)| i != id(9) || !unused),
                "{policy}: a used prefetch is not wasted"
            );
        }
    }

    #[test]
    fn unused_prefetched_pages_report_wasted_on_eviction() {
        for policy in EvictionPolicy::ALL {
            let mut c = PageCache::new(policy, 2);
            c.insert_prefetched(id(7), page(7));
            fill_demand(&mut c, [0, 1, 2]); // overflows: 7 must go first
            assert!(!c.contains(id(7)), "{policy}: cold speculative page evicted first");
            let mut c = PageCache::new(policy, 2);
            c.insert_prefetched(id(7), page(7));
            let v = c.pop_victim().unwrap();
            assert_eq!(v.id, id(7), "{policy}");
            assert!(v.prefetched_unused, "{policy}: never-used prefetch is wasted");
        }
    }

    #[test]
    fn prefetch_of_a_resident_page_is_a_no_op() {
        for policy in EvictionPolicy::ALL {
            let mut c = PageCache::new(policy, 3);
            fill_demand(&mut c, [0, 1]);
            assert!(c.insert_prefetched(id(0), page(0)).is_none());
            let (_, first) = c.lookup_ref(id(0)).unwrap();
            assert!(!first, "{policy}: a resident demand page never becomes 'prefetched'");
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn capacity_zero_caches_nothing_under_every_policy() {
        for policy in EvictionPolicy::ALL {
            let mut c = PageCache::new(policy, 0);
            assert!(c.insert(id(0), page(0)).is_none(), "{policy}");
            assert!(c.insert_prefetched(id(1), page(1)).is_none(), "{policy}");
            assert_eq!(c.len(), 0, "{policy}");
            assert!(c.lookup_ref(id(0)).is_none(), "{policy}");
            assert!(c.pop_victim().is_none(), "{policy}");
        }
    }

    #[test]
    fn pop_victim_drains_every_policy_completely() {
        for policy in EvictionPolicy::ALL {
            let mut c = PageCache::new(policy, 5);
            fill_demand(&mut c, [0, 1, 2, 3, 4]);
            c.lookup_ref(id(2));
            let mut n = 0;
            while c.pop_victim().is_some() {
                n += 1;
            }
            assert_eq!(n, 5, "{policy}");
            assert_eq!(c.len(), 0, "{policy}");
            // The drained cache is reusable.
            fill_demand(&mut c, [7]);
            assert!(c.contains(id(7)), "{policy}");
        }
    }

    #[test]
    fn clock_pop_victim_preserves_ring_order_and_map() {
        let mut c = PageCache::new(EvictionPolicy::Clock, 5);
        fill_demand(&mut c, [0, 1, 2, 3, 4]);
        c.lookup_ref(id(1)); // re-reference 1
                             // First pop sweeps all bits clear and takes 0; 1 was re-referenced
                             // but the same sweep clears it too, so the second pop takes 1.
        assert_eq!(c.pop_victim().unwrap().id, id(0));
        assert_eq!(c.pop_victim().unwrap().id, id(1));
        // Map must still resolve the remaining pages after Vec::remove.
        for i in [2u32, 3, 4] {
            assert!(c.contains(id(i)), "page {i} resolvable after compaction");
            assert!(c.lookup_ref(id(i)).is_some());
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn twoq_ghost_queue_skips_stale_entries() {
        let mut g = GhostQueue::new(2);
        g.push(id(0));
        g.push(id(1));
        assert!(g.remove(id(0)), "remembered");
        g.push(id(0)); // re-push: the old queue entry is now stale
        g.push(id(2)); // trim must drop 1 (oldest live), not the stale 0
        assert!(!g.remove(id(1)), "1 aged out");
        assert!(g.remove(id(0)), "the re-pushed 0 survived its stale twin");
        assert!(g.remove(id(2)));
        assert!(!g.remove(id(2)), "removal is once");
    }

    #[test]
    fn twoq_ghost_window_bounds_promotions() {
        // Capacity 4 -> ghost remembers 2 ids. Evict three pages from
        // probation; only the two most recent are promotable.
        let mut c = PageCache::new(EvictionPolicy::TwoQ, 4);
        fill_demand(&mut c, [0, 1, 2]);
        c.pop_victim(); // ghosts 0
        c.pop_victim(); // ghosts 1
        c.pop_victim(); // ghosts 2; window of 2 drops 0
        assert_eq!(c.len(), 0);
        match &mut c {
            PageCache::TwoQ(t) => {
                assert!(!t.ghost.remove(id(0)), "0 fell out of the ghost window");
                assert!(t.ghost.remove(id(1)));
                assert!(t.ghost.remove(id(2)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn set_capacity_then_drain_follows_policy_victim_order() {
        for policy in EvictionPolicy::ALL {
            let mut c = PageCache::new(policy, 4);
            fill_demand(&mut c, [0, 1, 2, 3]);
            let expected = c.victim_order();
            c.set_capacity(2);
            let mut drained = Vec::new();
            while c.len() > 2 {
                drained.push(c.pop_victim().unwrap().id);
            }
            assert_eq!(drained, expected[..2].to_vec(), "{policy}");
            assert_eq!(c.capacity(), 2, "{policy}");
        }
    }
}
