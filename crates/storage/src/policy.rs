//! The buffer's replacement policy: exact LRU, the paper's.
//!
//! The paper's cost model is faults against one LRU list, and that is the one
//! policy here: every demand hit moves the page to the MRU position, a fault
//! evicts the LRU page. On top of it [`PageCache`] tracks, per resident page,
//! whether it was admitted by [`PageCache::insert_prefetched`] (a speculative
//! read) and has not yet served a demand hit. Speculative pages are admitted
//! **cold** — at the victim end of the list — so a wrong guess is the first
//! page out, and the buffer pool turns the flag into its `prefetch_useful` /
//! `prefetch_wasted` accounting. Hiding that flag from the shard code is all
//! this wrapper over [`Lru`] is for.

use crate::lru::Lru;
use crate::page::{Page, PageId};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher of the resident-page map: page ids are dense `u32`s under no
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

/// A resident page plus its speculative-admission flag.
struct Resident {
    page: Page,
    /// Admitted by prefetch and not yet hit by a demand access.
    prefetched: bool,
}

/// A page evicted (or drained) from a [`PageCache`].
pub(crate) struct Victim {
    /// The evicted page id; the pool counts victims, only the victim-order
    /// tests look at which page went.
    #[cfg_attr(not(test), allow(dead_code))]
    pub id: PageId,
    /// The page was admitted speculatively and never served a demand hit —
    /// the prefetch was wasted.
    pub prefetched_unused: bool,
}

fn victim((id, r): (PageId, Resident)) -> Victim {
    Victim { id, prefetched_unused: r.prefetched }
}

/// One shard's resident pages in exact LRU order.
///
/// The API is shaped by what `BufferPool::read_with`/`prefetch`/`resize`
/// need: demand lookups ([`PageCache::lookup_ref`]) report whether they are
/// the first demand use of a prefetched page, inserts return the displaced
/// [`Victim`], and [`PageCache::pop_victim`] drains in victim order for
/// shrinking.
pub(crate) struct PageCache {
    pages: Lru<PageId, Resident, BuildHasherDefault<PageIdHasher>>,
}

impl PageCache {
    pub fn new(capacity: usize) -> Self {
        PageCache { pages: Lru::new(capacity) }
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Changes the bound without dropping entries; an over-full cache is
    /// drained by the caller via [`PageCache::pop_victim`].
    pub fn set_capacity(&mut self, capacity: usize) {
        self.pages.set_capacity(capacity);
    }

    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Residency check with **no** side effects: no recency touch, no flag
    /// change. Used by the prefetch path to skip already-resident pages
    /// without perturbing the victim order.
    pub fn contains(&self, id: PageId) -> bool {
        self.pages.contains(&id)
    }

    /// Demand lookup. On a hit returns the resident page — borrowed, so a
    /// reader that only decodes a record never touches the page's reference
    /// count — and `true` iff this is the first demand use of a page
    /// admitted by prefetch (the caller counts it as `prefetch_useful`; the
    /// flag is cleared).
    pub fn lookup_ref(&mut self, id: PageId) -> Option<(&Page, bool)> {
        let r = self.pages.get_mut(&id)?;
        let first_use = std::mem::replace(&mut r.prefetched, false);
        Some((&r.page, first_use))
    }

    /// Demand insert after a fault. Returns the evicted [`Victim`], if the
    /// insert displaced one; re-inserting a resident id refreshes it in
    /// place (the concurrent-fetch re-check path) and evicts nothing.
    pub fn insert(&mut self, id: PageId, page: Page) -> Option<Victim> {
        self.pages.insert(id, Resident { page, prefetched: false }).map(victim)
    }

    /// Speculative insert: the page is admitted **cold** (first in victim
    /// order) and flagged, so the pool can tell a useful prefetch from a
    /// wasted one. A resident id is left untouched.
    pub fn insert_prefetched(&mut self, id: PageId, page: Page) -> Option<Victim> {
        if self.contains(id) {
            return None;
        }
        self.pages.insert_cold(id, Resident { page, prefetched: true }).map(victim)
    }

    /// Removes and returns the next victim (`None` when empty).
    /// `BufferPool::resize` drains over-full shards through this.
    pub fn pop_victim(&mut self) -> Option<Victim> {
        self.pages.pop_lru().map(victim)
    }

    /// The resident ids in victim order (first entry = next victim), for
    /// tests. O(len).
    #[cfg(test)]
    pub fn victim_order(&self) -> Vec<PageId> {
        let mut ids = self.pages.keys_mru_to_lru();
        ids.reverse();
        ids
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
    fn lru_cache_reproduces_the_seed_victim_sequence() {
        // The exact trace the seed buffer-pool test pins down.
        let mut c = PageCache::new(3);
        fill_demand(&mut c, [0, 1, 2]);
        assert!(c.lookup_ref(id(0)).is_some()); // hit -> [0, 2, 1]
        let v = c.insert(id(3), page(3)).expect("full cache evicts");
        assert_eq!(v.id, id(1));
        assert!(c.lookup_ref(id(2)).is_some()); // hit -> [2, 3, 0]
        let v = c.insert(id(1), page(1)).expect("evicts again");
        assert_eq!(v.id, id(0));
        assert_eq!(c.victim_order(), vec![id(3), id(2), id(1)]);
    }

    #[test]
    fn prefetched_pages_are_first_victims_until_used() {
        let mut c = PageCache::new(4);
        fill_demand(&mut c, [0, 1]);
        c.insert_prefetched(id(9), page(9));
        let order = c.victim_order();
        assert_eq!(order[0], id(9), "speculative page is the next victim");
        // A demand lookup reports first use exactly once and ends the cold
        // standing (recency touch).
        let (_, first) = c.lookup_ref(id(9)).unwrap();
        assert!(first, "first demand use of a prefetched page");
        let (_, again) = c.lookup_ref(id(9)).unwrap();
        assert!(!again, "the flag reports only the first use");
        assert_eq!(c.victim_order(), vec![id(0), id(1), id(9)], "the hit made it MRU");
        // Once used, the page is no longer flagged at eviction time.
        let mut drained = Vec::new();
        while let Some(v) = c.pop_victim() {
            drained.push((v.id, v.prefetched_unused));
        }
        assert!(
            drained.iter().all(|&(i, unused)| i != id(9) || !unused),
            "a used prefetch is not wasted"
        );
    }

    #[test]
    fn unused_prefetched_pages_report_wasted_on_eviction() {
        let mut c = PageCache::new(2);
        c.insert_prefetched(id(7), page(7));
        fill_demand(&mut c, [0, 1, 2]); // overflows: 7 must go first
        assert!(!c.contains(id(7)), "cold speculative page evicted first");
        let mut c = PageCache::new(2);
        c.insert_prefetched(id(7), page(7));
        let v = c.pop_victim().unwrap();
        assert_eq!(v.id, id(7));
        assert!(v.prefetched_unused, "never-used prefetch is wasted");
    }

    #[test]
    fn prefetch_of_a_resident_page_is_a_no_op() {
        let mut c = PageCache::new(3);
        fill_demand(&mut c, [0, 1]);
        assert!(c.insert_prefetched(id(0), page(0)).is_none());
        let (_, first) = c.lookup_ref(id(0)).unwrap();
        assert!(!first, "a resident demand page never becomes 'prefetched'");
        assert_eq!(c.len(), 2);
    }

    /// "Every policy" is the one there is since the pool runs LRU alone.
    #[test]
    fn capacity_zero_caches_nothing_under_every_policy() {
        let mut c = PageCache::new(0);
        assert!(c.insert(id(0), page(0)).is_none());
        assert!(c.insert_prefetched(id(1), page(1)).is_none());
        assert_eq!(c.len(), 0);
        assert!(c.lookup_ref(id(0)).is_none());
        assert!(c.pop_victim().is_none());
    }

    #[test]
    fn pop_victim_drains_every_policy_completely() {
        let mut c = PageCache::new(5);
        fill_demand(&mut c, [0, 1, 2, 3, 4]);
        c.lookup_ref(id(2));
        let mut n = 0;
        while c.pop_victim().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(c.len(), 0);
        // The drained cache is reusable.
        fill_demand(&mut c, [7]);
        assert!(c.contains(id(7)));
    }

    #[test]
    fn set_capacity_then_drain_follows_policy_victim_order() {
        let mut c = PageCache::new(4);
        fill_demand(&mut c, [0, 1, 2, 3]);
        let expected = c.victim_order();
        c.set_capacity(2);
        let mut drained = Vec::new();
        while c.len() > 2 {
            drained.push(c.pop_victim().unwrap().id);
        }
        assert_eq!(drained, expected[..2].to_vec());
        let v = c.insert(id(9), page(9)).expect("the new bound evicts at two pages");
        assert_eq!(v.id, expected[2]);
    }
}
