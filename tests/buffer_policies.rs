//! Property tests for the buffer's LRU policy: arbitrary access traces
//! replayed at every shard count keep the accounting invariants and the
//! page contents intact, query results never depend on the pool's shape,
//! and `shards=1` stays bit-compatible with the seed victim model.

mod common;

use common::restricted_instance;
use proptest::prelude::*;
use rnn_core::{naive, run_rknn, Algorithm, Precomputed};
use rnn_graph::{EdgeId, NodeId, Weight};
use rnn_storage::page::{PageBuilder, PageEntry};
use rnn_storage::{
    BufferPool, BufferPoolConfig, IoCounters, LayoutStrategy, MemoryDisk, PageId, PageStore,
    PagedGraph,
};

/// A synthetic disk of `n` one-record pages; page `i`'s record carries node
/// id `i`, so byte-equality of fetched pages implies identity.
fn disk_with_pages(n: usize) -> MemoryDisk {
    let pages = (0..n)
        .map(|i| {
            let mut b = PageBuilder::new();
            b.push_record(
                NodeId::new(i),
                &[PageEntry {
                    neighbor: NodeId::new(0),
                    edge: EdgeId(0),
                    weight: Weight::new(1.0),
                }],
            )
            .expect("one record fits a page");
            b.build()
        })
        .collect();
    MemoryDisk::new(pages)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// (a) Accounting invariants hold for arbitrary traces of `fetch`
    /// batches at every shard count, and every fetched page comes back
    /// byte-identical to the store.
    #[test]
    fn trace_replay_keeps_accounting_invariants_at_every_shard_count(
        num_pages in 4usize..48,
        capacity in prop_oneof![Just(0usize), Just(1), Just(3), Just(8), Just(32)],
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        trace in proptest::collection::vec(proptest::collection::vec(0usize..48, 1..12), 1..24),
    ) {
        let pool = BufferPool::with_config(
            disk_with_pages(num_pages),
            BufferPoolConfig::new(capacity).with_shards(shards),
            IoCounters::new(),
        );
        for ids in &trace {
            for id in ids.iter().map(|&i| PageId::new(i % num_pages)) {
                let page = pool.fetch(id).expect("page in range");
                let expected = pool.store().read_page(id).unwrap();
                prop_assert_eq!(
                    page.as_bytes(),
                    expected.as_bytes(),
                    "fetch({:?}) must return the store's bytes", id
                );
            }
            // The invariants hold at every step, not just at the end.
            let stats = pool.io_stats();
            let mut sum_accesses = 0u64;
            for s in stats.per_shard.iter().chain(std::iter::once(&stats.total)) {
                prop_assert!(s.evictions <= s.faults, "evictions <= faults: {s:?}");
                prop_assert!(s.faults <= s.accesses(), "faults <= accesses: {s:?}");
            }
            for s in &stats.per_shard {
                sum_accesses += s.accesses();
            }
            prop_assert_eq!(sum_accesses, stats.total.accesses(), "per-shard stats partition the total");
            prop_assert_eq!(
                pool.counters().snapshot(),
                stats.total.as_io_stats(),
                "the handle reads the pool's total"
            );
            prop_assert!(pool.resident_pages() <= capacity, "residency bounded by capacity");
        }
    }

    /// (a) Query results never depend on the buffer size or the shard
    /// count: every cell reproduces the naive in-memory reference.
    #[test]
    fn query_results_are_identical_at_every_buffer_size_and_shard_count(
        inst in restricted_instance(),
        capacity in prop_oneof![Just(0usize), Just(2), Just(8)],
        shards in prop_oneof![Just(1usize), Just(4)],
    ) {
        let reference = naive::naive_rknn(&inst.graph, &inst.points, inst.query, inst.k);
        let paged = PagedGraph::build_with_config(
            &inst.graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(capacity).with_shards(shards),
            IoCounters::new(),
        )
        .expect("paged graph");
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::LazyExtendedPruning] {
            let out = run_rknn(algo, &paged, &inst.points, Precomputed::none(), inst.query, inst.k);
            prop_assert_eq!(
                &out.points, &reference.points,
                "{} at {} pages / {} shards", algo, capacity, shards
            );
        }
        let total = paged.pool_stats().total;
        prop_assert!(total.evictions <= total.faults && total.faults <= total.accesses());
    }

    /// (b) A single-shard LRU pool stays bit-compatible with the seed victim
    /// model: hits, faults and evictions match an exact reference LRU after
    /// every access, and exactly the model's resident set is in the pool.
    #[test]
    fn single_shard_lru_matches_the_seed_victim_model(
        num_pages in 2usize..32,
        capacity in 1usize..12,
        trace in proptest::collection::vec(0usize..32, 1..64),
    ) {
        let pool = BufferPool::new(disk_with_pages(num_pages), capacity, IoCounters::new());
        // The seed model: a recency list, most recent last; faults insert at
        // the tail and evict the head once over capacity.
        let mut model: Vec<PageId> = Vec::new();
        let (mut hits, mut faults, mut evictions) = (0u64, 0u64, 0u64);
        for &i in &trace {
            let id = PageId::new(i % num_pages);
            if let Some(pos) = model.iter().position(|&p| p == id) {
                model.remove(pos);
                model.push(id);
                hits += 1;
            } else {
                faults += 1;
                model.push(id);
                if model.len() > capacity {
                    model.remove(0);
                    evictions += 1;
                }
            }
            pool.fetch(id).expect("page in range");
            let s = pool.io_stats().total;
            prop_assert_eq!(
                (s.hits, s.faults, s.evictions),
                (hits, faults, evictions),
                "after access {:?} the pool must match the seed LRU model", id
            );
        }
        prop_assert_eq!(pool.resident_pages(), model.len());
        // Touching the model's resident set must be all hits: together with
        // the size equality this pins the resident sets as identical.
        let before = pool.io_stats().total;
        for &id in &model {
            pool.fetch(id).expect("page in range");
        }
        let after = pool.io_stats().total;
        prop_assert_eq!(after.hits - before.hits, model.len() as u64);
        prop_assert_eq!(after.faults, before.faults);
    }
}

/// A [`MemoryDisk`] that records the id of every page read from it.
struct RecordingDisk {
    disk: MemoryDisk,
    reads: std::sync::Mutex<Vec<usize>>,
}

impl PageStore for RecordingDisk {
    fn num_pages(&self) -> usize {
        self.disk.num_pages()
    }

    fn read_page(&self, page: PageId) -> Result<rnn_storage::Page, rnn_storage::StorageError> {
        self.reads.lock().unwrap().push(page.index());
        self.disk.read_page(page)
    }
}

/// Exact accounting is pinned, not assumed: one fixed trace of fetches at 1
/// and 4 shards must leave exactly the hits, faults and evictions, the
/// accesses per shard and the pages the store read, in order (folded into
/// one `mix64` digest: a victim that moved would move a later fault), pinned
/// here as recorded while the pool still had a read-ahead path. How a map
/// places an id or how a record is found in its page may never move an
/// access, a fault or a victim.
#[test]
fn a_demand_only_trace_leaves_the_pinned_counters_and_faults() {
    // (shards, [hits, faults, evictions], demand accesses per shard, digest of
    // the store's reads)
    let pinned: [(usize, [u64; 3], &[u64], u64); 2] = [
        (1, [68, 172, 164], &[240], 0x96ed_1b13_2ba6_9ca8),
        (4, [51, 189, 181], &[103, 69, 49, 19], 0x3ad7_eb3e_26f1_8d91),
    ];
    for (shards, expected, per_shard, reads_digest) in pinned {
        let store = RecordingDisk { disk: disk_with_pages(40), reads: Default::default() };
        let pool = BufferPool::with_config(
            store,
            BufferPoolConfig::new(8).with_shards(shards),
            IoCounters::new(),
        );
        for step in 0..240u64 {
            let x = rnn_storage::lru::mix64(step);
            let id = PageId::new(if step % 3 == 0 { x % 6 } else { x % 40 } as usize);
            let next = PageId::new((id.index() + 1) % 40);
            match step % 8 {
                7 => continue,
                3 => {
                    pool.fetch(id).expect("page in range");
                    pool.fetch(next).expect("page in range");
                }
                _ => drop(pool.fetch(id).expect("page in range")),
            }
        }
        let stats = pool.io_stats();
        let t = stats.total;
        let accesses: Vec<u64> = stats.per_shard.iter().map(|s| s.accesses()).collect();
        let reads = pool.store().reads.lock().unwrap().clone();
        let digest = reads.iter().fold(0u64, |h, &id| rnn_storage::lru::mix64(h ^ id as u64));
        assert_eq!([t.hits, t.faults, t.evictions], expected, "{shards} shard(s)");
        assert_eq!(accesses, per_shard, "{shards} shard(s): page -> shard mapping");
        assert_eq!(reads.len() as u64, t.faults, "{shards} shard(s): one read per fault");
        assert_eq!(digest, reads_digest, "{shards} shard(s): the faults, in order");
    }
}
