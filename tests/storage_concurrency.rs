//! The sharded storage serving path: concurrency properties of the striped
//! buffer pool and its one I/O count.
//!
//! Three contracts make the paged backend safe to serve from a worker pool:
//!
//! 1. **Determinism** — a `Server` over a `PagedGraph` with a sharded buffer
//!    pool, fed one `submit_all` burst, is byte-identical (result sets and
//!    per-query stats) to the sequential in-memory loop at 1, 2 and 8
//!    workers, for all six algorithms; the burst's page accesses are the
//!    same at every worker count, and the shards partition them. Storage,
//!    sharding and worker count only ever affect *cost*, never *results*.
//! 2. **Accounting** — every access of a multi-thread hammer is counted
//!    exactly once (none lost, none double-counted) by the shard that
//!    served it, and the per-shard breakdown partitions the total the
//!    pool's `IoCounters` handle reads.
//! 3. **Bit-compatibility** — a `shards = 1` pool reproduces the seed's
//!    single-LRU victim order exactly, so every fault count the paper's
//!    experiments report is unchanged by the refactor.

mod common;

use common::{restricted_instance, serve_all};
use proptest::prelude::*;
use rnn_core::materialize::MaterializedKnn;
use rnn_core::{run_rknn, Algorithm, Precomputed};
use rnn_datagen::{grid_map, place_points_on_nodes, sample_node_queries, GridConfig};
use rnn_graph::{Graph, NodeId, NodePointSet, Topology};
use rnn_index::HubLabelIndex;
use rnn_server::{Request, Server, ServerConfig, World};
use rnn_storage::{
    BufferPool, BufferPoolConfig, FileDisk, IoCounters, LayoutStrategy, PageLayout, PagedGraph,
    ShardStats,
};
use std::sync::Arc;

/// Builds a mixed burst (every algorithm over every query node), serves it
/// from a paged backend with the given buffer config (result cache off) and
/// asserts the server reproduces the sequential in-memory reference exactly
/// at 1, 2 and 8 workers, with the same page accesses at each and the shards
/// partitioning them.
fn assert_paged_batch_matches_sequential(
    graph: &Graph,
    points: NodePointSet,
    queries: &[NodeId],
    k: usize,
    config: BufferPoolConfig,
) -> Result<(), TestCaseError> {
    // Precomputed structures are built over the in-memory graph (identical
    // weights); the server then serves every query from the paged view.
    let table = Arc::new(MaterializedKnn::build(graph, &points, k));
    let hub_index = Arc::new(HubLabelIndex::build(graph, &points));
    let pre = Precomputed::materialized(&table).with_hub_labels(&*hub_index);
    let requests: Vec<Request> = Algorithm::ALL
        .iter()
        .flat_map(|&algorithm| queries.iter().map(move |&query| Request::new(algorithm, query, k)))
        .collect();

    // The reference: one independent single query per request, in memory.
    let expected: Vec<_> =
        requests.iter().map(|r| run_rknn(r.algorithm, graph, &points, pre, r.query, r.k)).collect();

    let paged = Arc::new(
        PagedGraph::build_with_config(
            graph,
            LayoutStrategy::BfsLocality,
            config,
            IoCounters::new(),
        )
        .expect("paged graph"),
    );
    let points = Arc::new(points);
    let mut accesses = None;
    for workers in [1usize, 2, 8] {
        // A cold start zeroes the pool's count: the server's I/O rollup
        // then reads exactly this burst's accesses.
        paged.cold_start();
        let world = World::new(paged.clone(), points.clone())
            .with_materialized(Arc::clone(&table))
            .with_hub_label_index(hub_index.clone());
        let server = Server::start_with_io(
            world,
            ServerConfig::default().with_workers(workers),
            paged.counters().clone(),
        );
        let served = serve_all(&server, &requests);
        let io = server.shutdown().io;
        prop_assert_eq!(&served, &expected, "workers={}", workers);
        // The burst's demand accesses do not depend on the worker count
        // (only its faults do), and the shards partition them.
        prop_assert_eq!(*accesses.get_or_insert(io.accesses), io.accesses, "workers={}", workers);
        let pool = paged.pool_stats();
        prop_assert_eq!(pool.total.as_io_stats(), io, "workers={}", workers);
        prop_assert_eq!(pool.per_shard.len(), config.effective_shards());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Contract 1: sharded paged serving is deterministic across worker
    /// counts for all six algorithms.
    #[test]
    fn paged_batches_are_deterministic_across_thread_counts_and_shard_counts(
        seed in 0u64..1000,
        k in 1usize..=2,
        shard_choice in 0usize..3,
    ) {
        let shards = [1usize, 4, 8][shard_choice];
        let graph = grid_map(&GridConfig { rows: 12, cols: 12, seed, ..Default::default() });
        let points = place_points_on_nodes(&graph, 0.08, seed + 1);
        prop_assert!(!points.nodes().is_empty(), "density 0.08 on 144 nodes yields points");
        let queries = sample_node_queries(&points, 5, seed + 2);
        let config = BufferPoolConfig::new(16).with_shards(shards);
        assert_paged_batch_matches_sequential(&graph, points, &queries, k, config)?;
    }

    /// Contract 1 on arbitrary connected graphs, with a tiny sharded buffer
    /// (heavy eviction traffic) — results still never change.
    #[test]
    fn random_instance_paged_batches_are_deterministic(inst in restricted_instance()) {
        let queries = [inst.query];
        let config = BufferPoolConfig::new(4).with_shards(4);
        assert_paged_batch_matches_sequential(&inst.graph, inst.points, &queries, inst.k, config)?;
    }

    /// Contract 3: for any access trace, a one-shard pool faults exactly
    /// like the seed's single LRU (replayed here as a reference model over
    /// the trace), access by access.
    #[test]
    fn single_shard_pool_reproduces_the_seed_victim_order_on_any_trace(
        seed in 0u64..1000,
        capacity in 1usize..=6,
    ) {
        let graph = grid_map(&GridConfig { rows: 10, cols: 10, seed, ..Default::default() });
        let paged = PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(capacity), // shards = 1
            IoCounters::new(),
        ).expect("paged graph");
        prop_assert_eq!(paged.buffer().num_shards(), 1);

        // Reference model: the seed's LRU as a recency-ordered Vec of page
        // ids (MRU first), replayed over the same node-visit trace.
        let mut model: Vec<u32> = Vec::new();
        let mut model_faults = 0u64;
        let mut model_evictions = 0u64;
        let mut state = seed;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = NodeId::new((state >> 33) as usize % graph.num_nodes());
            paged.neighbors_vec(node);
            // Model every page the fetch touched, in order.
            for page_id in paged.node_index().entry(node).pages() {
                let id = page_id.0;
                if let Some(pos) = model.iter().position(|&p| p == id) {
                    model.remove(pos);
                    model.insert(0, id);
                } else {
                    model_faults += 1;
                    model.insert(0, id);
                    if model.len() > capacity {
                        model.pop();
                        model_evictions += 1;
                    }
                }
            }
            prop_assert_eq!(
                paged.io_stats().faults,
                model_faults,
                "fault divergence from the seed LRU at node {}", node
            );
        }
        let total = paged.io_stats();
        prop_assert_eq!(total.faults, model_faults);
        prop_assert_eq!(total.evictions, model_evictions);
    }
}

/// Contract 2: 8 threads hammering a sharded buffer; every access lands
/// exactly once, in the shard that served it.
#[test]
fn sharded_pool_accounting_is_exact_under_eight_threads() {
    let graph = grid_map(&GridConfig { rows: 16, cols: 16, seed: 7, ..Default::default() });
    let paged = PagedGraph::build_with_config(
        &graph,
        LayoutStrategy::BfsLocality,
        BufferPoolConfig::new(32).with_shards(8),
        IoCounters::new(),
    )
    .expect("paged graph");
    let threads = 8;
    let visits_per_thread = 500usize;
    let num_nodes = graph.num_nodes();
    // The exact access count below assumes every node's adjacency fits one
    // page (one buffer access per visit) — make that explicit instead of
    // relying on the current page size and grid degree.
    for v in graph.node_ids() {
        assert_eq!(
            paged.node_index().entry(v).pages().count(),
            1,
            "test precondition: single-page adjacency for node {v}"
        );
    }
    std::thread::scope(|scope| {
        for t in 0..threads {
            let paged = &paged;
            scope.spawn(move || {
                let mut state = 0x5DEECE66Du64 ^ (t as u64);
                for _ in 0..visits_per_thread {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                    let node = NodeId::new((state >> 33) as usize % num_nodes);
                    paged.neighbors_vec(node);
                }
            });
        }
    });
    let io = paged.io_stats();
    assert_eq!(io.accesses as usize, threads * visits_per_thread, "one access per visit");
    let pool = paged.pool_stats();
    assert_eq!(pool.per_shard.len(), 8);
    assert_eq!(pool.total.as_io_stats(), io, "the handle reads the shard total");
    let mut rebuilt = ShardStats::default();
    for s in &pool.per_shard {
        rebuilt += s;
    }
    assert_eq!(rebuilt, pool.total);
    assert!(
        pool.per_shard.iter().filter(|s| s.accesses() > 0).count() > 1,
        "a mixed trace spreads accesses over multiple shards"
    );
}

/// Every grid node's adjacency spans exactly one page here, so each
/// neighbors_vec is one buffer access; the paged view must agree with the
/// in-memory graph regardless of shard count (sanity for the harness above).
#[test]
fn sharded_and_single_shard_pools_serve_identical_adjacency() {
    let graph = grid_map(&GridConfig { rows: 10, cols: 10, seed: 3, ..Default::default() });
    let configs = [
        BufferPoolConfig::new(8),
        BufferPoolConfig::new(8).with_shards(4),
        BufferPoolConfig::new(0),
    ];
    for config in configs {
        let paged = PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            config,
            IoCounters::new(),
        )
        .expect("paged graph");
        for v in graph.node_ids() {
            assert_eq!(
                paged.neighbors_vec(v),
                graph.neighbors_vec(v),
                "node {v}, config {config:?}"
            );
        }
    }
}

/// Contract 2 on the miss path: `FileDisk` reads are positional and take no
/// lock, so faults of different shards (and, before the insert re-check, of
/// the same page) overlap in the store. Eight threads over a pool far smaller
/// than the file must still get every list right, count every visit once,
/// and keep `evictions <= faults <= accesses` in every shard.
#[test]
fn concurrent_faults_over_a_file_disk_keep_exact_accounting() {
    let graph = grid_map(&GridConfig { rows: 40, cols: 40, seed: 11, ..Default::default() });
    let layout = PageLayout::build(&graph, LayoutStrategy::Shuffled(3)).expect("layout");
    let num_pages = layout.num_pages() as u64;
    assert!(num_pages >= 24, "the file must dwarf the 8-page pool");
    let dir = std::env::temp_dir().join(format!("rnn_it_concurrent_faults_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.pages");
    let disk = FileDisk::create(&path, &layout.pages).expect("file disk");
    let pool =
        BufferPool::with_config(disk, BufferPoolConfig::new(8).with_shards(4), IoCounters::new());
    let paged = PagedGraph::from_parts(pool, layout.index, graph.num_nodes());

    let threads = 8;
    let visits_per_thread = 2_000usize;
    let num_nodes = graph.num_nodes();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (paged, graph) = (&paged, &graph);
            scope.spawn(move || {
                let mut state = 0x2545F4914F6CDD1Du64 ^ (t as u64);
                for _ in 0..visits_per_thread {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                    let node = NodeId::new((state >> 33) as usize % num_nodes);
                    assert_eq!(paged.neighbors_vec(node), graph.neighbors_vec(node), "node {node}");
                }
            });
        }
    });

    let io = paged.io_stats();
    assert_eq!(io.accesses as usize, threads * visits_per_thread, "grid records span one page");
    let pool = paged.pool_stats();
    assert_eq!(pool.total.as_io_stats(), io, "the handle reads the shard total");
    for s in pool.per_shard.iter().chain(std::iter::once(&pool.total)) {
        assert!(s.evictions <= s.faults && s.faults <= s.accesses(), "{s:?}");
    }
    assert!(
        pool.total.faults > num_pages,
        "a shuffled layout behind 8 pages faults more often than once per page: {:?}",
        pool.total
    );
    assert!(paged.buffer().resident_pages() <= 8);

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
