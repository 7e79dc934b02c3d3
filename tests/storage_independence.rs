//! Property tests: the storage layer (page layout, buffer size, file backing)
//! affects only the cost counters, never the query results, and the I/O
//! accounting itself behaves sanely.

mod common;

use common::restricted_instance;
use proptest::prelude::*;
use rnn_core::{naive, run_rknn, Algorithm, Precomputed};
use rnn_graph::{Graph, GraphBuilder, Topology};
use rnn_storage::page::PageRecord;
use rnn_storage::{
    BufferPool, BufferPoolConfig, FileDisk, IoCounters, LayoutStrategy, MemoryDisk, PageLayout,
    PagedGraph,
};

/// Graphs shaped to stress the record pointer rather than the queries: no
/// spanning tree (so isolated nodes and several components are common),
/// optionally a hub whose adjacency list overflows one page, every edge
/// offered to the builder twice (`Graph` keeps one copy of an identical
/// parallel edge), and the smallest positive weights beside ordinary ones
/// (`GraphBuilder` rejects an exact zero; zero-weight and parallel *entries*
/// are covered at the page level by `rnn-storage`'s unit tests).
fn sparse_graph_with_optional_hub() -> impl Strategy<Value = Graph> {
    let hub_degree = PageRecord::max_entries_per_page() + 1;
    (
        2usize..40,
        proptest::collection::vec((0usize..40, 0usize..40, 0u8..4), 0..60),
        prop_oneof![Just(0usize), Just(hub_degree), Just(2 * hub_degree + 7)],
    )
        .prop_map(|(small, edges, hub_degree)| {
            // Nodes 0..small carry the random edges; the hub (if any) is the
            // node after them, and its leaves follow.
            let n = small + if hub_degree > 0 { 1 + hub_degree } else { 0 };
            let mut b = GraphBuilder::new(n);
            for (a, c, w) in edges {
                let (a, c) = (a % small, c % small);
                if a == c || b.has_edge(a, c) {
                    continue;
                }
                let weight = [f64::MIN_POSITIVE, 5e-324, 0.25, 7.5][w as usize];
                b.add_edge(a, c, weight).expect("valid edge");
                b.add_edge(c, a, weight).expect("an identical parallel edge is accepted");
            }
            for leaf in 0..hub_degree {
                b.add_edge(small, small + 1 + leaf, 1.0 + (leaf % 5) as f64).expect("hub edge");
            }
            b.build().expect("valid graph")
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn results_are_identical_on_paged_graphs_for_any_layout_buffer_and_sharding(
        inst in restricted_instance(),
        buffer in prop_oneof![Just(0usize), Just(2), Just(8), Just(256)],
        shards in prop_oneof![Just(1usize), Just(2), Just(8)],
        layout in prop_oneof![
            Just(LayoutStrategy::BfsLocality),
            Just(LayoutStrategy::NodeOrder),
            Just(LayoutStrategy::Shuffled(77)),
        ],
    ) {
        let reference = naive::naive_rknn(&inst.graph, &inst.points, inst.query, inst.k);
        let config = BufferPoolConfig::new(buffer).with_shards(shards);
        let paged = PagedGraph::build_with_config(&inst.graph, layout, config, IoCounters::new())
            .expect("paged graph");
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::LazyExtendedPruning, Algorithm::Naive] {
            let out = run_rknn(algo, &paged, &inst.points, Precomputed::none(), inst.query, inst.k);
            prop_assert_eq!(
                &out.points, &reference.points,
                "{} on {:?}/{} pages/{} shards", algo, layout, buffer, shards
            );
        }
        // I/O sanity: every access either hits or faults, faults never
        // exceed accesses, and the pool's per-shard accounting partitions
        // the total its handle reads.
        let io = paged.io_stats();
        prop_assert!(io.faults <= io.accesses);
        if buffer == 0 {
            prop_assert_eq!(io.faults, io.accesses, "no buffer means every access faults");
        }
        let pool = paged.pool_stats();
        prop_assert_eq!(pool.per_shard.len(), config.effective_shards());
        prop_assert_eq!(pool.total.as_io_stats(), io);
    }

    /// The record pointer `(first_page, offset, span)` is right for every
    /// node of every layout, and following it through any pool shape serves
    /// the in-memory adjacency at exactly one access per page of the record.
    #[test]
    fn record_pointers_serve_exact_adjacency_under_every_layout_policy_and_sharding(
        graph in sparse_graph_with_optional_hub(),
        buffer in prop_oneof![Just(0usize), Just(1), Just(4), Just(64)],
    ) {
        for strategy in
            [LayoutStrategy::BfsLocality, LayoutStrategy::NodeOrder, LayoutStrategy::Shuffled(9)]
        {
            let layout = PageLayout::build(&graph, strategy).expect("layout");
            let mut total_span = 0u64;
            for (v, entry) in layout.index.iter() {
                total_span += u64::from(entry.span);
                prop_assert!(entry.span >= 1, "{:?}: node {} has no record", strategy, v);
                let mut scanned = Vec::new();
                let mut pointed = Vec::new();
                for (i, p) in entry.pages().enumerate() {
                    let page = &layout.pages[p.index()];
                    let offset = if i == 0 { usize::from(entry.offset) } else { 0 };
                    let record = page.record_at(p, v, offset);
                    prop_assert!(record.is_ok(), "{:?}: node {}: {:?}", strategy, v, record);
                    let record = record.unwrap();
                    prop_assert_eq!(record.node, v, "the header at the pointer names the node");
                    pointed.extend(record.entries());
                    prop_assert!(page.entries_of(p, v, &mut scanned).expect("well-formed page"));
                }
                prop_assert_eq!(&pointed, &scanned, "pointer and page scan agree on node {}", v);
                prop_assert_eq!(pointed.len(), graph.degree(v));
            }
            for shards in [1usize, 4] {
                let pool = BufferPool::with_config(
                    MemoryDisk::new(layout.pages.clone()),
                    BufferPoolConfig::new(buffer).with_shards(shards),
                    IoCounters::new(),
                );
                let paged = PagedGraph::from_parts(pool, layout.index.clone(), graph.num_nodes());
                for v in graph.node_ids() {
                    prop_assert_eq!(
                        paged.neighbors_vec(v),
                        graph.neighbors_vec(v),
                        "node {} on {:?}/{} shards/{} pages", v, strategy, shards, buffer
                    );
                }
                let io = paged.io_stats();
                prop_assert_eq!(io.accesses, total_span, "one access per page of every record");
                prop_assert_eq!(paged.pool_stats().total.as_io_stats(), io);
            }
        }
    }

    #[test]
    fn adjacency_lists_survive_the_page_round_trip(inst in restricted_instance()) {
        let paged = PagedGraph::build(&inst.graph).expect("paged graph");
        prop_assert_eq!(Topology::num_nodes(&paged), inst.graph.num_nodes());
        for v in inst.graph.node_ids() {
            let mut expected = inst.graph.neighbors_vec(v);
            let mut got = paged.neighbors_vec(v);
            expected.sort_by_key(|n| n.node);
            got.sort_by_key(|n| n.node);
            prop_assert_eq!(got, expected, "node {}", v);
        }
    }

    #[test]
    fn smaller_buffers_never_fault_less(inst in restricted_instance()) {
        let run_with_buffer = |pages: usize| {
            let paged = PagedGraph::build_with(
                &inst.graph,
                LayoutStrategy::BfsLocality,
                pages,
                IoCounters::new(),
            )
            .expect("paged graph");
            let _ = run_rknn(Algorithm::Lazy, &paged, &inst.points, Precomputed::none(), inst.query, inst.k);
            paged.io_stats()
        };
        let tiny = run_with_buffer(1);
        let small = run_with_buffer(4);
        let large = run_with_buffer(1024);
        // identical logical access sequences...
        prop_assert_eq!(tiny.accesses, small.accesses);
        prop_assert_eq!(small.accesses, large.accesses);
        // ...with monotonically non-increasing fault counts (LRU inclusion
        // does not hold in general, but it does for these nested capacities
        // on a shared access trace; we assert the weaker end-to-end property).
        prop_assert!(large.faults <= tiny.faults);
        prop_assert!(large.faults <= small.faults);
    }
}

/// The file-backed page store serves the same adjacency data as the in-memory
/// simulated disk, and the file `FileDisk::create` writes is pinned byte for
/// byte: page count, file length and a `mix64` fold over its 8-byte words, for
/// the grid under every layout strategy and for a hub whose record spills
/// onto continuation pages.
#[test]
fn file_backed_store_matches_memory_store() {
    use rnn_datagen::{grid_map, GridConfig};
    use rnn_graph::NodeId;
    use rnn_storage::lru::mix64;

    let grid = grid_map(&GridConfig { rows: 12, cols: 12, ..Default::default() });
    let hub_degree = PageRecord::max_entries_per_page() + 45;
    let mut b = GraphBuilder::new(hub_degree + 1);
    for leaf in 1..=hub_degree {
        b.add_edge(0, leaf, 1.0 + (leaf % 5) as f64 * 0.25).expect("hub edge");
    }
    let hub = b.build().expect("hub graph");
    assert!(hub.degree(NodeId::new(0)) >= 256);

    let dir = std::env::temp_dir().join(format!("rnn_it_storage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.pages");
    let cases: [(&Graph, LayoutStrategy, (usize, usize, u64)); 4] = [
        (&grid, LayoutStrategy::BfsLocality, (3, 12_312, 0xaec1_e7a7_22d1_837b)),
        (&grid, LayoutStrategy::NodeOrder, (3, 12_312, 0x4599_bcd4_6ee0_2307)),
        (&grid, LayoutStrategy::Shuffled(7), (3, 12_312, 0xaab4_41e3_518d_7ca5)),
        // 300 entries: a full first page and a continuation page.
        (&hub, LayoutStrategy::BfsLocality, (4, 16_416, 0x61fc_9b04_6908_095e)),
    ];
    for (graph, strategy, pinned) in cases {
        let layout = PageLayout::build(graph, strategy).expect("layout");
        let disk = FileDisk::create(&path, &layout.pages).expect("file disk");
        let file = std::fs::read(&path).expect("page file");
        let fold = file
            .chunks_exact(8)
            .fold(0u64, |h, word| mix64(h ^ u64::from_le_bytes(word.try_into().expect("8 bytes"))));
        let name = format!("{strategy:?} on {} nodes", graph.num_nodes());
        assert_eq!((layout.pages.len(), file.len(), fold), pinned, "{name}");

        let pool = BufferPool::new(disk, 16, IoCounters::new());
        let paged = PagedGraph::from_parts(pool, layout.index, graph.num_nodes());
        for v in graph.node_ids() {
            assert_eq!(paged.neighbors_vec(v), graph.neighbors_vec(v), "node {v}");
        }
        assert!(paged.io_stats().accesses >= graph.num_nodes() as u64);
        assert_eq!(paged.neighbors_vec(NodeId::new(0)), graph.neighbors_vec(NodeId::new(0)));
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// Unrestricted queries need the page file and the point set, not the graph
/// they were built from: the point set carries the endpoints and weight of
/// every edge that holds a point, so the in-memory graph can be gone by the
/// time eager, lazy and naive run over the paged topology.
#[test]
fn unrestricted_queries_run_over_a_paged_graph_after_the_graph_is_dropped() {
    use rnn_core::unrestricted::{
        unrestricted_eager_rknn, unrestricted_lazy_rknn, unrestricted_naive_rknn,
    };
    use rnn_datagen::{grid_map, place_points_on_edges, sample_edge_queries, GridConfig};

    let graph = grid_map(&GridConfig { rows: 14, cols: 15, seed: 22, ..Default::default() });
    let points = place_points_on_edges(&graph, 0.08, 22);
    let queries: Vec<_> =
        sample_edge_queries(&points, 6, 22).into_iter().map(|p| points.position(p)).collect();
    let in_memory: Vec<_> =
        queries.iter().map(|q| unrestricted_naive_rknn(&graph, &points, q, 2)).collect();
    assert!(in_memory.iter().any(|out| !out.is_empty()));
    // A pool of 4 pages: the traversals below fault their lists in.
    let paged = PagedGraph::build_with(&graph, LayoutStrategy::BfsLocality, 4, IoCounters::new())
        .expect("a grid pages");
    drop(graph);

    for (query, expected) in queries.iter().zip(&in_memory) {
        let naive = unrestricted_naive_rknn(&paged, &points, query, 2);
        assert_eq!(&naive, expected, "naive: the same work as in memory, too");
        assert_eq!(unrestricted_eager_rknn(&paged, &points, query, 2).points, expected.points);
        assert_eq!(unrestricted_lazy_rknn(&paged, &points, query, 2).points, expected.points);
    }
    assert!(paged.io_stats().faults > 0);
}
