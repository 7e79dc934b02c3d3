//! The disk-page backed graph view.
//!
//! [`PagedGraph`] combines a page store, the node-id index and a buffer pool
//! (the paper's LRU) into a [`Topology`] implementation. Query algorithms
//! written against the `Topology` trait run unchanged on a `PagedGraph`; the
//! only difference from the in-memory [`rnn_graph::Graph`] is that every
//! adjacency fetch goes through the buffer and is counted once, by the buffer
//! shard that serves it; [`PagedGraph::io_stats`] reads that count as an
//! [`IoStats`]. This is the component the paper's experiments measure.
//!
//! A fetch is [`Topology::with_adjacency`]: one call per node that lends the
//! decoded list as a slice. The record is copied out of the pool frame by a
//! [`BufferPool::read_with`] closure — under the shard lock on a hit, so the
//! copy is bounded at 16 arcs and anything longer takes a page handle and
//! decodes outside — and the slice is lent only after the lock is released.
//! [`Topology::adjacency`] stays `None`: a frame can be evicted the moment
//! the lock drops, so there is nothing here to borrow beyond the call.

use crate::buffer::{BufferPool, BufferPoolConfig, BufferPoolStats};
use crate::disk::{MemoryDisk, PageStore};
use crate::error::StorageError;
use crate::io_stats::{IoCounters, IoStats};
use crate::layout::{LayoutStrategy, PageLayout};
use crate::node_index::NodeIndex;
use crate::page::{Page, PageEntry, PageId, RecordView};
use rnn_graph::{EdgeId, Graph, Neighbor, NodeId, Topology, Weight};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Arcs of a record that are copied out under the shard lock, into a buffer
/// on the fetching thread's stack; a longer record is decoded from a page
/// handle outside the lock. Grid and road nodes have degree ≤ 8.
const INLINE_ARCS: usize = 16;

thread_local! {
    /// Scratch for translating prefetch-hint nodes to page ids, reused so a
    /// hint costs no allocation. Thread-local so the serving path shares no
    /// mutable state between worker threads.
    static HINT_SCRATCH: RefCell<Vec<PageId>> = const { RefCell::new(Vec::new()) };
}

/// A graph stored on simulated disk pages and read through a striped LRU
/// page buffer.
pub struct PagedGraph<S: PageStore = MemoryDisk> {
    buffer: BufferPool<S>,
    index: NodeIndex,
    num_nodes: usize,
    /// Whether expansion loops should send frontier prefetch hints
    /// ([`Topology::wants_prefetch_hints`]). Off by default: hints are an
    /// opt-in speculation knob, and the paper's accounting is exactly
    /// reproduced with them off.
    prefetch: AtomicBool,
}

impl PagedGraph<MemoryDisk> {
    /// Builds a paged graph from an in-memory graph using the default
    /// BFS-locality layout and the paper's 256-page single-shard buffer.
    pub fn build(graph: &Graph) -> Result<Self, StorageError> {
        Self::build_with_config(
            graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::paper_default(),
            IoCounters::new(),
        )
    }

    /// Builds a paged graph with a single-shard buffer of `buffer_pages`
    /// pages — the paper's configuration, with the exact single-LRU victim
    /// order. Use [`PagedGraph::build_with_config`] to shard the buffer for
    /// concurrent serving.
    pub fn build_with(
        graph: &Graph,
        strategy: LayoutStrategy,
        buffer_pages: usize,
        counters: IoCounters,
    ) -> Result<Self, StorageError> {
        Self::build_with_config(graph, strategy, BufferPoolConfig::new(buffer_pages), counters)
    }

    /// Builds a paged graph with full control over layout strategy, buffer
    /// capacity/sharding and the I/O counters to report into.
    pub fn build_with_config(
        graph: &Graph,
        strategy: LayoutStrategy,
        config: BufferPoolConfig,
        counters: IoCounters,
    ) -> Result<Self, StorageError> {
        let layout = PageLayout::build(graph, strategy)?;
        let disk = MemoryDisk::new(layout.pages);
        let buffer = BufferPool::with_config(disk, config, counters);
        Ok(PagedGraph {
            buffer,
            index: layout.index,
            num_nodes: graph.num_nodes(),
            prefetch: AtomicBool::new(false),
        })
    }
}

impl<S: PageStore> PagedGraph<S> {
    /// Assembles a paged graph from pre-built parts (e.g. a [`crate::FileDisk`]
    /// store opened from an existing page file).
    pub fn from_parts(buffer: BufferPool<S>, index: NodeIndex, num_nodes: usize) -> Self {
        PagedGraph { buffer, index, num_nodes, prefetch: AtomicBool::new(false) }
    }

    /// Builder-style [`PagedGraph::set_prefetch`].
    pub fn with_prefetch(self, enabled: bool) -> Self {
        self.set_prefetch(enabled);
        self
    }

    /// Enables or disables expansion-frontier prefetch hints at runtime.
    ///
    /// When enabled, [`Topology::wants_prefetch_hints`] returns `true` and
    /// hinted nodes' pages are speculatively faulted in through
    /// [`BufferPool::prefetch`] — never changing results or demand
    /// accounting, only the pool's separate `prefetch_*` counters.
    pub fn set_prefetch(&self, enabled: bool) {
        self.prefetch.store(enabled, Ordering::Relaxed);
    }

    /// Whether prefetch hints are currently enabled.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch.load(Ordering::Relaxed)
    }

    /// The underlying buffer pool.
    pub fn buffer(&self) -> &BufferPool<S> {
        &self.buffer
    }

    /// The read handle on the underlying buffer's counts.
    pub fn counters(&self) -> &IoCounters {
        self.buffer.counters()
    }

    /// The buffer's demand accesses, faults and evictions since it was
    /// built or last cold-started. Diff two of these ([`IoStats::since`])
    /// for the I/O of the work between them.
    pub fn io_stats(&self) -> IoStats {
        self.buffer.counters().snapshot()
    }

    /// The buffer pool's per-shard counter breakdown plus merged total.
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.buffer.io_stats()
    }

    /// Drops all buffered pages and zeroes every count in one atomic step
    /// ([`BufferPool::clear`]), simulating a cold start. Used between
    /// workload repetitions in the experiments.
    pub fn cold_start(&self) {
        self.buffer.clear();
    }

    /// Number of pages of the underlying store.
    pub fn num_pages(&self) -> usize {
        self.buffer.store().num_pages()
    }

    /// Buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// The node-id index.
    pub fn node_index(&self) -> &NodeIndex {
        &self.index
    }

    /// Fetches the adjacency list of `node` through the buffer — one index
    /// load, one pool access per page of the record, an in-place decode at
    /// the offset the index names — and lends it to `lend` as one slice.
    ///
    /// The common record (one page, at most [`INLINE_ARCS`] arcs) is
    /// validated and decoded into a buffer on this stack frame by a
    /// [`BufferPool::read_with`] closure, which on a pool hit runs under the
    /// shard lock on the resident page: no page handle is cloned, and the
    /// lock is held for one bounds check and a copy of at most 16 arcs. A
    /// longer record takes a page handle instead and is decoded with no lock
    /// held. Either way `lend` runs after every lock is released, so it may
    /// itself fetch other adjacency lists (nested verification expansions
    /// do), and it runs only once the whole record has validated: an error
    /// lends nothing.
    fn lend_adjacency(
        &self,
        node: NodeId,
        lend: &mut dyn FnMut(&[Neighbor]),
    ) -> Result<(), StorageError> {
        let entry = self.index.entry(node);
        let mut offset = usize::from(entry.offset);
        if entry.span == 1 {
            let page_id = entry.first_page;
            let unset = Neighbor { node: NodeId(0), weight: Weight::ZERO, edge: EdgeId(0) };
            let mut inline = [unset; INLINE_ARCS];
            let copied = self.buffer.read_with(page_id, |page| {
                let record = page.record_at(page_id, node, offset)?;
                if record.len() > INLINE_ARCS {
                    return Ok(Copied::TooLong(page.clone()));
                }
                for (i, slot) in inline[..record.len()].iter_mut().enumerate() {
                    *slot = neighbor(record.entry(i));
                }
                Ok(Copied::Inline(record.len()))
            })?;
            match copied {
                Copied::Inline(len) => lend(&inline[..len]),
                Copied::TooLong(page) => {
                    let arcs: Vec<Neighbor> =
                        arcs_of(page.record_at(page_id, node, offset)?).collect();
                    lend(&arcs);
                }
            }
            return Ok(());
        }
        // A multi-page record (high-degree hub node): one pool access per
        // page, as the paper's cost model counts them, each decoded from a
        // page handle with no lock held into the one list that is lent.
        let mut arcs: Vec<Neighbor> = Vec::new();
        for page_id in entry.pages() {
            let page = self.buffer.fetch(page_id)?;
            arcs.extend(arcs_of(page.record_at(page_id, node, offset)?));
            offset = 0; // continuation pages are dedicated to the hub
        }
        lend(&arcs);
        Ok(())
    }
}

/// What [`PagedGraph::lend_adjacency`]'s closure did with a one-page record
/// while it may have held the shard lock.
enum Copied {
    /// Decoded this many arcs into the caller's stack buffer.
    Inline(usize),
    /// More than [`INLINE_ARCS`]: took a handle, to decode outside the lock.
    TooLong(Page),
}

#[inline]
fn neighbor(e: PageEntry) -> Neighbor {
    Neighbor { node: e.neighbor, weight: e.weight, edge: e.edge }
}

/// The arcs of an adjacency record, decoded one by one.
fn arcs_of(record: RecordView<'_>) -> impl ExactSizeIterator<Item = Neighbor> + '_ {
    record.entries().map(neighbor)
}

impl<S: PageStore> Topology for PagedGraph<S> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Still required by the trait; a loop over the lent list.
    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        self.with_adjacency(node, &mut |arcs| arcs.iter().copied().for_each(&mut *visit));
    }

    fn with_adjacency(&self, node: NodeId, f: &mut dyn FnMut(&[Neighbor])) {
        self.lend_adjacency(node, f)
            .expect("pages built by PageLayout are well formed and in bounds");
    }

    fn wants_prefetch_hints(&self) -> bool {
        self.prefetch_enabled()
    }

    fn prefetch_hint(&self, nodes: &[NodeId]) {
        if nodes.is_empty() || !self.prefetch_enabled() {
            return;
        }
        // Translate hinted nodes to the pages holding their adjacency lists
        // and fault them in speculatively. Best effort by contract: demand
        // accounting and results are untouched ([`BufferPool::prefetch`]
        // only moves `prefetch_*` counters).
        let mut scratch = HINT_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
        scratch.clear();
        for &node in nodes {
            if node.index() < self.num_nodes {
                scratch.extend(self.index.entry(node).pages());
            }
        }
        self.buffer.prefetch(&scratch);
        HINT_SCRATCH.with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.capacity() < scratch.capacity() {
                *slot = scratch;
            }
        });
    }
}

/// Runtime tuning and introspection of a paged storage backend.
///
/// The serving layer (`rnn-server`) keeps its storage backend behind this
/// object-safe trait so frontier prefetch can be switched, and the buffer
/// inspected, without knowing the concrete [`PageStore`] type, mirroring how
/// query algorithms only see [`Topology`]. All methods take `&self`: the
/// handle is shared with live query traffic and every operation is safe to
/// apply while queries run.
pub trait StorageControl: Send + Sync {
    /// Whether expansion-frontier prefetch hints are enabled.
    fn prefetch_enabled(&self) -> bool;

    /// Enables or disables expansion-frontier prefetch hints.
    fn set_prefetch(&self, enabled: bool);

    /// Per-shard counter breakdown plus merged totals of the page buffer.
    fn pool_stats(&self) -> BufferPoolStats;

    /// Buffer capacity in pages (summed over shards).
    fn buffer_capacity(&self) -> usize;

    /// Number of independently locked buffer shards.
    fn num_shards(&self) -> usize;

    /// Number of pages currently resident in the buffer.
    fn resident_pages(&self) -> usize;

    /// Attaches a flight recorder to the backend's control plane: resize
    /// and clear operations then append structured events
    /// ([`rnn_obs::EventKind::PoolResize`] and friends) so runtime tuning
    /// shows up on the serving layer's event timeline. The default
    /// implementation ignores the sink (for backends with no control-plane
    /// events to report).
    fn set_event_sink(&self, events: std::sync::Arc<rnn_obs::FlightRecorder>) {
        let _ = events;
    }
}

impl<S: PageStore + Send> StorageControl for PagedGraph<S> {
    fn prefetch_enabled(&self) -> bool {
        PagedGraph::prefetch_enabled(self)
    }

    fn set_prefetch(&self, enabled: bool) {
        PagedGraph::set_prefetch(self, enabled);
    }

    fn pool_stats(&self) -> BufferPoolStats {
        PagedGraph::pool_stats(self)
    }

    fn buffer_capacity(&self) -> usize {
        PagedGraph::buffer_capacity(self)
    }

    fn num_shards(&self) -> usize {
        self.buffer.num_shards()
    }

    fn resident_pages(&self) -> usize {
        self.buffer.resident_pages()
    }

    fn set_event_sink(&self, events: std::sync::Arc<rnn_obs::FlightRecorder>) {
        self.buffer.set_event_sink(events);
    }
}

impl<S: PageStore> std::fmt::Debug for PagedGraph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_pages", &self.num_pages())
            .field("buffer_capacity", &self.buffer_capacity())
            .field("prefetch", &self.prefetch_enabled())
            .field("io", &self.io_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileDisk;
    use rnn_graph::GraphBuilder;

    fn grid_graph(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0 + ((v % 3) as f64)).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 2.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn paged_graph_reports_same_adjacency_as_in_memory_graph() {
        let g = grid_graph(10);
        let pg = PagedGraph::build(&g).unwrap();
        assert_eq!(Topology::num_nodes(&pg), g.num_nodes());
        for v in g.node_ids() {
            let expected = g.neighbors_vec(v);
            let got = pg.neighbors_vec(v);
            assert_eq!(got, expected, "node {v}");
        }
    }

    #[test]
    fn io_is_counted_and_resettable() {
        let g = grid_graph(10);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 4, IoCounters::new()).unwrap();
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let s = pg.io_stats();
        assert_eq!(s.accesses, 100);
        assert!(s.faults >= pg.num_pages() as u64);
        pg.cold_start();
        assert_eq!(pg.io_stats(), IoStats::default());
        assert_eq!(pg.pool_stats().total, crate::ShardStats::default());
        assert_eq!(pg.buffer().resident_pages(), 0, "a cold start empties the buffer");
        pg.neighbors_vec(NodeId::new(0));
        assert_eq!(pg.io_stats().faults, 1);
        assert_eq!(pg.pool_stats().total.faults, 1);
    }

    #[test]
    fn bfs_layout_produces_fewer_faults_than_shuffled_on_small_buffer() {
        let g = grid_graph(24); // 576 nodes
        let run = |strategy| {
            let pg = PagedGraph::build_with(&g, strategy, 2, IoCounters::new()).unwrap();
            // A BFS-like scan around each node mimics the locality of network
            // expansion queries.
            for v in g.node_ids() {
                pg.neighbors_vec(v);
            }
            pg.io_stats().faults
        };
        let bfs = run(LayoutStrategy::BfsLocality);
        let shuffled = run(LayoutStrategy::Shuffled(3));
        assert!(
            bfs < shuffled,
            "BFS locality should fault less ({bfs}) than a shuffled layout ({shuffled})"
        );
    }

    #[test]
    fn buffer_capacity_zero_faults_every_access() {
        let g = grid_graph(6);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::NodeOrder, 0, IoCounters::new()).unwrap();
        for _ in 0..3 {
            pg.neighbors_vec(NodeId::new(5));
        }
        let s = pg.io_stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.faults, 3);
        assert_eq!(pg.buffer_capacity(), 0);
    }

    #[test]
    fn warm_buffer_second_pass_is_fault_free() {
        // With a buffer large enough for the whole file, the second scan hits
        // on every access — the premise behind the buffer-size experiment
        // (Fig. 21): accesses keep growing, faults do not.
        let g = grid_graph(10);
        let pg = PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 1024, IoCounters::new())
            .unwrap();
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let cold = pg.io_stats();
        assert!(cold.faults > 0);
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let warm = pg.io_stats();
        assert_eq!(warm.accesses, 2 * cold.accesses);
        assert_eq!(warm.faults, cold.faults, "warm pass must not fault");
        assert_eq!(warm.evictions, 0);
    }

    #[test]
    fn sharded_buffers_serve_identical_adjacency_with_per_shard_accounting() {
        let g = grid_graph(12);
        let pg = PagedGraph::build_with_config(
            &g,
            LayoutStrategy::BfsLocality,
            crate::BufferPoolConfig::new(8).with_shards(4),
            IoCounters::new(),
        )
        .unwrap();
        assert_eq!(pg.buffer().num_shards(), 4);
        for v in g.node_ids() {
            assert_eq!(pg.neighbors_vec(v), g.neighbors_vec(v), "node {v}");
        }
        let pool = pg.pool_stats();
        assert_eq!(pool.per_shard.len(), 4);
        assert_eq!(pool.total.as_io_stats(), pg.io_stats(), "the handle reads the shard total");
        pg.cold_start();
        assert_eq!(pg.io_stats(), IoStats::default());
        assert_eq!(pg.pool_stats().total, crate::ShardStats::default());
    }

    #[test]
    fn prefetch_hints_warm_the_buffer_without_demand_accounting() {
        let g = grid_graph(10);
        let pg = PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 16, IoCounters::new())
            .unwrap()
            .with_prefetch(true);
        assert!(Topology::wants_prefetch_hints(&pg));

        let node = NodeId::new(42);
        Topology::prefetch_hint(&pg, &[node]);
        let after_hint = pg.pool_stats().total;
        assert!(after_hint.prefetch_issued >= 1);
        assert_eq!(after_hint.accesses(), 0, "hints must not count as demand accesses");
        assert_eq!(after_hint.faults, 0, "hints must not count as demand faults");
        assert_eq!(pg.io_stats(), IoStats::default());

        // The demand fetch now hits the prefetched page: no fault, and the
        // speculation is credited as useful.
        assert_eq!(pg.neighbors_vec(node), g.neighbors_vec(node));
        let warm = pg.pool_stats().total;
        assert_eq!(warm.faults, 0, "prefetched page serves the demand fetch");
        assert!(warm.prefetch_useful >= 1);
    }

    #[test]
    fn prefetch_hints_are_a_no_op_when_disabled_or_out_of_range() {
        let g = grid_graph(6);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 8, IoCounters::new()).unwrap();
        assert!(!Topology::wants_prefetch_hints(&pg));
        Topology::prefetch_hint(&pg, &[NodeId::new(0)]);
        assert_eq!(pg.pool_stats().total.prefetch_issued, 0, "disabled hints do nothing");

        pg.set_prefetch(true);
        // Out-of-range nodes are silently skipped; in-range ones still land.
        Topology::prefetch_hint(&pg, &[NodeId::new(1_000_000), NodeId::new(3)]);
        assert!(pg.pool_stats().total.prefetch_issued >= 1);
        assert_eq!(pg.io_stats(), IoStats::default());
    }

    #[test]
    fn storage_control_tunes_prefetch_through_dyn_handle() {
        let g = grid_graph(8);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 8, IoCounters::new()).unwrap();
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let ctl: &dyn StorageControl = &pg;
        assert!(!ctl.prefetch_enabled());
        assert_eq!(ctl.buffer_capacity(), 8);
        assert_eq!(ctl.num_shards(), 1);
        assert!(ctl.resident_pages() > 0);

        let before = ctl.pool_stats().total;
        ctl.set_prefetch(true);
        assert!(ctl.prefetch_enabled());
        // The switch itself touches neither residency nor accounting, and
        // queries still return in-memory-identical results.
        assert_eq!(ctl.pool_stats().total, before);
        for v in g.node_ids() {
            assert_eq!(pg.neighbors_vec(v), g.neighbors_vec(v), "node {v}");
        }
        let dbg = format!("{pg:?}");
        assert!(dbg.contains("prefetch: true"), "Debug shows the switch: {dbg}");
    }

    /// A star: the hub's 700-arc adjacency list overflows one 4 KB page.
    fn star_graph(leaves: usize) -> Graph {
        let mut b = GraphBuilder::new(leaves + 1);
        for l in 0..leaves {
            b.add_edge(0, l + 1, 1.0 + (l % 7) as f64).unwrap();
        }
        b.build().unwrap()
    }

    /// What `with_adjacency` lends for `node`, and how often it called back.
    fn lent<T: Topology>(topo: &T, node: NodeId) -> (Vec<Neighbor>, usize) {
        let (mut arcs, mut calls) = (Vec::new(), 0);
        topo.with_adjacency(node, &mut |list| {
            arcs = list.to_vec();
            calls += 1;
        });
        (arcs, calls)
    }

    #[test]
    fn with_adjacency_lends_what_the_in_memory_graph_owns() {
        // Degrees 2..=4 (inline buffer) on the grid; on the star a 700-arc
        // hub (span > 1) and 1-arc leaves; and a 17-arc node beside a 16-arc
        // one, straddling the bound of what is copied under the lock.
        let mut b = GraphBuilder::new(40);
        for l in 0..17 {
            b.add_edge(0, l + 2, 1.0 + l as f64).unwrap();
        }
        for l in 0..16 {
            b.add_edge(1, l + 20, 2.0 + l as f64).unwrap();
        }
        let straddle = b.build().unwrap();
        assert_eq!(straddle.adjacency(NodeId::new(0)).unwrap().len(), INLINE_ARCS + 1);
        assert_eq!(straddle.adjacency(NodeId::new(1)).unwrap().len(), INLINE_ARCS);
        for g in [grid_graph(10), star_graph(700), straddle] {
            let pg = PagedGraph::build(&g).unwrap();
            for pass in ["cold", "warm"] {
                for v in g.node_ids() {
                    let (arcs, calls) = lent(&pg, v);
                    assert_eq!(Some(&arcs[..]), g.adjacency(v), "{pass}: node {v}");
                    assert_eq!(calls, 1, "{pass}: node {v} is lent exactly once");
                    assert_eq!(pg.adjacency(v), None, "a paged list is lent, never owned");
                }
            }
            // One access per page of every record, per pass — through the
            // visitor too, which is a loop over the same call.
            let pages_per_pass: u64 =
                g.node_ids().map(|v| u64::from(pg.node_index().entry(v).span)).sum();
            assert_eq!(pg.io_stats().accesses, 2 * pages_per_pass);
            for v in g.node_ids() {
                let mut visited = Vec::new();
                pg.visit_neighbors(v, &mut |nb| visited.push(nb));
                assert_eq!(Some(&visited[..]), g.adjacency(v), "visitor: node {v}");
            }
            assert_eq!(pg.io_stats().accesses, 3 * pages_per_pass);
            assert_eq!(pg.pool_stats().total.as_io_stats(), pg.io_stats());
        }
    }

    #[test]
    fn a_callback_may_fetch_from_the_shard_it_was_served_by() {
        // One shard, so every nested fetch needs the lock the outer fetch
        // took: the list is lent only after that lock is released. Three
        // levels deep, hits and misses alike (capacity 2 keeps evicting).
        let g = grid_graph(6);
        for capacity in [2, 64] {
            let pg = PagedGraph::build_with(
                &g,
                LayoutStrategy::BfsLocality,
                capacity,
                IoCounters::new(),
            )
            .unwrap();
            assert_eq!(pg.buffer().num_shards(), 1);
            let mut fetched = 0u64;
            for v in g.node_ids() {
                pg.with_adjacency(v, &mut |outer| {
                    fetched += 1;
                    assert_eq!(Some(outer), g.adjacency(v));
                    for nb in outer {
                        pg.with_adjacency(nb.node, &mut |inner| {
                            fetched += 1;
                            assert_eq!(Some(inner), g.adjacency(nb.node));
                            // Same node again: same page, same shard, a hit.
                            fetched += 1;
                            assert_eq!(pg.neighbors_vec(nb.node), inner);
                        });
                    }
                });
            }
            assert_eq!(pg.io_stats().accesses, fetched, "capacity {capacity}");
            assert_eq!(pg.pool_stats().total.as_io_stats(), pg.io_stats());
        }
    }

    #[test]
    fn multi_page_adjacency_spans_are_fetched_batched_and_identical() {
        // The hub's index entry spans several pages, so `lend_adjacency`
        // gathers the list page by page before it lends anything.
        let g = star_graph(700);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 64, IoCounters::new()).unwrap();
        let hub = NodeId::new(0);
        assert!(
            pg.node_index().entry(hub).span > 1,
            "the hub adjacency list must span multiple pages for this test"
        );
        assert_eq!(pg.neighbors_vec(hub), g.neighbors_vec(hub));
        // The paper's cost model counts one access per page of the list,
        // batched or not.
        assert_eq!(pg.io_stats().accesses, u64::from(pg.node_index().entry(hub).span));
    }

    /// Regression: the adjacency fetch used to ignore the "not found" flag of
    /// the page scan, so an index that disagrees with the page file served
    /// *empty adjacency lists*. The offset pointer makes the disagreement an
    /// error that names the page, the node and the offset.
    #[test]
    fn an_index_from_another_layout_is_an_error_not_an_empty_list() {
        let g = grid_graph(12);
        let shuffled = PageLayout::build(&g, LayoutStrategy::Shuffled(5)).unwrap();
        let node_order = PageLayout::build(&g, LayoutStrategy::NodeOrder).unwrap();
        assert_eq!(shuffled.num_pages(), node_order.num_pages(), "same degrees, same packing");
        let dir = std::env::temp_dir().join(format!("rnn_paged_mismatch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shuffled.pages");
        drop(FileDisk::create(&path, &shuffled.pages).unwrap());
        let pool = BufferPool::new(FileDisk::open(&path).unwrap(), 8, IoCounters::new());
        let pg = PagedGraph::from_parts(pool, node_order.index.clone(), g.num_nodes());

        let mut mismatches = 0;
        for v in g.node_ids() {
            let mut got = None;
            match pg.lend_adjacency(v, &mut |arcs| got = Some(arcs.to_vec())) {
                // The two layouts may agree on a node by chance; then the
                // list is the right one.
                Ok(()) => assert_eq!(got, Some(g.neighbors_vec(v)), "node {v}"),
                Err(StorageError::CorruptPage { page, message }) => {
                    mismatches += 1;
                    let entry = node_order.index.entry(v);
                    assert_eq!(page, entry.first_page);
                    assert_eq!(got, None, "nothing is lent before the record validates");
                    assert!(message.contains(&format!("node {v}")), "{message}");
                    assert!(message.contains(&format!("offset {}", entry.offset)), "{message}");
                }
                Err(other) => panic!("node {v}: unexpected error {other}"),
            }
        }
        assert!(mismatches > g.num_nodes() / 2, "a shuffled file disagrees on most nodes");

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn a_hub_whose_last_page_is_someone_elses_lends_nothing() {
        // The index claims one page more for the hub than the layout wrote:
        // three pages validate, the fourth holds leaf records.
        let g = star_graph(700);
        let layout = PageLayout::build(&g, LayoutStrategy::NodeOrder).unwrap();
        let hub = NodeId::new(0);
        let mut entries: Vec<_> = layout.index.iter().map(|(_, e)| e).collect();
        entries[0].span += 1;
        let stray = PageId::new(entries[0].first_page.index() + usize::from(entries[0].span) - 1);
        assert!(stray.index() < layout.num_pages());
        let pool = BufferPool::new(MemoryDisk::new(layout.pages), 64, IoCounters::new());
        let pg = PagedGraph::from_parts(pool, NodeIndex::new(entries), g.num_nodes());
        for pass in ["cold", "warm"] {
            let mut lent = false;
            match pg.lend_adjacency(hub, &mut |_| lent = true) {
                Err(StorageError::CorruptPage { page, .. }) => assert_eq!(page, stray, "{pass}"),
                other => panic!("{pass}: expected a corrupt page, got {other:?}"),
            }
            assert!(!lent, "{pass}: no partial list is lent");
        }
        assert_eq!(pg.neighbors_vec(NodeId::new(1)), g.neighbors_vec(NodeId::new(1)));
    }

    #[test]
    fn from_parts_with_file_disk() {
        let g = grid_graph(5);
        let layout = PageLayout::build(&g, LayoutStrategy::BfsLocality).unwrap();
        let dir = std::env::temp_dir().join(format!("rnn_paged_graph_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.pages");
        let disk = FileDisk::create(&path, &layout.pages).unwrap();
        let pool = BufferPool::new(disk, 8, IoCounters::new());
        let pg = PagedGraph::from_parts(pool, layout.index, g.num_nodes());

        for v in g.node_ids() {
            assert_eq!(pg.neighbors_vec(v), g.neighbors_vec(v));
        }
        assert!(pg.io_stats().accesses > 0);
        assert!(format!("{pg:?}").contains("PagedGraph"));
        assert_eq!(pg.node_index().num_nodes(), g.num_nodes());

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
