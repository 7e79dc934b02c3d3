//! Materialization of per-node k-NN lists (Section 4.1 of the paper).
//!
//! Full materialization of all pairwise distances is quadratic and
//! infeasible; instead, the paper materializes for every node the `K` nearest
//! data points (where `K` is the largest `k` any query will ask for). The
//! whole table is computed with a *single* network expansion — the All-NN
//! algorithm of Fig. 8 — and maintained incrementally under point insertions
//! and deletions (Fig. 10). The `eager-M` algorithm then answers RkNN
//! queries without issuing range-NN expansions.
//!
//! The table is disk-resident in the paper (its I/O cost is visible in
//! Fig. 18 and Fig. 22); [`MaterializedKnn`] simulates that by grouping the
//! per-node lists into pages and running every access through a small LRU
//! buffer — the workspace's one [`Lru`] — that counts it in an
//! [`rnn_storage::IoStats`].

mod eager_m;
mod update;

pub use eager_m::eager_m_rknn;
pub(crate) use eager_m::eager_m_rknn_in;

use crate::fast_hash::FastHasher;
use crate::flat_heap::FlatHeap;
use rnn_graph::{for_each_neighbor, NodeId, PointsOnNodes, Topology, Weight};
use rnn_storage::{IoStats, Lru};
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One materialized entry: the node on which a data point resides, and the
/// network distance from the list's owner to that point.
///
/// Entries are keyed by the *location* of the data point rather than by its
/// [`rnn_graph::PointId`], so the table stays valid when point ids are
/// re-assigned after insertions and deletions (in a restricted network a node
/// holds at most one data point, so the location identifies the point).
pub(crate) type KnnEntry = (NodeId, Weight);

/// Size of a serialized list entry in bytes (node id + distance), used to
/// size the simulated pages.
const ENTRY_BYTES: usize = 12;
/// Per-list header bytes in the simulated pages.
const LIST_HEADER_BYTES: usize = 8;
/// Simulated page size, matching the storage crate.
const PAGE_SIZE: usize = 4096;
/// Default number of buffered pages for table accesses (same as the graph
/// buffer in the paper's setup).
const DEFAULT_TABLE_BUFFER_PAGES: usize = 256;

/// The materialized K-NN table of all nodes.
#[derive(Debug)]
pub struct MaterializedKnn {
    capacity_k: usize,
    lists: Vec<Vec<KnnEntry>>,
    lists_per_page: usize,
    buffer: Mutex<TableBuffer>,
    /// Node tables of the update expansions (`update.rs`), reused per update.
    update: update::UpdateBuffers,
}

impl MaterializedKnn {
    /// Builds the table with the All-NN algorithm (Fig. 8): a single network
    /// expansion seeded with every data point at distance zero.
    ///
    /// Worst case `O(K · |E| · log(K · |E|))`, as each edge enters the heap
    /// at most `K` times.
    pub fn build<T, P>(topo: &T, points: &P, capacity_k: usize) -> Self
    where
        T: Topology + ?Sized,
        P: PointsOnNodes + ?Sized,
    {
        assert!(capacity_k >= 1, "materialization requires K >= 1");
        let num_nodes = topo.num_nodes();
        let mut lists: Vec<Vec<KnnEntry>> = vec![Vec::new(); num_nodes];

        // Heap entries: (distance, node whose list may be extended, location
        // of the data point). Ties resolve by node id, then point location,
        // keeping the construction deterministic.
        let mut heap = FlatHeap::default();
        for node in (0..num_nodes).map(NodeId::new) {
            if points.point_at(node).is_some() {
                heap.push(Weight::ZERO, node.0, node.0);
            }
        }

        while let Some((dist, node, point_node)) = heap.pop() {
            let (node, point_node) = (NodeId(node), NodeId(point_node));
            if !list_insert(&mut lists[node.index()], point_node, dist, capacity_k) {
                // Either this point already reached the node or the list is
                // full of closer points: do not expand further.
                continue;
            }
            for_each_neighbor(topo, node, |nb| {
                let cand = dist + nb.weight;
                // Only propagate when the neighbor could still use this point.
                let neighbor_list = &lists[nb.node.index()];
                if neighbor_list.len() < capacity_k
                    || neighbor_list
                        .last()
                        .map(|&(n, d)| (cand, point_node) < (d, n))
                        .unwrap_or(true)
                {
                    heap.push(cand, nb.node.0, point_node.0);
                }
            });
        }

        let lists_per_page = (PAGE_SIZE / (LIST_HEADER_BYTES + capacity_k * ENTRY_BYTES)).max(1);
        MaterializedKnn {
            capacity_k,
            lists,
            lists_per_page,
            buffer: Mutex::new(TableBuffer {
                pages: Lru::new(DEFAULT_TABLE_BUFFER_PAGES),
                io: IoStats::default(),
            }),
            update: update::UpdateBuffers::default(),
        }
    }

    /// The `K` the table was built for (the maximum `k` it can serve).
    pub fn capacity_k(&self) -> usize {
        self.capacity_k
    }

    /// Number of nodes covered by the table.
    pub fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    /// Number of simulated pages occupied by the table.
    pub fn num_pages(&self) -> usize {
        self.lists.len().div_ceil(self.lists_per_page)
    }

    /// Reads the materialized list of `node`, recording the page access.
    pub(crate) fn knn_of(&self, node: NodeId) -> &[KnnEntry] {
        self.touch(node);
        &self.lists[node.index()]
    }

    /// Reads the materialized list of `node` without recording any I/O
    /// (used by tests and by internal update bookkeeping).
    pub fn knn_of_untracked(&self, node: NodeId) -> &[KnnEntry] {
        &self.lists[node.index()]
    }

    /// Distance from `node` to its `k`-th nearest data point *excluding* a
    /// point residing on `exclude_location`.
    ///
    /// Returns `None` when the (truncated) list cannot answer the question —
    /// the caller must fall back to an explicit verification query.
    pub(crate) fn kth_other_distance(
        &self,
        node: NodeId,
        exclude_location: NodeId,
        k: usize,
    ) -> Option<Weight> {
        // Reading the candidate's list is a table page access, just like the
        // probe around the de-heaped node.
        self.touch(node);
        let list = &self.lists[node.index()];
        let mut seen = 0;
        for &(loc, d) in list {
            if loc == exclude_location {
                continue;
            }
            seen += 1;
            if seen == k {
                return Some(d);
            }
        }
        if list.len() < self.capacity_k {
            // The list is complete (the expansion exhausted the graph), so
            // fewer than k other points exist at any distance.
            Some(Weight::INFINITY)
        } else {
            None
        }
    }

    /// I/O statistics of table accesses.
    pub fn io_stats(&self) -> IoStats {
        self.buffer().io
    }

    /// Resets the I/O counters and empties the simulated buffer.
    pub fn reset_io(&self) {
        let mut buffer = self.buffer();
        buffer.pages.clear();
        buffer.io = IoStats::default();
    }

    /// The buffer and its counts. An update under the lock bumps counters
    /// and moves at most one LRU entry, so a panic that poisoned the lock
    /// leaves them readable: the guard is taken as it stands.
    fn buffer(&self) -> MutexGuard<'_, TableBuffer> {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records an access to the page holding `node`'s list.
    fn touch(&self, node: NodeId) {
        let page = (node.index() / self.lists_per_page) as u32;
        let mut buffer = self.buffer();
        buffer.io.accesses += 1;
        if buffer.pages.get(&page).is_none() {
            buffer.io.faults += 1;
            if buffer.pages.insert(page, ()).is_some() {
                buffer.io.evictions += 1;
            }
        }
    }

    /// Mutable access used by the update algorithms; counts the page access.
    pub(crate) fn list_mut(&mut self, node: NodeId) -> &mut Vec<KnnEntry> {
        self.touch(node);
        &mut self.lists[node.index()]
    }

    /// Checks internal invariants (sorted lists, length bound). Exposed for
    /// tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        self.lists.iter().all(|list| {
            list.len() <= self.capacity_k
                && list.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0))
        })
    }
}

/// Inserts an entry into a sorted, capacity-bounded list.
///
/// The list is ordered by `(distance, node)`; an insertion beyond the `K`-th
/// position (or of an already-present point) is rejected. Returns whether the
/// entry was inserted.
pub(crate) fn list_insert(
    list: &mut Vec<KnnEntry>,
    point_node: NodeId,
    dist: Weight,
    capacity_k: usize,
) -> bool {
    if list.iter().any(|&(n, _)| n == point_node) {
        return false;
    }
    let pos = list.partition_point(|&(n, d)| (d, n) < (dist, point_node));
    if pos >= capacity_k {
        return false;
    }
    list.insert(pos, (point_node, dist));
    list.truncate(capacity_k);
    true
}

/// The table's simulated page buffer and what its accesses counted, under
/// one lock.
#[derive(Debug)]
struct TableBuffer {
    pages: Lru<u32, (), BuildHasherDefault<FastHasher>>,
    io: IoStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::k_nearest;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    fn grid(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0 + ((v * 7 % 5) as f64) * 0.13).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 1.0 + ((v * 11 % 7) as f64) * 0.17).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn points_every(n: usize, step: usize) -> NodePointSet {
        NodePointSet::from_nodes(n, (0..n).step_by(step).map(NodeId::new))
    }

    #[test]
    fn all_nn_matches_independent_knn_queries() {
        let g = grid(7);
        let pts = points_every(49, 5);
        for big_k in [1usize, 2, 3] {
            let table = MaterializedKnn::build(&g, &pts, big_k);
            assert!(table.check_invariants());
            for v in g.node_ids() {
                let expected = k_nearest(&g, &pts, v, big_k).found;
                let got = table.knn_of_untracked(v);
                assert_eq!(got.len(), expected.len(), "node {v} K={big_k}");
                for (entry, (p, d)) in got.iter().zip(expected.iter()) {
                    assert_eq!(entry.0, pts.node_of(*p), "node {v} K={big_k}");
                    assert!(entry.1.approx_eq(*d, 1e-9), "node {v}: {} vs {}", entry.1, d);
                }
            }
        }
    }

    #[test]
    fn kth_other_distance_excludes_the_resident_point() {
        let g = grid(5);
        let pts = points_every(25, 3);
        let table = MaterializedKnn::build(&g, &pts, 3);
        // node 0 holds a point; its 1st "other" distance must be > 0
        let d = table.kth_other_distance(NodeId::new(0), NodeId::new(0), 1).unwrap();
        assert!(d > Weight::ZERO);
        // without exclusion the nearest entry is itself at distance 0
        assert_eq!(table.knn_of_untracked(NodeId::new(0))[0].1, Weight::ZERO);
        // asking for more other-points than the truncated list can prove -> None
        assert_eq!(table.kth_other_distance(NodeId::new(0), NodeId::new(0), 3), None);
    }

    #[test]
    fn kth_other_distance_is_infinite_when_points_run_out() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(3, [NodeId::new(0)]);
        let table = MaterializedKnn::build(&g, &pts, 4);
        // only one point exists in the whole graph, so the "2nd other" is at infinity
        assert_eq!(
            table.kth_other_distance(NodeId::new(2), NodeId::new(0), 1),
            Some(Weight::INFINITY)
        );
    }

    #[test]
    fn io_accounting_counts_page_accesses_with_lru() {
        let g = grid(6);
        let pts = points_every(36, 4);
        let table = MaterializedKnn::build(&g, &pts, 2);
        assert!(table.num_pages() >= 1);
        assert_eq!(table.io_stats(), IoStats::default());

        table.knn_of(NodeId::new(0));
        table.knn_of(NodeId::new(1)); // same page -> hit
        let s = table.io_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.faults, 1);

        table.reset_io();
        table.knn_of(NodeId::new(0));
        assert_eq!(table.io_stats().faults, 1, "reset_io empties the buffer");
    }

    #[test]
    fn a_panic_under_the_buffer_lock_leaves_the_table_readable() {
        let g = grid(4);
        let pts = points_every(16, 3);
        let table = MaterializedKnn::build(&g, &pts, 2);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = table.buffer.lock();
            panic!("reader panics while holding the table buffer");
        }));
        assert!(poisoned.is_err() && table.buffer.is_poisoned());
        assert_eq!(table.knn_of(NodeId::new(5)), table.knn_of_untracked(NodeId::new(5)));
        let s = table.io_stats();
        assert_eq!((s.accesses, s.faults), (1, 1));
    }

    #[test]
    fn list_insert_orders_dedups_and_truncates() {
        let mut list = Vec::new();
        assert!(list_insert(&mut list, NodeId::new(5), Weight::new(2.0), 2));
        assert!(list_insert(&mut list, NodeId::new(3), Weight::new(1.0), 2));
        // duplicate point rejected
        assert!(!list_insert(&mut list, NodeId::new(5), Weight::new(0.5), 2));
        // farther point rejected when full
        assert!(!list_insert(&mut list, NodeId::new(9), Weight::new(3.0), 2));
        // closer point displaces the tail
        assert!(list_insert(&mut list, NodeId::new(7), Weight::new(1.5), 2));
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], (NodeId::new(3), Weight::new(1.0)));
        assert_eq!(list[1], (NodeId::new(7), Weight::new(1.5)));
        // tie at the boundary: smaller node id wins
        let mut list = vec![(NodeId::new(8), Weight::new(1.0))];
        assert!(list_insert(&mut list, NodeId::new(2), Weight::new(1.0), 1));
        assert_eq!(list, vec![(NodeId::new(2), Weight::new(1.0))]);
    }

    #[test]
    fn empty_point_set_gives_empty_lists() {
        let g = grid(3);
        let table = MaterializedKnn::build(&g, &NodePointSet::empty(9), 2);
        assert!(table.check_invariants());
        assert!((0..9).all(|i| table.knn_of_untracked(NodeId::new(i)).is_empty()));
    }
}
