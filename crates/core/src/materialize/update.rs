//! Incremental maintenance of the materialized k-NN table under data point
//! insertions and deletions (Section 4.1, Fig. 10 of the paper).

use super::{list_insert, KnnEntry, MaterializedKnn};
use crate::expansion::{ExpansionBuffers, NetworkExpansion};
use crate::flat_heap::FlatHeap;
use crate::node_table::NodeTable;
use rnn_graph::{for_each_neighbor, NodeId, Topology, Weight};

/// Summary of the work done by one maintenance operation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Nodes whose materialized list was modified.
    pub lists_changed: u64,
    /// Nodes examined by the update expansion(s).
    pub nodes_visited: u64,
}

/// The node state of the update expansions, kept inside the table between
/// updates: a local update then costs what it touches, where fresh
/// [`NodeTable`]s would be sized to the graph on every call.
#[derive(Debug, Default)]
pub(super) struct UpdateBuffers {
    expansion: ExpansionBuffers,
    /// Nodes whose list lost the deleted point, in the order found.
    affected: NodeTable<()>,
}

impl MaterializedKnn {
    /// Expands from `node` in distance order, applies `change` to the list of
    /// every node settled, and continues only through the nodes whose list it
    /// changed (returned `true`); those are recorded in `bufs.affected`.
    fn expand_while_changing<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        node: NodeId,
        bufs: &mut UpdateBuffers,
        stats: &mut UpdateStats,
        mut change: impl FnMut(&mut Vec<KnnEntry>, Weight) -> bool,
    ) {
        bufs.affected.clear();
        let mut exp = NetworkExpansion::reusing(
            topo,
            std::mem::take(&mut bufs.expansion),
            std::iter::once((node, Weight::ZERO)),
        );
        while let Some((n, dist)) = exp.next_settled_unexpanded() {
            stats.nodes_visited += 1;
            if change(self.list_mut(n), dist) {
                stats.lists_changed += 1;
                bufs.affected.insert(n, ());
                exp.expand_from(n, dist);
            }
        }
        bufs.expansion = exp.into_buffers();
    }

    /// Handles the insertion of a new data point residing on `node`.
    ///
    /// A bounded expansion from the new point updates every list it improves
    /// and stops at nodes whose K-th entry is already closer (the paper's
    /// insertion variation of All-NN).
    pub fn insert_point<T: Topology + ?Sized>(&mut self, topo: &T, node: NodeId) -> UpdateStats {
        let capacity_k = self.capacity_k();
        let mut stats = UpdateStats::default();
        let mut bufs = std::mem::take(&mut self.update);
        // Where the new point is not among the K nearest of n, by the triangle
        // inequality it cannot be among the K nearest of any node whose
        // shortest path to it passes through n.
        self.expand_while_changing(topo, node, &mut bufs, &mut stats, |list, dist| {
            list_insert(list, node, dist, capacity_k)
        });
        self.update = bufs;
        debug_assert!(self.check_invariants());
        stats
    }

    /// Handles the deletion of the data point residing on `node`.
    ///
    /// Two steps, following Fig. 10: first an expansion from the deleted
    /// point removes it from every list containing it and stops at *border*
    /// nodes (whose lists do not change); then a restricted All-NN expansion
    /// seeded from the neighbors of every affected node completes the
    /// affected lists again.
    pub fn delete_point<T: Topology + ?Sized>(&mut self, topo: &T, node: NodeId) -> UpdateStats {
        let capacity_k = self.capacity_k();
        let mut stats = UpdateStats::default();
        let mut bufs = std::mem::take(&mut self.update);

        // ---- Step 1: find the affected nodes and remove the deleted point.
        // A border node's list does not contain the deleted point, so nothing
        // beyond it can either.
        self.expand_while_changing(topo, node, &mut bufs, &mut stats, |list, _| {
            let before = list.len();
            list.retain(|&(loc, _)| loc != node);
            list.len() < before
        });

        // ---- Step 2: complete the affected lists with a restricted All-NN.
        //
        // Seeds: for every affected node, every entry currently stored by any
        // of its neighbors (border nodes carry unchanged, correct lists;
        // affected neighbors carry their remaining entries). Propagation then
        // stays inside the affected region.
        let affected = &bufs.affected;
        let mut heap = FlatHeap::default();
        for &a in affected.nodes() {
            for_each_neighbor(topo, a, |nb| {
                let neighbor_list: Vec<KnnEntry> = self.knn_of_untracked(nb.node).to_vec();
                // Reading the neighbor's list is a table access.
                self.touch(nb.node);
                for (loc, d) in neighbor_list {
                    heap.push(d + nb.weight, a.0, loc.0);
                }
            });
        }
        while let Some((dist, n, point_node)) = heap.pop() {
            let (n, point_node) = (NodeId(n), NodeId(point_node));
            stats.nodes_visited += 1;
            if !list_insert(self.list_mut(n), point_node, dist, capacity_k) {
                continue;
            }
            for_each_neighbor(topo, n, |nb| {
                if affected.contains(nb.node) {
                    heap.push(dist + nb.weight, nb.node.0, point_node.0);
                }
            });
        }
        self.update = bufs;
        debug_assert!(self.check_invariants());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet, PointsOnNodes};

    fn grid(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0 + ((v * 7 % 5) as f64) * 0.31).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 1.0 + ((v * 11 % 7) as f64) * 0.23).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn assert_tables_equal(a: &MaterializedKnn, b: &MaterializedKnn, context: &str) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        for i in 0..a.num_nodes() {
            let n = NodeId::new(i);
            let la = a.knn_of_untracked(n);
            let lb = b.knn_of_untracked(n);
            assert_eq!(la.len(), lb.len(), "{context}: node {n} lengths differ");
            for (x, y) in la.iter().zip(lb.iter()) {
                assert_eq!(x.0, y.0, "{context}: node {n} entries differ: {la:?} vs {lb:?}");
                assert!(x.1.approx_eq(y.1, 1e-9), "{context}: node {n} distances differ");
            }
        }
    }

    #[test]
    fn insertion_matches_rebuild() {
        let g = grid(6);
        let n = g.num_nodes();
        let initial = NodePointSet::from_nodes(n, [4, 17, 22, 30].map(NodeId::new));
        for k in [1usize, 2, 3] {
            let mut incremental = MaterializedKnn::build(&g, &initial, k);
            let mut points = initial.clone();
            for &new_node in &[0usize, 35, 18] {
                let stats = incremental.insert_point(&g, NodeId::new(new_node));
                assert!(stats.nodes_visited > 0);
                points = points.with_point_on(NodeId::new(new_node));
                let rebuilt = MaterializedKnn::build(&g, &points, k);
                assert_tables_equal(&incremental, &rebuilt, &format!("K={k} insert {new_node}"));
            }
        }
    }

    #[test]
    fn deletion_matches_rebuild() {
        let g = grid(6);
        let n = g.num_nodes();
        let initial = NodePointSet::from_nodes(n, [1, 7, 14, 20, 28, 33].map(NodeId::new));
        for k in [1usize, 2, 3] {
            let mut incremental = MaterializedKnn::build(&g, &initial, k);
            let mut points = initial.clone();
            for &victim in &[14usize, 33, 1] {
                let stats = incremental.delete_point(&g, NodeId::new(victim));
                assert!(stats.lists_changed > 0, "deleting a point must touch some lists");
                points = points.without_point_on(NodeId::new(victim));
                let rebuilt = MaterializedKnn::build(&g, &points, k);
                assert_tables_equal(&incremental, &rebuilt, &format!("K={k} delete {victim}"));
            }
        }
    }

    #[test]
    fn mixed_update_sequence_matches_rebuild() {
        let g = grid(5);
        let n = g.num_nodes();
        let mut points = NodePointSet::from_nodes(n, [2, 11, 19].map(NodeId::new));
        let mut table = MaterializedKnn::build(&g, &points, 2);
        let ops: [(bool, usize); 6] =
            [(true, 6), (false, 11), (true, 23), (true, 0), (false, 2), (false, 23)];
        for (insert, node) in ops {
            let node = NodeId::new(node);
            if insert {
                assert!(points.point_at(node).is_none());
                table.insert_point(&g, node);
                points = points.with_point_on(node);
            } else {
                assert!(points.point_at(node).is_some());
                table.delete_point(&g, node);
                points = points.without_point_on(node);
            }
            let rebuilt = MaterializedKnn::build(&g, &points, 2);
            assert_tables_equal(&table, &rebuilt, &format!("after op on {node}"));
        }
    }

    #[test]
    fn insertion_far_from_other_points_only_touches_its_region() {
        // Points clustered in one corner; inserting in the opposite corner of
        // a large grid must not visit the whole graph when K=1 and the
        // cluster is dense around every node... here the point is new NN for
        // the empty corner, so lists do change, but the expansion must stop
        // where the existing points are closer.
        let g = grid(8);
        let pts = NodePointSet::from_nodes(64, [0, 1, 8, 9].map(NodeId::new));
        let mut table = MaterializedKnn::build(&g, &pts, 1);
        let stats = table.insert_point(&g, NodeId::new(63));
        assert!(stats.lists_changed > 0);
        assert!(
            stats.nodes_visited < 64,
            "insertion expansion should stop at nodes owned by the old points"
        );
    }

    #[test]
    fn deleting_an_irrelevant_point_is_cheap() {
        // With K=1 and a dense cluster, a far-away point appears in few lists.
        let g = grid(8);
        let pts = NodePointSet::from_nodes(64, [0, 1, 8, 9, 63].map(NodeId::new));
        let mut table = MaterializedKnn::build(&g, &pts, 1);
        let stats = table.delete_point(&g, NodeId::new(0));
        // node 0's point is surrounded by the other cluster points, so only a
        // handful of lists referenced it.
        assert!(stats.lists_changed < 10, "changed {}", stats.lists_changed);
        let rebuilt = MaterializedKnn::build(&g, &pts.without_point_on(NodeId::new(0)), 1);
        assert_tables_equal(&table, &rebuilt, "delete corner point");
    }
}
