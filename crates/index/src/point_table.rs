//! The per-hub inverted point table.
//!
//! A [`super::HubLabeling`] answers node-to-node distances; point queries
//! (k-NN, the RkNN fold and the radii it is tested against) additionally
//! need "which data points does hub `h` cover, and how far away are they?".
//! [`HubPointTable`] is that inverted view: for every hub, the
//! `(distance, node)` pairs of all occupied nodes whose label contains the
//! hub, sorted by ascending distance (ties by node id, so every scan is
//! deterministic).
//!
//! By the 2-hop cover property, for any node `v` and point `p` in the same
//! component there is a common hub `h` on a shortest path, so
//! `min over hubs h of v  (d(v, h) + bucket_h(p))` is the exact network
//! distance `d(v, p)` — the minimum is reached at that covering hub, and
//! every other term only overestimates. This is what lets the index answer
//! point queries by scanning a few sorted bucket prefixes instead of
//! expanding the graph.
//!
//! # Incremental maintenance
//!
//! Buckets key entries by **node**, not point id. Dense point ids are
//! assigned in ascending node order (the [`NodePointSet`] invariant —
//! asserted at build), so `(distance, node)` order coincides with
//! `(distance, point)` order, and — crucially — inserting or removing one
//! point renumbers every later point id *without* touching any bucket
//! entry. [`HubPointTable::insert_point`] / [`HubPointTable::remove_point`]
//! therefore only sorted-insert/remove into the buckets of the affected
//! node's own hubs (one binary search + splice per label entry) plus one
//! splice of the point directory, instead of rebuilding all
//! `O(total label entries)` of the table. The mapping back from a bucket
//! node to its current point id ([`HubPointTable::point_of`]) is one load
//! from the inverse directory, one `u32` per node, which a splice renumbers
//! from the splice point on: the RkNN query maps every candidate it folds,
//! and point maintenance every point it reaches.
//!
//! [`NodePointSet`]: rnn_graph::NodePointSet

use crate::labeling::HubLabeling;
use rnn_graph::{NodeId, PointId, PointsOnNodes, Weight};

/// One hub's sorted `(distance, node)` entries.
#[derive(Clone, Debug, Default, PartialEq)]
struct Bucket {
    /// Distance from the hub to the occupied node, ascending.
    dists: Vec<Weight>,
    /// The occupied node of each entry (ascending among equal distances).
    nodes: Vec<NodeId>,
}

impl Bucket {
    /// First index whose `(dist, node)` is `>= (dist, node)` — the sorted
    /// insertion position, and the exact position of an existing entry.
    fn position(&self, dist: Weight, node: NodeId) -> usize {
        let (mut lo, mut hi) = (0, self.dists.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (self.dists[mid], self.nodes[mid]) < (dist, node) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn insert(&mut self, dist: Weight, node: NodeId) {
        let pos = self.position(dist, node);
        self.dists.insert(pos, dist);
        self.nodes.insert(pos, node);
    }

    fn remove(&mut self, dist: Weight, node: NodeId) {
        let pos = self.position(dist, node);
        debug_assert!(
            pos < self.nodes.len() && self.nodes[pos] == node && self.dists[pos] == dist,
            "bucket entry to remove exists"
        );
        self.dists.remove(pos);
        self.nodes.remove(pos);
    }
}

/// Per-hub sorted lists of the occupied nodes the hub covers.
#[derive(Clone, Debug, PartialEq)]
pub struct HubPointTable {
    /// One bucket per hub rank.
    buckets: Vec<Bucket>,
    /// The node each point resides on, indexed by point id. Strictly
    /// ascending — dense point ids follow node order.
    node_of_point: Vec<NodeId>,
    /// The inverse of `node_of_point`, indexed by node: the id of the point
    /// on it, or [`NO_POINT`].
    point_on: Vec<u32>,
    /// Total bucket entries, maintained across incremental updates.
    entries: usize,
}

/// `point_on` of an unoccupied node.
const NO_POINT: u32 = u32::MAX;

impl HubPointTable {
    /// Inverts `labeling` over a point set: every label entry of an occupied
    /// node becomes one bucket entry of its hub.
    ///
    /// # Panics
    ///
    /// Panics if a point lies outside the labeled graph or if point ids are
    /// not assigned in ascending node order (the [`rnn_graph::NodePointSet`]
    /// invariant that incremental maintenance relies on).
    pub fn build<P: PointsOnNodes + ?Sized>(labeling: &HubLabeling, points: &P) -> Self {
        let num_hubs = labeling.num_nodes();
        let num_points = points.num_points();
        let mut node_of_point = Vec::with_capacity(num_points);
        let mut buckets = vec![Bucket::default(); num_hubs];
        let mut entries = 0;
        for p in 0..num_points {
            let point = PointId::new(p);
            let node = points.node_of(point);
            assert!(
                node.index() < num_hubs,
                "point {point} on node {node} outside the labeled graph"
            );
            assert!(
                node_of_point.last().is_none_or(|&prev| prev < node),
                "point ids must ascend with node ids (got {point} on {node})"
            );
            node_of_point.push(node);
            for (rank, dist) in labeling.entries(node) {
                buckets[rank as usize].dists.push(dist);
                buckets[rank as usize].nodes.push(node);
                entries += 1;
            }
        }
        // Occupied nodes were visited in ascending order, so each bucket is
        // in node order; one sort per bucket yields (dist, node) order.
        for bucket in &mut buckets {
            let mut pairs: Vec<(Weight, NodeId)> =
                bucket.dists.iter().copied().zip(bucket.nodes.iter().copied()).collect();
            pairs.sort_unstable();
            for (i, (d, n)) in pairs.into_iter().enumerate() {
                bucket.dists[i] = d;
                bucket.nodes[i] = n;
            }
        }
        let mut point_on = vec![NO_POINT; num_hubs];
        for (p, node) in node_of_point.iter().enumerate() {
            point_on[node.index()] = p as u32;
        }
        HubPointTable { buckets, node_of_point, point_on, entries }
    }

    /// The bucket of hub `rank`: parallel slices of distances (ascending)
    /// and the occupied nodes at those distances. Map a node to its current
    /// point id with [`HubPointTable::point_of`].
    pub fn bucket(&self, rank: u32) -> (&[Weight], &[NodeId]) {
        let bucket = &self.buckets[rank as usize];
        (&bucket.dists, &bucket.nodes)
    }

    /// Number of data points the table currently covers.
    pub fn num_points(&self) -> usize {
        self.node_of_point.len()
    }

    /// The node `point` resides on.
    pub fn node_of(&self, point: PointId) -> NodeId {
        self.node_of_point[point.index()]
    }

    /// The point residing on `node`, if any — the inverse of
    /// [`HubPointTable::node_of`].
    pub fn point_of(&self, node: NodeId) -> Option<PointId> {
        match self.point_on.get(node.index()) {
            Some(&p) if p != NO_POINT => Some(PointId::new(p as usize)),
            _ => None,
        }
    }

    /// Renumbers `point_on` for the points from `slot` on, after a splice of
    /// the directory at `slot`.
    fn renumber_from(&mut self, slot: usize) {
        for (p, node) in self.node_of_point.iter().enumerate().skip(slot) {
            self.point_on[node.index()] = p as u32;
        }
    }

    /// The occupied nodes in point-id order (strictly ascending).
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_of_point
    }

    /// Total bucket entries (= sum of label sizes over occupied nodes).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Adds a point on `node`, splicing one entry into each bucket of the
    /// node's hubs — `O(label size)` bucket updates instead of a full
    /// rebuild. Returns the new point's id; every point on a higher node
    /// implicitly shifts up by one, exactly as a fresh
    /// [`HubPointTable::build`] over the grown set would number them.
    ///
    /// # Panics
    ///
    /// Panics if `node` already holds a point or lies outside the labeled
    /// graph.
    pub fn insert_point(&mut self, labeling: &HubLabeling, node: NodeId) -> PointId {
        assert!(node.index() < self.buckets.len(), "node {node} outside the labeled graph");
        let slot = match self.node_of_point.binary_search(&node) {
            Err(slot) => slot,
            Ok(_) => panic!("node {node} already holds a point"),
        };
        self.node_of_point.insert(slot, node);
        self.renumber_from(slot);
        for (rank, dist) in labeling.entries(node) {
            self.buckets[rank as usize].insert(dist, node);
        }
        self.entries += labeling.label_len(node);
        PointId::new(slot)
    }

    /// Removes the point on `node`, splicing one entry out of each bucket
    /// of the node's hubs. Returns the removed point's id (every higher
    /// point shifts down by one), or `None` if the node holds no point.
    pub fn remove_point(&mut self, labeling: &HubLabeling, node: NodeId) -> Option<PointId> {
        let slot = self.node_of_point.binary_search(&node).ok()?;
        self.node_of_point.remove(slot);
        self.point_on[node.index()] = NO_POINT;
        self.renumber_from(slot);
        for (rank, dist) in labeling.entries(node) {
            self.buckets[rank as usize].remove(dist, node);
        }
        self.entries -= labeling.label_len(node);
        Some(PointId::new(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    fn path5() -> (Graph, NodePointSet) {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 2.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(2), NodeId::new(4)]);
        (g, pts)
    }

    fn label_of(labeling: &HubLabeling, node: NodeId) -> (Vec<u32>, Vec<Weight>) {
        labeling.entries(node).unzip()
    }

    #[test]
    fn buckets_are_sorted_and_cover_every_label_entry() {
        let (g, pts) = path5();
        let labeling = HubLabeling::build(&g);
        let table = HubPointTable::build(&labeling, &pts);
        assert_eq!(table.num_points(), 3);

        let expected_entries: usize = pts.nodes().iter().map(|&n| labeling.label_len(n)).sum();
        assert_eq!(table.entries(), expected_entries);

        let mut seen = 0;
        for rank in 0..labeling.num_nodes() as u32 {
            let (dists, nodes) = table.bucket(rank);
            assert_eq!(dists.len(), nodes.len());
            seen += dists.len();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "bucket {rank} distances ascend");
            for (i, &n) in nodes.iter().enumerate() {
                // Each entry mirrors one label entry of the occupied node.
                let (ranks, ldists) = label_of(&labeling, n);
                let pos = ranks.iter().position(|&r| r == rank).unwrap();
                assert_eq!(ldists[pos], dists[i]);
                // The node maps back to the point that resides on it.
                let p = table.point_of(n).unwrap();
                assert_eq!(table.node_of(p), n);
                assert_eq!(pts.point_at(n), Some(p));
            }
        }
        assert_eq!(seen, table.entries());
    }

    #[test]
    fn node_of_round_trips_and_distance_ties_order_by_node_id() {
        let (g, pts) = path5();
        let labeling = HubLabeling::build(&g);
        let table = HubPointTable::build(&labeling, &pts);
        for (p, n) in pts.iter() {
            assert_eq!(table.node_of(p), n);
            assert_eq!(table.point_of(n), Some(p));
        }
        assert_eq!(table.point_of(NodeId::new(1)), None);
        // Nodes 0 and 4 (points 0 and 2) are both at distance 4 from node
        // 2; whichever hub covers both must list them in node order — which
        // is point-id order, since dense ids follow node order.
        for rank in 0..labeling.num_nodes() as u32 {
            let (dists, nodes) = table.bucket(rank);
            for w in 0..dists.len().saturating_sub(1) {
                if dists[w] == dists[w + 1] {
                    assert!(nodes[w] < nodes[w + 1], "equal-distance tie order");
                }
            }
        }
    }

    #[test]
    fn empty_point_set_yields_empty_buckets() {
        let (g, _) = path5();
        let labeling = HubLabeling::build(&g);
        let table = HubPointTable::build(&labeling, &NodePointSet::empty(5));
        assert_eq!(table.num_points(), 0);
        assert_eq!(table.entries(), 0);
        for rank in 0..5 {
            assert!(table.bucket(rank).0.is_empty());
        }
    }

    #[test]
    fn insert_and_remove_match_fresh_builds_bucket_for_bucket() {
        let (g, pts) = path5();
        let labeling = HubLabeling::build(&g);
        let mut table = HubPointTable::build(&labeling, &pts);

        // Insert on node 1: identical to building over the grown set, and
        // the new point takes id 1 (between nodes 0 and 2).
        let added = pts.with_point_on(NodeId::new(1));
        let id = table.insert_point(&labeling, NodeId::new(1));
        assert_eq!(id, PointId::new(1));
        assert_eq!(table, HubPointTable::build(&labeling, &added));

        // Remove it again: back to the original table exactly.
        assert_eq!(table.remove_point(&labeling, NodeId::new(1)), Some(PointId::new(1)));
        assert_eq!(table, HubPointTable::build(&labeling, &pts));

        // Removing an unoccupied node is a no-op.
        assert_eq!(table.remove_point(&labeling, NodeId::new(3)), None);
        assert_eq!(table, HubPointTable::build(&labeling, &pts));

        // Drain everything; the empty table matches an empty fresh build.
        for &n in pts.nodes() {
            assert!(table.remove_point(&labeling, n).is_some());
        }
        assert_eq!(table.entries(), 0);
        assert_eq!(table, HubPointTable::build(&labeling, &NodePointSet::empty(5)));
    }

    #[test]
    #[should_panic(expected = "already holds a point")]
    fn inserting_on_an_occupied_node_panics() {
        let (g, pts) = path5();
        let labeling = HubLabeling::build(&g);
        let mut table = HubPointTable::build(&labeling, &pts);
        table.insert_point(&labeling, NodeId::new(0));
    }
}
