//! Data points residing on graph nodes (*restricted* networks).
//!
//! In the paper's restricted-network model every data point `p ∈ P` lies on a
//! node, and each node contains at most one point of a given data set; nodes
//! without a point are *empty* (e.g. road junctions, or peers without
//! relevant content). [`NodePointSet`] is the canonical implementation;
//! [`PointsOnNodes`] is the trait the algorithms are written against so that
//! ad hoc (predicate-filtered) and bichromatic data sets plug in uniformly.

use crate::ids::{NodeId, PointId};

/// Read access to a set of data points placed on nodes.
///
/// `Sync` is a supertrait because point sets are shared by reference across
/// the worker threads of batched query execution.
pub trait PointsOnNodes: Sync {
    /// Returns the point residing on `node`, if any.
    fn point_at(&self, node: NodeId) -> Option<PointId>;

    /// Returns the node on which `point` resides.
    fn node_of(&self, point: PointId) -> NodeId;

    /// Number of data points `|P|`.
    fn num_points(&self) -> usize;

    /// Returns `true` if the set contains no points.
    fn is_empty(&self) -> bool {
        self.num_points() == 0
    }

    /// Returns `true` if some point resides on `node`.
    fn contains_node(&self, node: NodeId) -> bool {
        self.point_at(node).is_some()
    }
}

impl<T: PointsOnNodes + ?Sized> PointsOnNodes for &T {
    fn point_at(&self, node: NodeId) -> Option<PointId> {
        (**self).point_at(node)
    }
    fn node_of(&self, point: PointId) -> NodeId {
        (**self).node_of(point)
    }
    fn num_points(&self) -> usize {
        (**self).num_points()
    }
}

/// A concrete set of data points on nodes, with dense [`PointId`]s.
///
/// Point ids are assigned in ascending node order, so the mapping is
/// deterministic for a given set of occupied nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct NodePointSet {
    /// For each node, the point residing on it (if any).
    point_of_node: Vec<Option<PointId>>,
    /// For each point, the node it resides on.
    node_of_point: Vec<NodeId>,
}

impl NodePointSet {
    /// Creates an empty point set over a graph with `num_nodes` nodes.
    pub fn empty(num_nodes: usize) -> Self {
        NodePointSet { point_of_node: vec![None; num_nodes], node_of_point: Vec::new() }
    }

    /// Creates a point set from the list of occupied nodes.
    ///
    /// Duplicate nodes are collapsed to a single point. Nodes outside
    /// `0..num_nodes` are ignored by debug assertion (callers are expected to
    /// pass valid ids).
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(num_nodes: usize, nodes: I) -> Self {
        let mut occupied: Vec<NodeId> = nodes.into_iter().collect();
        occupied.sort_unstable();
        occupied.dedup();
        let mut point_of_node = vec![None; num_nodes];
        let mut node_of_point = Vec::with_capacity(occupied.len());
        for n in occupied {
            debug_assert!(n.index() < num_nodes, "point on out-of-bounds node {n}");
            let p = PointId::new(node_of_point.len());
            point_of_node[n.index()] = Some(p);
            node_of_point.push(n);
        }
        NodePointSet { point_of_node, node_of_point }
    }

    /// Creates a point set containing every node for which `predicate`
    /// returns `true`.
    ///
    /// This is how the paper's *ad hoc* queries are modeled: the set of
    /// interesting objects is defined at query time by a condition on node
    /// attributes (e.g. "authors with at least two SIGMOD papers"), so no
    /// materialization is possible.
    pub fn from_predicate<F: FnMut(NodeId) -> bool>(num_nodes: usize, mut predicate: F) -> Self {
        Self::from_nodes(num_nodes, (0..num_nodes).map(NodeId::new).filter(|&n| predicate(n)))
    }

    /// Iterates over `(point, node)` pairs in point id order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, NodeId)> + '_ {
        self.node_of_point.iter().enumerate().map(|(i, &n)| (PointId::new(i), n))
    }

    /// Returns the occupied nodes in point id order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_of_point
    }

    /// Number of nodes of the underlying graph this set was built for.
    pub fn num_graph_nodes(&self) -> usize {
        self.point_of_node.len()
    }

    /// Data density `D = |P| / |V|` as defined in the experimental section.
    pub fn density(&self) -> f64 {
        if self.point_of_node.is_empty() {
            return 0.0;
        }
        self.node_of_point.len() as f64 / self.point_of_node.len() as f64
    }

    /// Returns a new set with `point` added on `node` (no-op if the node is
    /// already occupied). Point ids are re-assigned, as ids are dense.
    pub fn with_point_on(&self, node: NodeId) -> Self {
        let mut nodes: Vec<NodeId> = self.node_of_point.clone();
        nodes.push(node);
        Self::from_nodes(self.point_of_node.len(), nodes)
    }

    /// Returns a new set with the point on `node` removed (no-op if the node
    /// is empty). Point ids are re-assigned, as ids are dense.
    pub fn without_point_on(&self, node: NodeId) -> Self {
        Self::from_nodes(
            self.point_of_node.len(),
            self.node_of_point.iter().copied().filter(|&n| n != node),
        )
    }
}

impl PointsOnNodes for NodePointSet {
    #[inline]
    fn point_at(&self, node: NodeId) -> Option<PointId> {
        self.point_of_node.get(node.index()).copied().flatten()
    }

    #[inline]
    fn node_of(&self, point: PointId) -> NodeId {
        self.node_of_point[point.index()]
    }

    #[inline]
    fn num_points(&self) -> usize {
        self.node_of_point.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nodes_assigns_dense_ids_in_node_order() {
        let s = NodePointSet::from_nodes(6, [NodeId::new(5), NodeId::new(1), NodeId::new(3)]);
        assert_eq!(s.num_points(), 3);
        assert_eq!(s.node_of(PointId::new(0)), NodeId::new(1));
        assert_eq!(s.node_of(PointId::new(1)), NodeId::new(3));
        assert_eq!(s.node_of(PointId::new(2)), NodeId::new(5));
        assert_eq!(s.point_at(NodeId::new(3)), Some(PointId::new(1)));
        assert_eq!(s.point_at(NodeId::new(0)), None);
        assert!(s.contains_node(NodeId::new(5)));
        assert!(!s.contains_node(NodeId::new(4)));
    }

    #[test]
    fn duplicates_are_collapsed() {
        let s = NodePointSet::from_nodes(3, [NodeId::new(2), NodeId::new(2), NodeId::new(0)]);
        assert_eq!(s.num_points(), 2);
    }

    #[test]
    fn density_matches_definition() {
        let s = NodePointSet::from_nodes(100, (0..10).map(NodeId::new));
        assert!((s.density() - 0.1).abs() < 1e-12);
        assert_eq!(NodePointSet::empty(0).density(), 0.0);
    }

    #[test]
    fn predicate_construction() {
        let s = NodePointSet::from_predicate(10, |n| n.index() % 3 == 0);
        assert_eq!(s.num_points(), 4); // 0, 3, 6, 9
        assert!(s.contains_node(NodeId::new(9)));
        assert!(!s.contains_node(NodeId::new(1)));
    }

    #[test]
    fn insert_and_remove_preserve_other_points() {
        let s = NodePointSet::from_nodes(8, [NodeId::new(1), NodeId::new(4)]);
        let s2 = s.with_point_on(NodeId::new(6));
        assert_eq!(s2.num_points(), 3);
        assert!(s2.contains_node(NodeId::new(1)));
        assert!(s2.contains_node(NodeId::new(6)));
        // inserting on an occupied node is a no-op
        assert_eq!(s2.with_point_on(NodeId::new(1)).num_points(), 3);

        let s3 = s2.without_point_on(NodeId::new(4));
        assert_eq!(s3.num_points(), 2);
        assert!(!s3.contains_node(NodeId::new(4)));
        // removing from an empty node is a no-op
        assert_eq!(s3.without_point_on(NodeId::new(7)).num_points(), 2);
    }

    #[test]
    fn iter_and_nodes_agree() {
        let s = NodePointSet::from_nodes(5, [NodeId::new(4), NodeId::new(2)]);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (PointId::new(0), NodeId::new(2)));
        assert_eq!(s.nodes(), &[NodeId::new(2), NodeId::new(4)]);
        assert_eq!(s.num_graph_nodes(), 5);
    }

    #[test]
    fn trait_object_and_reference_impls() {
        let s = NodePointSet::from_nodes(4, [NodeId::new(0)]);
        let r: &dyn PointsOnNodes = &s;
        assert_eq!(r.num_points(), 1);
        assert!(!r.is_empty());
        assert_eq!(s.point_at(NodeId::new(0)), Some(PointId::new(0)));
        assert!(NodePointSet::empty(4).is_empty());
    }
}
