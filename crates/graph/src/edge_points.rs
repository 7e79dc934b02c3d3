//! Data points residing on graph edges (*unrestricted* networks).
//!
//! In an unrestricted network (Section 5.2 of the paper) the position of a
//! point `p` lying on edge `n_i n_j` (with `i < j` by the lexicographic
//! convention) is the triplet `<n_i, n_j, pos>` where `pos ∈ [0, w(n_i n_j)]`
//! is the distance from the lower-id endpoint. The paper stores these points
//! in a separate file pointed to by the edges; here [`EdgePointSet`] plays
//! that role and is kept in memory (its size is `O(|P|)`, small relative to
//! the network, and the paper's I/O accounting is dominated by adjacency-page
//! accesses). Like that file it stands on its own: a point's record carries
//! the endpoints and the weight of its edge ([`EdgePosition`]), so a query
//! over a paged topology needs the point set and the page file, not the
//! in-memory graph they were built from.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId, PointId};
use crate::weight::Weight;
use serde::{Deserialize, Serialize};

/// The location of a point on an edge: the edge id plus the offset from the
/// lower-id endpoint of that edge.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeLocation {
    /// The edge the point lies on.
    pub edge: EdgeId,
    /// Distance from the lower-id endpoint, in `[0, w(edge)]`.
    pub offset: Weight,
}

/// A resolved position on an edge: the canonical endpoints, the edge weight
/// and the offset from the lower-id endpoint — everything a query needs to
/// know about where a point or a query location sits, without the graph.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgePosition {
    /// The edge the position lies on.
    pub edge: EdgeId,
    /// Lower-id endpoint of the edge.
    pub lo: NodeId,
    /// Higher-id endpoint of the edge.
    pub hi: NodeId,
    /// Weight (length) of the edge.
    pub edge_weight: Weight,
    /// Distance from `lo`, in `[0, edge_weight]`.
    pub offset: Weight,
}

impl EdgePosition {
    /// Resolves an [`EdgeLocation`] against the graph. (The position of a
    /// data point is read from its set: [`EdgePointSet::position`].)
    pub fn resolve(graph: &Graph, location: EdgeLocation) -> Self {
        let (lo, hi) = graph.edge_endpoints(location.edge);
        EdgePosition {
            edge: location.edge,
            lo,
            hi,
            edge_weight: graph.edge_weight(location.edge),
            offset: location.offset,
        }
    }

    /// Direct distance to the lower-id endpoint (`pos`).
    pub fn dist_to_lo(&self) -> Weight {
        self.offset
    }

    /// Direct distance to the higher-id endpoint (`w - pos`).
    pub fn dist_to_hi(&self) -> Weight {
        self.edge_weight.saturating_sub(self.offset)
    }

    /// The *direct distance* `d_L(p, n)` to `node`, if it is one of the
    /// edge's endpoints.
    pub fn dist_to_endpoint(&self, node: NodeId) -> Option<Weight> {
        if node == self.lo {
            Some(self.dist_to_lo())
        } else if node == self.hi {
            Some(self.dist_to_hi())
        } else {
            None
        }
    }

    /// Direct (same-edge) distance to another position, or `None` if the two
    /// positions lie on different edges.
    pub fn direct_distance(&self, other: &EdgePosition) -> Option<Weight> {
        if self.edge == other.edge {
            Some(Weight::new((self.offset.value() - other.offset.value()).abs()))
        } else {
            None
        }
    }

    /// Returns `true` if the two positions coincide (same edge, same offset).
    pub fn coincides_with(&self, other: &EdgePosition) -> bool {
        self.edge == other.edge && self.offset == other.offset
    }

    /// The node this position sits on, if its offset lands exactly on an
    /// endpoint (boundary offsets are valid placements).
    pub fn node_location(&self) -> Option<NodeId> {
        if self.offset == Weight::ZERO {
            Some(self.lo)
        } else if self.offset == self.edge_weight {
            Some(self.hi)
        } else {
            None
        }
    }

    /// Returns `true` if the two positions denote the same physical location:
    /// the same offset on the same edge, or the same node reached as a
    /// boundary offset of two different edges.
    pub fn same_location(&self, other: &EdgePosition) -> bool {
        if self.coincides_with(other) {
            return true;
        }
        match (self.node_location(), other.node_location()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// A data point on an edge, as stored in the per-edge lists.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgePoint {
    /// The point id.
    pub point: PointId,
    /// Distance from the lower-id endpoint of the edge.
    pub offset: Weight,
}

/// A set of data points placed on the edges of a graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgePointSet {
    /// Points on each edge, sorted by offset.
    by_edge: Vec<Vec<EdgePoint>>,
    /// Resolved position of each point, indexed by point id: the edge's
    /// endpoints and weight are copied in at build time, so a query never
    /// needs the graph to place a point.
    positions: Vec<EdgePosition>,
}

impl EdgePointSet {
    /// Number of data points `|P|`.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the set contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Returns the points lying on `edge`, sorted by offset from the lower-id
    /// endpoint.
    #[inline]
    pub fn points_on_edge(&self, edge: EdgeId) -> &[EdgePoint] {
        self.by_edge.get(edge.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Returns the resolved position of `point`.
    #[inline]
    pub fn position(&self, point: PointId) -> EdgePosition {
        self.positions[point.index()]
    }

    /// Returns the location of `point`.
    #[inline]
    pub fn location(&self, point: PointId) -> EdgeLocation {
        let EdgePosition { edge, offset, .. } = self.position(point);
        EdgeLocation { edge, offset }
    }

    /// Iterates over `(point, location)` pairs in point id order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, EdgeLocation)> + '_ {
        (0..self.num_points()).map(PointId::new).map(|p| (p, self.location(p)))
    }

    /// Data density `D = |P| / |V|` for a graph with `num_nodes` nodes, as
    /// used in the experiments on unrestricted networks.
    pub fn density(&self, num_nodes: usize) -> f64 {
        if num_nodes == 0 {
            return 0.0;
        }
        self.num_points() as f64 / num_nodes as f64
    }
}

/// Builder for [`EdgePointSet`] that validates offsets against the graph.
#[derive(Debug)]
pub struct EdgePointSetBuilder<'g> {
    graph: &'g Graph,
    placements: Vec<EdgeLocation>,
}

impl<'g> EdgePointSetBuilder<'g> {
    /// Creates a builder for points on the edges of `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        EdgePointSetBuilder { graph, placements: Vec::new() }
    }

    /// Number of points added so far.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Returns `true` if no points have been added yet.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Adds a point on `edge` at distance `offset` from its lower-id
    /// endpoint.
    pub fn add_point(&mut self, edge: EdgeId, offset: f64) -> Result<(), GraphError> {
        if edge.index() >= self.graph.num_edges() {
            return Err(GraphError::EdgeOutOfBounds { edge, num_edges: self.graph.num_edges() });
        }
        let w = self.graph.edge_weight(edge).value();
        if !(offset.is_finite() && (0.0..=w).contains(&offset)) {
            return Err(GraphError::OffsetOutOfRange { edge, offset, weight: w });
        }
        self.placements.push(EdgeLocation { edge, offset: Weight::new(offset) });
        Ok(())
    }

    /// Finalizes the builder.
    ///
    /// Points are assigned dense ids sorted by `(edge, offset)` so the result
    /// is deterministic regardless of insertion order.
    pub fn build(mut self) -> EdgePointSet {
        self.placements.sort_unstable_by_key(|a| (a.edge, a.offset));
        let mut by_edge = vec![Vec::new(); self.graph.num_edges()];
        let mut positions = Vec::with_capacity(self.placements.len());
        for (i, loc) in self.placements.into_iter().enumerate() {
            let p = PointId::new(i);
            by_edge[loc.edge.index()].push(EdgePoint { point: p, offset: loc.offset });
            positions.push(EdgePosition::resolve(self.graph, loc));
        }
        EdgePointSet { by_edge, positions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 4.0).unwrap();
        b.add_edge(1, 2, 6.0).unwrap();
        b.add_edge(2, 3, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_validates_edges_and_offsets() {
        let g = path_graph();
        let mut b = EdgePointSetBuilder::new(&g);
        assert!(b.is_empty());
        assert!(matches!(
            b.add_point(EdgeId::new(9), 0.0),
            Err(GraphError::EdgeOutOfBounds { .. })
        ));
        assert!(matches!(
            b.add_point(EdgeId::new(0), 5.0),
            Err(GraphError::OffsetOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_point(EdgeId::new(0), -0.5),
            Err(GraphError::OffsetOutOfRange { .. })
        ));
        b.add_point(EdgeId::new(0), 4.0).unwrap(); // boundary offsets are valid
        b.add_point(EdgeId::new(0), 0.0).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn points_are_sorted_per_edge_and_ids_dense() {
        let g = path_graph();
        let mut b = EdgePointSetBuilder::new(&g);
        b.add_point(EdgeId::new(1), 5.0).unwrap();
        b.add_point(EdgeId::new(1), 1.0).unwrap();
        b.add_point(EdgeId::new(0), 2.0).unwrap();
        let s = b.build();
        assert_eq!(s.num_points(), 3);
        assert!(!s.is_empty());

        let on_e1 = s.points_on_edge(EdgeId::new(1));
        assert_eq!(on_e1.len(), 2);
        assert!(on_e1[0].offset < on_e1[1].offset);

        // dense ids follow (edge, offset) order
        assert_eq!(s.location(PointId::new(0)).edge, EdgeId::new(0));
        assert_eq!(s.location(PointId::new(1)).offset.value(), 1.0);
        assert_eq!(s.points_on_edge(EdgeId::new(2)), &[]);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn direct_distance_matches_paper_definition() {
        let g = path_graph();
        let e = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let mut b = EdgePointSetBuilder::new(&g);
        b.add_point(e, 4.0).unwrap(); // 4 from n1, 2 from n2
        let p = b.build().position(PointId::new(0));
        assert_eq!(p.dist_to_endpoint(NodeId::new(1)).unwrap().value(), 4.0);
        assert_eq!(p.dist_to_endpoint(NodeId::new(2)).unwrap().value(), 2.0);
        assert_eq!(p.dist_to_endpoint(NodeId::new(0)), None);
    }

    /// Points at 1 and 5 on the edge (1, 2) of weight 6, and one at the far
    /// end of the edge (2, 3).
    fn positioned() -> (Graph, EdgePointSet) {
        let g = path_graph();
        let mut b = EdgePointSetBuilder::new(&g);
        b.add_point(EdgeId::new(1), 1.0).unwrap();
        b.add_point(EdgeId::new(1), 5.0).unwrap();
        b.add_point(EdgeId::new(2), 2.0).unwrap(); // on node 3
        let points = b.build();
        (g, points)
    }

    #[test]
    fn positions_resolve_with_correct_endpoint_distances() {
        let (g, pts) = positioned();
        let p0 = pts.position(PointId::new(0));
        assert_eq!(p0, EdgePosition::resolve(&g, pts.location(PointId::new(0))));
        assert_eq!((p0.lo, p0.hi, p0.edge_weight.value()), (NodeId::new(1), NodeId::new(2), 6.0));
        assert_eq!(p0.dist_to_lo().value(), 1.0);
        assert_eq!(p0.dist_to_hi().value(), 5.0);
    }

    #[test]
    fn same_edge_direct_distance() {
        let (_, pts) = positioned();
        let [p0, p1, p2] = [0, 1, 2].map(|i| pts.position(PointId::new(i)));
        assert_eq!(p0.direct_distance(&p1).unwrap().value(), 4.0);
        assert_eq!(p0.direct_distance(&p2), None);
        assert!(!p0.coincides_with(&p1));
        assert!(p0.coincides_with(&p0));
    }

    #[test]
    fn density_is_points_over_nodes() {
        let g = path_graph();
        let mut b = EdgePointSetBuilder::new(&g);
        b.add_point(EdgeId::new(0), 1.0).unwrap();
        b.add_point(EdgeId::new(1), 1.0).unwrap();
        let s = b.build();
        assert!((s.density(4) - 0.5).abs() < 1e-12);
        assert_eq!(s.density(0), 0.0);
    }
}
