//! What a network expansion asks of a data set.
//!
//! Section 5.2 of the paper obtains the algorithms for unrestricted networks
//! from the restricted ones by substituting "the points on the edges adjacent
//! to a de-heaped node" for "the point on the node". [`PointSource`] is that
//! substitution as a trait: the query algorithms of `rnn-core` are written
//! once against it, and where the points sit — and with them what a location
//! is — is the implementation's business:
//!
//! * every [`PointsOnNodes`] is a source whose points are revealed by
//!   *settling* their node. A location is a [`NodeLocation`]: one node for a
//!   plain query or a data point, the nodes of a route for a continuous query.
//! * [`EdgePointSet`] is a source whose points are revealed by *traversing*
//!   the arc they lie on, at the offset they have along it. A location is an
//!   [`EdgePosition`], which seeds both endpoints of its edge and reaches the
//!   points on that edge without passing a node.
//!
//! The trait is used through static dispatch only (its hooks are generic), and
//! a source says at compile time whether its arcs reveal anything, so the
//! hooks a source leaves empty cost nothing: over a node source the expansion
//! compiles to the plain Dijkstra loop.

use crate::edge_points::{EdgePointSet, EdgePosition};
use crate::graph::Neighbor;
use crate::ids::{NodeId, PointId};
use crate::points::PointsOnNodes;
use crate::route::Route;
use crate::weight::Weight;

/// What an expansion comes across, besides nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Revealed {
    /// The target location the expansion was asked to look out for.
    Target,
    /// A data point.
    Point(PointId),
}

/// A set of data points as a network expansion sees it: which points (and is
/// the target among them) does settling a node or traversing an arc reveal,
/// at what extra distance, and where does an expansion from a location start.
///
/// `Sync` for the same reason as [`PointsOnNodes`]: sources are shared by
/// reference across query worker threads.
pub trait PointSource: Sync {
    /// Where a data point, a query or a verification target sits.
    type Location;

    /// Whether [`PointSource::beside`] or [`PointSource::on_arc`] ever reveal
    /// anything. An expansion over a source that says `false` does not call
    /// them and keeps no queue of what they would find: it is the plain
    /// Dijkstra loop, with no closure built per expanded node.
    const REVEALS_ON_ARCS: bool;

    /// The location of a data point.
    fn location_of(&self, point: PointId) -> Self::Location;

    /// Whether `point` sits at `at`. Such a point is at distance zero of the
    /// query: it ties with the query everywhere and is never reported.
    fn is_at(&self, point: PointId, at: &Self::Location) -> bool;

    /// The nodes an expansion from `at` starts with, and their distances
    /// from `at`.
    fn seeds(&self, at: &Self::Location) -> impl Iterator<Item = (NodeId, Weight)>;

    /// What `at` reaches without passing a node, and at which distance: the
    /// data points — and the target, if one is given — on its own edge.
    /// Nothing by default.
    #[inline]
    fn beside(
        &self,
        at: &Self::Location,
        target: Option<&Self::Location>,
        found: impl FnMut(Revealed, Weight),
    ) {
        let _ = (at, target, found);
    }

    /// The data point that settling `node` reveals, at no extra distance.
    /// None by default.
    #[inline]
    fn on_node(&self, node: NodeId) -> Option<PointId> {
        let _ = node;
        None
    }

    /// Whether settling `node` reaches `target`. Never by default: a
    /// location on an edge, also on its very end, is reached by traversing
    /// that edge.
    #[inline]
    fn covers(&self, target: &Self::Location, node: NodeId) -> bool {
        let _ = (target, node);
        false
    }

    /// What traversing `arc` out of `from` reveals, and how far along the arc:
    /// the data points — and the target, if one is given — on its edge.
    /// Nothing by default.
    #[inline]
    fn on_arc(
        &self,
        from: NodeId,
        arc: &Neighbor,
        target: Option<&Self::Location>,
        found: impl FnMut(Revealed, Weight),
    ) {
        let _ = (from, arc, target, found);
    }
}

/// A location on a network whose points sit on nodes: one node, or a set of
/// nodes whose distance to anything is that of the nearest of them (the route
/// of a continuous query).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeLocation(Nodes);

#[derive(Clone, Debug, PartialEq, Eq)]
enum Nodes {
    /// A plain query, or the location of a data point: nothing allocated.
    One(NodeId),
    /// Sorted and free of duplicates, for [`NodeLocation::contains`].
    Sorted(Box<[NodeId]>),
}

impl NodeLocation {
    /// The nodes of a route.
    pub fn of_route(route: &Route) -> Self {
        let mut nodes = route.nodes().to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        NodeLocation(Nodes::Sorted(nodes.into_boxed_slice()))
    }

    /// The nodes of the location, in ascending order.
    pub fn nodes(&self) -> &[NodeId] {
        match &self.0 {
            Nodes::One(node) => std::slice::from_ref(node),
            Nodes::Sorted(nodes) => nodes,
        }
    }

    /// Whether `node` is (one of the nodes of) the location.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        match &self.0 {
            Nodes::One(only) => *only == node,
            Nodes::Sorted(nodes) => nodes.binary_search(&node).is_ok(),
        }
    }
}

impl From<NodeId> for NodeLocation {
    fn from(node: NodeId) -> Self {
        NodeLocation(Nodes::One(node))
    }
}

impl<P: PointsOnNodes + ?Sized> PointSource for P {
    type Location = NodeLocation;
    const REVEALS_ON_ARCS: bool = false;

    fn location_of(&self, point: PointId) -> NodeLocation {
        self.node_of(point).into()
    }

    fn is_at(&self, point: PointId, at: &NodeLocation) -> bool {
        at.contains(self.node_of(point))
    }

    fn seeds(&self, at: &NodeLocation) -> impl Iterator<Item = (NodeId, Weight)> {
        at.nodes().iter().map(|&node| (node, Weight::ZERO))
    }

    #[inline]
    fn on_node(&self, node: NodeId) -> Option<PointId> {
        self.point_at(node)
    }

    #[inline]
    fn covers(&self, target: &NodeLocation, node: NodeId) -> bool {
        target.contains(node)
    }
}

impl PointSource for EdgePointSet {
    type Location = EdgePosition;
    const REVEALS_ON_ARCS: bool = true;

    fn location_of(&self, point: PointId) -> EdgePosition {
        self.position(point)
    }

    /// The same offset on the same edge, or the same node reached as a
    /// boundary offset of two different edges.
    fn is_at(&self, point: PointId, at: &EdgePosition) -> bool {
        self.position(point).same_location(at)
    }

    fn seeds(&self, at: &EdgePosition) -> impl Iterator<Item = (NodeId, Weight)> {
        [(at.lo, at.dist_to_lo()), (at.hi, at.dist_to_hi())].into_iter()
    }

    fn beside(
        &self,
        at: &EdgePosition,
        target: Option<&EdgePosition>,
        mut found: impl FnMut(Revealed, Weight),
    ) {
        for on_edge in self.points_on_edge(at.edge) {
            let direct = (on_edge.offset.value() - at.offset.value()).abs();
            found(Revealed::Point(on_edge.point), Weight::new(direct));
        }
        if let Some(direct) = target.and_then(|target| at.direct_distance(target)) {
            found(Revealed::Target, direct);
        }
    }

    fn on_arc(
        &self,
        from: NodeId,
        arc: &Neighbor,
        target: Option<&EdgePosition>,
        mut found: impl FnMut(Revealed, Weight),
    ) {
        // Offsets are measured from the lower-id endpoint of an edge.
        let along = |offset: Weight| {
            if from < arc.node {
                offset
            } else {
                arc.weight.saturating_sub(offset)
            }
        };
        for on_edge in self.points_on_edge(arc.edge) {
            found(Revealed::Point(on_edge.point), along(on_edge.offset));
        }
        if let Some(target) = target.filter(|target| target.edge == arc.edge) {
            found(Revealed::Target, along(target.offset));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::edge_points::{EdgeLocation, EdgePointSetBuilder};
    use crate::ids::EdgeId;
    use crate::points::NodePointSet;
    use crate::topology::Topology;

    fn collect(hook: impl FnOnce(&mut dyn FnMut(Revealed, Weight))) -> Vec<(Revealed, f64)> {
        let mut seen = Vec::new();
        hook(&mut |what, extra| seen.push((what, extra.value())));
        seen
    }

    #[test]
    fn a_node_source_reveals_by_settling_and_locates_by_node_sets() {
        let points = NodePointSet::from_nodes(8, [NodeId::new(1), NodeId::new(5)]);
        // Through the trait object: that is how the server holds it.
        let source: &dyn PointsOnNodes = &points;
        let p5 = PointId::new(1);
        assert_eq!(PointSource::on_node(source, NodeId::new(5)), Some(p5));
        assert_eq!(PointSource::on_node(source, NodeId::new(2)), None);
        assert_eq!(source.location_of(p5), NodeId::new(5).into());
        // A route is its nodes, in any order and however often it visits them.
        let route = Route::new_unchecked([7, 2, 5, 2].map(NodeId::new).to_vec());
        let route = NodeLocation::of_route(&route);
        assert_eq!(route.nodes(), &[2, 5, 7].map(NodeId::new));
        let seeds: Vec<_> = source.seeds(&route).collect();
        assert_eq!(seeds, [2, 5, 7].map(|n| (NodeId::new(n), Weight::ZERO)));
        for node in (0..8).map(NodeId::new) {
            assert_eq!(source.covers(&route, node), [2, 5, 7].contains(&node.index()), "{node}");
        }
        assert!(source.is_at(p5, &route) && !source.is_at(PointId::new(0), &route));
        assert!(!source.is_at(p5, &NodeId::new(2).into()));
    }

    #[test]
    fn an_edge_source_reveals_by_traversing_with_offsets_from_either_end() {
        // 0 -10- 1 -4- 2, points at 3 and 7 on (0, 1) and on node 2 through (1, 2).
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10.0).unwrap();
        b.add_edge(1, 2, 4.0).unwrap();
        let g = b.build().unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(EdgeId::new(0), 3.0).unwrap();
        pb.add_point(EdgeId::new(0), 7.0).unwrap();
        pb.add_point(EdgeId::new(1), 4.0).unwrap();
        let points = pb.build();
        let [p0, p1, p2] = [0, 1, 2].map(PointId::new);
        let on_e0 = |offset| {
            let location = EdgeLocation { edge: EdgeId::new(0), offset: Weight::new(offset) };
            EdgePosition::resolve(&g, location)
        };
        let target = on_e0(9.0);

        let seeds: Vec<_> = points.seeds(&points.location_of(p0)).collect();
        assert_eq!(seeds, [(NodeId::new(0), Weight::new(3.0)), (NodeId::new(1), Weight::new(7.0))]);
        // From p0: itself, p1 and the target along the shared edge.
        assert_eq!(
            collect(|f| points.beside(&points.location_of(p0), Some(&target), f)),
            [(Revealed::Point(p0), 0.0), (Revealed::Point(p1), 4.0), (Revealed::Target, 6.0)]
        );
        // The arc 1 -> 0 runs against the offsets, 0 -> 1 with them; the arc
        // 1 -> 2 is another edge than the target's.
        let arc = |from: usize, to: usize| {
            *g.adjacency(NodeId::new(from)).unwrap().iter().find(|a| a.node.index() == to).unwrap()
        };
        assert_eq!(
            collect(|f| points.on_arc(NodeId::new(1), &arc(1, 0), Some(&target), f)),
            [(Revealed::Point(p0), 7.0), (Revealed::Point(p1), 3.0), (Revealed::Target, 1.0)]
        );
        assert_eq!(
            collect(|f| points.on_arc(NodeId::new(0), &arc(0, 1), None, f)),
            [(Revealed::Point(p0), 3.0), (Revealed::Point(p1), 7.0)]
        );
        assert_eq!(
            collect(|f| points.on_arc(NodeId::new(1), &arc(1, 2), Some(&target), f)),
            [(Revealed::Point(p2), 4.0)]
        );
        // A point on a node is still found on its arc, not by settling; and
        // it is at a query placed on that node through the other edge.
        assert_eq!(points.on_node(NodeId::new(2)), None);
        assert!(points.is_at(p1, &on_e0(7.0)) && !points.is_at(p1, &target));
    }
}
