//! Transformation of an unrestricted instance into a restricted one.
//!
//! "Unrestricted networks can be transformed to restricted ones by adding a
//! node for each data point that lies on a graph edge" (Section 1). The paper
//! does not adopt the transformation for its core algorithms (it couples the
//! network storage with the data points), but it is the natural way to run
//! the materialization-based `eager-M` and the `lazy-EP` variants — which the
//! paper defines on restricted networks — over unrestricted workloads, and it
//! doubles as a correctness oracle for the native unrestricted algorithms.

use rnn_graph::{EdgePointSet, Graph, GraphBuilder, GraphError, NodeId, NodePointSet, PointId};

/// The restricted view of an unrestricted instance.
#[derive(Clone, Debug)]
pub struct RestrictedView {
    /// The transformed graph: original nodes keep their ids; every data point
    /// becomes an additional node splitting its edge.
    pub graph: Graph,
    /// The data points, now residing on the added nodes.
    pub points: NodePointSet,
    /// For every original (unrestricted) point id, the node representing it
    /// in the transformed graph.
    pub node_of_point: Vec<NodeId>,
}

impl RestrictedView {
    /// Maps a point id of the view back to the original unrestricted id:
    /// the point nodes are appended after the original nodes in point-id
    /// order. `None` for an id the view does not hold, or whose node is not
    /// a point node.
    pub fn original_point(&self, in_view: PointId) -> Option<PointId> {
        let node = *self.points.nodes().get(in_view.index())?;
        let original_nodes = self.graph.num_nodes().checked_sub(self.node_of_point.len())?;
        let original = node.index().checked_sub(original_nodes)?;
        (self.node_of_point.get(original) == Some(&node)).then(|| PointId::new(original))
    }
}

/// Splits every edge carrying data points so that each point gets its own
/// node, producing an equivalent restricted instance.
///
/// Points must lie strictly inside their edge (offset in `(0, w)`) and two
/// points must not share an exact position; both conditions hold for the
/// workloads generated by `rnn-datagen` and are validated here because a
/// zero-length segment would not be a valid edge.
pub fn transform_to_restricted(
    graph: &Graph,
    points: &EdgePointSet,
) -> Result<RestrictedView, GraphError> {
    let original_nodes = graph.num_nodes();
    let total_nodes = original_nodes + points.num_points();
    let mut builder =
        GraphBuilder::with_edge_capacity(total_nodes, graph.num_edges() + points.num_points());
    let mut node_of_point: Vec<NodeId> =
        (0..points.num_points()).map(|i| NodeId::new(original_nodes + i)).collect();

    for (edge, lo, hi, weight) in graph.edges() {
        let on_edge = points.points_on_edge(edge);
        if on_edge.is_empty() {
            builder.add_edge(lo.index(), hi.index(), weight.value())?;
            continue;
        }
        // Chain lo - p_1 - p_2 - ... - p_m - hi in offset order.
        let mut previous_node = lo.index();
        let mut previous_offset = 0.0;
        for ep in on_edge {
            let offset = ep.offset.value();
            let segment = offset - previous_offset;
            if segment <= 0.0 {
                return Err(GraphError::OffsetOutOfRange { edge, offset, weight: weight.value() });
            }
            let point_node = node_of_point[ep.point.index()];
            builder.add_edge(previous_node, point_node.index(), segment)?;
            previous_node = point_node.index();
            previous_offset = offset;
        }
        let last_segment = weight.value() - previous_offset;
        if last_segment <= 0.0 {
            return Err(GraphError::OffsetOutOfRange {
                edge,
                offset: previous_offset,
                weight: weight.value(),
            });
        }
        builder.add_edge(previous_node, hi.index(), last_segment)?;
    }

    let transformed = builder.build()?;
    let point_set = NodePointSet::from_nodes(total_nodes, node_of_point.iter().copied());
    // NodePointSet re-assigns dense ids in node order; since the added nodes
    // are appended in point-id order, the mapping stays the identity
    // (`RestrictedView::original_point` checks it against this vector).
    node_of_point.shrink_to_fit();
    Ok(RestrictedView { graph: transformed, points: point_set, node_of_point })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::eager_rknn;
    use crate::unrestricted::algorithms::unrestricted_naive_rknn;
    use rnn_graph::{EdgePointSetBuilder, PointsOnNodes, Weight};

    fn instance() -> (Graph, EdgePointSet) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 6.0).unwrap();
        b.add_edge(1, 2, 4.0).unwrap();
        b.add_edge(2, 3, 5.0).unwrap();
        b.add_edge(3, 4, 3.0).unwrap();
        b.add_edge(4, 0, 7.0).unwrap();
        let g = b.build().unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let e23 = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        let e40 = g.edge_between(NodeId::new(4), NodeId::new(0)).unwrap();
        pb.add_point(e01, 2.0).unwrap();
        pb.add_point(e01, 4.5).unwrap();
        pb.add_point(e23, 1.5).unwrap();
        pb.add_point(e40, 3.0).unwrap();
        let pts = pb.build();
        (g, pts)
    }

    #[test]
    fn transformation_preserves_node_count_and_degrees() {
        let (g, pts) = instance();
        let view = transform_to_restricted(&g, &pts).unwrap();
        assert_eq!(view.graph.num_nodes(), g.num_nodes() + pts.num_points());
        // every point node has degree exactly 2 (it splits one edge)
        for (p, _) in pts.iter() {
            let n = view.node_of_point[p.index()];
            assert_eq!(view.graph.degree(n), 2, "point {p}");
            assert!(view.points.contains_node(n));
        }
        // total edge weight is preserved
        let before: f64 = g.edges().map(|(_, _, _, w)| w.value()).sum();
        let after: f64 = view.graph.edges().map(|(_, _, _, w)| w.value()).sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn restricted_queries_on_the_view_match_native_unrestricted_queries() {
        let (g, pts) = instance();
        let view = transform_to_restricted(&g, &pts).unwrap();
        for qi in 0..pts.num_points() {
            let q_orig = PointId::new(qi);
            let q_pos = pts.position(q_orig);
            let q_node = view.node_of_point[qi];
            for k in 1..=2 {
                let native = unrestricted_naive_rknn(&g, &pts, &q_pos, k);
                let on_view = eager_rknn(&view.graph, &view.points, q_node, k);
                // map the view result back to original point ids
                let mut mapped: Vec<PointId> =
                    on_view.points.iter().map(|&p| view.original_point(p).unwrap()).collect();
                mapped.sort_unstable();
                assert_eq!(mapped, native.points, "q={qi} k={k}");
            }
        }
    }

    #[test]
    fn point_id_round_trip() {
        let (g, pts) = instance();
        let view = transform_to_restricted(&g, &pts).unwrap();
        for i in 0..pts.num_points() {
            let original = PointId::new(i);
            let in_view = view.points.point_at(view.node_of_point[i]).expect("a point node");
            assert_eq!(view.original_point(in_view), Some(original));
        }
        assert_eq!(view.original_point(PointId::new(pts.num_points())), None, "no such point");
        // A view whose points do not sit on the appended nodes maps nothing.
        let on_original_nodes = NodePointSet::from_nodes(view.graph.num_nodes(), [NodeId::new(0)]);
        let odd = RestrictedView { points: on_original_nodes, ..view };
        assert_eq!(odd.original_point(PointId::new(0)), None, "node 0 is not a point node");
    }

    #[test]
    fn degenerate_offsets_are_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 2.0).unwrap();
        let g = b.build().unwrap();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        // offset exactly at an endpoint
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(e, 0.0).unwrap();
        assert!(transform_to_restricted(&g, &pb.build()).is_err());
        // two points at the same offset
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(e, 1.0).unwrap();
        pb.add_point(e, 1.0).unwrap();
        assert!(transform_to_restricted(&g, &pb.build()).is_err());
        let _ = Weight::ZERO; // keep the import used in all cfgs
    }
}
