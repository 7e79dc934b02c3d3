//! Validating builder for [`Graph`].

use crate::error::GraphError;
use crate::graph::{Graph, Neighbor};
use crate::ids::{EdgeId, NodeId};
use crate::weight::Weight;

/// Incrementally collects edges and produces a validated CSR [`Graph`].
///
/// The builder:
///
/// * rejects self loops, out-of-bounds endpoints and non-positive or
///   non-finite weights;
/// * detects duplicate undirected edges (the same pair added twice) and
///   rejects them when the weights conflict, silently deduplicating when the
///   weights agree;
/// * assigns a dense [`EdgeId`] per undirected edge in insertion order;
/// * sorts every adjacency list by neighbor id, giving deterministic
///   iteration order for the algorithms and the page layout.
///
/// # Example
///
/// ```
/// use rnn_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.5).unwrap();
/// b.add_edge(1, 2, 2.0).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Edges as (lo, hi, weight) with lo < hi.
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::new() }
    }

    /// Creates a builder with capacity for `num_edges` edges.
    pub fn with_edge_capacity(num_nodes: usize, num_edges: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::with_capacity(num_edges) }
    }

    /// Number of nodes the graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges added so far (before deduplication).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{a, b}` with weight `weight`.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: f64) -> Result<(), GraphError> {
        if a >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds { node: a, num_nodes: self.num_nodes });
        }
        if b >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds { node: b, num_nodes: self.num_nodes });
        }
        if a == b {
            return Err(GraphError::SelfLoop { node: NodeId::new(a) });
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(GraphError::InvalidWeight {
                from: NodeId::new(a),
                to: NodeId::new(b),
                weight,
            });
        }
        let (lo, hi) = if a < b { (a as u32, b as u32) } else { (b as u32, a as u32) };
        self.edges.push((lo, hi, weight));
        Ok(())
    }

    /// Returns `true` if the undirected edge `{a, b}` has already been added.
    ///
    /// This is a linear scan and intended for generators that add few edges
    /// per node; large generators should keep their own edge set.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        let (lo, hi) = if a < b { (a as u32, b as u32) } else { (b as u32, a as u32) };
        self.edges.iter().any(|&(l, h, _)| l == lo && h == hi)
    }

    /// Finalizes the builder into a CSR [`Graph`].
    pub fn build(mut self) -> Result<Graph, GraphError> {
        // Sort by (lo, hi) so duplicates become adjacent and edge ids are
        // deterministic regardless of insertion order.
        self.edges.sort_unstable_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.total_cmp(&y.2)));

        let mut edge_endpoints: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.edges.len());
        let mut edge_weights: Vec<Weight> = Vec::with_capacity(self.edges.len());
        for &(lo, hi, w) in &self.edges {
            if let Some(&(plo, phi)) = edge_endpoints.last() {
                if plo.0 == lo && phi.0 == hi {
                    let prev_w = *edge_weights.last().expect("parallel arrays");
                    if (prev_w.value() - w).abs() > f64::EPSILON * prev_w.value().max(1.0) {
                        return Err(GraphError::DuplicateEdge { from: NodeId(lo), to: NodeId(hi) });
                    }
                    // Identical duplicate: ignore.
                    continue;
                }
            }
            edge_endpoints.push((NodeId(lo), NodeId(hi)));
            edge_weights.push(Weight::new(w));
        }

        // Degree counting for both directions.
        let mut degrees = vec![0u32; self.num_nodes];
        for &(lo, hi) in &edge_endpoints {
            degrees[lo.index()] += 1;
            degrees[hi.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(self.num_nodes + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }

        let placeholder =
            Neighbor { node: NodeId::default(), weight: Weight::ZERO, edge: EdgeId::default() };
        let mut arcs = vec![placeholder; acc as usize];
        let mut cursor: Vec<u32> = offsets[..self.num_nodes].to_vec();
        for (i, (&(lo, hi), &weight)) in edge_endpoints.iter().zip(&edge_weights).enumerate() {
            let edge = EdgeId::new(i);
            for (from, node) in [(lo, hi), (hi, lo)] {
                arcs[cursor[from.index()] as usize] = Neighbor { node, weight, edge };
                cursor[from.index()] += 1;
            }
        }

        // Sort each adjacency list by neighbor id for deterministic order.
        for bounds in offsets.windows(2) {
            arcs[bounds[0] as usize..bounds[1] as usize].sort_unstable_by_key(|arc| arc.node);
        }

        Ok(Graph::from_csr(offsets, arcs, edge_endpoints, edge_weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn rejects_invalid_edges() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(b.add_edge(0, 3, 1.0), Err(GraphError::NodeOutOfBounds { node: 3, .. })));
        assert!(matches!(b.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(b.add_edge(0, 1, 0.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(0, 1, -3.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(0, 1, f64::NAN), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(0, 1, f64::INFINITY), Err(GraphError::InvalidWeight { .. })));
    }

    #[test]
    fn duplicate_edges_with_same_weight_are_deduplicated() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 2.0).unwrap();
        b.add_edge(1, 0, 2.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn duplicate_edges_with_conflicting_weights_are_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 2.0).unwrap();
        b.add_edge(1, 0, 3.0).unwrap();
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { .. })));
    }

    #[test]
    fn edge_ids_are_dense_and_shared_by_both_arcs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
        let mut seen = vec![0usize; 3];
        for v in g.node_ids() {
            for n in g.neighbors(v) {
                seen[n.edge.index()] += 1;
            }
        }
        // every undirected edge appears in exactly two adjacency lists
        assert_eq!(seen, vec![2, 2, 2]);
    }

    #[test]
    fn has_edge_checks_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 1.0).unwrap();
        assert!(b.has_edge(0, 2));
        assert!(b.has_edge(2, 0));
        assert!(!b.has_edge(0, 1));
    }

    #[test]
    fn isolated_nodes_are_preserved() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(NodeId::new(4)), 0);
        assert_eq!(g.neighbors_vec(NodeId::new(4)).len(), 0);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn with_edge_capacity_reports_counts() {
        let mut b = GraphBuilder::with_edge_capacity(10, 5);
        assert_eq!(b.num_nodes(), 10);
        b.add_edge(0, 1, 1.0).unwrap();
        assert_eq!(b.num_edges(), 1);
    }
}
