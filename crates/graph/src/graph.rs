//! Compressed sparse row (CSR) representation of an undirected weighted
//! graph.
//!
//! The paper models the network as an undirected graph `G = (V, E, W)` with a
//! positive weight per edge. [`Graph`] stores both directed arcs of every
//! undirected edge in a CSR layout: a prefix-offset array plus one array of
//! [`Neighbor`] records (target, weight and edge id of an arc side by side,
//! 16 bytes), so a node's adjacency list is one contiguous slice that
//! [`Topology::adjacency`] lends to the expansion as it is. This is the
//! in-memory "ground truth" topology; the `rnn-storage` crate provides the
//! disk-page backed view with I/O accounting used in the experiments.

use crate::ids::{EdgeId, NodeId};
use crate::topology::Topology;
use crate::weight::Weight;

/// One entry of a node's adjacency list.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Neighbor {
    /// The adjacent node.
    pub node: NodeId,
    /// The weight of the connecting edge.
    pub weight: Weight,
    /// The identifier of the (undirected) connecting edge.
    pub edge: EdgeId,
}

// The arc array costs what three parallel arrays of its fields would.
const _: () = assert!(std::mem::size_of::<Neighbor>() == 16);

/// An undirected weighted graph in CSR form.
///
/// Construct a `Graph` through [`crate::GraphBuilder`]; the builder validates
/// node bounds, weights and duplicate edges and sorts adjacency lists.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    /// `arcs[offsets[v] .. offsets[v + 1]]` is the adjacency list of `v`.
    offsets: Vec<u32>,
    /// The directed arcs, grouped by source node and sorted by target within
    /// a group (the two arcs of an edge carry the same weight and edge id).
    arcs: Vec<Neighbor>,
    /// Canonical endpoints `(lo, hi)` of each undirected edge.
    edge_endpoints: Vec<(NodeId, NodeId)>,
    /// Weight of each undirected edge.
    edge_weights: Vec<Weight>,
}

impl Graph {
    /// Internal constructor used by [`crate::GraphBuilder`]. The inputs must
    /// already be validated and sorted.
    pub(crate) fn from_csr(
        offsets: Vec<u32>,
        arcs: Vec<Neighbor>,
        edge_endpoints: Vec<(NodeId, NodeId)>,
        edge_weights: Vec<Weight>,
    ) -> Self {
        debug_assert_eq!(edge_endpoints.len(), edge_weights.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, arcs.len());
        Graph { offsets, arcs, edge_endpoints, edge_weights }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// Degree (number of incident edges) of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The adjacency list of `node`, sorted by neighbor id.
    #[inline]
    fn arcs_of(&self, node: NodeId) -> &[Neighbor] {
        let i = node.index();
        &self.arcs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates over the adjacency list of `node`.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = Neighbor> + '_ {
        self.arcs_of(node).iter().copied()
    }

    /// Returns the canonical endpoints `(lo, hi)` of an undirected edge, with
    /// `lo < hi` in id order (the paper's lexicographic edge orientation used
    /// to anchor edge offsets of unrestricted data points).
    #[inline]
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.edge_endpoints[edge.index()]
    }

    /// Returns the weight (length / cost) of an undirected edge.
    #[inline]
    pub fn edge_weight(&self, edge: EdgeId) -> Weight {
        self.edge_weights[edge.index()]
    }

    /// Looks up the edge connecting `a` and `b`, if any.
    ///
    /// Runs in `O(min(deg(a), deg(b)))`.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let (probe, target) = if self.degree(a) <= self.degree(b) { (a, b) } else { (b, a) };
        self.neighbors(probe).find(|n| n.node == target).map(|n| n.edge)
    }

    /// Returns `true` if `a` and `b` are connected by an edge.
    #[inline]
    pub(crate) fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_between(a, b).is_some()
    }

    /// Returns `true` if `node` is a valid node id for this graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.num_nodes()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterates over all undirected edges as `(edge, lo, hi, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, Weight)> + '_ {
        self.edge_endpoints
            .iter()
            .zip(self.edge_weights.iter())
            .enumerate()
            .map(|(i, (&(lo, hi), &w))| (EdgeId::new(i), lo, hi, w))
    }

    /// Average node degree `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / self.num_nodes() as f64
    }
}

impl Topology for Graph {
    #[inline]
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    #[inline]
    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        for n in self.neighbors(node) {
            visit(n);
        }
    }

    #[inline]
    fn adjacency(&self, node: NodeId) -> Option<&[Neighbor]> {
        Some(self.arcs_of(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// A small weighted graph loosely modeled on the paper's running example
    /// (Fig. 3a): 7 nodes, 9 weighted edges.
    pub(crate) fn paper_fig3_graph() -> Graph {
        let mut b = GraphBuilder::new(7);
        // n1..n7 are mapped to ids 0..6.
        b.add_edge(0, 3, 5.0).unwrap(); // n1-n4
        b.add_edge(0, 2, 3.0).unwrap(); // n1-n3
        b.add_edge(0, 4, 3.0).unwrap(); // n1-n5
        b.add_edge(3, 2, 4.0).unwrap(); // n4-n3
        b.add_edge(2, 5, 1.0).unwrap(); // n3-n6
        b.add_edge(2, 4, 4.0).unwrap(); // n3-n5
        b.add_edge(4, 1, 2.0).unwrap(); // n5-n2
        b.add_edge(1, 5, 4.0).unwrap(); // n2-n6
        b.add_edge(1, 6, 3.0).unwrap(); // n2-n7
        b.build().unwrap()
    }

    #[test]
    fn csr_basic_accessors() {
        let g = paper_fig3_graph();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree(NodeId::new(6)), 1);
        assert!((g.average_degree() - 18.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = paper_fig3_graph();
        let n0: Vec<_> = g.neighbors(NodeId::new(0)).map(|n| n.node.index()).collect();
        assert_eq!(n0, vec![2, 3, 4]);
        // every arc has a reverse arc with the same weight
        for v in g.node_ids() {
            for n in g.neighbors(v) {
                let back = g.neighbors(n.node).find(|m| m.node == v).expect("reverse arc present");
                assert_eq!(back.weight, n.weight);
                assert_eq!(back.edge, n.edge);
            }
        }
    }

    #[test]
    fn edge_lookup_and_endpoints() {
        let g = paper_fig3_graph();
        let e = g.edge_between(NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(g.edge_weight(e).value(), 5.0);
        let (lo, hi) = g.edge_endpoints(e);
        assert_eq!((lo.index(), hi.index()), (0, 3));
        assert!(g.are_adjacent(NodeId::new(2), NodeId::new(5)));
        assert!(!g.are_adjacent(NodeId::new(0), NodeId::new(6)));
        assert!(g.edge_between(NodeId::new(0), NodeId::new(6)).is_none());
    }

    #[test]
    fn edges_iterator_covers_all_edges_once() {
        let g = paper_fig3_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 9);
        for (e, lo, hi, w) in edges {
            assert!(lo < hi);
            assert_eq!(g.edge_weight(e), w);
        }
    }

    #[test]
    fn topology_trait_matches_direct_access() {
        let g = paper_fig3_graph();
        let mut via_trait = Vec::new();
        Topology::visit_neighbors(&g, NodeId::new(2), &mut |n| via_trait.push(n));
        let direct: Vec<_> = g.neighbors(NodeId::new(2)).collect();
        assert_eq!(via_trait, direct);
        assert_eq!(Topology::num_nodes(&g), 7);
        // The lent slice is the visited list, element for element.
        for v in g.node_ids() {
            assert_eq!(g.adjacency(v), Some(&g.neighbors_vec(v)[..]), "node {v}");
        }
    }
}
