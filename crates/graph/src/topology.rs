//! The topology access abstraction used by all query algorithms.
//!
//! The RNN algorithms of the paper traverse the network by repeatedly fetching
//! adjacency lists. Whether a fetch hits an in-memory CSR array or a disk page
//! behind an LRU buffer only changes *cost*, never *results*. [`Topology`]
//! captures exactly the operations the algorithms need, so the same
//! implementation runs on [`crate::Graph`] (correctness tests, small examples)
//! and on the paged graph of `rnn-storage` (cost experiments).
//!
//! An adjacency list can be fetched in two forms. [`Topology::visit_neighbors`]
//! is the one every topology has: the list is handed to a visitor arc by arc,
//! wherever it lives. [`Topology::adjacency`] is the one a topology offers
//! when the list already sits in memory it owns as a `[Neighbor]`: it lends
//! the slice, and the caller's loop over it needs no call per arc. The
//! in-memory [`crate::Graph`] lends; the paged graph cannot — its records are
//! encoded in pool frames behind a shard lock, which a borrowed slice would
//! have to outlive, so lending would mean copying the list out first.
//! [`for_each_neighbor`] picks the form a topology has, so a traversal is
//! written once.

use crate::graph::Neighbor;
use crate::ids::NodeId;

/// Read access to the adjacency structure of an undirected weighted graph.
///
/// Implementations may have interior mutability (e.g. an LRU buffer and I/O
/// counters), which is why the visitor style method takes `&self`.
///
/// `Sync` is a supertrait because topologies are shared by reference across
/// the worker threads of batched query execution (`rnn-core`'s query engine):
/// any interior mutability must already be thread-safe.
pub trait Topology: Sync {
    /// Number of nodes `|V|` of the graph.
    fn num_nodes(&self) -> usize;

    /// Calls `visit` for every neighbor of `node`.
    ///
    /// Fetching the adjacency list of a node is the unit of I/O in the
    /// paper's cost model; paged implementations count one page access per
    /// call (plus a buffer fault when the page is not resident).
    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor));

    /// The adjacency list of `node` as a borrowed slice, in the order
    /// [`Topology::visit_neighbors`] visits it, if this topology holds it in
    /// that form; `None` (the default) if it can only be visited.
    ///
    /// Not a second way to count: a topology that accounts for fetches (page
    /// accesses, spans) does so in `visit_neighbors` and leaves this at
    /// `None`. Loops go through [`for_each_neighbor`].
    fn adjacency(&self, node: NodeId) -> Option<&[Neighbor]> {
        let _ = node;
        None
    }

    /// Convenience helper collecting the adjacency list of `node` into a
    /// vector. Prefer [`Topology::visit_neighbors`] in hot paths to avoid the
    /// allocation.
    fn neighbors_vec(&self, node: NodeId) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.visit_neighbors(node, &mut |n| out.push(n));
        out
    }

    /// Returns `true` if `node` is a valid node id of this graph.
    fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.num_nodes()
    }

    /// Whether this topology wants [`Topology::prefetch_hint`] calls.
    ///
    /// Expansion loops know the next frontier nodes before they expand them;
    /// when this returns `true` they pass those nodes along so a paged
    /// topology can warm its buffer ahead of the demand fetches. The default
    /// is `false`, and callers must check it *once* per expansion and skip
    /// hint collection entirely when it is off — that keeps the in-memory
    /// path at zero cost.
    fn wants_prefetch_hints(&self) -> bool {
        false
    }

    /// Best-effort notice that the adjacency lists of `nodes` are likely to
    /// be fetched soon.
    ///
    /// Purely advisory: implementations MUST NOT let hints change query
    /// results or demand-side I/O accounting (hints may only move work into
    /// separately accounted speculative reads), and callers MUST NOT rely on
    /// any effect. The default does nothing.
    fn prefetch_hint(&self, nodes: &[NodeId]) {
        let _ = nodes;
    }
}

impl<T: Topology + ?Sized> Topology for &T {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        (**self).visit_neighbors(node, visit)
    }

    fn adjacency(&self, node: NodeId) -> Option<&[Neighbor]> {
        (**self).adjacency(node)
    }

    fn neighbors_vec(&self, node: NodeId) -> Vec<Neighbor> {
        (**self).neighbors_vec(node)
    }

    fn contains_node(&self, node: NodeId) -> bool {
        (**self).contains_node(node)
    }

    fn wants_prefetch_hints(&self) -> bool {
        (**self).wants_prefetch_hints()
    }

    fn prefetch_hint(&self, nodes: &[NodeId]) {
        (**self).prefetch_hint(nodes)
    }
}

/// Calls `each` for every neighbor of `node`, in adjacency-list order: over
/// the lent slice when the topology has one ([`Topology::adjacency`]), through
/// [`Topology::visit_neighbors`] otherwise.
///
/// With the slice the loop is the caller's own — `each` is inlined into it,
/// where the visitor costs an indirect call per arc — and that holds behind
/// `&dyn Topology` too, at one virtual call per node.
#[inline]
pub fn for_each_neighbor<T: Topology + ?Sized>(
    topo: &T,
    node: NodeId,
    mut each: impl FnMut(Neighbor),
) {
    match topo.adjacency(node) {
        Some(arcs) => arcs.iter().copied().for_each(each),
        None => topo.visit_neighbors(node, &mut each),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn neighbors_vec_matches_visitor() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        let g = b.build().unwrap();

        let via_vec = g.neighbors_vec(NodeId::new(1));
        let mut via_visit = Vec::new();
        g.visit_neighbors(NodeId::new(1), &mut |n| via_visit.push(n));
        assert_eq!(via_vec, via_visit);
        assert_eq!(via_vec.len(), 2);
    }

    #[test]
    fn reference_impl_delegates() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let r: &dyn Topology = &g;
        assert_eq!(Topology::num_nodes(&r), 2);
        assert!(r.contains_node(NodeId::new(1)));
        assert!(!r.contains_node(NodeId::new(2)));
        assert_eq!(r.neighbors_vec(NodeId::new(0)).len(), 1);
        // Prefetch hints default off (and to a no-op) — in-memory graphs
        // have nothing to warm; the reference impl delegates both.
        assert!(!r.wants_prefetch_hints());
        r.prefetch_hint(&[NodeId::new(0)]);
        // The slice is lent through the reference impl too, also when the
        // trait object is made from a reference to a reference.
        let rr: &dyn Topology = &&g;
        assert_eq!(rr.adjacency(NodeId::new(0)), Some(&g.neighbors_vec(NodeId::new(0))[..]));
        assert_eq!(Topology::adjacency(&r, NodeId::new(1)), g.adjacency(NodeId::new(1)));
    }

    #[test]
    fn for_each_neighbor_walks_the_slice_or_the_visitor_alike() {
        /// Keeps its slices to itself and counts the fetches.
        struct VisitorOnly(crate::Graph, std::sync::atomic::AtomicU32);
        impl Topology for VisitorOnly {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
                self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.0.visit_neighbors(node, visit)
            }
        }
        let mut b = GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 0.5)] {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build().unwrap();
        let visitor_only = VisitorOnly(g.clone(), Default::default());
        for node in g.node_ids() {
            let (mut lent, mut visited) = (Vec::new(), Vec::new());
            for_each_neighbor(&g, node, |nb| lent.push(nb));
            for_each_neighbor(&visitor_only as &dyn Topology, node, |nb| visited.push(nb));
            assert_eq!(lent, g.neighbors_vec(node));
            assert_eq!(visited, lent);
        }
        assert_eq!(visitor_only.adjacency(NodeId::new(1)), None);
        assert_eq!(visitor_only.1.into_inner(), 4, "one fetch per node, none for the slice probe");
    }
}
