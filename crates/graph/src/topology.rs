//! The topology access abstraction used by all query algorithms.
//!
//! The RNN algorithms of the paper traverse the network by repeatedly fetching
//! adjacency lists. Whether a fetch hits an in-memory CSR array or a disk page
//! behind an LRU buffer only changes *cost*, never *results*. [`Topology`]
//! captures exactly the operations the algorithms need, so the same
//! implementation runs on [`crate::Graph`] (correctness tests, small examples)
//! and on the paged graph of `rnn-storage` (cost experiments).
//!
//! The unit of that traversal is "fetch the adjacency list of a node", and
//! [`Topology::with_adjacency`] is that call: one call per node, which lends
//! the list as a `&[Neighbor]` **for the length of a callback**. Every
//! topology can lend that way, wherever the list lives. The in-memory
//! [`crate::Graph`] passes the slice it owns. The paged graph's records are
//! encoded in pool frames behind a shard lock, which no borrowed slice may
//! outlive — so it decodes the one record into a buffer on the caller's
//! stack while it holds the lock, releases the lock, and lends the buffer.
//! A topology that implements only the per-arc visitor
//! ([`Topology::visit_neighbors`]) gets the same shape from the provided
//! default, which gathers the visited arcs into such a buffer first.
//!
//! Two older forms remain beside it until their last callers are gone.
//! [`Topology::visit_neighbors`] hands the list to a visitor arc by arc (one
//! indirect call per arc) and is still the method an implementation must
//! write. [`Topology::adjacency`] returns the slice itself, with no callback,
//! and is what a topology offers when the list sits in memory it owns
//! ([`crate::Graph`] only). [`for_each_neighbor`] picks between the owned
//! slice and the lent one, so a traversal is written once.

use crate::graph::Neighbor;
use crate::ids::{EdgeId, NodeId};
use crate::weight::Weight;

/// Arcs the provided [`Topology::with_adjacency`] gathers on the stack; a
/// longer list moves to the heap. Road and grid networks have degree ≤ 8, so
/// the heap is for hubs only.
const INLINE_ARCS: usize = 16;

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
    /// that form; `None` (the default) if it can only lend the list for the
    /// length of a call ([`Topology::with_adjacency`]).
    ///
    /// Not a second way to count: a topology that accounts for fetches (page
    /// accesses, spans) does so in `with_adjacency` / `visit_neighbors` and
    /// leaves this at `None`. Loops go through [`for_each_neighbor`].
    fn adjacency(&self, node: NodeId) -> Option<&[Neighbor]> {
        let _ = node;
        None
    }

    /// Fetches the adjacency list of `node` once and lends it to `f` as one
    /// slice, in the order [`Topology::visit_neighbors`] visits it. `f` is
    /// called exactly once, also for an isolated node (with an empty slice).
    ///
    /// This is the paper's unit of I/O as one call: a paged implementation
    /// counts its page access(es) here, and `f` runs with no lock of the
    /// topology held, so it may fetch other lists from inside the call.
    ///
    /// The default lends [`Topology::adjacency`] if there is one and
    /// otherwise gathers [`Topology::visit_neighbors`] into a buffer on the
    /// stack (on the heap beyond `INLINE_ARCS` = 16 arcs) — one fetch either
    /// way.
    fn with_adjacency(&self, node: NodeId, f: &mut dyn FnMut(&[Neighbor])) {
        if let Some(arcs) = self.adjacency(node) {
            return f(arcs);
        }
        let unset = Neighbor { node: NodeId(0), weight: Weight::ZERO, edge: EdgeId(0) };
        let mut inline = [unset; INLINE_ARCS];
        let mut spill: Vec<Neighbor> = Vec::new();
        let mut len = 0;
        self.visit_neighbors(node, &mut |nb| {
            if len < INLINE_ARCS {
                inline[len] = nb;
            } else {
                if len == INLINE_ARCS {
                    spill.extend_from_slice(&inline);
                }
                spill.push(nb);
            }
            len += 1;
        });
        f(if len <= INLINE_ARCS { &inline[..len] } else { &spill });
    }

    /// The adjacency list of `node` as an owned vector, allocated once at
    /// its exact size. For tests and set-up code; loops go through
    /// [`for_each_neighbor`].
    fn neighbors_vec(&self, node: NodeId) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.with_adjacency(node, &mut |arcs| out = arcs.to_vec());
        out
    }

    /// Returns `true` if `node` is a valid node id of this graph.
    fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.num_nodes()
    }

    /// No caller; kept while `benchmark/src/span.rs` overrides it, until `visit_neighbors` goes.
    fn wants_prefetch_hints(&self) -> bool {
        false
    }

    /// No caller; kept while `benchmark/src/span.rs` overrides it, until `visit_neighbors` goes.
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

    fn with_adjacency(&self, node: NodeId, f: &mut dyn FnMut(&[Neighbor])) {
        (**self).with_adjacency(node, f)
    }

    fn neighbors_vec(&self, node: NodeId) -> Vec<Neighbor> {
        (**self).neighbors_vec(node)
    }

    fn contains_node(&self, node: NodeId) -> bool {
        (**self).contains_node(node)
    }
}

/// Calls `each` for every neighbor of `node`, in adjacency-list order: over
/// the slice the topology owns when it has one ([`Topology::adjacency`]),
/// over the slice it lends for one call otherwise
/// ([`Topology::with_adjacency`]).
///
/// Either way the loop is the caller's own — `each` is inlined into it, where
/// the visitor costs an indirect call per arc — and that holds behind
/// `&dyn Topology` too, at one or two virtual calls per node.
#[inline]
pub fn for_each_neighbor<T: Topology + ?Sized>(
    topo: &T,
    node: NodeId,
    mut each: impl FnMut(Neighbor),
) {
    match topo.adjacency(node) {
        Some(arcs) => arcs.iter().copied().for_each(each),
        None => topo.with_adjacency(node, &mut |arcs| arcs.iter().copied().for_each(&mut each)),
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
        // The slice is lent through the reference impl too, also when the
        // trait object is made from a reference to a reference.
        let rr: &dyn Topology = &&g;
        assert_eq!(rr.adjacency(NodeId::new(0)), Some(&g.neighbors_vec(NodeId::new(0))[..]));
        assert_eq!(Topology::adjacency(&r, NodeId::new(1)), g.adjacency(NodeId::new(1)));
    }

    #[test]
    fn the_default_lends_short_and_long_lists_in_visitor_order() {
        /// Node `v` has `v` arcs, to nodes `1..=v` at weights `1..=v`, and
        /// only the visitor to hand them over with.
        struct Fans;
        impl Topology for Fans {
            fn num_nodes(&self) -> usize {
                2 * INLINE_ARCS
            }
            fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
                for i in 1..=node.index() {
                    visit(Neighbor {
                        node: NodeId::new(i),
                        weight: Weight::new(i as f64),
                        edge: EdgeId::new(i),
                    });
                }
            }
        }
        // Empty, full inline buffer, first spill, and well past it.
        for degree in [0, 1, INLINE_ARCS, INLINE_ARCS + 1, 2 * INLINE_ARCS - 1] {
            let node = NodeId::new(degree);
            let mut visited = Vec::new();
            Fans.visit_neighbors(node, &mut |nb| visited.push(nb));
            assert_eq!(visited.len(), degree);
            let mut calls = 0;
            (&Fans as &dyn Topology).with_adjacency(node, &mut |arcs| {
                calls += 1;
                assert_eq!(arcs, visited, "degree {degree}");
            });
            assert_eq!(calls, 1, "degree {degree}: lent exactly once, empty or not");
            assert_eq!((&&Fans).neighbors_vec(node), visited, "degree {degree}");
            let mut looped = Vec::new();
            for_each_neighbor(&Fans, node, |nb| looped.push(nb));
            assert_eq!(looped, visited, "degree {degree}");
        }
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
