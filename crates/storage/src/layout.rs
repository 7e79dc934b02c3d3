//! Grouping of adjacency lists into disk pages.
//!
//! "In order to minimize the I/O cost in the presence of a buffer, a disk
//! page stores lists of neighboring nodes, grouped together" (Section 3.1,
//! following Chan & Zhang). [`LayoutStrategy::BfsLocality`] reproduces that
//! grouping: nodes are packed into pages in breadth-first order, so a node
//! and its neighbors usually live in the same or an adjacent page and the
//! local expansions of the query algorithms hit the buffer. The id-order and
//! shuffled layouts are provided for ablation studies (the paper's grouping
//! claim is exactly that BFS locality reduces faults).

use crate::error::StorageError;
use crate::node_index::{NodeIndex, NodeIndexEntry};
use crate::page::{Page, PageBuilder, PageEntry, PageId, PageRecord};
use rnn_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// How adjacency lists are assigned to pages.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum LayoutStrategy {
    /// Pack nodes in breadth-first order starting from node 0 (and from the
    /// lowest-id unvisited node of every further component). This is the
    /// locality-preserving grouping the paper uses.
    #[default]
    BfsLocality,
    /// Pack nodes in ascending node-id order.
    NodeOrder,
    /// Pack nodes in a deterministic pseudo-random order derived from the
    /// given seed. Destroys locality on purpose (worst-case ablation).
    Shuffled(u64),
}

/// The result of laying a graph out on pages.
#[derive(Clone, Debug)]
pub struct PageLayout {
    /// The encoded pages, in page id order.
    pub pages: Vec<Page>,
    /// The node-id index pointing into `pages`.
    pub index: NodeIndex,
    /// The node order that was used for packing (useful for diagnostics).
    pub packing_order: Vec<NodeId>,
}

impl PageLayout {
    /// Lays out `graph` on pages using `strategy`.
    pub fn build(graph: &Graph, strategy: LayoutStrategy) -> Result<Self, StorageError> {
        let order = packing_order(graph, strategy);
        Self::build_with_order(graph, order)
    }

    /// Lays out `graph` with an explicit node packing order (every node must
    /// appear exactly once).
    pub fn build_with_order(graph: &Graph, order: Vec<NodeId>) -> Result<Self, StorageError> {
        debug_assert_eq!(order.len(), graph.num_nodes());
        let max_entries = PageRecord::max_entries_per_page();

        let mut pages: Vec<Page> = Vec::new();
        let mut entries_index: Vec<NodeIndexEntry> =
            vec![NodeIndexEntry { first_page: PageId(0), offset: 0, span: 0 }; graph.num_nodes()];
        let mut current = PageBuilder::new();
        let mut scratch: Vec<PageEntry> = Vec::new();

        for &node in &order {
            scratch.clear();
            scratch.extend(graph.neighbors(node).map(|n| PageEntry {
                neighbor: n.node,
                edge: n.edge,
                weight: n.weight,
            }));

            if scratch.len() <= max_entries {
                if !current.fits(scratch.len()) {
                    pages.push(std::mem::replace(&mut current, PageBuilder::new()).build());
                }
                let first_page = PageId::new(pages.len());
                let offset = current.push_record(node, &scratch)?;
                entries_index[node.index()] = NodeIndexEntry { first_page, offset, span: 1 };
            } else {
                // Hub node: flush the current page and emit dedicated,
                // consecutive continuation pages (so on every one of them
                // the hub's record starts at offset 0).
                if !current.is_empty() {
                    pages.push(std::mem::replace(&mut current, PageBuilder::new()).build());
                }
                let first_page = PageId::new(pages.len());
                let mut span = 0u16;
                for chunk in scratch.chunks(max_entries) {
                    let mut b = PageBuilder::new();
                    b.push_record(node, chunk)?;
                    pages.push(b.build());
                    span += 1;
                }
                entries_index[node.index()] = NodeIndexEntry { first_page, offset: 0, span };
            }
        }
        if !current.is_empty() {
            pages.push(current.build());
        }

        Ok(PageLayout { pages, index: NodeIndex::new(entries_index), packing_order: order })
    }

    /// Number of pages produced.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Computes the node packing order for a strategy.
pub fn packing_order(graph: &Graph, strategy: LayoutStrategy) -> Vec<NodeId> {
    match strategy {
        LayoutStrategy::NodeOrder => graph.node_ids().collect(),
        LayoutStrategy::BfsLocality => bfs_order(graph),
        LayoutStrategy::Shuffled(seed) => {
            let mut order: Vec<NodeId> = graph.node_ids().collect();
            // Fisher-Yates with a SplitMix64 stream; deterministic for a seed.
            let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            for i in (1..order.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            order
        }
    }
}

fn bfs_order(graph: &Graph) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(NodeId::new(start));
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for nb in graph.neighbors(v) {
                if !visited[nb.node.index()] {
                    visited[nb.node.index()] = true;
                    queue.push_back(nb.node);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{GraphBuilder, Topology};

    fn grid_graph(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 1.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn star_graph(leaves: usize) -> Graph {
        let mut b = GraphBuilder::new(leaves + 1);
        for i in 1..=leaves {
            b.add_edge(0, i, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn every_node_has_an_index_entry_and_its_record_is_complete() {
        let g = grid_graph(8);
        for strategy in
            [LayoutStrategy::BfsLocality, LayoutStrategy::NodeOrder, LayoutStrategy::Shuffled(42)]
        {
            let layout = PageLayout::build(&g, strategy).unwrap();
            assert_eq!(layout.index.num_nodes(), g.num_nodes());
            assert!(layout.num_pages() >= 1);
            for v in g.node_ids() {
                let entry = layout.index.entry(v);
                let mut decoded = Vec::new();
                for p in entry.pages() {
                    layout.pages[p.index()].entries_of(p, v, &mut decoded).unwrap();
                }
                let expected = g.neighbors_vec(v);
                assert_eq!(decoded.len(), expected.len(), "{strategy:?} node {v}");
                for (d, e) in decoded.iter().zip(expected.iter()) {
                    assert_eq!(d.neighbor, e.node);
                    assert_eq!(d.edge, e.edge);
                    assert_eq!(d.weight, e.weight);
                }
            }
        }
    }

    #[test]
    fn bfs_layout_packs_neighbors_into_nearby_pages() {
        let g = grid_graph(32); // 1024 nodes, degree <= 4
        let bfs = PageLayout::build(&g, LayoutStrategy::BfsLocality).unwrap();
        let shuffled = PageLayout::build(&g, LayoutStrategy::Shuffled(7)).unwrap();

        // Measure locality: average |page(v) - page(u)| over all edges.
        let spread = |layout: &PageLayout| -> f64 {
            let mut total = 0.0;
            let mut count = 0.0;
            for (_, lo, hi, _) in g.edges() {
                let a = layout.index.entry(lo).first_page.index() as f64;
                let b = layout.index.entry(hi).first_page.index() as f64;
                total += (a - b).abs();
                count += 1.0;
            }
            total / count
        };
        assert!(
            spread(&bfs) < spread(&shuffled),
            "BFS layout should place adjacent nodes on nearby pages"
        );
    }

    #[test]
    fn hub_nodes_span_multiple_consecutive_pages() {
        let leaves = PageRecord::max_entries_per_page() * 2 + 10;
        let g = star_graph(leaves);
        let layout = PageLayout::build(&g, LayoutStrategy::NodeOrder).unwrap();
        let hub = layout.index.entry(NodeId::new(0));
        assert_eq!(hub.span, 3);
        let mut decoded = Vec::new();
        for p in hub.pages() {
            layout.pages[p.index()].entries_of(p, NodeId::new(0), &mut decoded).unwrap();
        }
        assert_eq!(decoded.len(), leaves);
    }

    #[test]
    fn packing_orders_are_permutations() {
        let g = grid_graph(5);
        for strategy in
            [LayoutStrategy::BfsLocality, LayoutStrategy::NodeOrder, LayoutStrategy::Shuffled(1)]
        {
            let mut order = packing_order(&g, strategy);
            order.sort_unstable();
            let expected: Vec<NodeId> = g.node_ids().collect();
            assert_eq!(order, expected, "{strategy:?}");
        }
        // shuffling with different seeds gives different orders
        assert_ne!(
            packing_order(&g, LayoutStrategy::Shuffled(1)),
            packing_order(&g, LayoutStrategy::Shuffled(2))
        );
        assert_eq!(LayoutStrategy::default(), LayoutStrategy::BfsLocality);
    }

    #[test]
    fn empty_graph_layout() {
        let g = GraphBuilder::new(0).build().unwrap();
        let layout = PageLayout::build(&g, LayoutStrategy::BfsLocality).unwrap();
        assert_eq!(layout.num_pages(), 0);
        assert_eq!(layout.index.num_nodes(), 0);
    }

    #[test]
    fn isolated_nodes_get_empty_records() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let layout = PageLayout::build(&g, LayoutStrategy::BfsLocality).unwrap();
        let entry = layout.index.entry(NodeId::new(2));
        let mut decoded = Vec::new();
        let mut found = false;
        for p in entry.pages() {
            found |= layout.pages[p.index()].entries_of(p, NodeId::new(2), &mut decoded).unwrap();
        }
        assert!(found, "isolated node still has an (empty) record");
        assert!(decoded.is_empty());
    }
}
