//! The node-id index of the storage scheme.
//!
//! The paper builds "an index on node id; for each node id in the index,
//! there is a pointer to the corresponding list and the data point that it
//! contains (if any)". [`NodeIndex`] is that structure: it maps every node to
//! its adjacency record: the page holding it and the byte offset of the
//! record inside that page, so a fetch decodes the record in place instead
//! of scanning the page for it. (Data-point membership is
//! kept in the separate [`rnn_graph::NodePointSet`] /
//! [`rnn_graph::EdgePointSet`] structures because several data sets — e.g. a
//! bichromatic pair, or different ad hoc predicates — can coexist over one
//! stored network.)
//!
//! The index is small (a few bytes per node) and is assumed to be memory
//! resident; the paper's I/O accounting likewise only counts adjacency-page
//! accesses.

use crate::page::PageId;
use rnn_graph::NodeId;
use serde::{Deserialize, Serialize};

/// Location of one node's adjacency record(s): the record pointer
/// `(first_page, offset, span)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeIndexEntry {
    /// First page holding (part of) the node's adjacency list.
    pub first_page: PageId,
    /// Byte offset of the record header inside `first_page`. Continuation
    /// pages of a hub node are dedicated to it, so there (and on the hub's
    /// first page) the record starts at offset 0.
    pub offset: u16,
    /// Number of consecutive pages the list spans (1 for all but very
    /// high-degree hub nodes).
    pub span: u16,
}

// The index is memory resident, one entry per node: page, offset and span
// pack into 8 bytes, and a new field must not silently grow that.
const _: () = assert!(std::mem::size_of::<NodeIndexEntry>() == 8);

impl NodeIndexEntry {
    /// Iterates over the pages holding this node's record.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        let first = self.first_page.index();
        (first..first + self.span as usize).map(PageId::new)
    }
}

/// Maps every node to the page(s) storing its adjacency record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeIndex {
    entries: Vec<NodeIndexEntry>,
}

impl NodeIndex {
    /// Creates an index from per-node entries (indexed by node id).
    pub fn new(entries: Vec<NodeIndexEntry>) -> Self {
        NodeIndex { entries }
    }

    /// Number of nodes covered by the index.
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// Returns the entry of `node`.
    #[inline]
    pub fn entry(&self, node: NodeId) -> NodeIndexEntry {
        self.entries[node.index()]
    }

    /// Iterates over all entries in node id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeIndexEntry)> + '_ {
        self.entries.iter().enumerate().map(|(i, &e)| (NodeId::new(i), e))
    }

    /// Approximate in-memory size of the index in bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<NodeIndexEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_lookup_and_iteration() {
        let idx = NodeIndex::new(vec![
            NodeIndexEntry { first_page: PageId(0), offset: 0, span: 1 },
            NodeIndexEntry { first_page: PageId(0), offset: 24, span: 1 },
            NodeIndexEntry { first_page: PageId(1), offset: 0, span: 2 },
        ]);
        assert_eq!(idx.num_nodes(), 3);
        assert_eq!(idx.entry(NodeId::new(0)).first_page, PageId(0));
        let pages: Vec<_> = idx.entry(NodeId::new(2)).pages().collect();
        assert_eq!(pages, vec![PageId(1), PageId(2)]);
        assert_eq!(idx.iter().count(), 3);
        assert!(idx.size_bytes() >= 3 * std::mem::size_of::<NodeIndexEntry>());
    }

    #[test]
    fn single_span_pages_iterator_yields_one_page() {
        let e = NodeIndexEntry { first_page: PageId(7), offset: 0, span: 1 };
        assert_eq!(e.pages().collect::<Vec<_>>(), vec![PageId(7)]);
    }
}
