//! A direct-address table keyed by [`NodeId`].
//!
//! Node ids are dense `u32` indices below `Topology::num_nodes()`, so the
//! per-node state of an expansion (distance labels, visit marks, counters)
//! needs no hashing. [`NodeTable`] is a *sparse set*: `sparse[node]` names a
//! slot in the compact `nodes` / `vals` arrays, which hold the touched nodes
//! in touch order. A lookup is two dependent loads, and [`NodeTable::clear`]
//! only truncates the compact arrays — it never walks `sparse` — so a table
//! pooled across thousands of small expansions costs nothing to reset, no
//! matter how large the largest expansion it ever served was.
//!
//! `sparse` is never trusted on its own: a slot left over from before a
//! `clear()` (or from another graph — one table may serve topologies of
//! different sizes in turn) is valid only if it is in range *and* the compact
//! array names the same node there. The table grows on the first insert of a
//! node beyond its current length, at 4 bytes per node.
//!
//! That growth is the one thing a *fresh* table pays and a hash map does not:
//! the first insert of node `i` zero-fills `sparse` up to `i` (about 10 µs on
//! a 10⁵-node graph). Code that runs many small expansions therefore keeps
//! its tables between them — in a `Scratch`, or inside the structure they
//! serve, as `MaterializedKnn` does for its updates — and only the one-shot
//! convenience wrappers build them per call.

use rnn_graph::NodeId;

/// A map from [`NodeId`] to `V` by direct addressing (see the module docs).
#[derive(Clone, Debug)]
pub struct NodeTable<V> {
    /// Node index → slot in `nodes` / `vals`; stale unless confirmed there.
    sparse: Vec<u32>,
    /// The live nodes, in the order they were first inserted.
    nodes: Vec<NodeId>,
    /// `vals[i]` belongs to `nodes[i]`.
    vals: Vec<V>,
}

impl<V> Default for NodeTable<V> {
    fn default() -> Self {
        NodeTable { sparse: Vec::new(), nodes: Vec::new(), vals: Vec::new() }
    }
}

impl<V> NodeTable<V> {
    /// Creates an empty table; it sizes itself to the nodes it is given.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, node: NodeId) -> Option<usize> {
        let slot = *self.sparse.get(node.index())? as usize;
        (self.nodes.get(slot) == Some(&node)).then_some(slot)
    }

    #[inline]
    fn push(&mut self, node: NodeId, val: V) -> usize {
        let index = node.index();
        if index >= self.sparse.len() {
            self.sparse.resize(index + 1, 0);
        }
        let slot = self.nodes.len();
        // Live entries are distinct `u32` node ids, so a slot fits in `u32`.
        self.sparse[index] = slot as u32;
        self.nodes.push(node);
        self.vals.push(val);
        slot
    }

    /// The value stored for `node`, if any.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&V> {
        self.slot(node).map(|slot| &self.vals[slot])
    }

    /// Mutable access to the value stored for `node`, if any.
    #[inline]
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut V> {
        self.slot(node).map(|slot| &mut self.vals[slot])
    }

    /// Whether `node` has a value.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot(node).is_some()
    }

    /// Stores `val` for `node`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, node: NodeId, val: V) -> Option<V> {
        match self.slot(node) {
            Some(slot) => Some(std::mem::replace(&mut self.vals[slot], val)),
            None => {
                self.push(node, val);
                None
            }
        }
    }

    /// The value stored for `node`, storing `default` first if there is none.
    #[inline]
    pub fn entry(&mut self, node: NodeId, default: V) -> &mut V {
        let slot = match self.slot(node) {
            Some(slot) => slot,
            None => self.push(node, default),
        };
        &mut self.vals[slot]
    }

    /// Number of nodes with a value.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node has a value.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes with a value, in the order they were first inserted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `(node, value)` pairs in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.nodes.iter().copied().zip(&self.vals)
    }

    /// Removes every entry in O(1) (plus dropping the values, free for the
    /// `Copy` payloads the expansions store), keeping all capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn behaves_like_a_map() {
        let mut t: NodeTable<u32> = NodeTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(n(3)), None);
        assert_eq!(t.insert(n(3), 30), None);
        assert_eq!(t.insert(n(0), 1), None);
        assert_eq!(t.insert(n(3), 31), Some(30));
        *t.entry(n(7), 70) += 1;
        *t.entry(n(7), 0) += 1;
        *t.get_mut(n(0)).unwrap() = 2;
        assert_eq!(t.insert(n(9), 4), None);
        assert_eq!(t.insert(n(9), 90), Some(4));
        assert_eq!((t.get(n(3)), t.get(n(0)), t.get(n(7))), (Some(&31), Some(&2), Some(&72)));
        assert!(t.contains(n(7)) && !t.contains(n(6)) && !t.contains(n(1_000_000)));
        assert_eq!(t.len(), 4);
        assert_eq!(t.nodes(), &[n(3), n(0), n(7), n(9)]);
        assert_eq!(
            t.iter().map(|(node, v)| (node.index(), *v)).collect::<Vec<_>>(),
            [(3, 31), (0, 2), (7, 72), (9, 90)]
        );
    }

    #[test]
    fn stale_slots_are_never_trusted_after_clear() {
        let mut t: NodeTable<u32> = NodeTable::new();
        for i in 0..10 {
            t.insert(n(i), i as u32);
        }
        t.clear();
        assert!(t.is_empty());
        // `sparse[9]` still says slot 9 and `sparse[4]` slot 4: out of range
        // now, and after two inserts slot 0 and 1 belong to other nodes.
        assert_eq!(t.get(n(9)), None);
        t.insert(n(5), 50);
        t.insert(n(6), 60);
        assert_eq!(t.get(n(0)), None, "sparse[0] == 0 but slot 0 holds node 5");
        assert_eq!(t.get(n(1)), None, "sparse[1] == 1 but slot 1 holds node 6");
        assert_eq!((t.get(n(5)), t.get(n(6))), (Some(&50), Some(&60)));
        assert_eq!(t.insert(n(1), 10), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn grows_on_first_touch_beyond_its_length() {
        let mut t: NodeTable<()> = NodeTable::new();
        assert!(!t.contains(n(4_999)));
        assert_eq!(t.insert(n(4_999), ()), None);
        assert_eq!(t.insert(n(4_999), ()), Some(()));
        assert_eq!(t.insert(n(70_000), ()), None);
        assert!(t.contains(n(4_999)) && t.contains(n(70_000)) && !t.contains(n(69_999)));
    }
}
