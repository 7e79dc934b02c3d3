//! A direct-address table keyed by [`NodeId`] (or [`rnn_graph::PointId`]).
//!
//! Node and point ids are dense `u32` indices, so the per-node state of an
//! expansion (distance labels, visit marks, counters) and a query's per-point
//! marks need no hashing. [`NodeTable`] is a *sparse set*: `sparse[key]` names
//! a slot in the compact `keys` / `vals` arrays, which hold the touched keys
//! in touch order. A lookup is two dependent loads, and [`NodeTable::clear`]
//! only truncates the compact arrays — it never walks `sparse` — so a table
//! pooled across thousands of small expansions costs nothing to reset, no
//! matter how large the largest expansion it ever served was.
//!
//! `sparse` is never trusted on its own: a slot left over from before a
//! `clear()` (or from another graph — one table may serve topologies of
//! different sizes in turn) is valid only if it is in range *and* the compact
//! array names the same key there. The table grows on the first insert of a
//! key beyond its current length, at 4 bytes per id.
//!
//! That growth is the one thing a *fresh* table pays and a hash map does not:
//! the first insert of id `i` zero-fills `sparse` up to `i` (about 10 µs on
//! a 10⁵-node graph). Code that runs many small expansions therefore keeps
//! its tables between them — in a `Scratch`, or inside the structure they
//! serve, as `MaterializedKnn` does for its updates — and only the one-shot
//! convenience wrappers build them per call.

use rnn_graph::NodeId;

/// A map from `K` to `V` by direct addressing (see the module docs).
#[derive(Clone, Debug)]
pub struct NodeTable<V, K = NodeId> {
    /// Id → slot in `keys` / `vals`; stale unless confirmed there.
    sparse: Vec<u32>,
    /// The live keys, in the order they were first inserted.
    keys: Vec<K>,
    /// `vals[i]` belongs to `keys[i]`.
    vals: Vec<V>,
}

impl<V, K> Default for NodeTable<V, K> {
    fn default() -> Self {
        NodeTable { sparse: Vec::new(), keys: Vec::new(), vals: Vec::new() }
    }
}

impl<V, K: Copy + Eq + Into<u32>> NodeTable<V, K> {
    /// Creates an empty table; it sizes itself to the keys it is given.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, key: K) -> Option<usize> {
        let slot = *self.sparse.get(key.into() as usize)? as usize;
        (self.keys.get(slot) == Some(&key)).then_some(slot)
    }

    #[inline]
    fn push(&mut self, key: K, val: V) -> usize {
        let index = key.into() as usize;
        if index >= self.sparse.len() {
            self.sparse.resize(index + 1, 0);
        }
        let slot = self.keys.len();
        // Live entries are distinct `u32` ids, so a slot fits in `u32`.
        self.sparse[index] = slot as u32;
        self.keys.push(key);
        self.vals.push(val);
        slot
    }

    /// The value stored for `key`, if any.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.slot(key).map(|slot| &self.vals[slot])
    }

    /// Mutable access to the value stored for `key`, if any.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slot(key).map(|slot| &mut self.vals[slot])
    }

    /// Whether `key` has a value.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.slot(key).is_some()
    }

    /// Stores `val` for `key`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        match self.slot(key) {
            Some(slot) => Some(std::mem::replace(&mut self.vals[slot], val)),
            None => {
                self.push(key, val);
                None
            }
        }
    }

    /// The value stored for `key`, storing `default` first if there is none.
    #[inline]
    pub fn entry(&mut self, key: K, default: V) -> &mut V {
        let slot = match self.slot(key) {
            Some(slot) => slot,
            None => self.push(key, default),
        };
        &mut self.vals[slot]
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has a value.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys with a value, in the order they were first inserted.
    pub fn nodes(&self) -> &[K] {
        &self.keys
    }

    /// `(key, value)` pairs in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.keys.iter().copied().zip(&self.vals)
    }

    /// Removes every entry in O(1) (plus dropping the values, free for the
    /// `Copy` payloads the expansions store), keeping all capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
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
