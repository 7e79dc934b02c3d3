//! Model check of `rnn_core::NodeTable` against `std::collections::HashMap`:
//! random insert / overwrite / entry / get_mut / clear sequences must leave
//! both with the same contents, with the table additionally reporting its
//! nodes in first-insertion order.

use proptest::prelude::*;
use rnn_core::NodeTable;
use rnn_graph::NodeId;
use std::collections::HashMap;

/// Node indices that collide often (so overwrites and stale slots happen),
/// straddle the table's length after small inserts, and occasionally jump
/// far beyond it.
fn node_index() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..16, 14usize..20, 1000usize..1004, Just(70_000usize)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn node_table_matches_a_hash_map(
        ops in proptest::collection::vec((0u8..7, node_index(), any::<u32>()), 0..200)
    ) {
        let mut table: NodeTable<u32> = NodeTable::new();
        let mut model: HashMap<NodeId, u32> = HashMap::new();
        let mut order: Vec<NodeId> = Vec::new();
        for (kind, index, val) in ops {
            let node = NodeId::new(index);
            match kind {
                0..=2 => {
                    if !model.contains_key(&node) {
                        order.push(node);
                    }
                    prop_assert_eq!(table.insert(node, val), model.insert(node, val));
                }
                3 | 4 => {
                    if !model.contains_key(&node) {
                        order.push(node);
                    }
                    let (t, m) = (table.entry(node, val), model.entry(node).or_insert(val));
                    prop_assert_eq!(*t, *m);
                    *t = t.wrapping_add(1);
                    *m = m.wrapping_add(1);
                }
                5 => {
                    let (t, m) = (table.get_mut(node), model.get_mut(&node));
                    prop_assert_eq!(t.is_some(), m.is_some());
                    if let (Some(t), Some(m)) = (t, m) {
                        *t ^= val;
                        *m ^= val;
                    }
                }
                _ => {
                    table.clear();
                    model.clear();
                    order.clear();
                }
            }
            // The touched node, its neighbours (one of them is the first
            // index beyond the table after a growing insert) and a stale
            // low slot all read like the model.
            for probe in [index.saturating_sub(1), index, index + 1, 0, 15] {
                let probe = NodeId::new(probe);
                prop_assert_eq!(table.get(probe), model.get(&probe), "get({})", probe);
                prop_assert_eq!(table.contains(probe), model.contains_key(&probe));
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            prop_assert_eq!(table.nodes(), &order[..]);
        }
        let listed: Vec<(NodeId, u32)> = table.iter().map(|(node, v)| (node, *v)).collect();
        let expected: Vec<(NodeId, u32)> = order.iter().map(|node| (*node, model[node])).collect();
        prop_assert_eq!(listed, expected);
    }
}
