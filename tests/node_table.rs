//! Model check of `rnn_core::NodeTable` against `std::collections::HashMap`:
//! random insert / overwrite / entry / get_mut / clear sequences must leave
//! both with the same contents, with the table additionally reporting its
//! keys in first-insertion order — for `NodeId` keys (the default) and for
//! the `PointId` keys of the drivers' verify-once marks alike.

use proptest::prelude::*;
use rnn_core::NodeTable;
use rnn_graph::{NodeId, PointId};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// Indices that collide often (so overwrites and stale slots happen),
/// straddle the table's length after small inserts, and occasionally jump
/// far beyond it.
fn node_index() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..16, 14usize..20, 1000usize..1004, Just(70_000usize)]
}

/// Runs `ops` on a table keyed by `key(index)` and on the model.
fn matches_the_model<K>(ops: Vec<(u8, usize, u32)>, key: fn(usize) -> K) -> TestCaseResult
where
    K: Copy + Eq + Hash + Debug + Into<u32>,
{
    let mut table: NodeTable<u32, K> = NodeTable::new();
    let mut model: HashMap<K, u32> = HashMap::new();
    let mut order: Vec<K> = Vec::new();
    for (kind, index, val) in ops {
        let k = key(index);
        match kind {
            0..=2 => {
                if !model.contains_key(&k) {
                    order.push(k);
                }
                prop_assert_eq!(table.insert(k, val), model.insert(k, val));
            }
            3 | 4 => {
                if !model.contains_key(&k) {
                    order.push(k);
                }
                let (t, m) = (table.entry(k, val), model.entry(k).or_insert(val));
                prop_assert_eq!(*t, *m);
                *t = t.wrapping_add(1);
                *m = m.wrapping_add(1);
            }
            5 => {
                let (t, m) = (table.get_mut(k), model.get_mut(&k));
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
        // The touched key, its neighbours (one of them is the first index
        // beyond the table after a growing insert) and a stale low slot all
        // read like the model.
        for probe in [index.saturating_sub(1), index, index + 1, 0, 15] {
            let probe = key(probe);
            prop_assert_eq!(table.get(probe), model.get(&probe), "get({:?})", probe);
            prop_assert_eq!(table.contains(probe), model.contains_key(&probe));
        }
        prop_assert_eq!(table.len(), model.len());
        prop_assert_eq!(table.is_empty(), model.is_empty());
        prop_assert_eq!(table.nodes(), &order[..]);
    }
    let listed: Vec<(K, u32)> = table.iter().map(|(k, v)| (k, *v)).collect();
    let expected: Vec<(K, u32)> = order.iter().map(|k| (*k, model[k])).collect();
    prop_assert_eq!(listed, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn node_table_matches_a_hash_map(
        ops in proptest::collection::vec((0u8..7, node_index(), any::<u32>()), 0..200),
        point_keys in any::<bool>()
    ) {
        if point_keys {
            matches_the_model(ops, PointId::new)?;
        } else {
            matches_the_model(ops, NodeId::new)?;
        }
    }
}
