//! The *lazy-EP* algorithm: lazy with extended pruning (Section 4.2, Fig. 13
//! of the paper).
//!
//! Lazy may expand nodes that could have been pruned, because its pruning is
//! only triggered by verification queries. Lazy-EP expands the network in
//! parallel with a second heap `H'` seeded with every discovered data point:
//! whenever the top of `H'` is closer than the last distance de-heaped from
//! the main heap, `H'` advances and records, per node, the nearest discovered
//! points. A node de-heaped from the main heap whose k-th recorded point is
//! strictly closer than the query is pruned by Lemma 1 without issuing any
//! verification around it.
//!
//! The main heap is a [`NetworkExpansion`]; the lists of recorded points live
//! in a direct-address [`NodeTable`] and one flat array, so a query allocates
//! nothing per node it touches.

use crate::candidates::Candidates;
use crate::expansion::NetworkExpansion;
use crate::flat_heap::FlatHeap;
use crate::node_table::NodeTable;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::{Reset, Scratch};
use crate::verify::VerifyParams;
use rnn_graph::{
    for_each_neighbor, NodeId, NodeLocation, PointId, PointsOnNodes, Topology, Weight,
};

/// How many entries a found-list has room for when it is created (`k` if that
/// is smaller); a list that outgrows its room moves to twice as much.
const FIRST_LIST_ROOM: usize = 4;

/// Where one node's found-list lives in [`FoundLists::entries`]. The fields
/// are `u32` to keep the per-node state at 12 bytes; [`FoundLists::insert`]
/// refuses to let the array outgrow them.
#[derive(Copy, Clone, Debug)]
struct ListRange {
    start: u32,
    /// Recorded points: `entries[start..start + len]`, nearest first.
    len: u32,
    /// Slots owned from `start` on; at most `k`.
    room: u32,
}

/// Per-node lists of the nearest discovered points, each capped at `k`
/// entries (the `k` of the running query, passed to the methods that need
/// it) and kept in ascending distance order. All lists live in ranges of one
/// flat array, so recording a point at a node never allocates once the array
/// has grown to its working size; a node without a list reads as the empty
/// list. A list starts with room for `min(k, FIRST_LIST_ROOM)` entries and
/// moves to a range of twice the room at the end of the array when it fills
/// up, so the array follows the points actually recorded (at most a small
/// multiple of them) and not `k`, which is request input.
#[derive(Debug, Default)]
struct FoundLists {
    lists: NodeTable<ListRange>,
    entries: Vec<(Weight, PointId)>,
}

impl FoundLists {
    fn clear(&mut self) {
        self.lists.clear();
        self.entries.clear();
    }

    /// The points recorded at `node`, nearest first.
    fn get(&self, node: NodeId) -> &[(Weight, PointId)] {
        match self.lists.get(node) {
            Some(list) => &self.entries[list.start as usize..][..list.len as usize],
            None => &[],
        }
    }

    /// Whether `p` could still be recorded at `node`: its list is not full
    /// and does not hold `p` yet.
    fn admits(&self, node: NodeId, p: PointId, k: usize) -> bool {
        let list = self.get(node);
        list.len() < k && !list.iter().any(|&(_, q)| q == p)
    }

    fn kth_distance(&self, node: NodeId, k: usize) -> Weight {
        self.get(node).get(k - 1).map_or(Weight::INFINITY, |&(d, _)| d)
    }

    /// Records `p` at distance `dist` from `node`, after every recorded point
    /// that is not farther. Returns `false` if the list does not admit `p`.
    fn insert(&mut self, node: NodeId, dist: Weight, p: PointId, k: usize) -> bool {
        let list = self.lists.entry(node, ListRange { start: 0, len: 0, room: 0 });
        let (mut start, len) = (list.start as usize, list.len as usize);
        if len >= k || self.entries[start..start + len].iter().any(|&(_, q)| q == p) {
            return false;
        }
        if list.len == list.room {
            // A new list, or one out of room: (re)house it at the end of the
            // array. The range left behind is dead until the next `clear`.
            let room = len.saturating_mul(2).max(FIRST_LIST_ROOM).min(k);
            let end = self.entries.len();
            self.entries.extend_from_within(start..start + len);
            self.entries.resize(end + room, (Weight::INFINITY, p));
            // Every range lies inside the array, so this bounds all fields.
            assert!(self.entries.len() <= u32::MAX as usize, "found-lists exceed 2^32 entries");
            (list.start, list.room) = (end as u32, room as u32);
            start = end;
        }
        let slots = &mut self.entries[start..=start + len];
        let pos = slots[..len].partition_point(|&(d, _)| d <= dist);
        slots[pos..].rotate_right(1);
        slots[pos] = (dist, p);
        list.len += 1;
        true
    }
}

/// The reusable allocation state of the lazy-EP main loop beside its main
/// expansion (H), pooled by [`Scratch`].
#[derive(Debug, Default)]
pub(crate) struct LazyEpBuffers {
    /// Parallel point expansion heap (H'): `(distance, node, point)`.
    point_heap: FlatHeap,
    /// Per-node nearest discovered points.
    found: FoundLists,
}

impl Reset for LazyEpBuffers {
    fn reset(&mut self) {
        self.point_heap.clear();
        self.found.clear();
    }
}

/// Runs the lazy-EP (extended pruning) RkNN algorithm.
///
/// # Panics
/// Panics if `k == 0`.
pub fn lazy_ep_rknn<T, P>(topo: &T, points: &P, query: NodeId, k: usize) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    lazy_ep_rknn_in(topo, points, query, k, &mut Scratch::new())
}

/// [`lazy_ep_rknn`] on the recycled buffers of `scratch`: both expansions,
/// the found-lists and every verification expansion run allocation-free in
/// the steady state.
pub fn lazy_ep_rknn_in<T, P>(
    topo: &T,
    points: &P,
    query: NodeId,
    k: usize,
    scratch: &mut Scratch,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    assert!(k >= 1, "RkNN queries require k >= 1");
    let mut stats = QueryStats::default();
    let mut cands = Candidates::new(VerifyParams { k, collect_visited: false }, scratch);
    let mut bufs = scratch.take_lazy_ep();
    let target = NodeLocation::from(query);

    let mut exp = NetworkExpansion::reusing(
        topo,
        scratch.take_expansion(),
        std::iter::once((query, Weight::ZERO)),
    );
    let mut last_main_dist = Weight::ZERO;

    // H' gets a turn before every pop of the main heap, also when all that is
    // left to pop are stale entries.
    while !exp.frontier_is_empty() {
        // Advance H' while its frontier is behind the main frontier.
        while let Some((pd, pnode, pid)) = bufs.point_heap.peek() {
            if pd >= last_main_dist {
                break;
            }
            bufs.point_heap.pop();
            let (pnode, pid) = (NodeId(pnode), PointId(pid));
            if !bufs.found.insert(pnode, pd, pid, k) {
                continue;
            }
            stats.auxiliary_settled += 1;
            let found = &bufs.found;
            let point_heap = &mut bufs.point_heap;
            for_each_neighbor(topo, pnode, |nb| {
                if found.admits(nb.node, pid, k) {
                    point_heap.push(pd + nb.weight, nb.node.0, pid.0);
                }
            });
        }

        let Some((node, dist)) = exp.next_settled_unexpanded() else { break };
        stats.nodes_settled += 1;
        last_main_dist = dist;

        // Lemma 1 with the k-th discovered point of this node.
        if bufs.found.kth_distance(node, k) < dist {
            continue;
        }

        // Process the resident point, if any.
        if dist > Weight::ZERO {
            if let Some(p) = points.point_at(node) {
                if cands.discover(p) {
                    cands.verify(topo, points, p, &target, &mut stats, scratch);
                    // Seed the parallel expansion with the discovered point:
                    // record it at its own node (distance 0) and offer its
                    // neighbors to H'. The neighbors are only processed when
                    // the throttling rule lets H' advance.
                    bufs.found.insert(node, Weight::ZERO, p, k);
                    stats.auxiliary_settled += 1;
                    let point_heap = &mut bufs.point_heap;
                    for_each_neighbor(topo, node, |nb| point_heap.push(nb.weight, nb.node.0, p.0));
                }
            }
        }

        // Re-check the pruning condition: the node's own point (just recorded
        // at distance 0) participates exactly as in lazy, which is what stops
        // the k=1 expansion at nodes containing points.
        if bufs.found.kth_distance(node, k) < dist {
            continue;
        }

        exp.expand_from(node, dist);
    }

    // The push that seeded the expansion has never been part of this count.
    stats.heap_pushes = exp.pushes() - 1;
    scratch.put_expansion(exp.into_buffers());
    scratch.put_lazy_ep(bufs);
    cands.finish(stats, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::lazy_rknn;
    use crate::naive::naive_rknn;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    fn fig3() -> (Graph, NodePointSet, NodeId) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(3, 2, 4.0).unwrap();
        b.add_edge(3, 0, 5.0).unwrap();
        b.add_edge(2, 5, 3.0).unwrap();
        b.add_edge(2, 0, 6.0).unwrap();
        b.add_edge(0, 4, 3.0).unwrap();
        b.add_edge(4, 1, 2.0).unwrap();
        b.add_edge(1, 5, 8.0).unwrap();
        b.add_edge(1, 6, 7.0).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(7, [NodeId::new(5), NodeId::new(4), NodeId::new(6)]);
        (g, pts, NodeId::new(3))
    }

    #[test]
    fn matches_lazy_and_naive_on_running_example() {
        let (g, pts, q) = fig3();
        for k in 1..=3 {
            let lp = lazy_ep_rknn(&g, &pts, q, k);
            assert_eq!(lp.points, lazy_rknn(&g, &pts, q, k).points, "k={k}");
            assert_eq!(lp.points, naive_rknn(&g, &pts, q, k).points, "k={k}");
        }
    }

    #[test]
    fn extended_pruning_cuts_wasted_expansion() {
        // The Fig. 12 situation: the query q (node 0) is adjacent to a point
        // p (node 1), and a second branch q - n3 (node 2) - n4 (node 3) leads
        // into a long tail. The verification of p prunes nothing on that
        // branch, so plain lazy walks the whole tail; lazy-EP's parallel
        // expansion of p reaches n4 first (d(p, n4) = 2 < d(q, n4) = 4) and
        // stops the main expansion there.
        let tail = 400;
        let n = 4 + tail;
        let mut b = GraphBuilder::new(n);
        b.add_edge(0, 1, 1.0).unwrap(); // q - p
        b.add_edge(0, 2, 3.0).unwrap(); // q - n3
        b.add_edge(2, 3, 1.0).unwrap(); // n3 - n4
        b.add_edge(1, 3, 2.0).unwrap(); // p - n4
        for i in 3..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap(); // the long tail behind n4
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(n, [NodeId::new(1)]);
        let q = NodeId::new(0);

        let lp = lazy_ep_rknn(&g, &pts, q, 1);
        let l = lazy_rknn(&g, &pts, q, 1);
        assert_eq!(lp.points, l.points);
        assert_eq!(lp.len(), 1);
        assert!(
            lp.stats.nodes_settled < l.stats.nodes_settled,
            "lazy-EP ({}) should settle fewer main-heap nodes than lazy ({})",
            lp.stats.nodes_settled,
            l.stats.nodes_settled
        );
        assert!(
            lp.stats.nodes_settled <= 5,
            "lazy-EP should stop right after n4, settled {}",
            lp.stats.nodes_settled
        );
    }

    #[test]
    fn handles_empty_point_sets_and_query_point_exclusion() {
        let (g, pts, _) = fig3();
        assert!(lazy_ep_rknn(&g, &NodePointSet::empty(7), NodeId::new(3), 2).is_empty());
        let out = lazy_ep_rknn(&g, &pts, NodeId::new(4), 1);
        assert!(!out.contains(pts.point_at(NodeId::new(4)).unwrap()));
        assert_eq!(out.points, naive_rknn(&g, &pts, NodeId::new(4), 1).points);
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, pts, q) = fig3();
        let _ = lazy_ep_rknn(&g, &pts, q, 0);
    }

    #[test]
    fn found_lists_keep_ascending_order_with_ties_after_their_equals() {
        let (w, p) = (Weight::new, PointId::new);
        let k = 3;
        let mut found = FoundLists::default();
        let (a, b) = (NodeId::new(9), NodeId::new(2));
        assert!(found.get(a).is_empty() && found.admits(a, p(0), k));
        assert_eq!(found.kth_distance(a, k), Weight::INFINITY);

        assert!(found.insert(a, w(2.0), p(0), k));
        // Another node's list in between: each keeps to its own range.
        assert!(found.insert(b, w(1.0), p(7), k));
        assert!(found.insert(a, w(1.0), p(1), k));
        // Equal distance: recorded after the entry that was there first.
        assert!(found.insert(a, w(1.0), p(2), k));
        assert_eq!(found.get(a), &[(w(1.0), p(1)), (w(1.0), p(2)), (w(2.0), p(0))]);
        assert_eq!(found.kth_distance(a, k), w(2.0));
        assert_eq!(found.get(b), &[(w(1.0), p(7))]);
        assert_eq!(found.kth_distance(b, k), Weight::INFINITY);

        // Full lists and already recorded points are refused, untouched.
        assert!(!found.admits(a, p(3), k) && !found.insert(a, w(0.5), p(3), k));
        assert!(!found.admits(b, p(7), k) && !found.insert(b, w(0.5), p(7), k));
        assert_eq!(found.get(a).len(), 3);
        assert_eq!(found.get(b), &[(w(1.0), p(7))]);

        found.clear();
        assert!(found.get(a).is_empty() && found.get(b).is_empty());
        assert!(found.insert(b, w(4.0), p(5), k));
        assert_eq!(found.get(b), &[(w(4.0), p(5))]);
    }

    #[test]
    fn found_lists_outgrow_their_room_without_losing_order_or_neighbors() {
        let (w, p) = (Weight::new, PointId::new);
        let k = 11;
        let mut found = FoundLists::default();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        // Descending distances, so every insert shifts the whole list; `b`
        // fills up in between and sits right behind each range `a` outgrows.
        for i in 0..k {
            assert!(found.insert(a, w((k - i) as f64), p(i), k), "a admits point {i}");
            assert!(found.insert(b, w(i as f64), p(100 + i), k), "b admits point {i}");
        }
        let ids = |list: &[(Weight, PointId)]| list.iter().map(|e| e.1.index()).collect::<Vec<_>>();
        assert_eq!(ids(found.get(a)), (0..k).rev().collect::<Vec<_>>());
        assert_eq!(ids(found.get(b)), (100..100 + k).collect::<Vec<_>>());
        assert_eq!((found.kth_distance(a, k), found.kth_distance(b, k)), (w(11.0), w(10.0)));
        assert!(!found.insert(a, w(0.0), p(50), k), "k entries is the cap, whatever the room");
        // Rooms of 4, 8 and 11 per list: dead ranges stay below the live one.
        assert_eq!(found.entries.len(), 2 * (4 + 8 + 11));
    }

    #[test]
    fn memory_follows_the_recorded_points_not_k() {
        // k is request input: with k far beyond |P| every node records all
        // the points, and the found-lists must hold just those.
        let side = 12;
        let mut b = GraphBuilder::new(side * side);
        for v in 0..side * side {
            if v % side + 1 < side {
                b.add_edge(v, v + 1, 1.0 + (v * 7 % 5) as f64 * 0.31).unwrap();
            }
            if v + side < side * side {
                b.add_edge(v, v + side, 1.0 + (v * 11 % 7) as f64 * 0.23).unwrap();
            }
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_predicate(side * side, |n| n.index() % 16 == 5);
        let num_points = pts.num_points();
        assert_eq!(num_points, 9);
        let q = NodeId::new(side * side / 2);
        let mut scratch = Scratch::new();
        for k in [num_points - 1, num_points, num_points + 1, 1_000, 200_000, usize::MAX] {
            let out = lazy_ep_rknn_in(&g, &pts, q, k, &mut scratch);
            assert_eq!(out.points, crate::eager::eager_rknn(&g, &pts, q, k).points, "k={k}");
            let bufs = scratch.take_lazy_ep();
            // Rooms of 4, 8 and 16 at most, for a list of up to 9 points.
            assert!(bufs.found.entries.capacity() <= 2 * side * side * (4 + 8 + 16), "k={k}");
            scratch.put_lazy_ep(bufs);
        }
    }
}
