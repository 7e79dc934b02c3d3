//! Event-based network expansion for unrestricted networks.
//!
//! Implements the paper's `unrestricted-range-NN` idea: when a node is
//! de-heaped, the data points on its adjacent edges are pushed back into the
//! heap with their tentative distances, so that *points* (and, optionally, a
//! target location such as the query) are reported in ascending distance
//! order, each exactly once, even though the same point can be reached
//! through both endpoints of its edge with different bounds.

use super::EdgePosition;
use crate::fast_hash::FastSet;
use crate::node_table::NodeTable;
use rnn_graph::{EdgePointSet, NodeId, PointId, Topology, Weight};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event produced by the expansion, in ascending distance order.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Event {
    /// A graph node settled at the given distance.
    Node(NodeId, Weight),
    /// A data point reached at the given (exact) distance.
    Point(PointId, Weight),
    /// The optional target location reached at the given (exact) distance.
    Target(Weight),
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Key {
    Node(NodeId),
    Point(PointId),
    Target,
}

#[derive(Copy, Clone, Debug, PartialEq)]
struct HeapEntry {
    dist: Weight,
    key: Key,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; ties resolved by key kind/id for determinism.
        other.dist.cmp(&self.dist).then_with(|| key_rank(&other.key).cmp(&key_rank(&self.key)))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn key_rank(key: &Key) -> (u8, u32) {
    match key {
        Key::Target => (0, 0),
        Key::Point(p) => (1, p.0),
        Key::Node(n) => (2, n.0),
    }
}

/// The allocation-bearing state of an [`UnrestrictedExpansion`]. The
/// algorithms keep one set for all the probes of a query (each probe starts
/// from the cleared buffers of the previous one) instead of sizing fresh
/// node tables per probe.
#[derive(Debug, Default)]
pub(crate) struct ProbeBuffers {
    heap: BinaryHeap<HeapEntry>,
    node_best: NodeTable<Weight>,
    node_settled: NodeTable<()>,
    point_emitted: FastSet<PointId>,
    hints: Vec<NodeId>,
}

/// Incremental expansion over an unrestricted network.
pub struct UnrestrictedExpansion<'a, T: Topology + ?Sized> {
    topo: &'a T,
    points: &'a EdgePointSet,
    target: Option<EdgePosition>,
    bufs: ProbeBuffers,
    target_emitted: bool,
    settled_nodes: u64,
    /// Cached [`Topology::wants_prefetch_hints`] (checked once per
    /// expansion); hints are collected only when `true`.
    wants_hints: bool,
}

impl<'a, T: Topology + ?Sized> UnrestrictedExpansion<'a, T> {
    /// Starts an expansion from a graph node.
    pub fn from_node(topo: &'a T, points: &'a EdgePointSet, source: NodeId) -> Self {
        Self::from_node_in(topo, points, source, ProbeBuffers::default())
    }

    /// [`UnrestrictedExpansion::from_node`] on recycled buffers.
    pub(crate) fn from_node_in(
        topo: &'a T,
        points: &'a EdgePointSet,
        source: NodeId,
        bufs: ProbeBuffers,
    ) -> Self {
        let mut exp = Self::empty(topo, points, None, bufs);
        exp.relax_node(source, Weight::ZERO);
        exp.hint_sources();
        exp
    }

    /// Starts an expansion from an edge position (a data point or a query
    /// location). Points lying on the same edge are seeded with their direct
    /// distances, as is the target if it shares the edge.
    pub fn from_position(
        topo: &'a T,
        points: &'a EdgePointSet,
        source: &EdgePosition,
        target: Option<EdgePosition>,
    ) -> Self {
        Self::from_position_in(topo, points, source, target, ProbeBuffers::default())
    }

    /// [`UnrestrictedExpansion::from_position`] on recycled buffers.
    pub(crate) fn from_position_in(
        topo: &'a T,
        points: &'a EdgePointSet,
        source: &EdgePosition,
        target: Option<EdgePosition>,
        bufs: ProbeBuffers,
    ) -> Self {
        let mut exp = Self::empty(topo, points, target, bufs);
        exp.relax_node(source.lo, source.dist_to_lo());
        exp.relax_node(source.hi, source.dist_to_hi());
        // Same-edge data points are reachable directly along the edge.
        for ep in points.points_on_edge(source.edge) {
            let direct = Weight::new((ep.offset.value() - source.offset.value()).abs());
            exp.bufs.heap.push(HeapEntry { dist: direct, key: Key::Point(ep.point) });
        }
        // Same-edge target.
        if let Some(t) = exp.target {
            if let Some(direct) = source.direct_distance(&t) {
                exp.bufs.heap.push(HeapEntry { dist: direct, key: Key::Target });
            }
        }
        exp.hint_sources();
        exp
    }

    /// Starts an expansion from a node with a target location to watch for.
    pub fn from_node_with_target(
        topo: &'a T,
        points: &'a EdgePointSet,
        source: NodeId,
        target: EdgePosition,
    ) -> Self {
        let mut exp = Self::empty(topo, points, Some(target), ProbeBuffers::default());
        exp.relax_node(source, Weight::ZERO);
        exp.hint_sources();
        exp
    }

    fn empty(
        topo: &'a T,
        points: &'a EdgePointSet,
        target: Option<EdgePosition>,
        mut bufs: ProbeBuffers,
    ) -> Self {
        bufs.heap.clear();
        bufs.node_best.clear();
        bufs.node_settled.clear();
        bufs.point_emitted.clear();
        UnrestrictedExpansion {
            topo,
            points,
            target,
            bufs,
            target_emitted: false,
            settled_nodes: 0,
            wants_hints: topo.wants_prefetch_hints(),
        }
    }

    /// Consumes the expansion, releasing its buffers for the next one.
    pub(crate) fn into_buffers(self) -> ProbeBuffers {
        self.bufs
    }

    /// Hints the source nodes to a hint-hungry topology: their adjacency
    /// lists are the first fetches of the expansion. No-op otherwise.
    fn hint_sources(&mut self) {
        if self.wants_hints && !self.bufs.node_best.is_empty() {
            self.topo.prefetch_hint(self.bufs.node_best.nodes());
        }
    }

    fn relax_node(&mut self, node: NodeId, dist: Weight) {
        if self.bufs.node_settled.contains(node) {
            return;
        }
        if self.bufs.node_best.insert_if_less(node, dist) {
            self.bufs.heap.push(HeapEntry { dist, key: Key::Node(node) });
        }
    }

    /// Number of nodes settled so far (the work/cost proxy).
    pub fn settled_nodes(&self) -> u64 {
        self.settled_nodes
    }

    /// Returns the next event in ascending distance order, *without*
    /// expanding settled nodes; callers controlling pruning (the eager main
    /// loop) must invoke [`UnrestrictedExpansion::expand_node`] themselves.
    pub fn next_event_unexpanded(&mut self) -> Option<Event> {
        while let Some(HeapEntry { dist, key }) = self.bufs.heap.pop() {
            match key {
                Key::Node(node) => {
                    if self.bufs.node_settled.contains(node) {
                        continue;
                    }
                    if self.bufs.node_best.get(node).is_some_and(|b| *b < dist) {
                        continue;
                    }
                    self.bufs.node_settled.insert(node, ());
                    self.settled_nodes += 1;
                    return Some(Event::Node(node, dist));
                }
                Key::Point(p) => {
                    if !self.bufs.point_emitted.insert(p) {
                        continue;
                    }
                    return Some(Event::Point(p, dist));
                }
                Key::Target => {
                    if self.target_emitted {
                        continue;
                    }
                    self.target_emitted = true;
                    return Some(Event::Target(dist));
                }
            }
        }
        None
    }

    /// Returns the next event, automatically expanding every settled node
    /// (the behaviour of range-NN, verification and the naive baseline).
    pub fn next_event(&mut self) -> Option<Event> {
        let event = self.next_event_unexpanded();
        if let Some(Event::Node(node, dist)) = event {
            self.expand_node(node, dist);
        }
        event
    }

    /// Expands a settled node: relaxes its neighbors and offers the data
    /// points on its adjacent edges (and the target, if it lies on one of
    /// them) to the event heap.
    pub fn expand_node(&mut self, node: NodeId, dist: Weight) {
        // Collect the adjacency once to avoid borrowing `self` inside the
        // topology callback.
        let neighbors = self.topo.neighbors_vec(node);
        // Freshly relaxed neighbors are upcoming fetches — collect them for
        // a frontier prefetch hint when the topology asks for them. Hints
        // never alter the relaxation itself.
        let mut hints = if self.wants_hints {
            let mut h = std::mem::take(&mut self.bufs.hints);
            h.clear();
            Some(h)
        } else {
            None
        };
        for nb in neighbors {
            // Data points on the adjacent edge.
            for ep in self.points.points_on_edge(nb.edge) {
                if self.bufs.point_emitted.contains(&ep.point) {
                    continue;
                }
                let direct =
                    if node < nb.node { ep.offset } else { nb.weight.saturating_sub(ep.offset) };
                self.bufs.heap.push(HeapEntry { dist: dist + direct, key: Key::Point(ep.point) });
            }
            // The target location, if it lies on the adjacent edge.
            if let Some(t) = self.target {
                if !self.target_emitted && t.edge == nb.edge {
                    let direct = if node < nb.node {
                        t.offset
                    } else {
                        t.edge_weight.saturating_sub(t.offset)
                    };
                    self.bufs.heap.push(HeapEntry { dist: dist + direct, key: Key::Target });
                }
            }
            // Ordinary node relaxation.
            if !self.bufs.node_settled.contains(nb.node) {
                let cand = dist + nb.weight;
                if self.bufs.node_best.insert_if_less(nb.node, cand) {
                    self.bufs.heap.push(HeapEntry { dist: cand, key: Key::Node(nb.node) });
                    if let Some(h) = hints.as_mut() {
                        h.push(nb.node);
                    }
                }
            }
        }
        if let Some(h) = hints {
            if !h.is_empty() {
                self.topo.prefetch_hint(&h);
            }
            self.bufs.hints = h;
        }
    }
}

/// The `k` nearest data points of a node with distance strictly smaller than
/// `range` (the paper's unrestricted-range-NN query), skipping points for
/// which `exclude` returns `true`. Also returns the number of nodes the probe
/// settled.
///
/// Excluded points (typically a point coinciding with the query location,
/// which ties with the query everywhere) do not occupy result slots and do
/// not stop the expansion: the probe keeps searching for `k` countable
/// points. Pass `|_| false` to exclude nothing. Runs on the recycled `bufs`.
pub(crate) fn unrestricted_range_nn<T, F>(
    topo: &T,
    points: &EdgePointSet,
    source: NodeId,
    k: usize,
    range: Weight,
    exclude: F,
    bufs: &mut ProbeBuffers,
) -> (Vec<(PointId, Weight)>, u64)
where
    T: Topology + ?Sized,
    F: Fn(PointId) -> bool,
{
    let mut found = Vec::new();
    if k == 0 || range == Weight::ZERO {
        return (found, 0);
    }
    let mut exp = UnrestrictedExpansion::from_node_in(topo, points, source, std::mem::take(bufs));
    while let Some(event) = exp.next_event() {
        match event {
            Event::Node(_, d) | Event::Point(_, d) | Event::Target(d) if d >= range => break,
            Event::Point(p, d) => {
                if exclude(p) {
                    continue;
                }
                found.push((p, d));
                if found.len() == k {
                    break;
                }
            }
            _ => {}
        }
    }
    let settled = exp.settled_nodes();
    *bufs = exp.into_buffers();
    (found, settled)
}

/// Verifies a candidate point on an unrestricted network: the candidate is a
/// reverse k nearest neighbor of `target` iff the target is reached before
/// `k` other data points lie strictly closer. Returns the verdict and the
/// number of nodes settled. Runs on the recycled `bufs`.
pub(crate) fn unrestricted_verify<T: Topology + ?Sized>(
    topo: &T,
    points: &EdgePointSet,
    candidate: PointId,
    candidate_pos: &EdgePosition,
    target: &EdgePosition,
    k: usize,
    bufs: &mut ProbeBuffers,
) -> (bool, u64) {
    let mut exp = UnrestrictedExpansion::from_position_in(
        topo,
        points,
        candidate_pos,
        Some(*target),
        std::mem::take(bufs),
    );
    let mut other_dists: Vec<Weight> = Vec::new();
    let mut accepted = false;
    while let Some(event) = exp.next_event() {
        match event {
            Event::Target(d) => {
                accepted = other_dists.iter().filter(|&&x| x < d).count() < k;
                break;
            }
            Event::Point(p, d) => {
                if p != candidate {
                    other_dists.push(d);
                }
            }
            Event::Node(_, d) => {
                if other_dists.len() >= k && d > other_dists[k - 1] {
                    break;
                }
            }
        }
    }
    let settled = exp.settled_nodes();
    *bufs = exp.into_buffers();
    (accepted, settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{EdgePointSetBuilder, Graph, GraphBuilder};

    /// Fig. 14-like network: a square of nodes with data points on edges.
    fn sample() -> (Graph, EdgePointSet) {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10.0).unwrap();
        b.add_edge(1, 2, 4.0).unwrap();
        b.add_edge(2, 3, 6.0).unwrap();
        b.add_edge(3, 0, 8.0).unwrap();
        let g = b.build().unwrap();
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let e23 = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        let mut pb = EdgePointSetBuilder::new(&g);
        pb.add_point(e01, 3.0).unwrap(); // p0: 3 from n0, 7 from n1
        pb.add_point(e01, 7.0).unwrap(); // p1: 7 from n0, 3 from n1
        pb.add_point(e23, 2.0).unwrap(); // p2: 2 from n2, 4 from n3
        let pts = pb.build();
        (g, pts)
    }

    #[test]
    fn events_arrive_in_ascending_distance_order_with_exact_distances() {
        let (g, pts) = sample();
        let mut exp = UnrestrictedExpansion::from_node(&g, &pts, NodeId::new(0));
        let mut last = Weight::ZERO;
        let mut point_dists = std::collections::HashMap::new();
        while let Some(ev) = exp.next_event() {
            let d = match ev {
                Event::Node(_, d) => d,
                Event::Point(p, d) => {
                    point_dists.insert(p.index(), d.value());
                    d
                }
                Event::Target(d) => d,
            };
            assert!(d >= last, "events must be non-decreasing");
            last = d;
        }
        // d(n0, p0) = 3 (direct), d(n0, p1) = 7 (direct along the edge;
        // through n1 it would be 10 + ... which is worse... actually through
        // the other side: n0-n3-n2-n1 = 8+6+4 = 18, +3 = 21; direct = 7).
        assert_eq!(point_dists[&0], 3.0);
        assert_eq!(point_dists[&1], 7.0);
        // d(n0, p2): via n3: 8 + 4 = 12; via n1, n2: 10 + 4 + 2 = 16 -> 12.
        assert_eq!(point_dists[&2], 12.0);
    }

    #[test]
    fn points_reachable_through_both_endpoints_are_reported_once_with_min_distance() {
        let (g, pts) = sample();
        // From node 2: p2 on edge (2,3) is 2 away via n2 and 10 via n3.
        let mut exp = UnrestrictedExpansion::from_node(&g, &pts, NodeId::new(2));
        let mut seen = Vec::new();
        while let Some(ev) = exp.next_event() {
            if let Event::Point(p, d) = ev {
                seen.push((p.index(), d.value()));
            }
        }
        assert_eq!(seen.iter().filter(|(p, _)| *p == 2).count(), 1);
        let d2 = seen.iter().find(|(p, _)| *p == 2).unwrap().1;
        assert_eq!(d2, 2.0);
    }

    #[test]
    fn from_position_handles_same_edge_points_and_target() {
        let (g, pts) = sample();
        let p0 = EdgePosition::of_point(&g, &pts, PointId::new(0));
        let p1 = EdgePosition::of_point(&g, &pts, PointId::new(1));
        // Expansion from p0 with p1's position as target: the direct
        // same-edge distance (4) must win over any path through nodes
        // (3 + 10 + ... or 3 + 8 + 6 + 4 + 3).
        let mut exp = UnrestrictedExpansion::from_position(&g, &pts, &p0, Some(p1));
        let mut target_dist = None;
        while let Some(ev) = exp.next_event() {
            if let Event::Target(d) = ev {
                target_dist = Some(d.value());
                break;
            }
        }
        assert_eq!(target_dist, Some(4.0));
    }

    #[test]
    fn range_nn_respects_strict_range_and_k() {
        let (g, pts) = sample();
        let bufs = &mut ProbeBuffers::default();
        let mut probe = |k, range| {
            unrestricted_range_nn(&g, &pts, NodeId::new(0), k, Weight::new(range), |_| false, bufs)
        };
        let (found, _) = probe(2, 3.0);
        assert!(found.is_empty(), "p0 at exactly distance 3 must be excluded");
        let (found, _) = probe(2, 7.5);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, PointId::new(0));
        let (found, _) = probe(1, 100.0);
        assert_eq!(found.len(), 1);
        let (found, settled) = probe(0, 5.0);
        assert!(found.is_empty());
        assert_eq!(settled, 0);
    }

    #[test]
    fn range_nn_exclusion_frees_the_slot() {
        let (g, pts) = sample();
        // From n0 with k = 1, p0 (distance 3) normally fills the only slot.
        // Excluding p0 lets the probe reach p1 (distance 7) instead.
        let (found, _) = unrestricted_range_nn(
            &g,
            &pts,
            NodeId::new(0),
            1,
            Weight::new(7.5),
            |p| p == PointId::new(0),
            &mut ProbeBuffers::default(),
        );
        assert_eq!(found, vec![(PointId::new(1), Weight::new(7.0))]);
    }

    #[test]
    fn verify_accepts_and_rejects_correctly() {
        let (g, pts) = sample();
        let p0 = EdgePosition::of_point(&g, &pts, PointId::new(0));
        let p1 = EdgePosition::of_point(&g, &pts, PointId::new(1));
        let p2 = EdgePosition::of_point(&g, &pts, PointId::new(2));
        // Distances: d(p0, p1) = 4 (same edge), d(p0, p2) = 3 + 8 + 4 = 15 or
        // 7 + 4 + 2 + ... -> 13; through n1: 7+4+2=13 -> 13.
        // Candidate p0, target p2 (distance 13... wait from p0: via lo
        // (n0): 3 + 12 = 15, via hi (n1): 7 + 4 + 2 = 13 -> 13): p1 is
        // strictly closer (4 < 13) so p0 is not a reverse NN of p2 for k=1
        // but is for k=2.
        // One set of buffers for all three probes, as the algorithms do.
        let bufs = &mut ProbeBuffers::default();
        let (ok, _) = unrestricted_verify(&g, &pts, PointId::new(0), &p0, &p2, 1, bufs);
        assert!(!ok);
        let (ok, _) = unrestricted_verify(&g, &pts, PointId::new(0), &p0, &p2, 2, bufs);
        assert!(ok);
        // Candidate p0, target p1 (distance 4): no other point is strictly
        // closer (p2 is at 13) -> accepted for k=1.
        let (ok, _) = unrestricted_verify(&g, &pts, PointId::new(0), &p0, &p1, 1, bufs);
        assert!(ok);
    }

    #[test]
    fn hinting_topology_gets_sources_and_frontier_and_results_are_unchanged() {
        struct Recorder<'g> {
            graph: &'g Graph,
            hints: std::sync::Mutex<Vec<Vec<usize>>>,
        }
        impl Topology for Recorder<'_> {
            fn num_nodes(&self) -> usize {
                self.graph.num_nodes()
            }
            fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(rnn_graph::Neighbor)) {
                self.graph.visit_neighbors(node, visit)
            }
            fn wants_prefetch_hints(&self) -> bool {
                true
            }
            fn prefetch_hint(&self, nodes: &[NodeId]) {
                let mut batch: Vec<usize> = nodes.iter().map(|n| n.index()).collect();
                batch.sort_unstable();
                self.hints.lock().unwrap().push(batch);
            }
        }

        let (g, pts) = sample();
        let baseline: Vec<Event> = {
            let mut exp = UnrestrictedExpansion::from_node(&g, &pts, NodeId::new(0));
            std::iter::from_fn(|| exp.next_event()).collect()
        };
        let rec = Recorder { graph: &g, hints: std::sync::Mutex::new(Vec::new()) };
        let mut exp = UnrestrictedExpansion::from_node(&rec, &pts, NodeId::new(0));
        let hinted: Vec<Event> = std::iter::from_fn(|| exp.next_event()).collect();
        assert_eq!(hinted, baseline, "hints must not change the event stream");
        let hints = rec.hints.into_inner().unwrap();
        assert_eq!(hints[0], vec![0], "the source is hinted first");
        assert!(
            hints[1..].iter().all(|b| !b.is_empty()),
            "frontier batches only fire when something was freshly relaxed"
        );
    }
}
