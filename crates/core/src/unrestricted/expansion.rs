//! Event-based network expansion for unrestricted networks.
//!
//! Implements the paper's `unrestricted-range-NN` idea: when a node is
//! de-heaped, the data points on its adjacent edges are pushed back into the
//! heap with their tentative distances, so that *points* (and, optionally, a
//! target location such as the query) are reported in ascending distance
//! order, each exactly once, even though the same point can be reached
//! through both endpoints of its edge with different bounds.
//!
//! The nodes are expanded by the shared [`NetworkExpansion`] kernel; this
//! module adds a heap of the point / target events found on the arcs and
//! merges the two by distance.

use super::EdgePosition;
use crate::expansion::{ExpansionBuffers, NetworkExpansion};
use crate::fast_hash::FastSet;
use crate::flat_heap::FlatHeap;
use rnn_graph::{EdgePointSet, NodeId, PointId, Topology, Weight};

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

/// What lies on an edge.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum OnEdge {
    Target,
    Point(PointId),
}

/// Min-heap of the edge events offered so far, with their distances. At
/// equal distances the target comes before the points and the points come in
/// id order, for determinism: the target is keyed `(0, 0)`, point `p`
/// `(1, p)`.
#[derive(Debug, Default)]
struct EdgeEvents {
    heap: FlatHeap,
    pushes: u64,
}

impl EdgeEvents {
    fn offer(&mut self, dist: Weight, what: OnEdge) {
        match what {
            OnEdge::Target => self.heap.push(dist, 0, 0),
            OnEdge::Point(p) => self.heap.push(dist, 1, p.0),
        }
        self.pushes += 1;
    }

    fn peek(&self) -> Option<(Weight, OnEdge)> {
        self.heap.peek().map(|(dist, kind, p)| {
            (dist, if kind == 0 { OnEdge::Target } else { OnEdge::Point(PointId(p)) })
        })
    }
}

/// The allocation-bearing state of an [`UnrestrictedExpansion`]. The
/// algorithms keep one set for all the probes of a query (each probe starts
/// from the cleared buffers of the previous one) instead of sizing fresh
/// node tables per probe.
#[derive(Debug, Default)]
pub(crate) struct ProbeBuffers {
    nodes: ExpansionBuffers,
    edge_events: EdgeEvents,
    point_emitted: FastSet<PointId>,
}

/// Incremental expansion over an unrestricted network.
pub struct UnrestrictedExpansion<'a, T: Topology + ?Sized> {
    nodes: NetworkExpansion<'a, T>,
    points: &'a EdgePointSet,
    target: Option<EdgePosition>,
    edge_events: EdgeEvents,
    point_emitted: FastSet<PointId>,
    target_emitted: bool,
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
        Self::start(topo, points, [(source, Weight::ZERO)], None, bufs)
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
        let endpoints = [(source.lo, source.dist_to_lo()), (source.hi, source.dist_to_hi())];
        let mut exp = Self::start(topo, points, endpoints, target, bufs);
        // Same-edge data points are reachable directly along the edge.
        for ep in points.points_on_edge(source.edge) {
            let direct = Weight::new((ep.offset.value() - source.offset.value()).abs());
            exp.edge_events.offer(direct, OnEdge::Point(ep.point));
        }
        // Same-edge target.
        if let Some(direct) = target.and_then(|t| source.direct_distance(&t)) {
            exp.edge_events.offer(direct, OnEdge::Target);
        }
        exp
    }

    fn start(
        topo: &'a T,
        points: &'a EdgePointSet,
        sources: impl IntoIterator<Item = (NodeId, Weight)>,
        target: Option<EdgePosition>,
        bufs: ProbeBuffers,
    ) -> Self {
        let ProbeBuffers { nodes, mut edge_events, mut point_emitted } = bufs;
        edge_events.heap.clear();
        edge_events.pushes = 0;
        point_emitted.clear();
        UnrestrictedExpansion {
            nodes: NetworkExpansion::reusing(topo, nodes, sources),
            points,
            target,
            edge_events,
            point_emitted,
            target_emitted: false,
        }
    }

    /// Consumes the expansion, releasing its buffers for the next one.
    pub(crate) fn into_buffers(self) -> ProbeBuffers {
        ProbeBuffers {
            nodes: self.nodes.into_buffers(),
            edge_events: self.edge_events,
            point_emitted: self.point_emitted,
        }
    }

    /// Number of nodes settled so far (the work/cost proxy).
    pub fn settled_nodes(&self) -> u64 {
        self.nodes.settled_count()
    }

    /// Number of heap pushes so far, node entries and edge events alike.
    pub(crate) fn pushes(&self) -> u64 {
        self.nodes.pushes() + self.edge_events.pushes
    }

    /// The settled distance of `node`, if it has been settled.
    pub(crate) fn settled_distance(&self, node: NodeId) -> Option<Weight> {
        self.nodes.settled_distance(node)
    }

    /// Returns the next event in ascending distance order, *without*
    /// expanding settled nodes; callers controlling pruning (the eager main
    /// loop) must invoke [`UnrestrictedExpansion::expand_node`] themselves.
    pub fn next_event_unexpanded(&mut self) -> Option<Event> {
        while let Some((dist, what)) = self.edge_events.peek() {
            // An edge event goes before a node settling at the same distance.
            if self.nodes.peek_dist().is_some_and(|node_dist| node_dist < dist) {
                break;
            }
            self.edge_events.heap.pop();
            match what {
                OnEdge::Point(p) if self.point_emitted.insert(p) => {
                    return Some(Event::Point(p, dist))
                }
                OnEdge::Target if !std::mem::replace(&mut self.target_emitted, true) => {
                    return Some(Event::Target(dist))
                }
                _ => {} // already reported at a smaller distance
            }
        }
        self.nodes.next_settled_unexpanded().map(|(node, dist)| Event::Node(node, dist))
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
        let Self { points, target, edge_events, point_emitted, target_emitted, .. } = self;
        self.nodes.expand_from_each(node, dist, |nb, _| {
            // Offsets are measured from the lower-id endpoint of an edge.
            let from_here = |offset: Weight, edge_weight: Weight| {
                if node < nb.node {
                    offset
                } else {
                    edge_weight.saturating_sub(offset)
                }
            };
            for ep in points.points_on_edge(nb.edge) {
                if !point_emitted.contains(&ep.point) {
                    let direct = from_here(ep.offset, nb.weight);
                    edge_events.offer(dist + direct, OnEdge::Point(ep.point));
                }
            }
            if let Some(t) = target.filter(|t| !*target_emitted && t.edge == nb.edge) {
                edge_events.offer(dist + from_here(t.offset, t.edge_weight), OnEdge::Target);
            }
        });
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
