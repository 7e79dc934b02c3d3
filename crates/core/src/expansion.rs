//! Dijkstra-style network expansion.
//!
//! All query processing in the paper is built on *network expansion*: nodes
//! are visited in ascending order of their network distance from one or more
//! source locations, fetching adjacency lists on demand. [`NetworkExpansion`]
//! is that primitive, and the only place in this crate that pops a
//! `(distance, node)` frontier and relaxes neighbors: the k-NN / range-NN /
//! verification queries, the main loops of eager, lazy and lazy-EP, the
//! materialized-table updates and the unrestricted expansion all drive it.
//! A caller shapes the traversal through three entry points — a veto on
//! settling ([`NetworkExpansion::next_settled_unexpanded_if`]), the choice of
//! whether to expand a settled node, and a per-arc hook on expanding
//! ([`NetworkExpansion::expand_from_each`]).
//!
//! [`PointExpansion`] is the form the query algorithms drive: the kernel plus
//! what a [`PointSource`] reveals on the way. The points on nodes come with
//! the node that settles; the points on edges (and a target location on one)
//! are found when an arc is traversed, at a distance beyond the node's, so
//! they wait in a second small heap and are merged in by distance. Over a
//! source that has nothing on its arcs that heap stays empty and the loop is
//! the kernel's.
//!
//! Three representation choices keep the loop short, none of them visible
//! to callers:
//!
//! * the frontier is the crate's flat heap of packed keys (`flat_heap.rs`):
//!   `(distance, node)` as one integer, compared without a NaN branch, in
//!   the order the tuple had — so the settle order, and with it every work
//!   counter, is that of a binary heap of tuples. The key's low word carries
//!   the node whose expansion pushed the entry, which the veto is handed;
//! * a node's label is one `f64`: a tentative distance `d` is stored as `d`,
//!   a settled one as `-d` (`-0.0` at a source). Distances are non-negative,
//!   so no offer is below a settled label and relaxing is the single test
//!   `offer < label`; settling is a negation;
//! * neighbors come through [`rnn_graph::for_each_neighbor`]: the in-memory
//!   graph lends its adjacency slice and the relaxation is inlined into the
//!   loop over it, a paged or wrapped topology is visited arc by arc.

use crate::flat_heap::FlatHeap;
use crate::node_table::NodeTable;
use rnn_graph::{
    for_each_neighbor, Neighbor, NodeId, PointId, PointSource, Revealed, Topology, Weight,
};

/// The allocation-bearing state of a [`NetworkExpansion`]: the frontier heap
/// and the label table.
///
/// Buffers outlive individual expansions: an expansion built with
/// [`NetworkExpansion::reusing`] starts from recycled (empty but still
/// allocated) buffers, and [`NetworkExpansion::into_buffers`] recovers them
/// afterwards — this is how the `Scratch` arena keeps steady-state queries
/// allocation-free.
#[derive(Debug, Default)]
pub struct ExpansionBuffers {
    /// `(distance, node, pusher)` entries, the pusher [`NO_PUSHER`] for a
    /// source; stale ones are skipped when popped.
    heap: FlatHeap,
    /// Tentative distance `d` as `d`, settled distance `d` as `-d`.
    labels: NodeTable<f64>,
    /// What a [`PointExpansion`] found on the arcs and has yet to report.
    arc_events: ArcEvents,
}

impl ExpansionBuffers {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffers, retaining their capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.labels.clear();
        self.arc_events.heap.clear();
        self.arc_events.emitted.clear();
    }

    /// Offers a (possibly better) tentative distance for `node` from
    /// `pusher`; returns whether it was taken, i.e. labelled and pushed onto
    /// the frontier.
    #[inline]
    fn relax(&mut self, node: NodeId, dist: Weight, pusher: u32) -> bool {
        // `+ 0.0` folds a `-0.0` offer into `+0.0`: a negative zero label
        // would read as settled.
        let offer = dist.value() + 0.0;
        match self.labels.get_mut(node) {
            // Below the tentative distance; never below a settled label.
            Some(label) if offer < *label => *label = offer,
            Some(_) => return false,
            None => {
                self.labels.insert(node, offer);
            }
        }
        // Only a strictly better offer is pushed, so no two entries share
        // `(dist, node)` and the pusher never decides the pop order.
        self.heap.push(dist, node.0, pusher);
        true
    }
}

/// The pusher word of a source's frontier entry: no node pushed it.
const NO_PUSHER: u32 = u32::MAX;

/// Whether a frontier entry popped at `dist` is live, given its node's label:
/// it is while the label is still the tentative distance the entry was pushed
/// with. A settled label has its sign bit set, and a superseded entry sits
/// above a smaller label; either way the bit patterns differ.
#[inline]
fn is_live(label: f64, dist: Weight) -> bool {
    label.to_bits() == dist.value().to_bits()
}

/// An incremental single- or multi-source Dijkstra expansion over a
/// [`Topology`].
///
/// `next_settled` returns nodes one at a time in non-decreasing distance
/// order, so callers can stop as soon as their termination condition is met
/// (k points found, range exceeded, target reached, ...), which is exactly
/// how the paper's primitives bound their cost.
pub struct NetworkExpansion<'a, T: Topology + ?Sized> {
    topo: &'a T,
    bufs: ExpansionBuffers,
    settled_count: u64,
    pushes: u64,
}

impl<'a, T: Topology + ?Sized> NetworkExpansion<'a, T> {
    /// Starts an expansion from a single source node at distance zero.
    pub fn new(topo: &'a T, source: NodeId) -> Self {
        Self::with_sources(topo, std::iter::once((source, Weight::ZERO)))
    }

    /// Starts an expansion from several sources with given initial distances
    /// (used for continuous queries over a route and for query points lying
    /// on an edge).
    pub fn with_sources<I>(topo: &'a T, sources: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Weight)>,
    {
        Self::reusing(topo, ExpansionBuffers::new(), sources)
    }

    /// Starts an expansion on recycled buffers (cleared here), avoiding the
    /// heap/table allocations of a fresh expansion.
    pub fn reusing<I>(topo: &'a T, mut bufs: ExpansionBuffers, sources: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Weight)>,
    {
        bufs.clear();
        let mut exp = NetworkExpansion { topo, bufs, settled_count: 0, pushes: 0 };
        for (node, dist) in sources {
            if exp.bufs.relax(node, dist, NO_PUSHER) {
                exp.pushes += 1;
            }
        }
        exp
    }

    /// Consumes the expansion, releasing its buffers for reuse.
    pub fn into_buffers(self) -> ExpansionBuffers {
        self.bufs
    }

    /// Settles and returns the next node in distance order, or `None` when
    /// the reachable part of the graph is exhausted. The neighbors of the
    /// settled node are relaxed automatically.
    pub fn next_settled(&mut self) -> Option<(NodeId, Weight)> {
        let settled = self.next_settled_unexpanded();
        if let Some((node, dist)) = settled {
            self.expand_from(node, dist);
        }
        settled
    }

    /// Settles and returns the next node in distance order *without* relaxing
    /// its neighbors. The caller decides whether to continue the expansion
    /// through this node by calling [`NetworkExpansion::expand_from`] — this
    /// is how the eager algorithm applies Lemma 1 to stop the expansion at
    /// pruned nodes.
    pub fn next_settled_unexpanded(&mut self) -> Option<(NodeId, Weight)> {
        self.next_settled_unexpanded_if(|_, _| true)
    }

    /// [`NetworkExpansion::next_settled_unexpanded`] with a veto: the frontier
    /// entry of a node for which `keep(node, pusher)` returns `false` is
    /// dropped instead of settled. `pusher` is the node whose expansion
    /// offered the entry's distance, `None` for a source. The node stays
    /// tentative at the refused distance, so only a strictly better offer
    /// would bring it back onto the frontier; one at the same distance or
    /// beyond does not. This is how the lazy algorithm removes the heap
    /// entries a pruned node inserted.
    pub fn next_settled_unexpanded_if(
        &mut self,
        mut keep: impl FnMut(NodeId, Option<NodeId>) -> bool,
    ) -> Option<(NodeId, Weight)> {
        while let Some((dist, node, pusher)) = self.bufs.heap.pop() {
            let node = NodeId(node);
            let label =
                self.bufs.labels.get_mut(node).expect("every heap entry was labelled when pushed");
            let pusher = (pusher != NO_PUSHER).then_some(NodeId(pusher));
            if !is_live(*label, dist) || !keep(node, pusher) {
                continue;
            }
            *label = -dist.value();
            self.settled_count += 1;
            return Some((node, dist));
        }
        None
    }

    /// The distance at which the next node settles (unless vetoed), or `None`
    /// when the frontier holds no live entry. Stale and superseded entries on
    /// top of the heap are discarded on the way.
    pub fn peek_dist(&mut self) -> Option<Weight> {
        while let Some((dist, node, _)) = self.bufs.heap.peek() {
            if self.bufs.labels.get(NodeId(node)).is_some_and(|&label| is_live(label, dist)) {
                return Some(dist);
            }
            self.bufs.heap.pop();
        }
        None
    }

    /// Whether the heap holds no entry at all, live or stale.
    pub(crate) fn frontier_is_empty(&self) -> bool {
        self.bufs.heap.is_empty()
    }

    /// Relaxes the neighbors of a node previously returned by
    /// [`NetworkExpansion::next_settled_unexpanded`].
    pub fn expand_from(&mut self, node: NodeId, dist: Weight) {
        self.expand_from_each(node, dist, |_| {});
    }

    /// [`NetworkExpansion::expand_from`] with a per-arc hook: `each` sees
    /// every neighbor of `node` once, after its relaxation.
    pub fn expand_from_each(&mut self, node: NodeId, dist: Weight, mut each: impl FnMut(Neighbor)) {
        let bufs = &mut self.bufs;
        let pushes = &mut self.pushes;
        for_each_neighbor(self.topo, node, |nb| {
            if bufs.relax(nb.node, dist + nb.weight, node.0) {
                *pushes += 1;
            }
            each(nb);
        });
    }

    /// Returns the settled distance of `node`, if it has been settled.
    pub fn settled_distance(&self, node: NodeId) -> Option<Weight> {
        let label = *self.bufs.labels.get(node)?;
        label.is_sign_negative().then(|| Weight::new(-label))
    }

    /// Number of nodes settled so far.
    pub fn settled_count(&self) -> u64 {
        self.settled_count
    }

    /// Number of heap pushes performed so far.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }
}

/// Convenience helper: the network distance between two nodes, or `None` if
/// they are disconnected. Runs a full Dijkstra bounded by reaching `target`.
pub fn network_distance<T: Topology + ?Sized>(
    topo: &T,
    source: NodeId,
    target: NodeId,
) -> Option<Weight> {
    let mut exp = NetworkExpansion::new(topo, source);
    while let Some((node, dist)) = exp.next_settled() {
        if node == target {
            return Some(dist);
        }
    }
    None
}

/// Calls `found` for every data point a de-heaped `node` contributes as a
/// candidate to an RkNN query: the point on the node, and — the paper's
/// substitution for unrestricted networks — the points on the edges adjacent
/// to it, whose list is fetched from `topo` only for a source that has points
/// on edges.
pub(crate) fn for_each_candidate_at<T, S>(
    topo: &T,
    source: &S,
    node: NodeId,
    mut found: impl FnMut(PointId),
) where
    T: Topology + ?Sized,
    S: PointSource + ?Sized,
{
    if let Some(p) = source.on_node(node) {
        found(p);
    }
    if S::REVEALS_ON_ARCS {
        for_each_neighbor(topo, node, |arc| {
            source.on_arc(node, &arc, None, |what, _| {
                if let Revealed::Point(p) = what {
                    found(p);
                }
            });
        });
    }
}

/// What a [`PointExpansion`] reports, in ascending distance order.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Event {
    /// A graph node settled at the given distance. Which data point that
    /// reveals ([`PointSource::on_node`]) and whether it reaches the target
    /// ([`PointSource::covers`]) is for the caller to ask.
    Node(NodeId, Weight),
    /// A data point on an edge, reached at the given (exact) distance.
    Point(PointId, Weight),
    /// The target location on an edge, reached at the given (exact) distance.
    Target(Weight),
}

impl Event {
    /// The distance of the event from the start of the expansion.
    #[inline]
    pub fn dist(&self) -> Weight {
        match *self {
            Event::Node(_, dist) | Event::Point(_, dist) | Event::Target(dist) => dist,
        }
    }
}

/// Min-heap of what the traversed arcs revealed, with the distances, and the
/// points reported so far. At equal distances the target comes before the
/// points and the points come in id order, for determinism: the target is
/// keyed `(0, 0)`, point `p` `(1, p)`.
#[derive(Debug, Default)]
struct ArcEvents {
    heap: FlatHeap,
    emitted: NodeTable<(), PointId>,
}

impl ArcEvents {
    /// Queues `what` at `dist`, unless it is a point that was reported
    /// already; returns whether it was queued.
    fn offer(&mut self, dist: Weight, what: Revealed) -> bool {
        match what {
            Revealed::Target => self.heap.push(dist, 0, 0),
            Revealed::Point(p) if self.emitted.contains(p) => return false,
            Revealed::Point(p) => self.heap.push(dist, 1, p.0),
        }
        true
    }
}

/// A network expansion that also reports what its [`PointSource`] reveals on
/// the arcs it traverses: nodes, data points on edges and an optional target
/// location arrive as [`Event`]s in ascending distance order, each exactly
/// once, even though a point on an edge is reached through both endpoints
/// with different bounds (the paper's `unrestricted-range-NN` idea).
pub struct PointExpansion<'a, T: Topology + ?Sized, S: PointSource + ?Sized> {
    nodes: NetworkExpansion<'a, T>,
    source: &'a S,
    target: Option<&'a S::Location>,
    arc_events: ArcEvents,
    arc_pushes: u64,
    target_emitted: bool,
}

impl<'a, T: Topology + ?Sized, S: PointSource + ?Sized> PointExpansion<'a, T, S> {
    /// Starts an expansion from a graph node, on recycled buffers.
    pub fn from_node(topo: &'a T, source: &'a S, node: NodeId, bufs: ExpansionBuffers) -> Self {
        Self::start(topo, source, std::iter::once((node, Weight::ZERO)), None, bufs)
    }

    /// Starts an expansion from a location (of a data point or a query), on
    /// recycled buffers. What the location reaches without passing a node —
    /// the points on its own edge, and `target` if it shares the edge — is
    /// queued with its direct distance.
    pub fn from_location(
        topo: &'a T,
        source: &'a S,
        from: &S::Location,
        target: Option<&'a S::Location>,
        bufs: ExpansionBuffers,
    ) -> Self {
        let mut exp = Self::start(topo, source, source.seeds(from), target, bufs);
        if S::REVEALS_ON_ARCS {
            let Self { arc_events, arc_pushes, .. } = &mut exp;
            source.beside(from, target, |what, direct| {
                *arc_pushes += u64::from(arc_events.offer(direct, what));
            });
        }
        exp
    }

    fn start(
        topo: &'a T,
        source: &'a S,
        seeds: impl Iterator<Item = (NodeId, Weight)>,
        target: Option<&'a S::Location>,
        bufs: ExpansionBuffers,
    ) -> Self {
        let mut nodes = NetworkExpansion::reusing(topo, bufs, seeds);
        let arc_events = std::mem::take(&mut nodes.bufs.arc_events);
        PointExpansion { nodes, source, target, arc_events, arc_pushes: 0, target_emitted: false }
    }

    /// Consumes the expansion, releasing its buffers for reuse.
    pub fn into_buffers(self) -> ExpansionBuffers {
        let mut bufs = self.nodes.into_buffers();
        bufs.arc_events = self.arc_events;
        bufs
    }

    /// Number of nodes settled so far (the work/cost proxy).
    pub fn settled_count(&self) -> u64 {
        self.nodes.settled_count()
    }

    /// Number of heap pushes so far, node entries and arc events alike.
    pub fn pushes(&self) -> u64 {
        self.nodes.pushes() + self.arc_pushes
    }

    /// The data point `event` reveals, if any: the point of a point event, or
    /// the one that settling the node of a node event reveals.
    #[inline]
    pub fn revealed(&self, event: &Event) -> Option<PointId> {
        match *event {
            Event::Node(node, _) => self.source.on_node(node),
            Event::Point(p, _) => Some(p),
            Event::Target(_) => None,
        }
    }

    /// Returns the next event in ascending distance order, *without*
    /// expanding a settled node; the caller decides whether to go on through
    /// it with [`PointExpansion::expand`].
    #[inline]
    pub fn next_event_unexpanded(&mut self) -> Option<Event> {
        if S::REVEALS_ON_ARCS {
            if let Some(event) = self.next_arc_event() {
                return Some(event);
            }
        }
        self.nodes.next_settled_unexpanded().map(|(node, dist)| Event::Node(node, dist))
    }

    /// The next queued arc event, if no node settles before it.
    fn next_arc_event(&mut self) -> Option<Event> {
        while let Some((dist, kind, id)) = self.arc_events.heap.peek() {
            // An arc event goes before a node settling at the same distance.
            if self.nodes.peek_dist().is_some_and(|node_dist| node_dist < dist) {
                break;
            }
            self.arc_events.heap.pop();
            if kind == 0 {
                if !std::mem::replace(&mut self.target_emitted, true) {
                    return Some(Event::Target(dist));
                }
            } else if self.arc_events.emitted.insert(PointId(id), ()).is_none() {
                return Some(Event::Point(PointId(id), dist));
            }
            // Otherwise: already reported at a smaller distance.
        }
        None
    }

    /// Returns the next event, expanding every settled node on the way (what
    /// verification and the naive baseline want).
    #[inline]
    pub fn next_event(&mut self) -> Option<Event> {
        let event = self.next_event_unexpanded();
        if let Some(Event::Node(node, dist)) = event {
            self.expand(node, dist);
        }
        event
    }

    /// Expands a settled node: relaxes its neighbors and queues what the
    /// source reveals on the arcs out of it.
    #[inline]
    pub fn expand(&mut self, node: NodeId, dist: Weight) {
        if !S::REVEALS_ON_ARCS {
            return self.nodes.expand_from(node, dist);
        }
        let Self { nodes, source, target, arc_events, arc_pushes, target_emitted } = self;
        let target = target.filter(|_| !*target_emitted);
        nodes.expand_from_each(node, dist, |arc| {
            source.on_arc(node, &arc, target, |what, along| {
                *arc_pushes += u64::from(arc_events.offer(dist + along, what));
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder};

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3
        //  \         /
        //   4 ----- 2      (0-2 weight 4, 2-3 weight 1)
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(0, 2, 4.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    /// The classical single-source shortest path computation: the distance
    /// of every node the expansion reaches.
    fn run_to_completion<T: Topology>(
        mut exp: NetworkExpansion<'_, T>,
    ) -> std::collections::HashMap<usize, f64> {
        std::iter::from_fn(|| exp.next_settled()).map(|(n, d)| (n.index(), d.value())).collect()
    }

    #[test]
    fn settles_in_distance_order_with_correct_distances() {
        let g = diamond();
        let mut exp = NetworkExpansion::new(&g, NodeId::new(0));
        let mut settled = Vec::new();
        while let Some((n, d)) = exp.next_settled() {
            settled.push((n.index(), d.value()));
        }
        assert_eq!(settled, vec![(0, 0.0), (1, 1.0), (3, 2.0), (2, 3.0)]);
        assert_eq!(exp.settled_count(), 4);
        assert!(exp.pushes() >= 4);
        assert_eq!(exp.settled_distance(NodeId::new(2)).unwrap().value(), 3.0);
        assert_eq!(exp.settled_distance(NodeId::new(9)), None);
    }

    #[test]
    fn shorter_path_through_more_hops_wins() {
        // node 2 is reachable directly (weight 4) or via 1,3 (total 3)
        let g = diamond();
        assert_eq!(network_distance(&g, NodeId::new(0), NodeId::new(2)).unwrap().value(), 3.0);
        // symmetric
        assert_eq!(network_distance(&g, NodeId::new(2), NodeId::new(0)).unwrap().value(), 3.0);
    }

    #[test]
    fn multi_source_takes_minimum_over_sources() {
        let g = diamond();
        let mut exp = NetworkExpansion::with_sources(
            &g,
            [(NodeId::new(0), Weight::new(0.5)), (NodeId::new(3), Weight::ZERO)],
        );
        let mut dist = std::collections::HashMap::new();
        while let Some((n, d)) = exp.next_settled() {
            dist.insert(n.index(), d.value());
        }
        assert_eq!(dist[&3], 0.0);
        assert_eq!(dist[&1], 1.0);
        assert_eq!(dist[&2], 1.0);
        assert_eq!(dist[&0], 0.5);
    }

    #[test]
    fn disconnected_nodes_are_unreachable() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(network_distance(&g, NodeId::new(0), NodeId::new(3)), None);
        let all = run_to_completion(NetworkExpansion::new(&g, NodeId::new(0)));
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn run_to_completion_matches_incremental() {
        let g = diamond();
        let all = run_to_completion(NetworkExpansion::new(&g, NodeId::new(1)));
        assert_eq!((all[&0], all[&3], all[&2]), (1.0, 1.0, 2.0));
    }

    #[test]
    fn vetoed_node_stays_unsettled_whatever_is_offered_later() {
        // Node 3 is at distance 2 through node 1 and through node 2 alike,
        // and at 4 through node 4, which itself settles at 3.
        let mut b = GraphBuilder::new(5);
        for (u, v, w) in
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (0, 4, 3.0), (4, 3, 1.0)]
        {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build().unwrap();
        let mut exp = NetworkExpansion::new(&g, NodeId::new(0));
        let mut settled = Vec::new();
        let mut asked = Vec::new();
        // Node 3 is refused when its entry (pushed by node 1) comes up: the
        // equal offer of node 2 was not taken before, and the worse one of
        // node 4 is not taken afterwards.
        while let Some((n, d)) = exp.next_settled_unexpanded_if(|n, pusher| {
            if n == NodeId::new(3) {
                asked.push(pusher);
            }
            n != NodeId::new(3)
        }) {
            settled.push((n.index(), d.value()));
            exp.expand_from(n, d);
        }
        assert_eq!(settled, vec![(0, 0.0), (1, 1.0), (2, 1.0), (4, 3.0)]);
        assert_eq!(
            asked,
            vec![Some(NodeId::new(1))],
            "one live entry, pushed by node 1, refused once, never pushed again"
        );
        assert_eq!(exp.settled_distance(NodeId::new(3)), None);
        assert_eq!(exp.settled_count(), 4);
    }

    #[test]
    fn peek_dist_skips_stale_entries_and_agrees_with_next_settle() {
        // Node 2 is pushed at 4, then again at 3: the entry at 4 is
        // superseded and is all the heap holds at the end.
        let g = diamond();
        let mut exp = NetworkExpansion::new(&g, NodeId::new(0));
        let mut peeked = Vec::new();
        loop {
            let peek = exp.peek_dist();
            let next = exp.next_settled();
            assert_eq!(peek, next.map(|(_, d)| d));
            peeked.push(peek.map(Weight::value));
            if next.is_none() {
                break;
            }
        }
        assert_eq!(peeked, vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0), None]);
        assert!(exp.pushes() > exp.settled_count(), "a superseded entry was pushed");
        assert!(exp.frontier_is_empty(), "peeking discarded it");
    }

    #[test]
    fn per_arc_hook_sees_every_neighbor_once_and_the_veto_its_pusher() {
        let g = diamond();
        let mut exp = NetworkExpansion::new(&g, NodeId::new(0));
        let mut asked = Vec::new();
        while let Some((n, d)) = exp.next_settled_unexpanded_if(|n, pusher| {
            asked.push((n.index(), pusher.map(NodeId::index)));
            true
        }) {
            let mut seen = Vec::new();
            exp.expand_from_each(n, d, |nb| seen.push(nb));
            assert_eq!(seen, g.neighbors(n).collect::<Vec<_>>(), "adjacency of {n}");
        }
        // Only live entries are asked about: node 2's entry at 4, pushed by
        // node 0, was superseded by node 3's offer at 3.
        assert_eq!(asked, vec![(0, None), (1, Some(0)), (3, Some(1)), (2, Some(3))]);
        assert_eq!(exp.pushes(), 5, "the source and the four taken offers");
    }

    #[test]
    fn negative_zero_source_is_a_zero_source() {
        // `-0.0` has the largest bit pattern of all and reads as a settled
        // label; as a source distance it must behave as `0.0` does: both
        // sources settle first, in node-id order, at `+0.0`.
        let g = diamond();
        let sources = [(NodeId::new(3), Weight::new(-0.0)), (NodeId::new(1), Weight::ZERO)];
        let mut exp = NetworkExpansion::with_sources(&g, sources);
        assert_eq!(exp.settled_distance(NodeId::new(3)), None, "tentative, not settled");
        assert_eq!(exp.peek_dist(), Some(Weight::ZERO));
        let settled: Vec<_> = std::iter::from_fn(|| exp.next_settled())
            .map(|(n, d)| (n.index(), d.value().to_bits()))
            .collect();
        let bits = f64::to_bits;
        assert_eq!(settled, vec![(1, bits(0.0)), (3, bits(0.0)), (0, bits(1.0)), (2, bits(1.0))]);
        assert_eq!(exp.pushes(), 4, "no settled source was re-opened");
        for source in [1, 3] {
            let d = exp.settled_distance(NodeId::new(source)).unwrap();
            assert!(d.value() == 0.0 && d.value().is_sign_positive());
        }
    }

    #[test]
    fn zero_weight_arc_does_not_reopen_a_node_settled_at_zero() {
        // The builder rejects zero weights, a topology need not: 0 = 1 = 2 at
        // distance 0 of each other, 3 one step behind 2.
        struct ZeroArcs;
        impl Topology for ZeroArcs {
            fn num_nodes(&self) -> usize {
                4
            }
            fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
                let arc = |to, w| Neighbor {
                    node: NodeId::new(to),
                    weight: Weight::new(w),
                    edge: rnn_graph::EdgeId::new(0),
                };
                match node.index() {
                    0 => visit(arc(1, 0.0)),
                    1 => [arc(0, 0.0), arc(2, 0.0)].into_iter().for_each(visit),
                    2 => [arc(1, 0.0), arc(3, 1.0)].into_iter().for_each(visit),
                    _ => visit(arc(2, 1.0)),
                }
            }
        }
        let mut exp = NetworkExpansion::new(&ZeroArcs, NodeId::new(0));
        let mut pushers = Vec::new();
        let mut settled = Vec::new();
        while let Some((n, d)) = exp.next_settled_unexpanded_if(|_, pusher| {
            pushers.push(pusher.map(NodeId::index));
            true
        }) {
            settled.push((n.index(), d.value()));
            exp.expand_from(n, d);
        }
        assert_eq!(settled, vec![(0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)]);
        assert_eq!(pushers, vec![None, Some(0), Some(1), Some(2)]);
        // Every offer back to a node settled at zero is `0.0` against a
        // label of `-0.0`: equal as floats, and refused — one push per node.
        assert_eq!((exp.pushes(), exp.settled_count()), (4, 4));
        assert!(exp.frontier_is_empty());
    }
}
