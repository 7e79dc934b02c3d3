//! Reusable per-worker scratch state for query execution.
//!
//! Every RkNN query needs a handful of allocation-heavy structures: the heap
//! and label table of its main expansion — the same
//! [`ExpansionBuffers`] whichever algorithm runs it — one more set per
//! auxiliary probe (range-NN, verification), candidate buffers and the few
//! tables an algorithm keeps beside its expansion. Allocating them per query
//! dominates steady-state serving cost, so [`Scratch`] pools them: an
//! algorithm checks a buffer out, uses it, and returns it; the next query (or
//! the next probe of the same query) *resets* the buffer — clears it while
//! keeping its capacity — instead of allocating a new one.
//!
//! The public pools (expansions, `Vec`s, and [`NodeTable`]s of node distances
//! and node marks) also serve `rnn-index`'s hub-label RkNN; the crate-private
//! ones hold the verify-once point marks and lazy's and lazy-EP's bundles.
//! All per-node and per-point state is a [`NodeTable`], whose reset is O(1)
//! however many keys the largest query so far touched, so the ~80 small
//! probes of one eager query do not each pay for the biggest one.
//!
//! One `Scratch` belongs to one worker (it is deliberately not `Sync`): a
//! server worker keeps its own across point-set and topology swaps: the node tables size themselves to
//! the graph they are used on and never trust a slot left by another one.
//! Buffer reuse never changes results: every buffer is reset before it is
//! used again, which the batch determinism tests verify end to end.
//!
//! The [`Scratch::created`] / [`Scratch::reuses`] counters exist so tests can
//! assert the steady state — after a warm-up query, further identical queries
//! create no new buffers (`created` stays flat) and only reset pooled ones
//! (`reuses` grows).

use crate::expansion::ExpansionBuffers;
use crate::node_table::NodeTable;
use rnn_graph::{NodeId, PointId, Weight};
use rnn_obs::Tracer;

/// A buffer that can be emptied for reuse while keeping its allocation.
pub(crate) trait Reset: Default {
    /// Clears the buffer's contents, retaining capacity.
    fn reset(&mut self);
}

impl<T> Reset for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

impl<V, K: Copy + Eq + Into<u32>> Reset for NodeTable<V, K> {
    fn reset(&mut self) {
        self.clear();
    }
}

impl Reset for ExpansionBuffers {
    /// Nothing to do at checkout: the only consumer of the buffers,
    /// `NetworkExpansion::reusing`, clears them itself.
    fn reset(&mut self) {}
}

fn take_from<T: Reset>(pool: &mut Vec<T>, created: &mut u64, reuses: &mut u64) -> T {
    match pool.pop() {
        Some(mut buf) => {
            *reuses += 1;
            buf.reset();
            buf
        }
        None => {
            *created += 1;
            T::default()
        }
    }
}

/// A reusable arena of query-execution buffers (see the module docs).
#[derive(Debug, Default)]
pub struct Scratch {
    expansions: Vec<ExpansionBuffers>,
    found: Vec<Vec<(PointId, Weight)>>,
    weights: Vec<Vec<Weight>>,
    node_dists: Vec<Vec<(NodeId, Weight)>>,
    dist_tables: Vec<NodeTable<Weight>>,
    node_marks: Vec<NodeTable<()>>,
    point_marks: Vec<NodeTable<(), PointId>>,
    lazy: Vec<crate::lazy::LazyBuffers>,
    lazy_ep: Vec<crate::lazy_ep::LazyEpBuffers>,
    created: u64,
    reuses: u64,
    tracer: Tracer,
}

macro_rules! pool_accessors {
    ($vis:vis, $($take:ident, $put:ident, $field:ident: $ty:ty;)*) => {
        $(
            /// Checks a buffer out of the arena: resets a pooled buffer when
            /// one is available, otherwise constructs a fresh one (counted in
            /// [`Scratch::created`]). Hand it back with the matching `put_*`
            /// so the next checkout can reuse the allocation.
            $vis fn $take(&mut self) -> $ty {
                take_from(&mut self.$field, &mut self.created, &mut self.reuses)
            }

            /// Returns a buffer to the arena for reuse by later checkouts.
            $vis fn $put(&mut self, buf: $ty) {
                self.$field.push(buf);
            }
        )*
    };
}

impl Scratch {
    /// Creates an empty arena. The first queries executed against it populate
    /// the pools; subsequent queries run allocation-free on the pooled
    /// buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fresh buffers constructed so far. Flat across steady-state
    /// queries: everything is served from the pools.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Number of times a pooled buffer was reset and handed out again.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// The per-query phase tracer riding along with the arena. Inactive by
    /// default (every span is a no-op branch); a tracing server worker
    /// activates it per query, and the algorithms mark their phases through
    /// it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer — used by a server worker to start/finish
    /// query traces and by instrumentation points to close phase spans.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    // Public pools: generic buffers that algorithm crates layered on top of
    // `rnn-core` (e.g. `rnn-index`'s hub-label RkNN) recycle the same way the
    // built-in algorithms do.
    pool_accessors! { pub,
        take_expansion, put_expansion, expansions: ExpansionBuffers;
        take_found, put_found, found: Vec<(PointId, Weight)>;
        take_weights, put_weights, weights: Vec<Weight>;
        take_node_dists, put_node_dists, node_dists: Vec<(NodeId, Weight)>;
        take_dist_table, put_dist_table, dist_tables: NodeTable<Weight>;
        take_node_marks, put_node_marks, node_marks: NodeTable<()>;
    }

    // Crate-private pools: the verify-once marks and the buffer bundles whose
    // types are internal to the lazy / lazy-EP implementations.
    pool_accessors! { pub(crate),
        take_point_marks, put_point_marks, point_marks: NodeTable<(), PointId>;
        take_lazy, put_lazy, lazy: crate::lazy::LazyBuffers;
        take_lazy_ep, put_lazy_ep, lazy_ep: crate::lazy_ep::LazyEpBuffers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_reuse_buffers_and_count_resets() {
        let mut s = Scratch::new();
        assert_eq!((s.created(), s.reuses()), (0, 0));

        let mut v = s.take_found();
        assert_eq!((s.created(), s.reuses()), (1, 0));
        v.push((PointId::new(0), Weight::new(1.0)));
        let capacity = v.capacity();
        s.put_found(v);

        // The same allocation comes back, cleared.
        let v = s.take_found();
        assert_eq!((s.created(), s.reuses()), (1, 1));
        assert!(v.is_empty());
        assert_eq!(v.capacity(), capacity);
        s.put_found(v);

        // Two simultaneous checkouts need a second buffer.
        let a = s.take_expansion();
        let b = s.take_expansion();
        assert_eq!(s.created(), 3);
        s.put_expansion(a);
        s.put_expansion(b);
        let a = s.take_expansion();
        let b = s.take_expansion();
        assert_eq!(s.created(), 3, "steady state: the pool serves both");
        assert_eq!(s.reuses(), 3);
        s.put_expansion(a);
        s.put_expansion(b);
    }

    /// A `side` x `side` grid with varied weights and a point on every
    /// `every`-th node.
    fn grid_world(side: usize, every: usize) -> (rnn_graph::Graph, rnn_graph::NodePointSet) {
        let mut b = rnn_graph::GraphBuilder::new(side * side);
        for v in 0..side * side {
            if v % side + 1 < side {
                b.add_edge(v, v + 1, 1.0 + (v * 7 % 5) as f64 * 0.31).unwrap();
            }
            if v + side < side * side {
                b.add_edge(v, v + side, 1.0 + (v * 11 % 7) as f64 * 0.23).unwrap();
            }
        }
        let points =
            rnn_graph::NodePointSet::from_predicate(side * side, |n| n.index() % every == 3);
        (b.build().unwrap(), points)
    }

    #[test]
    fn one_scratch_serves_graphs_of_different_sizes_in_turn() {
        use crate::{run_rknn_with, Algorithm, Precomputed};
        // A server worker keeps its scratch across topology swaps: small
        // graph, a 5 000-node one (which sizes every node table and leaves
        // its slots behind), then the small one again.
        let small = grid_world(3, 4);
        let large = grid_world(71, 97);
        let algorithms = [Algorithm::Eager, Algorithm::Lazy, Algorithm::LazyExtendedPruning];
        let mut scratch = Scratch::new();
        let mut created = Vec::new();
        for (graph, points) in [&small, &large, &small] {
            for query in [0, graph.num_nodes() / 2, graph.num_nodes() - 1].map(NodeId::new) {
                for algorithm in algorithms {
                    for k in [1, 3] {
                        let none = Precomputed::none();
                        let pooled =
                            run_rknn_with(algorithm, graph, points, none, query, k, &mut scratch);
                        let fresh = run_rknn_with(
                            algorithm,
                            graph,
                            points,
                            none,
                            query,
                            k,
                            &mut Scratch::new(),
                        );
                        assert_eq!(pooled, fresh, "{algorithm} q={query} k={k}");
                    }
                }
            }
            created.push(scratch.created());
        }
        assert!(created[0] > 0);
        assert_eq!(created[1], created[2], "the third pass runs on pooled buffers only");
    }

    #[test]
    fn sets_come_back_empty() {
        let mut s = Scratch::new();
        let mut marks = s.take_point_marks();
        marks.insert(PointId::new(7), ());
        s.put_point_marks(marks);
        assert!(s.take_point_marks().is_empty());
    }
}
