//! Property tests for the hub-label index subsystem (`rnn-index`):
//!
//! * PLL label distances agree with `NetworkExpansion` Dijkstra distances —
//!   bit-exactly on the shared graph zoo (whose 0.25-step weights make every
//!   path sum exact), and up to float associativity (`Weight::approx_eq`) on
//!   the jittered-weight grid and BRITE generators, where the two methods
//!   legitimately sum the same path in different orders;
//! * the label-based k-NN primitive reproduces the expansion-based one;
//! * hub-label RkNN result sets are byte-identical to eager across the graph
//!   zoo, and a `Server` serving the hub-label algorithm is deterministic at
//!   1/2/8 workers;
//! * steady-state label queries are allocation-free on a reused `Scratch`;
//! * the RkNN query, which applies Lemma 1 inside the candidate fold and
//!   tests candidates against stored or scanned k-NN radii, answers like the
//!   unpruned fold with per-candidate counting it replaced (kept here as
//!   [`unpruned_rknn`]) and like the naive baseline — on graphs biased to
//!   ties, short buckets and split components, at `k` up to `usize::MAX`,
//!   before and after a random point insert/remove trace — and the
//!   unread-tail skip gives way to the per-entry test where floating-point
//!   sums absorb the gap or tie.

mod common;

use common::{build_connected_graph, restricted_instance, serve_all};
use proptest::prelude::*;
use rnn_core::expansion::network_distance;
use rnn_core::{eager, knn, naive, run_rknn, Algorithm, Precomputed, Scratch};
use rnn_datagen::{
    brite_topology, grid_map, place_points_on_nodes, sample_node_queries, BriteConfig, GridConfig,
};
use rnn_graph::{Graph, GraphBuilder, NodeId, NodePointSet, PointId, PointsOnNodes, Weight};
use rnn_index::{HubLabelIndex, HubLabeling};
use rnn_server::{Request, Server, ServerConfig, World};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Deterministically samples `count` node pairs of an `n`-node graph.
fn node_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    (0..count as u64)
        .map(|i| {
            let a = (seed.wrapping_mul(6364136223846793005).wrapping_add(i * 97)) % n as u64;
            let b = (seed.wrapping_mul(1442695040888963407).wrapping_add(i * 31)) % n as u64;
            (NodeId::new(a as usize), NodeId::new(b as usize))
        })
        .collect()
}

fn assert_label_distances_match(graph: &Graph, pairs: &[(NodeId, NodeId)]) {
    let labeling = HubLabeling::build(graph);
    for &(u, v) in pairs {
        let via_labels = labeling.distance(u, v);
        let via_dijkstra = network_distance(graph, u, v);
        match (via_labels, via_dijkstra) {
            (Some(l), Some(d)) => {
                // Same path, possibly summed in a different association
                // order: exact on exact-weight graphs, a few ulps otherwise.
                assert!(l.approx_eq(d, 1e-9), "pair ({u}, {v}): labels say {l}, Dijkstra says {d}");
            }
            (None, None) => {} // both agree the pair is disconnected
            (l, d) => panic!("pair ({u}, {v}): reachability disagrees ({l:?} vs {d:?})"),
        }
        assert_eq!(labeling.distance(u, v), labeling.distance(v, u), "symmetry ({u}, {v})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn grid_label_distances_match_dijkstra(seed in 0u64..1000) {
        let graph = grid_map(&GridConfig { rows: 10, cols: 10, seed, ..Default::default() });
        assert_label_distances_match(&graph, &node_pairs(graph.num_nodes(), 40, seed));
    }

    #[test]
    fn brite_label_distances_match_dijkstra(seed in 0u64..1000) {
        let graph = brite_topology(&BriteConfig { num_nodes: 120, seed, ..Default::default() });
        assert_label_distances_match(&graph, &node_pairs(graph.num_nodes(), 40, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// On the zoo's exact-weight graphs the label distance must equal the
    /// Dijkstra distance bit for bit — not just approximately.
    #[test]
    fn zoo_label_distances_are_bit_exact(inst in restricted_instance()) {
        let labeling = HubLabeling::build(&inst.graph);
        let n = inst.graph.num_nodes();
        for u in 0..n {
            let from_query = network_distance(&inst.graph, inst.query, NodeId::new(u));
            prop_assert_eq!(
                labeling.distance(inst.query, NodeId::new(u)),
                from_query,
                "query to node {}", u
            );
        }
    }

    /// The label-based k-NN primitive returns exactly the expansion-based
    /// probe's points, distances and order.
    #[test]
    fn zoo_label_knn_matches_expansion_knn(inst in restricted_instance()) {
        let index = HubLabelIndex::build(&inst.graph, &inst.points);
        for source in 0..inst.graph.num_nodes() {
            for k in 1..=3usize {
                let via_labels = index.k_nearest(NodeId::new(source), k);
                let via_expansion = knn::k_nearest(&inst.graph, &inst.points, NodeId::new(source), k);
                prop_assert_eq!(&via_labels, &via_expansion.found, "source {} k {}", source, k);
            }
        }
    }

    /// The acceptance criterion: hub-label RkNN sets are byte-identical to
    /// eager on every zoo instance.
    #[test]
    fn zoo_hub_label_rknn_is_byte_identical_to_eager(inst in restricted_instance()) {
        let index = HubLabelIndex::build(&inst.graph, &inst.points);
        let via_labels = index.rknn(inst.query, inst.k);
        let via_eager = eager::eager_rknn(&inst.graph, &inst.points, inst.query, inst.k);
        prop_assert_eq!(&via_labels.points, &via_eager.points);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// A `Server` serving the hub-label algorithm at 1/2/8 workers, fed one
    /// `submit_all` burst, returns the sequential outcome byte for byte
    /// (results and per-query stats).
    #[test]
    fn hub_label_batches_are_deterministic_across_thread_counts(seed in 0u64..1000) {
        let graph =
            Arc::new(grid_map(&GridConfig { rows: 12, cols: 12, seed, ..Default::default() }));
        let points = Arc::new(place_points_on_nodes(&graph, 0.08, seed + 1));
        prop_assert!(!points.nodes().is_empty());
        let index = Arc::new(HubLabelIndex::build(&*graph, &*points));
        let queries = sample_node_queries(&points, 8, seed + 2);
        let requests: Vec<Request> =
            queries.iter().map(|&q| Request::new(Algorithm::HubLabel, q, 2)).collect();
        let pre = Precomputed::hub_labels(&*index);
        let sequential: Vec<_> = queries
            .iter()
            .map(|&q| run_rknn(Algorithm::HubLabel, &*graph, &*points, pre, q, 2))
            .collect();

        for workers in [1usize, 2, 8] {
            let world =
                World::new(graph.clone(), points.clone()).with_hub_label_index(index.clone());
            let server = Server::start(world, ServerConfig::default().with_workers(workers));
            prop_assert_eq!(&serve_all(&server, &requests), &sequential, "workers={}", workers);
            server.shutdown();
        }
    }
}

/// Steady-state label queries recycle scratch buffers instead of allocating:
/// after the warm-up query, `Scratch::created` stays flat.
#[test]
fn steady_state_label_queries_are_allocation_free() {
    let graph = grid_map(&GridConfig { rows: 15, cols: 15, seed: 3, ..Default::default() });
    let points = place_points_on_nodes(&graph, 0.05, 4);
    let index = HubLabelIndex::build(&graph, &points);
    let queries = sample_node_queries(&points, 8, 5);

    let mut scratch = Scratch::new();
    let warmup: Vec<_> = queries.iter().map(|&q| index.rknn_in(q, 2, &mut scratch)).collect();
    let created = scratch.created();
    for _ in 0..10 {
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(index.rknn_in(q, 2, &mut scratch), warmup[i]);
        }
    }
    assert_eq!(scratch.created(), created, "steady state must not allocate new buffers");
    assert!(scratch.reuses() > 0);
}

/// The labeling of a graph is reusable across point sets, and the index
/// agrees with eager on the second point set too.
#[test]
fn labeling_reuse_across_point_sets_stays_correct() {
    let graph = grid_map(&GridConfig { rows: 12, cols: 12, seed: 7, ..Default::default() });
    let labeling = HubLabeling::build(&graph);
    for (density, seed) in [(0.05, 8), (0.15, 9)] {
        let points = place_points_on_nodes(&graph, density, seed);
        let index = HubLabelIndex::from_labeling(labeling.clone(), &points);
        assert_eq!(index.num_points(), points.num_points());
        for q in sample_node_queries(&points, 6, seed + 1) {
            let via_labels = index.rknn(q, 1);
            let via_eager = eager::eager_rknn(&graph, &points, q, 1);
            assert_eq!(via_labels.points, via_eager.points, "density {density} q={q}");
        }
    }
}

/// The hub-label RkNN query as it was before Lemma 1 moved into the fold:
/// every entry of every bucket of the query's hubs is folded to the minimum
/// per node, and every reachable point is verified by counting over all of
/// its hubs. The reference the pruned query must agree with on any index.
fn unpruned_rknn(index: &HubLabelIndex, query: NodeId, k: usize) -> Vec<PointId> {
    let (labeling, table) = (index.labeling(), index.point_table());
    let mut dmin: BTreeMap<NodeId, Weight> = BTreeMap::new();
    for (h, a) in labeling.entries(query) {
        let (dists, nodes) = table.bucket(h);
        for (&d, &node) in dists.iter().zip(nodes) {
            let through = a + d;
            dmin.entry(node).and_modify(|best| *best = through.min(*best)).or_insert(through);
        }
    }
    let mut result = Vec::new();
    for (&node, &bound) in dmin.iter().filter(|&(_, &bound)| bound > Weight::ZERO) {
        let mut closer = BTreeSet::new();
        for (h, dh) in labeling.entries(node) {
            let (dists, nodes) = table.bucket(h);
            closer.extend(
                dists
                    .iter()
                    .zip(nodes)
                    .take_while(|&(&d, _)| dh + d < bound)
                    .map(|(_, &other)| other),
            );
        }
        closer.remove(&node);
        if closer.len() < k {
            result.push(table.point_of(node).expect("bucket nodes are occupied"));
        }
    }
    result // node order is point-id order
}

/// One connected piece of a [`NastyInstance`].
#[derive(Debug, Clone)]
enum Shape {
    /// Unit-weight grid: many equal-length paths, many equidistant points.
    Grid { rows: usize, cols: usize },
    /// Unit-weight cycle: every distance is attained twice around the ring.
    Cycle(usize),
    /// Unit-weight star: every leaf ties with every other in the one bucket.
    Star(usize),
    /// Random connected graph with 0.25-step weights (the zoo's generator).
    Random(Graph),
}

impl Shape {
    fn num_nodes(&self) -> usize {
        match *self {
            Shape::Grid { rows, cols } => rows * cols,
            Shape::Cycle(n) | Shape::Star(n) => n,
            Shape::Random(ref graph) => graph.num_nodes(),
        }
    }

    /// Adds the shape's edges over nodes `base..base + num_nodes()`.
    fn add_to(&self, b: &mut GraphBuilder, base: usize) {
        let mut edge = |u: usize, v: usize, w: f64| {
            b.add_edge(base + u, base + v, w).expect("valid edge");
        };
        match self {
            &Shape::Grid { rows, cols } => {
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            edge(r * cols + c, r * cols + c + 1, 1.0);
                        }
                        if r + 1 < rows {
                            edge(r * cols + c, (r + 1) * cols + c, 1.0);
                        }
                    }
                }
            }
            &Shape::Cycle(n) => (0..n).for_each(|i| edge(i, (i + 1) % n, 1.0)),
            &Shape::Star(n) => (1..n).for_each(|leaf| edge(0, leaf, 1.0)),
            Shape::Random(graph) => {
                graph.edges().for_each(|(_, u, v, w)| edge(u.index(), v.index(), w.value()))
            }
        }
    }
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (2usize..6, 2usize..6).prop_map(|(rows, cols)| Shape::Grid { rows, cols }),
        (3usize..18).prop_map(Shape::Cycle),
        (3usize..12).prop_map(Shape::Star),
        (2usize..16).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..n, n),
                proptest::collection::vec((0usize..n, 0usize..n), 0..n),
                proptest::collection::vec(any::<u8>(), 1..32),
            )
                .prop_map(|(n, parents, extra, steps)| {
                    Shape::Random(build_connected_graph(n, &parents, &extra, &steps))
                })
        }),
    ]
}

/// A graph of one or two components and a point set of chosen density,
/// down to a point on every node.
#[derive(Debug, Clone)]
struct NastyInstance {
    graph: Graph,
    occupied: Vec<bool>,
    trace_seed: u64,
}

fn point_set(occupied: &[bool]) -> NodePointSet {
    NodePointSet::from_predicate(occupied.len(), |node| occupied[node.index()])
}

fn nasty_instance() -> impl Strategy<Value = NastyInstance> {
    (
        shape(),
        prop_oneof![Just(None), shape().prop_map(Some)],
        proptest::collection::vec(any::<u8>(), 8..64),
        prop_oneof![Just(1u8), Just(2u8), Just(5u8)],
        any::<u64>(),
    )
        .prop_map(|(first, second, picks, one_in, trace_seed)| {
            let n = first.num_nodes() + second.as_ref().map_or(0, Shape::num_nodes);
            let mut b = GraphBuilder::new(n);
            first.add_to(&mut b, 0);
            if let Some(second) = &second {
                second.add_to(&mut b, first.num_nodes());
            }
            let mut occupied: Vec<bool> =
                (0..n).map(|node| picks[node % picks.len()] % one_in == 0).collect();
            if !occupied.contains(&true) {
                occupied[0] = true;
            }
            NastyInstance { graph: b.build().expect("valid graph"), occupied, trace_seed }
        })
}

/// Every query node and every `k` around the interesting sizes: the pruned
/// query equals the unpruned fold and the naive baseline.
fn assert_pruned_matches_references(
    graph: &Graph,
    points: &NodePointSet,
    index: &HubLabelIndex,
) -> Result<(), TestCaseError> {
    let p = points.num_points();
    prop_assert_eq!(index.num_points(), p);
    let ks: BTreeSet<usize> = [1, 2, 4, 5, p.saturating_sub(1), p, p + 1, usize::MAX]
        .into_iter()
        .filter(|&k| k >= 1)
        .collect();
    let mut scratch = Scratch::new();
    for query in (0..graph.num_nodes()).map(NodeId::new) {
        for &k in &ks {
            let oracle = naive::naive_rknn(graph, points, query, k).points;
            let pruned = index.rknn_in(query, k, &mut scratch);
            prop_assert_eq!(&pruned.points, &unpruned_rknn(index, query, k), "q={} k={}", query, k);
            prop_assert_eq!(&pruned.points, &oracle, "q={} k={} vs naive", query, k);
            prop_assert_eq!(
                pruned.stats.bucket_scans,
                pruned.stats.heap_pushes + pruned.stats.auxiliary_settled
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Differential test of the Lemma 1 prune, before and after a random
    /// 200-op insert/remove trace maintained incrementally.
    #[test]
    fn pruned_rknn_equals_unpruned_fold_and_naive(inst in nasty_instance()) {
        let mut occupied = inst.occupied.clone();
        let points = point_set(&occupied);
        let mut index = HubLabelIndex::build(&inst.graph, &points);
        assert_pruned_matches_references(&inst.graph, &points, &index)?;

        let mut state = inst.trace_seed;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = NodeId::new((state >> 33) as usize % occupied.len());
            occupied[node.index()] = !occupied[node.index()];
            if occupied[node.index()] {
                index.insert_point(node);
            } else {
                prop_assert!(index.remove_point(node).is_some());
            }
        }
        assert_pruned_matches_references(&inst.graph, &point_set(&occupied), &index)?;
    }
}

/// A star around node 0 with one leaf per weight (leaf `i + 1` at
/// `leaf_weights[i]`): the centre is the one hub every label shares, so its
/// bucket lists the points exactly in `leaf_weights` order.
fn star(leaf_weights: &[f64]) -> Graph {
    let mut b = GraphBuilder::new(leaf_weights.len() + 1);
    for (i, &w) in leaf_weights.iter().enumerate() {
        b.add_edge(0, i + 1, w).expect("valid edge");
    }
    b.build().expect("valid star")
}

/// Queries leaf 1 of `star(leaf_weights)` with points on every other leaf:
/// the pruned answer must equal the unpruned fold and the naive baseline.
/// Returns the answer (as leaf numbers) and the bucket entries the
/// candidate phase read.
fn query_star(leaf_weights: &[f64], k: usize) -> (Vec<usize>, u64) {
    let graph = star(leaf_weights);
    let query = NodeId::new(1);
    let points =
        NodePointSet::from_nodes(graph.num_nodes(), (2..graph.num_nodes()).map(NodeId::new));
    let index = HubLabelIndex::build(&graph, &points);
    let out = index.rknn(query, k);
    assert_eq!(out.points, unpruned_rknn(&index, query, k), "k={k}");
    assert_eq!(out.points, naive::naive_rknn(&graph, &points, query, k).points, "k={k} vs naive");
    let leaves = out.points.iter().map(|&p| points.node_of(p).index()).collect();
    (leaves, out.stats.heap_pushes)
}

/// `d_{k-1} < a`, but the far entries are so large that `fl(d_j + d_{k-1})`
/// and `fl(a + d_j)` are the same float: they tie with the query, Lemma 1
/// does not reject them, and the margin guard must make the fold read them.
#[test]
fn absorbed_sums_make_the_fold_read_the_bucket_tail() {
    let two53 = 9_007_199_254_740_992.0;
    for (k, near) in [(1, vec![0.25]), (2, vec![0.125, 0.25])] {
        let leaves = |far: [f64; 3]| [vec![0.5], near.clone(), far.to_vec()].concat();
        let last_leaf = 1 + near.len() + 3;
        // Well separated: the far points are rejected unread — the head, entry
        // `k` and the last entry are all the candidate phase looks at.
        let (answer, read) = query_star(&leaves([8.0, 8.0, 16.0]), k);
        assert_eq!(answer, (2..2 + near.len()).collect::<Vec<_>>(), "k={k}");
        assert_eq!(read, k as u64 + 2, "k={k}");
        // Absorbed: every far point is as close to the query as to anything
        // else, so all of them are reverse neighbors and all were read.
        let (answer, read) = query_star(&leaves([two53, two53, 2.0 * two53]), k);
        assert_eq!(answer, (2..=last_leaf).collect::<Vec<_>>(), "k={k}");
        assert_eq!(read, (near.len() + 3) as u64, "k={k}");
    }
}

/// Smallest normal weights: the guard's scaled margin underflows while the
/// sums it bounds are exact, and the answer still equals naive's.
#[test]
fn min_positive_weights_keep_the_guard_sound() {
    let tiny = f64::MIN_POSITIVE;
    for k in [1, 2] {
        query_star(&[2.0 * tiny, tiny, 3.0 * tiny, 4.0 * tiny, 5.0 * tiny, 1.0], k);
    }
}

/// The query's distance to the hub exceeds the nearest point's by less than
/// `f32` resolves, and far more than the margin: the guard sees the gap and
/// reads no tail entry. The same star with the gap closed is a real tie:
/// every point behind the nearest ties its radius, stays a reverse
/// neighbor, and the whole bucket is read.
#[test]
fn a_near_tie_skips_the_tail_and_a_real_tie_reads_it() {
    let gap = 1.0 + f64::from(f32::EPSILON) / 8.0;
    assert_eq!(gap as f32, 1.0);
    assert_eq!(
        query_star(&[gap, 1.0, 2.0, 3.0, 5.0], 1),
        (vec![2], 3),
        "gap seen: one reverse neighbor, tail unread"
    );
    assert_eq!(
        query_star(&[1.0, 1.0, 2.0, 3.0, 5.0], 1),
        (vec![2, 3, 4, 5], 4),
        "ties seen: the whole bucket read"
    );
}
