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
//! * the RkNN query, which skips the buckets of hubs beyond their largest
//!   slack at `k <= 4` and applies Lemma 1 inside the candidate fold above,
//!   testing candidates against stored or scanned k-NN radii, answers like
//!   the unpruned fold with per-candidate counting it replaced (kept here as
//!   [`unpruned_rknn`]) and like the naive baseline — on graphs biased to
//!   ties, short buckets and split components, at weights scaled down to
//!   `f64::MIN_POSITIVE` and up to 2^52, where sums absorb, at `k` up to
//!   `usize::MAX`, before and after a random point insert/remove trace —
//!   with queries at exactly a point's `k`-th radius and on a point — and
//!   both the gate and the unread-tail skip give way to the per-entry test
//!   where floating-point sums absorb the gap or tie.

mod common;

use common::{build_connected_graph, restricted_instance, serve_all};
use proptest::prelude::*;
use rnn_core::expansion::network_distance;
use rnn_core::{eager, knn, naive, run_rknn, Algorithm, Precomputed, Scratch};
use rnn_datagen::{
    brite_topology, grid_map, place_points_on_nodes, sample_node_queries, BriteConfig, GridConfig,
};
use rnn_graph::{Graph, GraphBuilder, NodeId, NodePointSet, PointId, PointsOnNodes, Weight};
use rnn_index::{HubLabelIndex, HubLabeling, STORED_RADII};
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

/// The magnitude of a [`Shape`]'s weights.
#[derive(Debug, Clone, Copy)]
enum Scale {
    /// The generated weights.
    One,
    /// The generated weights times `f64::MIN_POSITIVE`: every sum is still
    /// exact, but rounding margins scaled from the sums underflow.
    MinPositive,
    /// Weights near 2^52, where a float's ulp is 1 and sums absorb. A star's
    /// leaves take the weights of [`ABSORBING`] in turn, so odd sums and sums
    /// with the 0.5 leaf round. Only a path of at most two edges is summed in
    /// the same order by the labels as by a Dijkstra expansion, so the other
    /// shapes are scaled by 2^52, which keeps their sums exact and equal to
    /// naive's.
    TwoPow52,
}

const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// The leaf weights of a star at [`Scale::TwoPow52`], leaf `i` taking entry
/// `i % 5`.
const ABSORBING: [f64; 5] = [0.5, TWO_POW_52, TWO_POW_52 + 1.0, TWO_POW_52 + 2.0, 2.0 * TWO_POW_52];

impl Scale {
    fn of(self, weight: f64) -> f64 {
        match self {
            Scale::One => weight,
            Scale::MinPositive => weight * f64::MIN_POSITIVE,
            Scale::TwoPow52 => weight * TWO_POW_52,
        }
    }
}

impl Shape {
    fn num_nodes(&self) -> usize {
        match *self {
            Shape::Grid { rows, cols } => rows * cols,
            Shape::Cycle(n) | Shape::Star(n) => n,
            Shape::Random(ref graph) => graph.num_nodes(),
        }
    }

    /// Adds the shape's edges at `scale` over nodes `base..base + num_nodes()`.
    fn add_to(&self, scale: Scale, b: &mut GraphBuilder, base: usize) {
        let mut edge = |u: usize, v: usize, w: f64| {
            b.add_edge(base + u, base + v, w).expect("valid edge");
        };
        let unit = scale.of(1.0);
        match self {
            &Shape::Grid { rows, cols } => {
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            edge(r * cols + c, r * cols + c + 1, unit);
                        }
                        if r + 1 < rows {
                            edge(r * cols + c, (r + 1) * cols + c, unit);
                        }
                    }
                }
            }
            &Shape::Cycle(n) => (0..n).for_each(|i| edge(i, (i + 1) % n, unit)),
            &Shape::Star(n) => (1..n).for_each(|leaf| {
                let w = if let Scale::TwoPow52 = scale { ABSORBING[leaf % 5] } else { unit };
                edge(0, leaf, w)
            }),
            Shape::Random(graph) => graph
                .edges()
                .for_each(|(_, u, v, w)| edge(u.index(), v.index(), scale.of(w.value()))),
        }
    }
}

fn shape() -> impl Strategy<Value = (Shape, Scale)> {
    let shape = prop_oneof![
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
    ];
    let scale = prop_oneof![Just(Scale::One), Just(Scale::MinPositive), Just(Scale::TwoPow52)];
    (shape, scale)
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
            let n = first.0.num_nodes() + second.as_ref().map_or(0, |(s, _)| s.num_nodes());
            let mut b = GraphBuilder::new(n);
            first.0.add_to(first.1, &mut b, 0);
            if let Some((second, scale)) = &second {
                second.add_to(*scale, &mut b, first.0.num_nodes());
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
    let ks: BTreeSet<usize> = [1, 2, 3, 4, 5, p.saturating_sub(1), p, p + 1, usize::MAX]
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

    /// Differential test of the max-slack gate (k <= 4) and the Lemma 1
    /// prune (k > 4), before and after a random 200-op insert/remove trace
    /// maintained incrementally, with the index equal to a fresh one, radii
    /// and maxima included, after every op.
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
            let fresh = HubLabelIndex::from_labeling(index.labeling().clone(), &point_set(&occupied));
            prop_assert!(index == fresh, "after toggling {}", node);
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
/// The fold runs above the stored radii, so at `k = 5`, with five near
/// points.
#[test]
fn absorbed_sums_make_the_fold_read_the_bucket_tail() {
    let two53 = 9_007_199_254_740_992.0;
    let k = STORED_RADII + 1;
    let near = [0.0625, 0.125, 0.1875, 0.25, 0.3125];
    let leaves = |far: [f64; 3]| [&[0.5][..], &near, &far].concat();
    // Well separated: the far points are rejected unread — the head, entry
    // `k` and the last entry are all the candidate phase looks at.
    let (answer, read) = query_star(&leaves([8.0, 8.0, 16.0]), k);
    assert_eq!(answer, (2..2 + k).collect::<Vec<_>>());
    assert_eq!(read, k as u64 + 2);
    // Absorbed: every far point is as close to the query as to anything
    // else, so all of them are reverse neighbors and all were read.
    let (answer, read) = query_star(&leaves([two53, two53, 2.0 * two53]), k);
    assert_eq!(answer, (2..2 + k + 3).collect::<Vec<_>>());
    assert_eq!(read, k as u64 + 3);
}

/// The gate's own margin at `k = 1`: the two points on 0.5-leaves are 1
/// apart and the query is 1.25 from each, so the largest slack is 0.5, and
/// 0.75 from the hub the query lies beyond it. With the third point at 8
/// the gap is far outside the margin and the hub is skipped unread. At
/// 2^53 the query's sum rounds to 2^53, which ties that point's radius
/// (its nearest point is absorbed too): the margin must open the hub, and
/// the point answers.
#[test]
fn absorbed_sums_make_the_gate_read_the_bucket() {
    let two53 = 9_007_199_254_740_992.0;
    assert_eq!(query_star(&[0.75, 0.5, 0.5, 8.0], 1), (vec![], 0), "skipped unread");
    assert_eq!(query_star(&[0.75, 0.5, 0.5, two53], 1), (vec![4], 3), "absorbed: read");
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

/// The query's distance to the hub exceeds the fifth nearest point's by less
/// than `f32` resolves, and far more than the margin: the fold's guard sees
/// the gap and reads no tail entry. The same star with the gap closed is a
/// real tie: every point behind the nearest five ties its radius, stays a
/// reverse neighbor, and the whole bucket is read.
#[test]
fn a_near_tie_skips_the_tail_and_a_real_tie_reads_it() {
    let gap = 1.0 + f64::from(f32::EPSILON) / 8.0;
    assert_eq!(gap as f32, 1.0);
    let k = STORED_RADII + 1;
    let leaves = |query: f64| [query, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 5.0];
    assert_eq!(
        query_star(&leaves(gap), k),
        ((2..7).collect(), 7),
        "gap seen: the five near points answer, tail unread"
    );
    assert_eq!(
        query_star(&leaves(1.0), k),
        ((2..10).collect(), 8),
        "ties seen: the whole bucket read"
    );
}

/// The same near tie at the gate: two points 2 apart, the query just over 1
/// from the hub they share, so just past their slack of 1, and skipped
/// unread. At exactly 1 the query ties both radii: the hub is read and both
/// answer.
#[test]
fn a_near_tie_is_skipped_by_the_gate_and_a_real_tie_is_read() {
    let gap = 1.0 + f64::from(f32::EPSILON) / 8.0;
    assert_eq!(query_star(&[gap, 1.0, 1.0], 1), (vec![], 0), "gap seen: skipped unread");
    assert_eq!(query_star(&[1.0, 1.0, 1.0], 1), (vec![2, 3], 2), "ties seen: read");
}

/// `index.rknn(query, k)` at every `k` in `1..=5`, the first `k` above the
/// stored radii included, each answer checked against the unpruned fold
/// and the naive baseline.
fn answers_up_to_k5(graph: &Graph, points: &NodePointSet, query: NodeId) -> Vec<Vec<PointId>> {
    let index = HubLabelIndex::build(graph, points);
    (1..=5)
        .map(|k| {
            let out = index.rknn(query, k).points;
            assert_eq!(out, unpruned_rknn(&index, query, k), "q={query} k={k}");
            assert_eq!(out, naive::naive_rknn(graph, points, query, k).points, "q={query} k={k}");
            out
        })
        .collect()
}

/// On a path, the point on node 5 has its `k`-th nearest other point at
/// exactly `k` for `k <= 4`, and the query at distance `k` from it ties
/// that radius: the point answers at `k` and not at `k - 1`. At every
/// scale the tie is exact.
#[test]
fn a_query_at_exactly_the_kth_radius_is_answered() {
    for scale in [Scale::One, Scale::MinPositive, Scale::TwoPow52] {
        let mut b = GraphBuilder::new(11);
        Shape::Grid { rows: 1, cols: 11 }.add_to(scale, &mut b, 0);
        let graph = b.build().expect("valid path");
        let points = NodePointSet::from_nodes(11, [2, 4, 5, 7, 9].map(NodeId::new));
        let index = HubLabelIndex::build(&graph, &points);
        let tied = points.point_at(NodeId::new(5)).expect("occupied");
        for (k, query) in [(1, 6), (2, 3), (3, 8), (4, 1)] {
            let query = NodeId::new(query);
            let radius = index.radii()[tied.index()][k - 1];
            assert_eq!(index.distance(query, NodeId::new(5)), Some(radius), "{scale:?} k={k}");
            assert_eq!(radius.value(), scale.of(k as f64), "{scale:?} k={k}");
            let answers = answers_up_to_k5(&graph, &points, query);
            assert!(answers[k - 1].contains(&tied), "{scale:?} k={k}: a tie never disqualifies");
            if k > 1 {
                assert!(!answers[k - 2].contains(&tied), "{scale:?} k={k}: r_(k-1) is closer");
            }
        }
    }
}

/// With a point on every node, each query sits on a point. That point is
/// never answered, and the rest of the answer equals the references at
/// every `k` and every scale.
#[test]
fn points_on_the_query_node_are_never_answered() {
    let shapes = [Shape::Grid { rows: 3, cols: 4 }, Shape::Cycle(7), Shape::Star(11)];
    for scale in [Scale::One, Scale::MinPositive, Scale::TwoPow52] {
        for shape in &shapes {
            let n = shape.num_nodes();
            let mut b = GraphBuilder::new(n);
            shape.add_to(scale, &mut b, 0);
            let graph = b.build().expect("valid graph");
            let points = NodePointSet::from_predicate(n, |_| true);
            for query in (0..n).map(NodeId::new) {
                let own = points.point_at(query).expect("every node is occupied");
                for (k, answer) in answers_up_to_k5(&graph, &points, query).iter().enumerate() {
                    assert!(!answer.contains(&own), "{shape:?} {scale:?} q={query} k={}", k + 1);
                }
            }
        }
    }
}
