//! Every tiny world, exhaustively: a bounded-exhaustive differential sweep
//! that checks the pruning algorithms against the naive baseline on every
//! world of a fixed small size, not on a sample.
//!
//! * **Every 4-node graph.** Each of the 6 possible edges is absent or has
//!   weight 1, 2 or 3: 4 096 graphs, with ties everywhere and disconnected
//!   ones included. For every non-empty point set, every query node and
//!   `k` in 1..=5, Eager, Eager-M (a table of `K = 5`), Lazy, Lazy-EP and
//!   HubLabel, each run through `run_rknn_with`, answer exactly as naive.
//!   For every point `x` of the set, an index built over the set without `x`
//!   plus `insert_point(x)` answers like a fresh build over the set, and a
//!   build over the set plus `remove_point(x)` answers like a fresh build
//!   over the set without `x`.
//! * **Every 7-node star** with leaf weights in {1, 2, 3} (729 graphs), every
//!   point set of at least 6 nodes, every query node and `k` in 1..=6:
//!   HubLabel and the same insert/remove checks against naive. A 4-node
//!   world holds at most 4 points, so no bucket there lists more than `k`
//!   entries above the index's 4 stored radii, and no point has a finite
//!   4th radius for an insert to tie. The star's hub lists 6 or 7, enough
//!   for the hub-label query to skip a whole bucket at `k` 5 and 6.
//!
//! `GraphBuilder` rejects zero weights, so a zero-weight edge is a builder
//! error rather than a query case; the last test pins that.
//!
//! Release-only (ignored in debug, where the sweep takes minutes).

use rnn_core::materialize::MaterializedKnn;
use rnn_core::{naive, run_rknn_with, Algorithm, Precomputed, Scratch};
use rnn_graph::{Graph, GraphBuilder, GraphError, NodeId, NodePointSet, PointId};
use rnn_index::{HubLabelIndex, HubLabeling};

/// The 6 node pairs of the complete graph on 4 nodes.
const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// Largest `k` of the 4-node sweep; also the eager-M table's `K`.
const MAX_K: usize = 5;

/// The 4-node graph of `code`: base-4 digit `i` is pair `i`'s weight, `0`
/// for no edge.
fn four_node_graph(code: usize) -> Graph {
    let mut b = GraphBuilder::new(4);
    for (i, &(u, v)) in PAIRS.iter().enumerate() {
        let weight = (code >> (2 * i)) & 3;
        if weight > 0 {
            b.add_edge(u, v, weight as f64).unwrap();
        }
    }
    b.build().unwrap()
}

/// The 7-node star of `code`: center 0, and base-3 digit `i` is leaf
/// `i + 1`'s weight minus one.
fn star_graph(code: usize) -> Graph {
    let mut b = GraphBuilder::new(7);
    let mut rest = code;
    for leaf in 1..7 {
        b.add_edge(0, leaf, (rest % 3 + 1) as f64).unwrap();
        rest /= 3;
    }
    b.build().unwrap()
}

/// The point set on the nodes of bit mask `mask`.
fn points(n: usize, mask: usize) -> NodePointSet {
    NodePointSet::from_predicate(n, |node| mask >> node.index() & 1 == 1)
}

/// `answers[q][k - 1]`: an answer at every query node and every `k` from 1.
type Answers = Vec<Vec<Vec<PointId>>>;

/// Naive's [`Answers`] for `k` in `1..=max_k`.
fn naive_answers(g: &Graph, pts: &NodePointSet, max_k: usize) -> Answers {
    (0..g.num_nodes())
        .map(|q| (1..=max_k).map(|k| naive::naive_rknn(g, pts, NodeId::new(q), k).points).collect())
        .collect()
}

/// A graph, a point set on it and naive's answers there.
struct World<'a> {
    name: String,
    g: &'a Graph,
    pts: &'a NodePointSet,
    naive: &'a Answers,
}

impl World<'_> {
    /// Asserts that `algorithm` with `pre` answers as naive at every query
    /// node and every `k` of the naive answers.
    fn assert_answers(&self, algorithm: Algorithm, pre: Precomputed<'_>, scratch: &mut Scratch) {
        for (q, by_k) in self.naive.iter().enumerate() {
            for (k, expected) in (1..).zip(by_k) {
                let out =
                    run_rknn_with(algorithm, self.g, self.pts, pre, NodeId::new(q), k, scratch);
                assert_eq!(&out.points, expected, "{algorithm} on {}, q={q} k={k}", self.name);
            }
        }
    }
}

/// Checks every point set of at least `min_points` points on the graph
/// `name`, at every query node and every `k` in `1..=max_k`: each of
/// `algorithms` answers as naive (eager-M from a table of `K = max_k`), and
/// for every point `x` of the set so do an index built without `x` plus
/// `insert_point(x)` and an index built with `x` plus `remove_point(x)`.
/// Returns the number of point sets checked.
fn sweep(
    name: &str,
    g: &Graph,
    min_points: u32,
    max_k: usize,
    algorithms: &[Algorithm],
    scratch: &mut Scratch,
) -> usize {
    let n = g.num_nodes();
    let labeling = HubLabeling::build(g);
    // The sets checked, and the sets one point smaller that removals reach.
    let sets: Vec<Option<(NodePointSet, Answers)>> = (0..1usize << n)
        .map(|mask| {
            let pts = (mask.count_ones() + 1 >= min_points).then(|| points(n, mask))?;
            let naive = naive_answers(g, &pts, max_k);
            Some((pts, naive))
        })
        .collect();
    let set = |mask: usize| sets[mask].as_ref().expect("a set of at least min_points - 1");
    let world =
        |mask: usize, name: String| World { name, g, pts: &set(mask).0, naive: &set(mask).1 };
    let mut checked = 0;
    for mask in (1..1usize << n).filter(|mask| mask.count_ones() >= min_points) {
        let name = format!("{name}, points {mask:#b}");
        let pts = &set(mask).0;
        let table = MaterializedKnn::build(g, pts, max_k);
        let index = HubLabelIndex::from_labeling(labeling.clone(), pts);
        let pre = Precomputed::materialized(&table).with_hub_labels(&index);
        for &algorithm in algorithms {
            world(mask, name.clone()).assert_answers(algorithm, pre, scratch);
        }
        for x in (0..n).filter(|&x| mask >> x & 1 == 1) {
            let without = mask & !(1 << x);
            let mut grown = HubLabelIndex::from_labeling(labeling.clone(), &set(without).0);
            grown.insert_point(NodeId::new(x));
            world(mask, format!("{name} after inserting node {x}")).assert_answers(
                Algorithm::HubLabel,
                Precomputed::hub_labels(&grown),
                scratch,
            );
            let mut shrunk = index.clone();
            shrunk.remove_point(NodeId::new(x));
            world(without, format!("{name} after removing node {x}")).assert_answers(
                Algorithm::HubLabel,
                Precomputed::hub_labels(&shrunk),
                scratch,
            );
        }
        checked += 1;
    }
    checked
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the exhaustive sweep is slow unoptimised")]
fn every_four_node_world_answers_as_naive() {
    let scratch = &mut Scratch::new();
    let algorithms = [
        Algorithm::Eager,
        Algorithm::EagerMaterialized,
        Algorithm::Lazy,
        Algorithm::LazyExtendedPruning,
        Algorithm::HubLabel,
    ];
    let worlds: usize = (0..1 << (2 * PAIRS.len()))
        .map(|code| {
            sweep(
                &format!("graph {code:#05x}"),
                &four_node_graph(code),
                1,
                MAX_K,
                &algorithms,
                scratch,
            )
        })
        .sum();
    assert_eq!(worlds, 4096 * 15);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the exhaustive sweep is slow unoptimised")]
fn every_dense_seven_node_star_answers_as_naive() {
    let scratch = &mut Scratch::new();
    let worlds: usize = (0..3usize.pow(6))
        .map(|code| {
            sweep(&format!("star {code}"), &star_graph(code), 6, 6, &[Algorithm::HubLabel], scratch)
        })
        .sum();
    assert_eq!(worlds, 729 * 8);
}

#[test]
fn zero_weight_edges_are_a_builder_error() {
    let mut b = GraphBuilder::new(2);
    for weight in [0.0, -0.0] {
        assert!(
            matches!(b.add_edge(0, 1, weight), Err(GraphError::InvalidWeight { .. })),
            "weight {weight}"
        );
    }
    assert_eq!(b.num_edges(), 0);
}
