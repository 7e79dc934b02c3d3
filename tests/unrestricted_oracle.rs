//! A definition-level oracle for RkNN on unrestricted networks, swept over
//! seeded random instances against the native naive, eager and lazy
//! algorithms.
//!
//! The oracle shares nothing with `rnn-core`: all-pairs node distances by
//! Floyd–Warshall over `Graph::edges()`, the distance between two positions
//! as the minimum over the four endpoint combinations and the direct distance
//! along a shared edge, and `p ∈ RkNN(q)` iff `0 < d(p, q) < ∞` and fewer than
//! `k` other points `p'` have `d(p, p') < d(p, q)`. Weights and offsets are
//! multiples of 0.5, so every path sum is exact and ties are real ties.
//!
//! Unlike `common::unrestricted_instance()`, the instances place points on
//! both boundaries of an edge (i.e. on nodes, possibly the same node through
//! different edges), let points coincide, leave some graphs disconnected, and
//! query at arbitrary positions as well as at data points.

use rnn_core::unrestricted::{
    unrestricted_eager_rknn, unrestricted_lazy_rknn, unrestricted_naive_rknn,
};
use rnn_graph::{
    EdgeId, EdgeLocation, EdgePointSetBuilder, EdgePosition, Graph, GraphBuilder, PointId, Weight,
};

const INSTANCES: u64 = 4_000;

/// SplitMix64: a seeded stream good enough to shape test instances.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A position as the oracle sees it: the endpoints and weight of its edge and
/// the offset from the lower endpoint.
#[derive(Copy, Clone, Debug)]
struct Place {
    edge: EdgeId,
    lo: usize,
    hi: usize,
    weight: f64,
    offset: f64,
}

struct Instance {
    graph: Graph,
    /// `(edge, offset)` of every point handed to the builder.
    placements: Vec<(EdgeId, f64)>,
}

/// 3..=27 nodes in a random tree (one tree edge in sixteen is left out, so
/// some graphs are forests) plus up to `n` extra edges, weights 0.5..=4.0 in
/// steps of 0.5; 1..=14 points, a quarter of them on an edge boundary and one
/// in six on top of an earlier point.
fn instance(rng: &mut Rng) -> Instance {
    let n = 3 + rng.below(25);
    let mut builder = GraphBuilder::new(n);
    let weight = |rng: &mut Rng| 0.5 * (1 + rng.below(8)) as f64;
    for v in 1..n {
        if v == 1 || rng.below(16) != 0 {
            builder.add_edge(v, rng.below(v), weight(rng)).expect("tree edge");
        }
    }
    for _ in 0..rng.below(n + 1) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b && !builder.has_edge(a, b) {
            builder.add_edge(a, b, weight(rng)).expect("extra edge");
        }
    }
    let graph = builder.build().expect("valid random graph");
    let mut placements: Vec<(EdgeId, f64)> = Vec::new();
    for _ in 0..1 + rng.below(14) {
        if !placements.is_empty() && rng.below(6) == 0 {
            placements.push(placements[rng.below(placements.len())]);
        } else {
            placements.push(position(rng, &graph));
        }
    }
    Instance { graph, placements }
}

/// A random `(edge, offset)`: a boundary one time in four, otherwise any
/// multiple of 0.5 within the edge.
fn position(rng: &mut Rng, graph: &Graph) -> (EdgeId, f64) {
    let edge = EdgeId::new(rng.below(graph.num_edges()));
    let w = graph.edge_weight(edge).value();
    let offset = match rng.below(8) {
        0 => 0.0,
        1 => w,
        _ => 0.5 * rng.below((w / 0.5) as usize + 1) as f64,
    };
    (edge, offset)
}

/// All-pairs node distances, `INFINITY` between components.
fn floyd_warshall(graph: &Graph) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0.0;
    }
    for (_, lo, hi, w) in graph.edges() {
        let (lo, hi) = (lo.index(), hi.index());
        d[lo][hi] = d[lo][hi].min(w.value());
        d[hi][lo] = d[lo][hi];
    }
    for via in 0..n {
        for a in 0..n {
            for b in 0..n {
                let through = d[a][via] + d[via][b];
                if through < d[a][b] {
                    d[a][b] = through;
                }
            }
        }
    }
    d
}

fn place(graph: &Graph, edge: EdgeId, offset: f64) -> Place {
    let (lo, hi) = graph.edge_endpoints(edge);
    Place { edge, lo: lo.index(), hi: hi.index(), weight: graph.edge_weight(edge).value(), offset }
}

/// Network distance between two positions.
fn distance(nodes: &[Vec<f64>], a: &Place, b: &Place) -> f64 {
    let mut best = if a.edge == b.edge { (a.offset - b.offset).abs() } else { f64::INFINITY };
    for (x, ax) in [(a.lo, a.offset), (a.hi, a.weight - a.offset)] {
        for (y, by) in [(b.lo, b.offset), (b.hi, b.weight - b.offset)] {
            best = best.min(ax + nodes[x][y] + by);
        }
    }
    best
}

/// RkNN(q) by definition, in point-id order.
fn oracle(nodes: &[Vec<f64>], points: &[Place], query: &Place, k: usize) -> Vec<PointId> {
    let mut result = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let to_query = distance(nodes, p, query);
        if to_query == 0.0 || to_query.is_infinite() {
            continue;
        }
        let closer = points
            .iter()
            .enumerate()
            .filter(|&(j, other)| j != i && distance(nodes, p, other) < to_query)
            .count();
        if closer < k {
            result.push(PointId::new(i));
        }
    }
    result
}

#[test]
fn native_algorithms_match_the_definition_on_seeded_instances() {
    let mut rng = Rng(0x5eed_2005);
    let (mut away_from_points, mut reported) = (0, 0);
    for i in 0..INSTANCES {
        let Instance { graph, placements } = instance(&mut rng);
        let mut builder = EdgePointSetBuilder::new(&graph);
        for &(edge, offset) in &placements {
            builder.add_point(edge, offset).expect("offset within the edge");
        }
        let points = builder.build();
        // The builder assigns ids in (edge, offset) order: read the places
        // back from the set, not from the insertion order.
        let places: Vec<Place> =
            points.iter().map(|(_, loc)| place(&graph, loc.edge, loc.offset.value())).collect();
        let nodes = floyd_warshall(&graph);
        let k = 1 + (i % 3) as usize;

        let at_point = points.location(PointId::new(rng.below(points.num_points())));
        let (edge, offset) = position(&mut rng, &graph);
        let anywhere = EdgeLocation { edge, offset: Weight::new(offset) };
        for location in [at_point, anywhere] {
            let query = EdgePosition::resolve(&graph, location);
            let query_place = place(&graph, location.edge, location.offset.value());
            let expected = oracle(&nodes, &places, &query_place, k);
            let context = || format!("instance {i}, k={k}, query {location:?}, points {places:?}");
            let naive = unrestricted_naive_rknn(&graph, &points, &query, k);
            assert_eq!(naive.points, expected, "naive: {}", context());
            let eager = unrestricted_eager_rknn(&graph, &points, &query, k);
            assert_eq!(eager.points, expected, "eager: {}", context());
            let lazy = unrestricted_lazy_rknn(&graph, &points, &query, k);
            assert_eq!(lazy.points, expected, "lazy: {}", context());
            reported += expected.len() as u64;
            away_from_points +=
                u64::from(places.iter().all(|p| distance(&nodes, p, &query_place) > 0.0));
        }
    }
    // The sweep is not vacuous: queries away from every data point ran, and
    // reverse neighbours were reported.
    assert!(away_from_points > INSTANCES / 2, "{away_from_points} queries away from every point");
    assert!(reported > INSTANCES, "{reported} reverse neighbours in all");
}
