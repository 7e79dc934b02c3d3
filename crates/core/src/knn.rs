//! Nearest-neighbor primitives: k-NN search and the *range-NN* query.
//!
//! Section 3.1 of the paper defines two flavours of NN search used by the RNN
//! algorithms:
//!
//! * a plain k-NN query around a node (used by the naive baseline, the
//!   materialization code and the examples), and
//! * `range-NN(n, k, e)`: "retrieves the k nearest data points with network
//!   distance **smaller than** `e` from `n`, if such `k` points exist;
//!   otherwise it returns a smaller number (possibly 0) of NNs". This is the
//!   pruning probe of the eager algorithm.
//!
//! The range-NN probe takes an `exclude` predicate so callers can keep the
//! data point collocated with the query *out of the probe entirely*: such a
//! point ties with the query everywhere and must neither count against the
//! Lemma-1 pruning bound nor occupy one of the probe's `k` result slots (a
//! post-probe filter would waste a slot at exact-tie nodes, settling extra
//! nodes for nothing).
//!
//! The probe is written over a [`PointSource`]: over points on nodes it is
//! the paper's range-NN, over points on edges its `unrestricted-range-NN`.

use crate::expansion::{Event, NetworkExpansion, PointExpansion};
use crate::scratch::Scratch;
use rnn_graph::{NodeId, PointId, PointSource, PointsOnNodes, Topology, Weight};
use rnn_obs::Phase;

/// Result of a k-NN style probe, together with the number of nodes the
/// expansion settled (the CPU-work the probe cost).
#[derive(Clone, Debug, PartialEq)]
pub struct NnProbe {
    /// The data points found, as `(point, distance)` in ascending distance
    /// order.
    pub found: Vec<(PointId, Weight)>,
    /// Nodes settled by the probe's expansion.
    pub settled: u64,
}

/// Retrieves the `k` nearest data points of `source` (including a point
/// residing on `source` itself, at distance zero).
pub fn k_nearest<T, P>(topo: &T, points: &P, source: NodeId, k: usize) -> NnProbe
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    // `k` is request input: reserve for what can be found, not what is asked.
    let mut found = Vec::with_capacity(k.min(points.num_points()));
    if k == 0 {
        return NnProbe { found, settled: 0 };
    }
    let mut exp = NetworkExpansion::new(topo, source);
    while let Some((node, dist)) = exp.next_settled() {
        if let Some(p) = points.point_at(node) {
            found.push((p, dist));
            if found.len() == k {
                break;
            }
        }
    }
    NnProbe { found, settled: exp.settled_count() }
}

/// The paper's `range-NN(n, k, e)` query: the `k` nearest data points of
/// `source` with distance strictly smaller than `range`, skipping points for
/// which `exclude` returns `true`.
///
/// Excluded points do not occupy result slots and do not stop the expansion:
/// the probe keeps searching for `k` *countable* points. Pass `|_| false` to
/// exclude nothing. The expansion stops as soon as `k` points are found, the
/// distance of a node or a point reaches `range`, or the graph is exhausted.
pub fn range_nn<T, S, F>(
    topo: &T,
    points: &S,
    source: NodeId,
    k: usize,
    range: Weight,
    exclude: F,
) -> NnProbe
where
    T: Topology + ?Sized,
    S: PointSource + ?Sized,
    F: Fn(PointId) -> bool,
{
    let mut found = Vec::with_capacity(k.min(8));
    let settled =
        range_nn_into(topo, points, source, k, range, &exclude, &mut Scratch::new(), &mut found);
    NnProbe { found, settled }
}

/// [`range_nn`] writing into a caller-provided buffer (cleared here) on
/// recycled expansion buffers, so steady-state probes allocate nothing.
/// Returns the number of nodes the probe settled.
#[allow(clippy::too_many_arguments)] // mirrors range-NN(n, k, e) plus the reuse plumbing
pub fn range_nn_into<T, S, F>(
    topo: &T,
    points: &S,
    source: NodeId,
    k: usize,
    range: Weight,
    exclude: &F,
    scratch: &mut Scratch,
    out: &mut Vec<(PointId, Weight)>,
) -> u64
where
    T: Topology + ?Sized,
    S: PointSource + ?Sized,
    F: Fn(PointId) -> bool + ?Sized,
{
    out.clear();
    if k == 0 || range == Weight::ZERO {
        return 0;
    }
    let probe = scratch.tracer().begin();
    let mut exp = PointExpansion::from_node(topo, points, source, scratch.take_expansion());
    while let Some(event) = exp.next_event_unexpanded() {
        let dist = event.dist();
        if dist >= range {
            break;
        }
        if let Some(p) = exp.revealed(&event).filter(|&p| !exclude(p)) {
            out.push((p, dist));
            if out.len() == k {
                break;
            }
        }
        if let Event::Node(node, _) = event {
            exp.expand(node, dist);
        }
    }
    let settled = exp.settled_count();
    scratch.put_expansion(exp.into_buffers());
    scratch.tracer_mut().end(Phase::RangeNn, probe, settled);
    settled
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    /// Path graph 0 -2- 1 -2- 2 -2- 3 -2- 4 with points on 0 and 4.
    fn path_graph() -> (Graph, NodePointSet) {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 2.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(4)]);
        (g, pts)
    }

    fn keep_all(_: PointId) -> bool {
        false
    }

    #[test]
    fn k_nearest_returns_points_in_distance_order() {
        let (g, pts) = path_graph();
        let probe = k_nearest(&g, &pts, NodeId::new(1), 2);
        assert_eq!(probe.found.len(), 2);
        assert_eq!(probe.found[0].0, pts.point_at(NodeId::new(0)).unwrap());
        assert_eq!(probe.found[0].1.value(), 2.0);
        assert_eq!(probe.found[1].1.value(), 6.0);
        assert!(probe.settled >= 2);
    }

    #[test]
    fn k_nearest_includes_point_on_source_at_distance_zero() {
        let (g, pts) = path_graph();
        let probe = k_nearest(&g, &pts, NodeId::new(0), 1);
        assert_eq!(probe.found, vec![(pts.point_at(NodeId::new(0)).unwrap(), Weight::ZERO)]);
    }

    #[test]
    fn k_nearest_with_fewer_points_than_k() {
        let (g, pts) = path_graph();
        // Node 1 is 2 from the point on node 0 and 6 from the one on node 4.
        let all = k_nearest(&g, &pts, NodeId::new(1), 2).found;
        for k in [5, pts.num_points() + 1, usize::MAX] {
            assert_eq!(k_nearest(&g, &pts, NodeId::new(1), k).found, all, "k = {k}");
        }
        assert_eq!(k_nearest(&g, &pts, NodeId::new(2), 0).found.len(), 0);
    }

    #[test]
    fn range_nn_is_strict_on_the_range() {
        let (g, pts) = path_graph();
        // The nearest point of node 2 is at distance 4 (both sides).
        let probe = range_nn(&g, &pts, NodeId::new(2), 1, Weight::new(4.0), keep_all);
        assert!(probe.found.is_empty(), "distance == range must not qualify");
        let probe = range_nn(&g, &pts, NodeId::new(2), 1, Weight::new(4.1), keep_all);
        assert_eq!(probe.found.len(), 1);
        // Paper example: range-NN(n4, 1, 7) is empty because d(p1, n4) = 7 >= e.
    }

    #[test]
    fn range_nn_stops_after_k_points() {
        let (g, pts) = path_graph();
        let probe = range_nn(&g, &pts, NodeId::new(1), 1, Weight::new(100.0), keep_all);
        assert_eq!(probe.found.len(), 1);
        assert_eq!(probe.found[0].1.value(), 2.0);
        // k = 2 with a large range finds both
        let probe = range_nn(&g, &pts, NodeId::new(1), 2, Weight::new(100.0), keep_all);
        assert_eq!(probe.found.len(), 2);
        // zero range or zero k return empty without settling anything
        assert_eq!(range_nn(&g, &pts, NodeId::new(1), 2, Weight::ZERO, keep_all).settled, 0);
        assert_eq!(
            range_nn(&g, &pts, NodeId::new(1), 0, Weight::new(5.0), keep_all).found.len(),
            0
        );
    }

    #[test]
    fn excluded_points_free_their_result_slot() {
        let (g, pts) = path_graph();
        let p0 = pts.point_at(NodeId::new(0)).unwrap();
        // Probing from node 1 with k = 1: normally p0 (distance 2) fills the
        // single slot. Excluding p0 must let the probe continue to the point
        // on node 4 (distance 6) instead of returning p0 or stopping early.
        let probe = range_nn(&g, &pts, NodeId::new(1), 1, Weight::new(100.0), |p| p == p0);
        assert_eq!(probe.found.len(), 1);
        assert_eq!(probe.found[0].0, pts.point_at(NodeId::new(4)).unwrap());
        assert_eq!(probe.found[0].1.value(), 6.0);
        // Excluding everything finds nothing but still scans the range.
        let probe = range_nn(&g, &pts, NodeId::new(1), 1, Weight::new(100.0), |_| true);
        assert!(probe.found.is_empty());
        assert_eq!(probe.settled, 5, "the probe scans the whole graph");
    }

    #[test]
    fn scratch_backed_probes_match_the_allocating_path() {
        let (g, pts) = path_graph();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for (k, range) in [(1usize, 4.1), (2, 100.0), (1, 4.0)] {
            let settled = range_nn_into(
                &g,
                &pts,
                NodeId::new(2),
                k,
                Weight::new(range),
                &keep_all,
                &mut scratch,
                &mut out,
            );
            let fresh = range_nn(&g, &pts, NodeId::new(2), k, Weight::new(range), keep_all);
            assert_eq!(out, fresh.found, "k={k} range={range}");
            assert_eq!(settled, fresh.settled, "k={k} range={range}");
        }
        assert!(scratch.reuses() > 0, "the expansion buffers must be recycled");
    }
}
