//! Verification queries.
//!
//! A verification query `verify(p, k, q)` checks whether the query location
//! is among the k nearest neighbors of a candidate data point `p`; the paper
//! implements it as a range-NN query around the node containing `p` whose
//! range is implied by the distance at which `q` is encountered. A candidate
//! `p` belongs to the RkNN result iff fewer than `k` *other* data points lie
//! strictly closer to `p` than the query does.
//!
//! The primitive is written over a [`PointSource`], whose location type says
//! what a target is: a node, *any* node of a route (continuous queries), or a
//! position on an edge (unrestricted networks).

use crate::expansion::{Event, NetworkExpansion, PointExpansion};
use crate::scratch::Scratch;
use rnn_graph::{NodeId, PointId, PointSource, PointsOnNodes, Topology, Weight};
use rnn_obs::Phase;

/// Outcome of a verification query.
#[derive(Clone, Debug, PartialEq)]
pub struct Verification {
    /// `true` if the candidate is a reverse k nearest neighbor.
    pub accepted: bool,
    /// Distance from the candidate to the target (the nearest of its nodes),
    /// when it was reached before the query could be rejected.
    pub target_distance: Option<Weight>,
    /// Nodes settled by the verification expansion.
    pub settled: u64,
    /// The nodes settled strictly before the target, with their distances
    /// from the candidate. The lazy algorithm uses these for its
    /// counter-based pruning; other callers can ignore them (the vector is
    /// only populated when `collect_visited` is set).
    pub visited: Vec<(NodeId, Weight)>,
}

/// Parameters of [`verify_candidate_in`].
#[derive(Clone, Copy, Debug)]
pub struct VerifyParams {
    /// The `k` of the RkNN query.
    pub k: usize,
    /// Whether to collect the nodes settled strictly before the target
    /// (needed by the lazy algorithm's pruning side effects).
    pub collect_visited: bool,
}

/// Verifies whether the data point `candidate` is a reverse k nearest
/// neighbor of the `target` location: an expansion from the candidate's own
/// location that stops when the target is reached, or when `k` other points
/// are known to be strictly closer than the target can still be. Every
/// driver verifies through the crate's one verify-once path
/// (`candidates.rs`), on recycled buffers from `scratch`.
///
/// `target` is a single node for plain queries, the nodes of a route for
/// continuous ones (reaching any of them counts) and a position on an edge
/// in unrestricted networks. `candidate` itself is never counted as "another
/// point".
///
/// The returned [`Verification::visited`] vector (populated only under
/// `collect_visited`) comes from the arena; callers that want to keep the
/// steady state allocation-free should hand it back with
/// `scratch.put_node_dists(v.visited)` once processed.
pub fn verify_candidate_in<T, S>(
    topo: &T,
    points: &S,
    candidate: PointId,
    target: &S::Location,
    params: VerifyParams,
    scratch: &mut Scratch,
) -> Verification
where
    T: Topology + ?Sized,
    S: PointSource + ?Sized,
{
    let k = params.k;
    debug_assert!(k >= 1, "RkNN queries require k >= 1");
    let span = scratch.tracer().begin();
    let from = points.location_of(candidate);
    let mut exp =
        PointExpansion::from_location(topo, points, &from, Some(target), scratch.take_expansion());
    // Distances of the other data points discovered so far (ascending because
    // events arrive in distance order).
    let mut other_points = scratch.take_weights();
    let mut visited = if params.collect_visited { scratch.take_node_dists() } else { Vec::new() };

    let mut target_distance = None;
    while let Some(event) = exp.next_event() {
        let dist = event.dist();
        let reached = match event {
            Event::Target(_) => true,
            Event::Node(node, _) => points.covers(target, node),
            Event::Point(..) => false,
        };
        if reached {
            target_distance = Some(dist);
            break;
        }
        if let (Event::Node(node, _), true) = (event, params.collect_visited) {
            visited.push((node, dist));
        }
        if exp.revealed(&event).is_some_and(|p| p != candidate) {
            other_points.push(dist);
        }
        // Early rejection: once k other points have been found and the
        // expansion has moved strictly past the k-th of them, any target
        // found later is strictly farther than k other points.
        if other_points.len() >= k && dist > other_points[k - 1] {
            break;
        }
    }
    // The candidate is a reverse neighbor iff the target was reached — it is
    // not after an early rejection, nor when it is unreachable — with fewer
    // than k other points strictly closer.
    let accepted = target_distance
        .is_some_and(|reached| other_points.iter().filter(|&&d| d < reached).count() < k);
    if let (Some(reached), true) = (target_distance, params.collect_visited) {
        // Only nodes strictly closer to the candidate than the target
        // participate in Lemma-1 pruning.
        visited.retain(|&(_, d)| d < reached);
    }

    let settled = exp.settled_count();
    scratch.put_expansion(exp.into_buffers());
    scratch.put_weights(other_points);
    scratch.tracer_mut().end(Phase::Verification, span, settled);
    Verification { accepted, target_distance, settled, visited }
}

/// Counts data points other than `exclude` with distance strictly smaller
/// than `bound` from `source`, stopping early once `limit` such points have
/// been found. Used by the bichromatic driver.
pub fn count_points_strictly_within<T, P>(
    topo: &T,
    points: &P,
    source: NodeId,
    exclude: Option<PointId>,
    bound: Weight,
    limit: usize,
) -> usize
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    if limit == 0 || bound == Weight::ZERO {
        return 0;
    }
    let mut exp = NetworkExpansion::new(topo, source);
    let mut count = 0;
    while let Some((node, dist)) = exp.next_settled() {
        if dist >= bound {
            break;
        }
        if let Some(p) = points.point_at(node) {
            if Some(p) != exclude {
                count += 1;
                if count >= limit {
                    break;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder, NodeLocation, NodePointSet};

    fn verify_candidate(
        g: &Graph,
        pts: &NodePointSet,
        candidate: PointId,
        target: &NodeLocation,
        params: VerifyParams,
    ) -> Verification {
        verify_candidate_in(g, pts, candidate, target, params, &mut Scratch::new())
    }

    /// 0 -1- 1 -1- 2 -1- 3 -1- 4 ; points on 0, 2, 4.
    fn line() -> (Graph, NodePointSet) {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(2), NodeId::new(4)]);
        (g, pts)
    }

    fn params(k: usize) -> VerifyParams {
        VerifyParams { k, collect_visited: false }
    }

    #[test]
    fn accepts_when_query_is_nearest() {
        let (g, pts) = line();
        // candidate = point on node 0; query at node 1 (distance 1); the
        // nearest other point (node 2) is at distance 2 -> accepted for k=1.
        let p0 = pts.point_at(NodeId::new(0)).unwrap();
        let v = verify_candidate(&g, &pts, p0, &NodeId::new(1).into(), params(1));
        assert!(v.accepted);
        assert_eq!(v.target_distance.unwrap().value(), 1.0);
    }

    #[test]
    fn rejects_when_another_point_is_strictly_closer() {
        let (g, pts) = line();
        // candidate = point on node 2; query at node 4 is at distance 2, but
        // points on 0 and 4... point on 4 IS the query location here; use
        // query at node 3 (distance 1): nothing is strictly closer -> accept;
        // then query at node 4 (distance 2): point on node 0 is at distance 2
        // (not strictly closer), point on node 4 is the target itself -> accept.
        let p2 = pts.point_at(NodeId::new(2)).unwrap();
        let v = verify_candidate(&g, &pts, p2, &NodeId::new(3).into(), params(1));
        assert!(v.accepted);

        // query at node 1: point on node 0 is at distance 2 == d(p2, n1)?
        // d(p2, n1) = 1, so nothing closer -> accept.
        let v = verify_candidate(&g, &pts, p2, &NodeId::new(1).into(), params(1));
        assert!(v.accepted);

        // candidate = point on node 4, query at node 1 (distance 3): the
        // point on node 2 is strictly closer (distance 2) -> reject for k=1,
        // accept for k=2.
        let p4 = pts.point_at(NodeId::new(4)).unwrap();
        let v = verify_candidate(&g, &pts, p4, &NodeId::new(1).into(), params(1));
        assert!(!v.accepted);
        let v = verify_candidate(&g, &pts, p4, &NodeId::new(1).into(), params(2));
        assert!(v.accepted);
    }

    #[test]
    fn ties_do_not_disqualify() {
        // candidate p on node 2; another point at distance exactly equal to
        // the query distance must not reject the candidate.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0).unwrap(); // other point side
        b.add_edge(1, 2, 2.0).unwrap(); // not used
        b.add_edge(1, 3, 2.0).unwrap(); // query side
        let g = b.build().unwrap();
        // candidate on node 1, other point on node 0 (distance 2), query node 3 (distance 2)
        let pts = NodePointSet::from_nodes(4, [NodeId::new(0), NodeId::new(1)]);
        let cand = pts.point_at(NodeId::new(1)).unwrap();
        let v = verify_candidate(&g, &pts, cand, &NodeId::new(3).into(), params(1));
        assert!(v.accepted, "a tie with another point must not disqualify the candidate");
    }

    #[test]
    fn unreachable_target_is_rejected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(4, [NodeId::new(0)]);
        let p = pts.point_at(NodeId::new(0)).unwrap();
        let v = verify_candidate(&g, &pts, p, &NodeId::new(3).into(), params(1));
        assert!(!v.accepted);
        assert_eq!(v.target_distance, None);
    }

    #[test]
    fn early_rejection_does_not_scan_the_whole_graph() {
        // long path with many points between candidate and a far query
        let n = 50;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(n, (0..n).step_by(2).map(NodeId::new));
        let cand = pts.point_at(NodeId::new(0)).unwrap();
        let v = verify_candidate(&g, &pts, cand, &NodeId::new(n - 1).into(), params(1));
        assert!(!v.accepted);
        assert!(
            v.settled < 10,
            "early termination should settle a handful of nodes, settled {}",
            v.settled
        );
    }

    #[test]
    fn collect_visited_returns_only_nodes_strictly_before_target() {
        let (g, pts) = line();
        let p0 = pts.point_at(NodeId::new(0)).unwrap();
        let v = verify_candidate(
            &g,
            &pts,
            p0,
            &NodeId::new(2).into(),
            VerifyParams { k: 2, collect_visited: true },
        );
        assert!(v.accepted);
        let visited_nodes: Vec<usize> = v.visited.iter().map(|(n, _)| n.index()).collect();
        assert_eq!(visited_nodes, vec![0, 1]);
    }

    #[test]
    fn count_points_strictly_within_respects_bound_and_limit() {
        let (g, pts) = line();
        // from node 2: points at distances 0 (itself), 2 (node 0), 2 (node 4)
        let p2 = pts.point_at(NodeId::new(2)).unwrap();
        assert_eq!(
            count_points_strictly_within(&g, &pts, NodeId::new(2), Some(p2), Weight::new(2.0), 10),
            0
        );
        assert_eq!(
            count_points_strictly_within(&g, &pts, NodeId::new(2), Some(p2), Weight::new(2.5), 10),
            2
        );
        assert_eq!(
            count_points_strictly_within(&g, &pts, NodeId::new(2), Some(p2), Weight::new(2.5), 1),
            1
        );
        assert_eq!(
            count_points_strictly_within(&g, &pts, NodeId::new(2), None, Weight::new(0.5), 10),
            1,
            "the candidate's own node counts when not excluded"
        );
        assert_eq!(
            count_points_strictly_within(&g, &pts, NodeId::new(2), None, Weight::ZERO, 10),
            0
        );
    }
}
