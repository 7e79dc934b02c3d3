//! Verify once (eager in Fig. 4, lazy in Fig. 7), written once for eager,
//! lazy, lazy-EP, eager-M and naive: a per-point mark in a pooled
//! [`NodeTable`], the candidate / verification counts, the one call to
//! [`verify_candidate_in`] and the result list. Which points a driver offers,
//! and where it leaves out a point at the query, stay with the driver.

use crate::node_table::NodeTable;
use crate::query::{QueryStats, RknnOutcome};
use crate::scratch::Scratch;
use crate::verify::{verify_candidate_in, Verification, VerifyParams};
use rnn_graph::{PointId, PointSource, Topology};

/// The candidates of one query (see the module docs).
pub(crate) struct Candidates {
    discovered: NodeTable<(), PointId>,
    accepted: Vec<PointId>,
    params: VerifyParams,
}

impl Candidates {
    /// Starts a query's bookkeeping; every verification runs with `params`.
    pub(crate) fn new(params: VerifyParams, scratch: &mut Scratch) -> Self {
        Candidates { discovered: scratch.take_point_marks(), accepted: Vec::new(), params }
    }

    /// Marks `p` discovered; `true` the first time only.
    #[inline]
    pub(crate) fn discover(&mut self, p: PointId) -> bool {
        self.discovered.insert(p, ()).is_none()
    }

    /// Verifies, counts and, if it is a reverse neighbor, keeps `p`; lazy
    /// also reads the visited nodes of the returned [`Verification`].
    pub(crate) fn verify<T, S>(
        &mut self,
        topo: &T,
        points: &S,
        p: PointId,
        query: &S::Location,
        stats: &mut QueryStats,
        scratch: &mut Scratch,
    ) -> Verification
    where
        T: Topology + ?Sized,
        S: PointSource + ?Sized,
    {
        stats.candidates += 1;
        stats.verifications += 1;
        let v = verify_candidate_in(topo, points, p, query, self.params, scratch);
        stats.auxiliary_settled += v.settled;
        if v.accepted {
            self.accepted.push(p);
        }
        v
    }

    /// Keeps the candidate `p` without a verification (eager-M, when its
    /// table already proves membership); it still counts as a candidate.
    pub(crate) fn accept(&mut self, p: PointId, stats: &mut QueryStats) {
        stats.candidates += 1;
        self.accepted.push(p);
    }

    /// The query's outcome; the marks go back to `scratch`.
    pub(crate) fn finish(self, stats: QueryStats, scratch: &mut Scratch) -> RknnOutcome {
        scratch.put_point_marks(self.discovered);
        RknnOutcome::from_points(self.accepted, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{GraphBuilder, NodeId, NodePointSet, PointsOnNodes};

    #[test]
    fn discovers_once_counts_each_path_and_comes_back_empty() {
        // 0 -1- 1 -1- 2 -1- 3 ; points on 0, 2 and 3; query at node 1.
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(4, [0, 2, 3].map(NodeId::new));
        let [p0, p2, p3] = [0, 2, 3].map(|n| pts.point_at(NodeId::new(n)).unwrap());
        let query = NodeId::new(1).into();
        let params = VerifyParams { k: 1, collect_visited: false };
        let mut scratch = Scratch::new();
        let mut stats = QueryStats::default();

        let mut cands = Candidates::new(params, &mut scratch);
        assert!(cands.discover(p3) && !cands.discover(p3));
        // p3's nearest point is p2, not the query: counted, not kept.
        assert!(!cands.verify(&g, &pts, p3, &query, &mut stats, &mut scratch).accepted);
        assert!(cands.verify(&g, &pts, p0, &query, &mut stats, &mut scratch).accepted);
        cands.accept(p2, &mut stats);
        assert_eq!((stats.candidates, stats.verifications), (3, 2));
        assert!(stats.auxiliary_settled > 0);
        let out = cands.finish(stats, &mut scratch);
        assert_eq!(out.points, [p0, p2]);

        // The pooled marks come back cleared.
        let created = scratch.created();
        let mut cands = Candidates::new(params, &mut scratch);
        assert_eq!(scratch.created(), created, "the marks were reused");
        assert!(cands.discover(p3), "a new query discovers p3 afresh");
        assert!(cands.finish(QueryStats::default(), &mut scratch).is_empty());
    }
}
