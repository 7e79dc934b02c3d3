//! The queryable hub-label index: labeling + point table + the ReHub-style
//! RkNN algorithm.
//!
//! All queries here touch *only* label arrays — never an adjacency list.
//! That changes the cost model completely: where the expansion algorithms
//! charge page accesses per visited node, the index charges a few sorted
//! scans whose length is bounded by the label size. The
//! [`rnn_core::QueryStats`] counters are therefore reinterpreted (and
//! documented on [`HubLabelIndex::rknn_in`]) as label-scan counts, keeping
//! the engine's aggregation machinery meaningful without new fields.
//!
//! The monochromatic RkNN query runs in two label-only phases, mirroring
//! ReHub's candidate/verification split:
//!
//! 1. **Candidates.** Scan the buckets of the query's hubs once, folding
//!    `d(q, h) + d(h, p)` to the minimum per occupied node. By the 2-hop
//!    cover this minimum is the exact `d(q, p)` for every point in the
//!    query's component (and only those points are touched). The paper's
//!    Lemma 1 is applied inside the fold: the shortest path to `p` "runs
//!    through" the hub attaining the minimum, and that hub's bucket lists
//!    its nearest points first, so entry `j` of a hub at distance `a` is
//!    left out when `fl(d_j + d_r) < fl(a + d_j)`, `d_r` being the bucket's
//!    `k`-th nearest entry other than `j` — `k` points lie strictly closer
//!    to `p` than the query does. The test is the comparison phase 2 would
//!    make at that hub, so it removes no reverse neighbor: a point left out
//!    at its attaining hub is one phase 2 rejects, and if another hub still
//!    folds it, at a longer sum, phase 2 counts against a larger bound and
//!    rejects it all the same. Buckets ascend, so once the query is farther
//!    from the hub than the hub's `k`-th point by more than a rounding
//!    margin, every entry past the first `k` is skipped without being read.
//! 2. **Verification.** For each candidate `p` with `d(q, p) > 0`, count
//!    distinct other points within distance `< d(q, p)` of `p` by scanning
//!    the bucket *prefixes* of `p`'s hubs (buckets are distance-sorted, so
//!    each scan stops at the bound), short-circuiting once `k` are found.
//!    `p` is a reverse neighbor iff fewer than `k` such points exist —
//!    exactly the semantics of the expansion algorithms, ties included.
//!
//! Labels are read through a pooled [`LabelDecoder`], so both label layouts
//! (full-width and compressed, see [`HubLabeling::compressed`]) serve
//! steady-state queries allocation-free.

use crate::labeling::{HubLabeling, LabelDecoder, LabelPrecision};
use crate::point_table::HubPointTable;
use rnn_core::precomputed::HubLabelRknn;
use rnn_core::query::{QueryStats, RknnOutcome};
use rnn_core::scratch::Scratch;
use rnn_core::NodeTable;
use rnn_graph::{NodeId, NodePointSet, PointId, PointsOnNodes, Topology, Weight};
use rnn_obs::{MetricsRegistry, Phase};

/// A hub labeling bundled with the inverted point table of one data set,
/// answering distance, k-NN and RkNN queries without graph traversal.
#[derive(Clone, Debug, PartialEq)]
pub struct HubLabelIndex {
    labeling: HubLabeling,
    table: HubPointTable,
}

impl HubLabelIndex {
    /// Builds labeling and point table in one go. Preprocessing cost is one
    /// pruned Dijkstra per node plus one sort of the inverted entries; query
    /// cost afterwards is label scans only.
    pub fn build<T, P>(topo: &T, points: &P) -> Self
    where
        T: Topology + ?Sized,
        P: PointsOnNodes + ?Sized,
    {
        Self::build_with_threads(topo, points, 1)
    }

    /// [`HubLabelIndex::build`] with the level-parallel label construction
    /// of [`HubLabeling::build_with_threads`]. The index is identical at
    /// every thread count.
    pub fn build_with_threads<T, P>(topo: &T, points: &P, threads: usize) -> Self
    where
        T: Topology + ?Sized,
        P: PointsOnNodes + ?Sized,
    {
        let labeling = HubLabeling::build_with_threads(topo, threads);
        Self::from_labeling(labeling, points)
    }

    /// Reuses an existing labeling for a (new) point set — the labeling
    /// depends only on the graph, so serving several data sets over one
    /// network shares the expensive half of the preprocessing.
    pub fn from_labeling<P: PointsOnNodes + ?Sized>(labeling: HubLabeling, points: &P) -> Self {
        let table = HubPointTable::build(&labeling, points);
        HubLabelIndex { labeling, table }
    }

    /// Re-encodes the index with compressed labels (see
    /// [`HubLabeling::compressed`]) over the same point set.
    ///
    /// The point table is rebuilt from the compressed labeling so bucket
    /// distances and decoded label distances come from the same tier: under
    /// [`LabelPrecision::F32`] every phase sums identically rounded values
    /// in both directions, which preserves the exact tie semantics of the
    /// verification phase.
    pub fn compressed(&self, precision: LabelPrecision) -> Self {
        let labeling = self.labeling.compressed(precision);
        let points =
            NodePointSet::from_nodes(labeling.num_nodes(), self.table.nodes().iter().copied());
        let table = HubPointTable::build(&labeling, &points);
        HubLabelIndex { labeling, table }
    }

    /// The underlying labeling.
    pub fn labeling(&self) -> &HubLabeling {
        &self.labeling
    }

    /// The underlying inverted point table.
    pub fn point_table(&self) -> &HubPointTable {
        &self.table
    }

    /// Number of labeled graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.labeling.num_nodes()
    }

    /// Number of indexed data points.
    pub fn num_points(&self) -> usize {
        self.table.num_points()
    }

    /// Publishes the index's size statistics as gauges in `registry`:
    /// `rnn_label_nodes`, `rnn_label_points`, `rnn_label_entries`,
    /// `rnn_label_max_label` and `rnn_label_bytes`. Gauges are stamped at
    /// call time — call again after a rebuild or point maintenance to
    /// refresh them.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let stats = self.labeling.stats();
        registry.gauge("rnn_label_nodes").set(stats.nodes as u64);
        registry.gauge("rnn_label_points").set(self.num_points() as u64);
        registry.gauge("rnn_label_entries").set(stats.entries as u64);
        registry.gauge("rnn_label_max_label").set(stats.max_label as u64);
        registry.gauge("rnn_label_bytes").set(stats.label_bytes() as u64);
    }

    /// Adds a point on `node` by incremental point-table maintenance —
    /// `O(label size)` bucket splices instead of a rebuild (see
    /// [`HubPointTable::insert_point`]). Returns the new point's id.
    pub fn insert_point(&mut self, node: NodeId) -> PointId {
        let HubLabelIndex { labeling, table } = self;
        table.insert_point(labeling, node)
    }

    /// Removes the point on `node`, if any, by incremental point-table
    /// maintenance (see [`HubPointTable::remove_point`]).
    pub fn remove_point(&mut self, node: NodeId) -> Option<PointId> {
        let HubLabelIndex { labeling, table } = self;
        table.remove_point(labeling, node)
    }

    /// Label-based shortest path distance (see [`HubLabeling::distance`]).
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.labeling.distance(u, v)
    }

    /// The `k` nearest data points of `node` (including a point residing on
    /// `node` itself, at distance zero), as `(point, distance)` in ascending
    /// `(distance, point id)` order — the same order the expansion-based
    /// [`rnn_core::knn::k_nearest`] reports on tie-free instances.
    ///
    /// Answered by scanning bucket prefixes of the node's hubs, cutting each
    /// bucket off as soon as its candidates can no longer beat the current
    /// k-th best.
    pub fn k_nearest(&self, node: NodeId, k: usize) -> Vec<(PointId, Weight)> {
        assert!(node.index() < self.num_nodes(), "node {node} outside the labeled graph");
        // `k` is request input: reserve for what can be found (plus the one
        // slot `offer` overshoots by), not what is asked.
        let mut best: Vec<(Weight, NodeId)> = Vec::with_capacity(k.min(self.num_points()) + 1);
        if k == 0 {
            return Vec::new();
        }
        let mut dec = LabelDecoder::new();
        let (hubs, hub_dists) = self.labeling.label(node, &mut dec);
        for (i, &h) in hubs.iter().enumerate() {
            let dh = hub_dists[i];
            if best.len() == k && dh > best[k - 1].0 {
                continue; // every candidate of this bucket is farther
            }
            let (dists, nodes) = self.table.bucket(h);
            for (j, &d) in dists.iter().enumerate() {
                let cand = dh + d;
                if best.len() == k && cand > best[k - 1].0 {
                    break; // bucket ascends: nothing better follows
                }
                Self::offer(&mut best, k, cand, nodes[j]);
            }
        }
        // Node order equals point-id order (the dense-id invariant), so the
        // (distance, node) ranking maps 1:1 onto (distance, point).
        best.into_iter()
            .map(|(d, n)| (self.table.point_of(n).expect("bucket nodes are occupied"), d))
            .collect()
    }

    /// Offers a candidate to the running top-k, keeping `best` sorted by
    /// `(distance, node)` and deduplicated by node (minimum distance wins).
    fn offer(best: &mut Vec<(Weight, NodeId)>, k: usize, cand: Weight, n: NodeId) {
        if let Some(pos) = best.iter().position(|&(_, m)| m == n) {
            if best[pos].0 <= cand {
                return; // already listed at least as close
            }
            best.remove(pos);
        }
        let at = best.partition_point(|&e| e < (cand, n));
        if at == best.len() && best.len() >= k {
            return;
        }
        best.insert(at, (cand, n));
        best.truncate(k);
    }

    /// [`HubLabelIndex::rknn_in`] on a throwaway scratch arena.
    pub fn rknn(&self, query: NodeId, k: usize) -> RknnOutcome {
        self.rknn_in(query, k, &mut Scratch::new())
    }

    /// Answers a monochromatic RkNN query purely from the labels (the
    /// two-phase algorithm of the module docs), recycling buffers from
    /// `scratch` so steady-state queries are allocation-free apart from the
    /// result vector (like every other algorithm).
    ///
    /// [`QueryStats`] fields are label-scan counters here:
    /// `nodes_settled` = query label entries processed (the "main
    /// expansion"), `heap_pushes` = bucket entries read in the candidate
    /// phase (entries Lemma 1 skips unread are not counted), `candidates` /
    /// `verifications` = points that survive the prune and are counted, and
    /// `auxiliary_settled` = bucket entries scanned by verifications.
    /// `range_nn_queries` stays zero — there is no range probe. The
    /// dedicated hub-label counters report the same work in its own terms:
    /// `label_scans` = label entries read (the query's label plus one per
    /// candidate-hub examined while counting) and `bucket_scans` = bucket
    /// entries read across both phases (`heap_pushes + auxiliary_settled`).
    ///
    /// When the scratch's tracer is active (the engine's
    /// `QueryEngine::with_tracing`), the two phases are reported as
    /// [`Phase::CandidateGen`] and [`Phase::Counting`] spans.
    ///
    /// # Panics
    /// Panics if `k == 0` or `query` lies outside the labeled graph.
    pub fn rknn_in(&self, query: NodeId, k: usize, scratch: &mut Scratch) -> RknnOutcome {
        assert!(k >= 1, "RkNN queries require k >= 1");
        assert!(query.index() < self.num_nodes(), "query node {query} outside the labeled graph");
        let mut stats = QueryStats::default();
        let mut dec = LabelDecoder::from_parts(scratch.take_indices(), scratch.take_weights());

        // Phase 1: fold `d(q, h) + d(h, p)` to the minimum per occupied
        // node over the buckets of the query's hubs, leaving out the entries
        // Lemma 1 rejects at the hub (see the module docs). Folding goes
        // through a pooled `NodeTable`, which clears in O(1), so the
        // per-query cost stays proportional to the entries read, never to the
        // total point count or to the largest query the table served.
        let candidate_span = scratch.tracer().begin();
        let mut dmin = scratch.take_dist_table();
        let (hubs, hub_dists) = self.labeling.label(query, &mut dec);
        for (&h, &a) in hubs.iter().zip(hub_dists) {
            stats.nodes_settled += 1;
            stats.label_scans += 1;
            let (dists, nodes) = self.table.bucket(h);
            let mut fold = |j: usize| {
                let through = a + dists[j];
                let d = dmin.entry(nodes[j], through);
                *d = through.min(*d);
            };
            let len = dists.len();
            let read = if len <= k {
                // Fewer than `k` other points: nothing to prune with.
                (0..len).for_each(&mut fold);
                len
            } else {
                // The k-th nearest *other* point of the bucket is entry `k`
                // for the first `k` entries and entry `k - 1` for the rest.
                let (kth_of_tail, kth_of_head) = (dists[k - 1], dists[k]);
                (0..k).filter(|&j| !lemma1_rejects(a, dists[j], kth_of_head)).for_each(&mut fold);
                if tail_is_rejected(a, kth_of_tail, dists[len - 1]) {
                    (k + 2).min(len) // the head, entry `k` and the last one
                } else {
                    (k..len).filter(|&j| !lemma1_rejects(a, dists[j], kth_of_tail)).for_each(fold);
                    len
                }
            };
            stats.heap_pushes += read as u64;
            stats.bucket_scans += read as u64;
        }
        let read = stats.heap_pushes;
        scratch.tracer_mut().end(Phase::CandidateGen, candidate_span, read);

        // Phase 2: verify candidates — in first-fold order, which only
        // decides the order of the sums in `stats` and of the result before
        // it is sorted. A point collocated with the query (distance zero) is
        // trivially a reverse neighbor and not reported, matching the
        // expansion algorithms.
        let counting_span = scratch.tracer().begin();
        let mut seen = scratch.take_node_marks();
        let mut result: Vec<PointId> = Vec::new();
        for (node, &dist) in dmin.iter() {
            if dist == Weight::ZERO {
                continue;
            }
            stats.candidates += 1;
            stats.verifications += 1;
            let closer = self.count_strictly_closer(node, dist, k, &mut dec, &mut seen, &mut stats);
            if closer < k {
                result.push(self.table.point_of(node).expect("candidate nodes are occupied"));
            }
        }
        let (ranks, weights) = dec.into_parts();
        scratch.put_indices(ranks);
        scratch.put_weights(weights);
        scratch.put_dist_table(dmin);
        scratch.put_node_marks(seen);
        let counted = stats.auxiliary_settled;
        scratch.tracer_mut().end(Phase::Counting, counting_span, counted);
        RknnOutcome::from_points(result, stats)
    }

    /// Counts distinct data points other than the one on `node` with exact
    /// distance strictly below `bound` from it, stopping at `limit`.
    ///
    /// A point qualifies iff *some* hub of `node` certifies a sum below the
    /// bound (the minimal sum is the exact distance, every other sum only
    /// overestimates — an overestimate below a bound implies the exact
    /// distance is too), so scanning each bucket prefix and deduplicating
    /// into the `seen` table, cleared in O(1) per candidate, is exact. The
    /// point collocated with the query ties at exactly `bound` (the labels
    /// produce identical, commuted sums for both directions of a pair) and is
    /// therefore never counted — ties do not disqualify, as in the paper.
    fn count_strictly_closer(
        &self,
        node: NodeId,
        bound: Weight,
        limit: usize,
        dec: &mut LabelDecoder,
        seen: &mut NodeTable<()>,
        stats: &mut QueryStats,
    ) -> usize {
        seen.clear();
        let mut count = 0;
        let (hubs, hub_dists) = self.labeling.label(node, dec);
        for (&h, &dh) in hubs.iter().zip(hub_dists) {
            stats.label_scans += 1;
            if dh >= bound {
                continue; // every sum through this hub is >= bound
            }
            let (dists, nodes) = self.table.bucket(h);
            for (j, &d) in dists.iter().enumerate() {
                if dh + d >= bound {
                    break; // bucket ascends
                }
                stats.auxiliary_settled += 1;
                stats.bucket_scans += 1;
                let other = nodes[j];
                if other != node && !seen.contains(other) {
                    count += 1;
                    if count >= limit {
                        return count; // before the insert: `seen` stays empty at k = 1
                    }
                    seen.insert(other, ());
                }
            }
        }
        count
    }
}

/// Lemma 1 at a hub at distance `a` from the query, for the bucket entry at
/// distance `d` whose k-th nearest other bucket entry is at distance `kth`:
/// `k` points lie strictly closer to the entry than the query does. Both
/// sides are the sums [`HubLabelIndex::count_strictly_closer`] compares when
/// it scans this hub with bound `a + d`, so a rejected entry is one the
/// counting phase would reject.
fn lemma1_rejects(a: Weight, d: Weight, kth: Weight) -> bool {
    d + kth < a + d
}

/// Whether [`lemma1_rejects`] holds for *every* entry past the first `k` of a
/// bucket whose `k`-th entry is at distance `kth` and whose last is at
/// `last` — decided without reading them.
///
/// For such an entry at distance `d <= last`, let `x = d + kth` and
/// `y = a + d` be the exact sums, so `y - x = a - kth`. A floating-point sum
/// is off by at most half an ulp, `fl(s) = s(1 + e)` with `|e| <= EPSILON / 2`
/// (subnormal sums are exact), hence for `x < y`
/// `fl(y) - fl(x) >= (y - x) - EPSILON / 2 * (x + y) > (a - kth) - EPSILON * y`
/// and `fl(x) < fl(y)` follows from `a - kth >= EPSILON * (a + last)`. The
/// guard is itself computed in floating point: its rounded difference and
/// rounded sum cost a factor below `1 + 2 * EPSILON`, and the scaling by a
/// power of two is exact unless it underflows, when rounding it still cannot
/// move it past the float on the other side of the comparison. Asking for
/// `4 * EPSILON` leaves that slack four times over. Inside the margin —
/// absorbed sums, where `kth < a` but `fl(x) == fl(y)` — and when `a + last`
/// overflows, the caller tests entry by entry.
fn tail_is_rejected(a: Weight, kth: Weight, last: Weight) -> bool {
    let (a, kth, last) = (a.value(), kth.value(), last.value());
    a - kth > 4.0 * f64::EPSILON * (a + last)
}

impl HubLabelRknn for HubLabelIndex {
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }

    fn num_points(&self) -> usize {
        self.num_points()
    }

    fn rknn_from_labels(&self, query: NodeId, k: usize, scratch: &mut Scratch) -> RknnOutcome {
        self.rknn_in(query, k, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_core::{knn, naive};
    use rnn_graph::{Graph, GraphBuilder, NodePointSet};

    /// Cycle of 6 unit-weight nodes, points on 1, 3, 4 — the instance the
    /// naive baseline's manual analysis uses.
    fn cycle() -> (Graph, NodePointSet) {
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge(i, (i + 1) % 6, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(6, [NodeId::new(1), NodeId::new(3), NodeId::new(4)]);
        (g, pts)
    }

    fn path5() -> (Graph, NodePointSet) {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 2.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(4)]);
        (g, pts)
    }

    #[test]
    fn k_nearest_matches_the_expansion_primitive() {
        let (g, pts) = path5();
        let index = HubLabelIndex::build(&g, &pts);
        for node in 0..5 {
            for k in [0, 1, 2, 3, pts.num_points() + 1, usize::MAX] {
                let via_labels = index.k_nearest(NodeId::new(node), k);
                let via_expansion = knn::k_nearest(&g, &pts, NodeId::new(node), k).found;
                assert_eq!(via_labels, via_expansion, "node {node} k {k}");
            }
        }
    }

    #[test]
    fn k_nearest_breaks_distance_ties_by_point_id() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        // From node 0: p@1 at 1, p@4 at 2, p@3 at 3 — but from node 5:
        // p@4 at 1, p@1 at 2, p@3 at 2 (tie between points 0 and 1).
        let nn = index.k_nearest(NodeId::new(5), 2);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].0, pts.point_at(NodeId::new(4)).unwrap());
        assert_eq!(nn[1].0, pts.point_at(NodeId::new(1)).unwrap(), "tie by point id");
        assert_eq!(nn[1].1.value(), 2.0);
    }

    #[test]
    fn rknn_matches_the_naive_baseline_on_the_cycle() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        for q in 0..6 {
            for k in 1..=3 {
                let via_labels = index.rknn(NodeId::new(q), k);
                let reference = naive::naive_rknn(&g, &pts, NodeId::new(q), k);
                assert_eq!(via_labels.points, reference.points, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn rknn_excludes_collocated_and_unreachable_points() {
        // Two components: 0-1-2 (points on 0, 2) and 3-4 (point on 4).
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(3, 4, 1.0).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(2), NodeId::new(4)]);
        let index = HubLabelIndex::build(&g, &pts);
        let out = index.rknn(NodeId::new(0), 1);
        // The collocated point (node 0) and the other component's point
        // (node 4) are out; the point on node 2 ties with the point on node
        // 0 (both at distance 2) and ties never disqualify.
        assert_eq!(out.points, vec![pts.point_at(NodeId::new(2)).unwrap()]);
        assert_eq!(out.stats.candidates, 1, "only the reachable non-collocated point");
        let naive_out = naive::naive_rknn(&g, &pts, NodeId::new(0), 1);
        assert_eq!(out.points, naive_out.points);
    }

    #[test]
    fn rknn_stats_count_label_work() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        let out = index.rknn(NodeId::new(0), 1);
        assert!(out.stats.nodes_settled > 0, "query label entries were processed");
        assert!(out.stats.heap_pushes > 0, "candidate-phase bucket entries were folded");
        assert_eq!(out.stats.candidates, 3);
        assert_eq!(out.stats.verifications, 3);
        assert_eq!(out.stats.range_nn_queries, 0, "no range probes in label space");
        // The dedicated hub-label counters: the query's own label plus at
        // least one candidate-label entry were read, and bucket entries were
        // examined in both phases (so they exceed the candidate-phase folds
        // alone whenever a verification scanned anything).
        assert!(out.stats.label_scans >= out.stats.nodes_settled + out.stats.verifications);
        assert_eq!(
            out.stats.bucket_scans,
            out.stats.heap_pushes + out.stats.auxiliary_settled,
            "bucket scans = candidate folds + counting prefix entries"
        );
    }

    #[test]
    fn lemma1_skips_sorted_bucket_tails_unread() {
        // Path 0-1-...-9 with unit weights, points on 0, 1, 2 and 6, query
        // on 9: the hubs the far points share with the query are farther
        // from it than from their nearest point, so their buckets are cut
        // off after the head and the far points are never verified.
        let mut b = GraphBuilder::new(10);
        for i in 0..9 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(10, [0, 1, 2, 6].map(NodeId::new));
        let index = HubLabelIndex::build(&g, &pts);
        let query = NodeId::new(9);
        let out = index.rknn(query, 1);
        assert_eq!(out.points, naive::naive_rknn(&g, &pts, query, 1).points);
        assert_eq!(out.points, vec![pts.point_at(NodeId::new(6)).unwrap()]);

        let mut dec = LabelDecoder::new();
        let (hubs, _) = index.labeling().label(query, &mut dec);
        let listed: usize = hubs.iter().map(|&h| index.point_table().bucket(h).0.len()).sum();
        assert!(listed > 4, "some point is listed under several of the query's hubs");
        assert!(
            out.stats.heap_pushes < listed as u64,
            "read {} of {listed} listed entries",
            out.stats.heap_pushes
        );
        assert!(out.stats.candidates < 4, "Lemma 1 rejected a point inside the fold");
        assert_eq!(out.stats.bucket_scans, out.stats.heap_pushes + out.stats.auxiliary_settled);
    }

    /// Magnitudes chosen to force absorption, underflow and overflow in the
    /// sums of the guard and of the per-entry test.
    fn nasty_weights() -> Vec<Weight> {
        let two53 = 9_007_199_254_740_992.0;
        [
            f64::MIN_POSITIVE,
            2.0 * f64::MIN_POSITIVE,
            1e-300,
            f64::EPSILON,
            0.25,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            f64::from(1.0 + f32::EPSILON),
            3.0,
            67_108_864.0,
            two53,
            two53 + 2.0,
            1e300,
            f64::MAX,
        ]
        .map(Weight::new)
        .to_vec()
    }

    #[test]
    fn unread_tail_skip_implies_the_per_entry_test() {
        let values = nasty_weights();
        let mut skipped = 0;
        for &a in &values {
            for &kth in &values {
                for &last in values.iter().filter(|&&last| last >= kth) {
                    if !tail_is_rejected(a, kth, last) {
                        continue;
                    }
                    skipped += 1;
                    for &d in values.iter().filter(|&&d| kth <= d && d <= last) {
                        assert!(lemma1_rejects(a, d, kth), "a={a} kth={kth} d={d} last={last}");
                    }
                }
            }
        }
        assert!(skipped > 100, "the guard fires on the well-separated triples ({skipped})");
    }

    #[test]
    fn absorbed_sums_fall_back_to_the_per_entry_test() {
        let w = Weight::new;
        let two53 = 9_007_199_254_740_992.0;
        // kth < a, yet both sums round to 2^53: the entry ties, Lemma 1 does
        // not reject it, and the guard must not claim it does.
        assert!(!lemma1_rejects(w(0.5), w(two53), w(0.25)));
        assert!(!tail_is_rejected(w(0.5), w(0.25), w(two53)));
        // The same gap below a short bucket is far outside the margin.
        assert!(lemma1_rejects(w(0.5), w(8.0), w(0.25)));
        assert!(tail_is_rejected(w(0.5), w(0.25), w(8.0)));
        // Smallest normal weights: the scaled margin underflows, the sums
        // are exact, and the guard still agrees with the test.
        let tiny = f64::MIN_POSITIVE;
        assert!(lemma1_rejects(w(2.0 * tiny), w(tiny), w(tiny)));
        assert!(tail_is_rejected(w(2.0 * tiny), w(tiny), w(tiny)));
        // No gap, and an overflowing `a + last`, never skip.
        assert!(!tail_is_rejected(w(1.0), w(1.0), w(2.0)));
        assert!(!tail_is_rejected(w(f64::MAX), w(1.0), w(f64::MAX)));
    }

    #[test]
    fn tracer_reports_candidate_gen_and_counting_phases() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        let mut scratch = Scratch::new();
        scratch.tracer_mut().start("hub-label", 0, 2, None);
        let out = index.rknn_in(NodeId::new(0), 2, &mut scratch);
        scratch.tracer_mut().finish();
        let trace = scratch.tracer_mut().take_completed().expect("finished trace");
        let gen = trace.phase(rnn_obs::Phase::CandidateGen);
        let count = trace.phase(rnn_obs::Phase::Counting);
        assert_eq!(gen.calls, 1, "one candidate-generation span per query");
        assert_eq!(gen.work, out.stats.heap_pushes);
        assert_eq!(count.calls, 1, "one counting span per query");
        assert_eq!(count.work, out.stats.auxiliary_settled);
        assert_eq!(trace.phase(rnn_obs::Phase::Expansion).calls, 0, "no traversal phases");
        // Untraced queries return identical outcomes.
        assert_eq!(index.rknn(NodeId::new(0), 2), out);
    }

    #[test]
    fn register_metrics_publishes_label_gauges() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        let registry = MetricsRegistry::new();
        index.register_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("rnn_label_nodes"), Some(6));
        assert_eq!(snap.gauge("rnn_label_points"), Some(3));
        let stats = index.labeling().stats();
        assert_eq!(snap.gauge("rnn_label_entries"), Some(stats.entries as u64));
        assert_eq!(snap.gauge("rnn_label_bytes"), Some(stats.label_bytes() as u64));
    }

    #[test]
    fn steady_state_rknn_reuses_scratch_buffers() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        let mut scratch = Scratch::new();
        let first = index.rknn_in(NodeId::new(2), 2, &mut scratch);
        let created = scratch.created();
        for _ in 0..20 {
            let again = index.rknn_in(NodeId::new(2), 2, &mut scratch);
            assert_eq!(again, first);
        }
        assert_eq!(scratch.created(), created, "steady state allocates no new buffers");
        assert!(scratch.reuses() >= 20);
    }

    #[test]
    fn compressed_tiers_answer_queries_identically() {
        let (g, pts) = cycle();
        let full = HubLabelIndex::build(&g, &pts);
        let mut scratch = Scratch::new();
        for precision in [LabelPrecision::Exact, LabelPrecision::F32] {
            let compact = full.compressed(precision);
            assert!(compact.labeling().is_compressed());
            assert_eq!(compact.num_points(), full.num_points());
            for q in 0..6 {
                for k in 1..=3 {
                    assert_eq!(
                        compact.rknn_in(NodeId::new(q), k, &mut scratch).points,
                        full.rknn(NodeId::new(q), k).points,
                        "{precision:?} q={q} k={k}"
                    );
                }
                assert_eq!(compact.k_nearest(NodeId::new(q), 2), full.k_nearest(NodeId::new(q), 2));
            }
        }
    }

    #[test]
    fn incremental_point_ops_match_fresh_index() {
        let (g, pts) = cycle();
        let mut index = HubLabelIndex::build(&g, &pts);
        let grown = pts.with_point_on(NodeId::new(0));
        let id = index.insert_point(NodeId::new(0));
        assert_eq!(id, PointId::new(0), "node 0 becomes the first dense id");
        assert_eq!(index, HubLabelIndex::build(&g, &grown));
        for q in 0..6 {
            assert_eq!(
                index.rknn(NodeId::new(q), 2).points,
                naive::naive_rknn(&g, &grown, NodeId::new(q), 2).points,
                "q={q}"
            );
        }
        assert_eq!(index.remove_point(NodeId::new(0)), Some(PointId::new(0)));
        assert_eq!(index, HubLabelIndex::build(&g, &pts));
        assert_eq!(index.remove_point(NodeId::new(0)), None);
    }

    #[test]
    fn from_labeling_shares_preprocessing_across_point_sets() {
        let (g, pts) = cycle();
        let labeling = crate::HubLabeling::build(&g);
        let a = HubLabelIndex::from_labeling(labeling.clone(), &pts);
        let other = NodePointSet::from_nodes(6, [NodeId::new(0), NodeId::new(5)]);
        let b = HubLabelIndex::from_labeling(labeling, &other);
        assert_eq!(a.num_points(), 3);
        assert_eq!(b.num_points(), 2);
        assert_eq!(a.labeling(), b.labeling());
        assert_eq!(
            b.rknn(NodeId::new(1), 1).points,
            naive::naive_rknn(&g, &other, NodeId::new(1), 1).points
        );
    }

    #[test]
    fn oracle_trait_reports_sizes_and_routes_queries() {
        let (g, pts) = cycle();
        let index = HubLabelIndex::build(&g, &pts);
        let oracle: &dyn HubLabelRknn = &index;
        assert_eq!(oracle.num_nodes(), 6);
        assert_eq!(oracle.num_points(), 3);
        let out = oracle.rknn_from_labels(NodeId::new(0), 2, &mut Scratch::new());
        assert_eq!(out, index.rknn(NodeId::new(0), 2));
    }

    #[test]
    #[should_panic]
    fn k_zero_panics() {
        let (g, pts) = cycle();
        let _ = HubLabelIndex::build(&g, &pts).rknn(NodeId::new(0), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_query_panics() {
        let (g, pts) = cycle();
        let _ = HubLabelIndex::build(&g, &pts).rknn(NodeId::new(6), 1);
    }
}
