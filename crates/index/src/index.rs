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
//! A point `p` is a reverse `k`-nearest neighbor of `q` iff fewer than `k`
//! other points lie strictly closer to `p` than `q` does, which is
//! `d(q, p) <= r_k(p)` for `p`'s *radius* `r_k(p)`: its distance to its
//! `k`-th nearest other point, `∞` with fewer than `k` others in reach. The
//! index stores `r_1..r_R` of every point, `R =` [`STORED_RADII`], computed
//! as the `k`-th smallest `min_h fl(d(p, h) + d(h, o))` over the other
//! points `o`. The monochromatic RkNN query then runs in two label-only
//! phases:
//!
//! 1. **Candidates.** Scan the buckets of the query's hubs once, folding
//!    `d(q, h) + d(h, p)` to the minimum per occupied node. By the 2-hop
//!    cover this minimum is the exact `d(q, p)` for every point in the
//!    query's component (and only those points are touched). The paper's
//!    Lemma 1 is applied inside the fold: entry `j` of a hub at distance `a`
//!    is left out when `fl(d_j + d_r) < fl(a + d_j)`, `d_r` being the
//!    bucket's `k`-th nearest entry other than `j`. Each of those `k` points
//!    `o` then has `d(p, o) <= fl(d_j + d_o) < fl(a + d_j)`. If the hub attains
//!    `p`'s minimum, `fl(a + d_j)` is `d(q, p)`, so `r_k(p) < d(q, p)` and
//!    the radius test rejects `p`; if another hub still folds `p`, it does
//!    so at a sum no smaller, which the test rejects all the same. If the
//!    hub does not attain the minimum, the one that does still folds `p` at
//!    its exact distance, or leaves it out for the first reason. Buckets
//!    ascend, so once the query is farther from the hub than the hub's
//!    `k`-th point by more than a rounding margin, every entry past the
//!    first `k` is skipped without being read.
//! 2. **Radius test.** A candidate `p` with `d(q, p) > 0` is a reverse
//!    neighbor iff `d(q, p) <= r_k(p)` — exactly the semantics of the
//!    expansion algorithms, ties included, and bit for bit the count of
//!    strictly closer points it replaces: `r_k(p)` is built from the same
//!    sums, and the fold's `fl(d(q, h) + d(h, p))` is the same pair of floats
//!    added in the other order, so a point collocated with the query ties at
//!    `d(q, p)` and never disqualifies. For `k <= R` the test reads the
//!    stored radius. For larger `k` the label k-NN scan that fills the table
//!    answers it on demand, stopping once `k` points closer than `d(q, p)`
//!    are found; for `k >= |P|` the radius is `∞` without a scan.
//!
//! [`HubLabelIndex::insert_point`] and [`HubLabelIndex::remove_point`] keep
//! the radii exact with the same fold, run from the changed point at
//! `k = R`: inserting `x` splices `d(x, p)` into the radii of every point
//! with `d(x, p) < r_R(p)`, and removing `x` recomputes those of every point
//! with `d(x, p) <= r_R(p)`. A point the fold leaves out already has `R`
//! points strictly closer than `x`, so its radii cannot change.
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

/// How many nearest-other-point distances the index stores per point: a
/// query at `k <= STORED_RADII` decides every candidate from the table.
pub const STORED_RADII: usize = 4;

/// One point's `r_1..r_R`, ascending, padded with [`Weight::INFINITY`].
type Radii = [Weight; STORED_RADII];

/// A hub labeling bundled with the inverted point table of one data set,
/// answering distance, k-NN and RkNN queries without graph traversal.
#[derive(Clone, Debug)]
pub struct HubLabelIndex {
    labeling: HubLabeling,
    table: HubPointTable,
    /// Every point's radii, in point-id order: spliced wherever the table
    /// splices its point directory, so they take `|P| · R` weights.
    radii: Vec<Radii>,
    /// Buffers of point maintenance, reused per update.
    update: UpdateBuffers,
}

/// The fold table, decoder and k-NN list of point maintenance, kept inside
/// the index between updates: a fresh [`NodeTable`] would be sized to the
/// graph on every call. Not part of the index's value.
#[derive(Clone, Debug, Default)]
struct UpdateBuffers {
    dmin: NodeTable<Weight>,
    dec: LabelDecoder,
    best: Vec<(NodeId, Weight)>,
}

impl PartialEq for HubLabelIndex {
    fn eq(&self, other: &Self) -> bool {
        self.labeling == other.labeling && self.table == other.table && self.radii == other.radii
    }
}

impl HubLabelIndex {
    /// Builds labeling, point table and radii in one go. Preprocessing cost
    /// is one pruned Dijkstra per node, one sort of the inverted entries and
    /// one label k-NN scan per point; query cost afterwards is label scans
    /// only.
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
        let mut index =
            HubLabelIndex { labeling, table, radii: Vec::new(), update: UpdateBuffers::default() };
        let UpdateBuffers { dec, best, .. } = &mut UpdateBuffers::default();
        index.radii =
            index.table.nodes().iter().map(|&node| index.stored_radii(node, dec, best)).collect();
        index
    }

    /// Re-encodes the index with compressed labels (see
    /// [`HubLabeling::compressed`]) over the same point set.
    ///
    /// The point table and the radii are rebuilt from the compressed
    /// labeling so bucket distances, radii and decoded label distances come
    /// from the same tier: under [`LabelPrecision::F32`] every phase sums
    /// identically rounded values in both directions, which preserves the
    /// exact tie semantics of the radius test.
    pub fn compressed(&self, precision: LabelPrecision) -> Self {
        let labeling = self.labeling.compressed(precision);
        let points =
            NodePointSet::from_nodes(labeling.num_nodes(), self.table.nodes().iter().copied());
        Self::from_labeling(labeling, &points)
    }

    /// The underlying labeling.
    pub fn labeling(&self) -> &HubLabeling {
        &self.labeling
    }

    /// The underlying inverted point table.
    pub fn point_table(&self) -> &HubPointTable {
        &self.table
    }

    /// Every point's label distances to its [`STORED_RADII`] nearest other
    /// points, ascending and padded with [`Weight::INFINITY`], in point-id
    /// order.
    pub fn radii(&self) -> &[[Weight; STORED_RADII]] {
        &self.radii
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

    /// Adds a point on `node` by incremental maintenance — `O(label size)`
    /// bucket splices instead of a rebuild (see
    /// [`HubPointTable::insert_point`]), plus the radius update of the module
    /// docs. Returns the new point's id.
    ///
    /// # Panics
    ///
    /// Panics if `node` already holds a point or lies outside the labeled
    /// graph.
    pub fn insert_point(&mut self, node: NodeId) -> PointId {
        assert!(self.table.point_of(node).is_none(), "node {node} already holds a point");
        let mut bufs = std::mem::take(&mut self.update);
        let UpdateBuffers { dmin, dec, best } = &mut bufs;
        // Before `node` enters the table, so the fold meets only the others
        // and its distances index the radii by their current point ids.
        self.fold(node, STORED_RADII, dec, dmin, &mut QueryStats::default());
        for (other, &d) in dmin.iter() {
            let radii = &mut self.radii
                [self.table.point_of(other).expect("folded nodes are occupied").index()];
            if d < radii[STORED_RADII - 1] {
                let at = radii.partition_point(|&r| r <= d);
                radii.copy_within(at..STORED_RADII - 1, at + 1);
                radii[at] = d;
            }
        }
        let id = self.table.insert_point(&self.labeling, node);
        let own = self.stored_radii(node, dec, best);
        self.radii.insert(id.index(), own);
        self.update = bufs;
        id
    }

    /// Removes the point on `node`, if any, by incremental maintenance (see
    /// [`HubPointTable::remove_point`] and the module docs).
    pub fn remove_point(&mut self, node: NodeId) -> Option<PointId> {
        let id = self.table.remove_point(&self.labeling, node)?;
        self.radii.remove(id.index());
        let mut bufs = std::mem::take(&mut self.update);
        let UpdateBuffers { dmin, dec, best } = &mut bufs;
        self.fold(node, STORED_RADII, dec, dmin, &mut QueryStats::default());
        for (other, &d) in dmin.iter() {
            let p = self.table.point_of(other).expect("folded nodes are occupied").index();
            if d <= self.radii[p][STORED_RADII - 1] {
                self.radii[p] = self.stored_radii(other, dec, best);
            }
        }
        self.update = bufs;
        Some(id)
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
        let mut best = Vec::with_capacity(k.min(self.num_points()) + 1);
        self.nearest(
            node,
            k,
            None,
            &mut LabelDecoder::new(),
            &mut best,
            &mut QueryStats::default(),
        );
        // Node order equals point-id order (the dense-id invariant), so the
        // (distance, node) ranking maps 1:1 onto (distance, point).
        best.into_iter()
            .map(|(n, d)| (self.table.point_of(n).expect("bucket nodes are occupied"), d))
            .collect()
    }

    /// The label k-NN scan behind [`HubLabelIndex::k_nearest`] and every
    /// radius: completes `best` to the `k` nearest occupied nodes of `node`,
    /// a point on `node` itself included, as `(node, distance)` in ascending
    /// `(distance, node)` order, each node once at its minimum sum. `best`
    /// comes in empty or holding nodes already known at their minimum.
    ///
    /// With a `cutoff`, only sums below it count, and `best` instead lists
    /// the nodes found below it, each once and unsorted: the scan ends as
    /// soon as it holds `k`, when the `k`-th distance is known to lie below
    /// the cutoff, which is all a radius test needs. Each label entry read
    /// adds to `stats.label_scans`, each bucket entry read to
    /// `stats.bucket_scans` and `stats.auxiliary_settled`.
    fn nearest(
        &self,
        node: NodeId,
        k: usize,
        cutoff: Option<Weight>,
        dec: &mut LabelDecoder,
        best: &mut Vec<(NodeId, Weight)>,
        stats: &mut QueryStats,
    ) {
        if k == 0 {
            return;
        }
        let (hubs, hub_dists) = self.labeling.label(node, dec);
        for (&h, &dh) in hubs.iter().zip(hub_dists) {
            stats.label_scans += 1;
            let beyond = |d: Weight, best: &[(NodeId, Weight)]| {
                cutoff.is_some_and(|c| d >= c) || best.len() == k && d > best[k - 1].1
            };
            if beyond(dh, best) {
                continue; // every candidate of this bucket is farther
            }
            let (dists, nodes) = self.table.bucket(h);
            for (&d, &n) in dists.iter().zip(nodes) {
                let cand = dh + d;
                if beyond(cand, best) {
                    break; // bucket ascends: nothing better follows
                }
                stats.bucket_scans += 1;
                stats.auxiliary_settled += 1;
                if cutoff.is_none() {
                    Self::offer(best, k, cand, n);
                } else if best.iter().all(|&(m, _)| m != n) {
                    best.push((n, cand));
                    if best.len() == k {
                        return;
                    }
                }
            }
        }
    }

    /// Offers a candidate to the running top-k, keeping `best` sorted by
    /// `(distance, node)` and deduplicated by node (minimum distance wins).
    fn offer(best: &mut Vec<(NodeId, Weight)>, k: usize, cand: Weight, n: NodeId) {
        if let Some(pos) = best.iter().position(|&(m, _)| m == n) {
            if best[pos].1 <= cand {
                return; // already listed at least as close
            }
            best.remove(pos);
        }
        let at = best.partition_point(|&(m, d)| (d, m) < (cand, n));
        if at == best.len() && best.len() >= k {
            return;
        }
        best.insert(at, (n, cand));
        best.truncate(k);
    }

    /// Runs [`HubLabelIndex::nearest`] for the `k + 1` nearest of the point
    /// on `node`, the point itself listed up front: it is its own nearest, at
    /// distance zero, so `r_j` is the `(j + 1)`-th distance in `best`, `∞`
    /// where none was found. With a `cutoff`, `best` ends up holding `k + 1`
    /// entries iff `k` other points lie strictly closer than the cutoff.
    fn radius_scan(
        &self,
        node: NodeId,
        k: usize,
        cutoff: Option<Weight>,
        dec: &mut LabelDecoder,
        best: &mut Vec<(NodeId, Weight)>,
        stats: &mut QueryStats,
    ) {
        best.clear();
        best.push((node, Weight::ZERO));
        self.nearest(node, k + 1, cutoff, dec, best, stats);
    }

    /// `r_1..r_R` of the point on `node`.
    fn stored_radii(
        &self,
        node: NodeId,
        dec: &mut LabelDecoder,
        best: &mut Vec<(NodeId, Weight)>,
    ) -> Radii {
        self.radius_scan(node, STORED_RADII, None, dec, best, &mut QueryStats::default());
        std::array::from_fn(|j| best.get(j + 1).map_or(Weight::INFINITY, |&(_, d)| d))
    }

    /// Folds `d(from, h) + d(h, p)` to the minimum per occupied node over the
    /// buckets of `from`'s hubs into `dmin`, leaving out the entries Lemma 1
    /// rejects at the hub for this `k` (see the module docs). The query and
    /// both point updates run it. `dmin` clears in O(1), so the cost stays
    /// proportional to the entries read, never to the total point count.
    fn fold(
        &self,
        from: NodeId,
        k: usize,
        dec: &mut LabelDecoder,
        dmin: &mut NodeTable<Weight>,
        stats: &mut QueryStats,
    ) {
        dmin.clear();
        let (hubs, hub_dists) = self.labeling.label(from, dec);
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
    /// expansion"), `heap_pushes` = bucket entries read by the fold (entries
    /// Lemma 1 skips unread are not counted), `candidates` /
    /// `verifications` = points that survive the prune and are decided.
    /// `range_nn_queries` stays zero — there is no range probe. The
    /// dedicated hub-label counters report the same work in its own terms:
    /// `label_scans` = the query's label entries and `bucket_scans` = the
    /// fold entries read. For `k <= STORED_RADII` every radius is stored and
    /// `auxiliary_settled` is zero; above it, the on-demand radius scans add
    /// their label entries to `label_scans` and their bucket entries to both
    /// `bucket_scans` and `auxiliary_settled`.
    ///
    /// When the scratch's tracer is active (the engine's
    /// `QueryEngine::with_tracing`), the two phases are reported as
    /// [`Phase::CandidateGen`] (work = fold entries read) and
    /// [`Phase::Counting`] (work = candidates decided) spans.
    ///
    /// # Panics
    /// Panics if `k == 0` or `query` lies outside the labeled graph.
    pub fn rknn_in(&self, query: NodeId, k: usize, scratch: &mut Scratch) -> RknnOutcome {
        assert!(k >= 1, "RkNN queries require k >= 1");
        assert!(query.index() < self.num_nodes(), "query node {query} outside the labeled graph");
        let mut stats = QueryStats::default();
        let mut dec = LabelDecoder::from_parts(scratch.take_indices(), scratch.take_weights());

        let candidate_span = scratch.tracer().begin();
        let mut dmin = scratch.take_dist_table();
        self.fold(query, k, &mut dec, &mut dmin, &mut stats);
        let read = stats.heap_pushes;
        scratch.tracer_mut().end(Phase::CandidateGen, candidate_span, read);

        // Decide candidates in first-fold order, which only decides the order
        // of the sums in `stats` and of the result before it is sorted. A
        // point collocated with the query (distance zero) is trivially a
        // reverse neighbor and not reported, matching the expansion
        // algorithms.
        let counting_span = scratch.tracer().begin();
        let mut best = scratch.take_node_dists();
        let mut result: Vec<PointId> = Vec::new();
        for (node, &dist) in dmin.iter() {
            if dist == Weight::ZERO {
                continue;
            }
            stats.candidates += 1;
            stats.verifications += 1;
            let point = self.table.point_of(node).expect("candidate nodes are occupied");
            // `dist <= r_k(p)`, read from the table or decided by a scan.
            let accept = match self.radii[point.index()].get(k - 1) {
                Some(&radius) => dist <= radius,
                // Fewer than `k` other points: `r_k` is ∞, and no `k + 1`.
                None if k >= self.num_points() => true,
                None => {
                    self.radius_scan(node, k, Some(dist), &mut dec, &mut best, &mut stats);
                    best.len() <= k
                }
            };
            if accept {
                result.push(point);
            }
        }
        let (ranks, weights) = dec.into_parts();
        scratch.put_indices(ranks);
        scratch.put_weights(weights);
        scratch.put_dist_table(dmin);
        scratch.put_node_dists(best);
        let decided = stats.candidates;
        scratch.tracer_mut().end(Phase::Counting, counting_span, decided);
        RknnOutcome::from_points(result, stats)
    }
}

/// Lemma 1 at a hub at distance `a` from the query, for the bucket entry at
/// distance `d` whose k-th nearest other bucket entry is at distance `kth`:
/// `k` points lie strictly closer to the entry than the query does, since
/// each of their label distances to it is at most its sum through this hub.
/// When the hub attains the entry's minimum, `a + d` is the query distance
/// the radius test compares, so a rejected entry is one the test would
/// reject.
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

    /// A unit-weight path over `n` nodes.
    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        b.build().unwrap()
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
        // At k <= STORED_RADII every radius is stored: the dedicated counters
        // are the query's label and the fold, and nothing else is read.
        assert_eq!(out.stats.label_scans, out.stats.nodes_settled);
        assert_eq!(out.stats.bucket_scans, out.stats.heap_pushes);
        assert_eq!(out.stats.auxiliary_settled, 0);

        // Above it, the on-demand radius scans add their reads; at k >= |P|
        // no scan runs.
        let g = path(8);
        let pts = NodePointSet::from_predicate(8, |_| true);
        let index = HubLabelIndex::build(&g, &pts);
        let k = STORED_RADII + 1;
        let out = index.rknn(NodeId::new(0), k);
        assert_eq!(out.points, naive::naive_rknn(&g, &pts, NodeId::new(0), k).points);
        assert!(out.stats.auxiliary_settled > 0, "radius scans read bucket entries");
        assert!(out.stats.label_scans > out.stats.nodes_settled, "and candidate labels");
        assert_eq!(out.stats.bucket_scans, out.stats.heap_pushes + out.stats.auxiliary_settled);
        let out = index.rknn(NodeId::new(0), pts.num_points());
        assert_eq!(
            (out.stats.auxiliary_settled, out.stats.label_scans),
            (0, out.stats.nodes_settled)
        );
    }

    /// The stored radii of the point on `node`, as plain numbers.
    fn radii_at(index: &HubLabelIndex, node: usize) -> Vec<f64> {
        let point = index.point_table().point_of(NodeId::new(node)).expect("occupied");
        index.radii()[point.index()].iter().map(|r| r.value()).collect()
    }

    #[test]
    fn an_insert_at_exactly_the_last_radius_changes_nothing() {
        // On a unit path, the point on 5 has others at 1, 1, 2 and 3; the
        // point on 3 at 1, 2, 3 and 5.
        let g = path(11);
        let pts = NodePointSet::from_nodes(11, [3, 4, 5, 6, 8].map(NodeId::new));
        let mut index = HubLabelIndex::build(&g, &pts);
        assert_eq!(radii_at(&index, 5), [1.0, 1.0, 2.0, 3.0]);
        assert_eq!(radii_at(&index, 3), [1.0, 2.0, 3.0, 5.0]);
        // Node 2 lies at exactly r_4 of the point on 5, and closer to 3.
        index.insert_point(NodeId::new(2));
        assert_eq!(radii_at(&index, 5), [1.0, 1.0, 2.0, 3.0]);
        assert_eq!(radii_at(&index, 3), [1.0, 1.0, 2.0, 3.0]);
        assert_eq!(index, HubLabelIndex::build(&g, &pts.with_point_on(NodeId::new(2))));
    }

    #[test]
    fn removing_a_point_tied_with_the_last_radius_recomputes_it() {
        // The point on 5 has others at 1, 1, 2, then 3 twice (nodes 2 and 8)
        // and 5 (node 0).
        let g = path(11);
        let nodes = [0, 2, 3, 4, 5, 6, 8].map(NodeId::new);
        let mut index = HubLabelIndex::build(&g, &NodePointSet::from_nodes(11, nodes));
        assert_eq!(radii_at(&index, 5), [1.0, 1.0, 2.0, 3.0]);
        index.remove_point(NodeId::new(8));
        assert_eq!(radii_at(&index, 5), [1.0, 1.0, 2.0, 3.0], "the tie at node 2 remains");
        let left = NodePointSet::from_nodes(11, [0, 2, 3, 4, 5, 6].map(NodeId::new));
        assert_eq!(index, HubLabelIndex::build(&g, &left));
        index.remove_point(NodeId::new(2));
        assert_eq!(radii_at(&index, 5), [1.0, 1.0, 2.0, 5.0]);
        let left = NodePointSet::from_nodes(11, [0, 3, 4, 5, 6].map(NodeId::new));
        assert_eq!(index, HubLabelIndex::build(&g, &left));
    }

    #[test]
    fn radii_pad_with_infinity_and_stay_inside_their_component() {
        // Two components: 0-1-2 (points on 0 and 2) and the path 3..=8
        // (points on 3, 5, 6 and 8).
        let mut b = GraphBuilder::new(9);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        for i in 3..8 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(9, [0, 2, 3, 5, 6, 8].map(NodeId::new));
        let mut index = HubLabelIndex::build(&g, &pts);
        let inf = f64::INFINITY;
        assert_eq!(radii_at(&index, 0), [2.0, inf, inf, inf]);
        assert_eq!(radii_at(&index, 3), [2.0, 3.0, 5.0, inf]);
        for q in 0..9 {
            for k in 1..=STORED_RADII + 2 {
                let reference = naive::naive_rknn(&g, &pts, NodeId::new(q), k);
                assert_eq!(index.rknn(NodeId::new(q), k).points, reference.points, "q={q} k={k}");
            }
        }
        index.insert_point(NodeId::new(1));
        assert_eq!(radii_at(&index, 0), [1.0, 2.0, inf, inf]);
        assert_eq!(radii_at(&index, 3), [2.0, 3.0, 5.0, inf], "the other component is untouched");
        assert_eq!(index, HubLabelIndex::build(&g, &pts.with_point_on(NodeId::new(1))));
        index.remove_point(NodeId::new(1));
        assert_eq!(index, HubLabelIndex::build(&g, &pts));
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
        assert_eq!(count.work, out.stats.candidates, "candidates decided");
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
