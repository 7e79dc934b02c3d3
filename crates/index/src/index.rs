//! The queryable hub-label index: labeling + point table + the ReHub-style
//! RkNN algorithm.
//!
//! All queries here touch *only* label arrays — never an adjacency list.
//! That changes the cost model completely: where the expansion algorithms
//! charge page accesses per visited node, the index charges a few sorted
//! scans whose length is bounded by the label size. The
//! [`rnn_core::QueryStats`] counters are therefore reinterpreted (and
//! documented on [`HubLabelIndex::rknn_in`]) as label-scan counts, keeping
//! `rnn-core`'s aggregation machinery meaningful without new fields.
//!
//! A point `p` is a reverse `k`-nearest neighbor of `q` iff fewer than `k`
//! other points lie strictly closer to `p` than `q` does, which is
//! `d(q, p) <= r_k(p)` for `p`'s *radius* `r_k(p)`: its distance to its
//! `k`-th nearest other point, `∞` with fewer than `k` others in reach. The
//! index stores `r_1..r_R` of every point, `R =` [`STORED_RADII`], computed
//! as the `k`-th smallest `min_h fl(d(p, h) + d(h, o))` over the other
//! points `o`, and for every hub `h` and `k <= R` the largest *slack*
//! `r_k(p) - d(h, p)` over `h`'s bucket, beside the distance of the bucket's
//! last entry. The monochromatic RkNN query then runs in two label-only
//! phases:
//!
//! 1. **Candidates.** The *gate* (ReHub's slack test, reduced to one bound
//!    per hub) reads the buckets of the query's hubs. It skips a hub unread
//!    when `d(q, h)` exceeds a bound on its bucket's slacks `r_k(p) - d(h, p)`
//!    by more than a rounding margin (scaled by `d(q, h)` and the bucket's
//!    last distance), so that `fl(d(q, h) + d(h, p)) > r_k(p)` for every
//!    entry. The bound is the stored largest slack for `k <= R`, and above
//!    that the distance of the bucket's entry `k`: through the hub, every
//!    entry has `k` other entries no farther from the hub than entry `k`,
//!    which is the paper's Lemma 1 at the hub. A bucket without an entry `k`
//!    is never skipped. Every entry of the other buckets is read, and its sum
//!    kept to the minimum per node: for `k <= R` only if it passes the radius
//!    test against the stored radius, above that always. The hub attaining a
//!    reverse neighbor's `d(q, p)` (2-hop cover) is never skipped, so every
//!    reverse neighbor is kept at its exact distance. A point kept only at a
//!    larger sum is one whose attaining hub was skipped or failed the test,
//!    so `r_k(p) < d(q, p)` and phase 2 rejects it all the same.
//! 2. **Radius test.** A candidate `p` with `d(q, p) > 0` is a reverse
//!    neighbor iff `d(q, p) <= r_k(p)` — exactly the semantics of the
//!    expansion algorithms, ties included, and bit for bit the count of
//!    strictly closer points it replaces: `r_k(p)` is built from the same
//!    sums, and the query's `fl(d(q, h) + d(h, p))` is the same pair of
//!    floats added in the other order, so a point collocated with the query
//!    ties at `d(q, p)` and never disqualifies. For `k <= R` the gate has
//!    already applied the test to every candidate against the stored radius.
//!    For larger `k` the label k-NN scan that fills the table answers it on
//!    demand, stopping once `k` points closer than `d(q, p)` are found; for
//!    `k >= |P|` the radius is `∞` without a scan.
//!
//! [`HubLabelIndex::insert_point`] and [`HubLabelIndex::remove_point`] keep
//! the radii exact with the same gate, run from the changed point at
//! `k = R`: inserting `x` splices `d(x, p)` into the radii of every point
//! with `d(x, p) < r_R(p)`, and removing `x` recomputes those of every point
//! with `d(x, p) <= r_R(p)`. A point the gate leaves out already has `R`
//! points strictly closer than `x`, so its radii cannot change. They keep
//! the maxima exact too. A removal only raises slacks, so it raises the
//! maxima of the changed points' hubs in place, and rescans only the hubs
//! where the removed point held a maximum. An insert raises the maxima of
//! the new point's hubs with its slacks, and rescans only the hubs where a
//! point whose radii fell held a maximum. Each keeps the last distances of
//! the changed point's buckets.
//!
//! Every scan reads its label through [`HubLabeling::entries`], which decodes
//! one entry at a time into no buffer: the gated scan and the point-table
//! splices read the whole label, the k-NN and radius scans stop decoding
//! where the scan stops.

use crate::labeling::HubLabeling;
use crate::point_table::HubPointTable;
use rnn_core::precomputed::HubLabelRknn;
use rnn_core::query::{QueryStats, RknnOutcome};
use rnn_core::scratch::Scratch;
use rnn_core::NodeTable;
use rnn_graph::{NodeId, PointId, PointsOnNodes, Topology, Weight};
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
    /// `max_slack[k - 1][h]`: the largest slack `r_k(p) - d(h, p)` over the
    /// bucket of hub rank `h`, `-∞` for an empty bucket. One array per `k`,
    /// so a query reads one.
    max_slack: [Vec<f64>; STORED_RADII],
    /// `last[h]`: the distance of the last entry of hub rank `h`'s bucket,
    /// zero for an empty bucket. The gate's rounding margin scales with it,
    /// so a skipped hub's bucket is never touched.
    last: Vec<Weight>,
    /// Buffers of point maintenance, reused per update.
    update: UpdateBuffers,
}

/// The scan table, k-NN list and hub list of point maintenance, kept inside
/// the index between updates: a fresh [`NodeTable`] would be sized to the
/// graph on every call. Not part of the index's value.
#[derive(Clone, Debug, Default)]
struct UpdateBuffers {
    dmin: NodeTable<Weight>,
    best: Vec<(NodeId, Weight)>,
    hubs: Vec<u32>,
}

impl PartialEq for HubLabelIndex {
    fn eq(&self, other: &Self) -> bool {
        self.labeling == other.labeling
            && self.table == other.table
            && self.radii == other.radii
            && self.max_slack == other.max_slack
            && self.last == other.last
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
        let hubs = labeling.num_nodes();
        let mut index = HubLabelIndex {
            labeling,
            table,
            radii: Vec::new(),
            max_slack: std::array::from_fn(|_| vec![f64::NEG_INFINITY; hubs]),
            last: vec![Weight::ZERO; hubs],
            update: UpdateBuffers::default(),
        };
        let best = &mut Vec::new();
        index.radii =
            index.table.nodes().iter().map(|&node| index.stored_radii(node, best)).collect();
        (0..hubs as u32).for_each(|h| index.rescan_max_slack(h));
        index
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
        let UpdateBuffers { dmin, best, hubs } = &mut bufs;
        hubs.clear();
        // Before `node` enters the table, so the scan meets only the others
        // and its distances index the radii by their current point ids.
        self.gated_scan(node, STORED_RADII, dmin, &mut QueryStats::default());
        for (other, &d) in dmin.iter() {
            let p = self.table.point_of(other).expect("scanned nodes are occupied").index();
            let old = self.radii[p];
            if d < old[STORED_RADII - 1] {
                let radii = &mut self.radii[p];
                let at = radii.partition_point(|&r| r <= d);
                radii.copy_within(at..STORED_RADII - 1, at + 1);
                radii[at] = d;
                // Its slacks fall with its radii: where it held a maximum at
                // a `k` whose radius fell, the maximum must be found again.
                let fell = std::array::from_fn(|k| radii[k] < old[k]);
                self.push_held_maxima(other, &old, fell, hubs);
            }
        }
        let id = self.table.insert_point(&self.labeling, node);
        let own = self.stored_radii(node, best);
        self.radii.insert(id.index(), own);
        self.raise_max_slack(node, &own, [true; STORED_RADII]);
        for (h, d) in self.labeling.entries(node) {
            let last = &mut self.last[h as usize];
            *last = d.max(*last);
        }
        self.rescan_hubs(hubs);
        self.update = bufs;
        id
    }

    /// Removes the point on `node`, if any, by incremental maintenance (see
    /// [`HubPointTable::remove_point`] and the module docs).
    pub fn remove_point(&mut self, node: NodeId) -> Option<PointId> {
        let id = self.table.remove_point(&self.labeling, node)?;
        let gone = self.radii.remove(id.index());
        let mut bufs = std::mem::take(&mut self.update);
        let UpdateBuffers { dmin, best, hubs } = &mut bufs;
        hubs.clear();
        // Its entries left the buckets: where it held a maximum, the maximum
        // must be found again, and where it was last, the last entry moved.
        self.push_held_maxima(node, &gone, [true; STORED_RADII], hubs);
        for (h, d) in self.labeling.entries(node) {
            if d == self.last[h as usize] {
                self.last[h as usize] = self.table.bucket(h).0.last().map_or(Weight::ZERO, |&l| l);
            }
        }
        self.gated_scan(node, STORED_RADII, dmin, &mut QueryStats::default());
        for (other, &d) in dmin.iter() {
            let p = self.table.point_of(other).expect("scanned nodes are occupied").index();
            let old = self.radii[p];
            if d <= old[STORED_RADII - 1] {
                let radii = self.stored_radii(other, best);
                self.radii[p] = radii;
                let rose = std::array::from_fn(|k| radii[k] > old[k]);
                self.raise_max_slack(other, &radii, rose);
            }
        }
        self.rescan_hubs(hubs);
        self.update = bufs;
        Some(id)
    }

    /// Pushes onto `hubs` every hub of `node`'s label where the point on
    /// `node`, at `radii`, attains the stored maximum slack at some `k` with
    /// `fell[k]`.
    fn push_held_maxima(
        &self,
        node: NodeId,
        radii: &Radii,
        fell: [bool; STORED_RADII],
        hubs: &mut Vec<u32>,
    ) {
        for (h, d) in self.labeling.entries(node) {
            let held = |k: usize| slack(radii[k], d) == self.max_slack[k][h as usize];
            if (0..STORED_RADII).any(|k| fell[k] && held(k)) {
                hubs.push(h);
            }
        }
    }

    /// Raises the maxima of `node`'s hubs to the slacks of the point on
    /// `node` at `radii`, at every `k` with `rose[k]`.
    fn raise_max_slack(&mut self, node: NodeId, radii: &Radii, rose: [bool; STORED_RADII]) {
        for (h, d) in self.labeling.entries(node) {
            for k in (0..STORED_RADII).filter(|&k| rose[k]) {
                let max = &mut self.max_slack[k][h as usize];
                *max = max.max(slack(radii[k], d));
            }
        }
    }

    /// Recomputes the maxima of every hub in `hubs` from its bucket.
    fn rescan_hubs(&mut self, hubs: &mut Vec<u32>) {
        hubs.sort_unstable();
        hubs.dedup();
        hubs.iter().for_each(|&h| self.rescan_max_slack(h));
    }

    /// Recomputes hub `h`'s maxima and last entry from its bucket and the
    /// current radii.
    fn rescan_max_slack(&mut self, h: u32) {
        let mut max = [f64::NEG_INFINITY; STORED_RADII];
        let (dists, nodes) = self.table.bucket(h);
        for (&d, &n) in dists.iter().zip(nodes) {
            let radii =
                &self.radii[self.table.point_of(n).expect("bucket nodes are occupied").index()];
            for (max, &r) in max.iter_mut().zip(radii) {
                *max = max.max(slack(r, d));
            }
        }
        for (max_slack, max) in self.max_slack.iter_mut().zip(max) {
            max_slack[h as usize] = max;
        }
        self.last[h as usize] = dists.last().map_or(Weight::ZERO, |&l| l);
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
        self.nearest(node, k, None, &mut best, &mut QueryStats::default());
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
    /// `stats.bucket_scans` and `stats.auxiliary_settled`. The label is
    /// decoded as it is read, so a scan that ends early decodes no more.
    fn nearest(
        &self,
        node: NodeId,
        k: usize,
        cutoff: Option<Weight>,
        best: &mut Vec<(NodeId, Weight)>,
        stats: &mut QueryStats,
    ) {
        if k == 0 {
            return;
        }
        for (h, dh) in self.labeling.entries(node) {
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
        best: &mut Vec<(NodeId, Weight)>,
        stats: &mut QueryStats,
    ) {
        best.clear();
        best.push((node, Weight::ZERO));
        self.nearest(node, k + 1, cutoff, best, stats);
    }

    /// `r_1..r_R` of the point on `node`.
    fn stored_radii(&self, node: NodeId, best: &mut Vec<(NodeId, Weight)>) -> Radii {
        self.radius_scan(node, STORED_RADII, None, best, &mut QueryStats::default());
        std::array::from_fn(|j| best.get(j + 1).map_or(Weight::INFINITY, |&(_, d)| d))
    }

    /// Collects into `dmin`, per occupied node `p`, the minimum of
    /// `fl(d(from, h) + d(h, p))` over the entries of the buckets whose hubs
    /// [`gate_skips`] lets through, for `k <= R` only over the entries that
    /// pass the radius test against `r_k(p)` (see the module docs). The query
    /// and both point updates run it. The bound and the entry test are chosen
    /// here, once per call. `dmin` clears in O(1), so the cost stays
    /// proportional to the entries read, never to the total point count.
    fn gated_scan(
        &self,
        from: NodeId,
        k: usize,
        dmin: &mut NodeTable<Weight>,
        stats: &mut QueryStats,
    ) {
        match self.max_slack.get(k - 1) {
            // An empty bucket's maximum is -∞.
            Some(max_slack) => {
                let radius = |n| {
                    let p = self.table.point_of(n).expect("bucket nodes are occupied");
                    self.radii[p.index()][k - 1]
                };
                self.scan(from, dmin, stats, |h| max_slack[h as usize], |n, s| s <= radius(n))
            }
            // Entry `k` bounds every entry's slack; a bucket without one is read.
            None => {
                let entry_k =
                    |h| self.table.bucket(h).0.get(k).map_or(f64::INFINITY, |d| d.value());
                self.scan(from, dmin, stats, entry_k, |_, _| true)
            }
        }
    }

    /// The loop of [`HubLabelIndex::gated_scan`]: skips hub `h` when
    /// [`gate_skips`] holds at `bound(h)`, and keeps the sums through the
    /// other hubs' entries for which `keep(node, sum)` holds. Counts every
    /// entry of every hub it does not skip.
    fn scan(
        &self,
        from: NodeId,
        dmin: &mut NodeTable<Weight>,
        stats: &mut QueryStats,
        bound: impl Fn(u32) -> f64,
        keep: impl Fn(NodeId, Weight) -> bool,
    ) {
        dmin.clear();
        for (h, a) in self.labeling.entries(from) {
            stats.nodes_settled += 1;
            stats.label_scans += 1;
            if gate_skips(a, bound(h), self.last[h as usize]) {
                continue;
            }
            let (dists, nodes) = self.table.bucket(h);
            for (&d, &n) in dists.iter().zip(nodes) {
                let through = a + d;
                if keep(n, through) {
                    let best = dmin.entry(n, through);
                    *best = through.min(*best);
                }
            }
            stats.heap_pushes += dists.len() as u64;
            stats.bucket_scans += dists.len() as u64;
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
    /// expansion"), `heap_pushes` = bucket entries read in the candidate
    /// phase (every entry of every bucket the gate does not skip, at every
    /// `k`), `candidates` / `verifications` = points decided, none on the
    /// query node (for `k <= STORED_RADII`, the points with an entry that
    /// passes the radius test; above it, every point read).
    /// `range_nn_queries` stays zero — there is no range probe. The dedicated hub-label counters report the
    /// same work in its own terms: `label_scans` = the query's label entries
    /// and `bucket_scans` = the candidate phase's entries read. For
    /// `k <= STORED_RADII` every radius is stored and `auxiliary_settled` is
    /// zero; above it, the on-demand radius scans add their label entries to
    /// `label_scans` and their bucket entries to both `bucket_scans` and
    /// `auxiliary_settled`.
    ///
    /// When the scratch's tracer is active (a tracing `rnn-server` worker
    /// starts it per query), the two phases are reported as
    /// [`Phase::CandidateGen`] (work = bucket entries read) and
    /// [`Phase::Counting`] (work = candidates decided) spans.
    ///
    /// # Panics
    /// Panics if `k == 0` or `query` lies outside the labeled graph.
    pub fn rknn_in(&self, query: NodeId, k: usize, scratch: &mut Scratch) -> RknnOutcome {
        assert!(k >= 1, "RkNN queries require k >= 1");
        assert!(query.index() < self.num_nodes(), "query node {query} outside the labeled graph");
        let mut stats = QueryStats::default();

        let candidate_span = scratch.tracer().begin();
        let mut dmin = scratch.take_dist_table();
        self.gated_scan(query, k, &mut dmin, &mut stats);
        let read = stats.heap_pushes;
        scratch.tracer_mut().end(Phase::CandidateGen, candidate_span, read);

        // Decide candidates in the order the candidate phase first met them,
        // which only decides the order of the sums in `stats` and of the
        // result before it is sorted. A point collocated with the query
        // (distance zero) is trivially a reverse neighbor and not reported,
        // matching the expansion algorithms.
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
                    self.radius_scan(node, k, Some(dist), &mut best, &mut stats);
                    best.len() <= k
                }
            };
            if accept {
                result.push(point);
            }
        }
        scratch.put_dist_table(dmin);
        scratch.put_node_dists(best);
        let decided = stats.candidates;
        scratch.tracer_mut().end(Phase::Counting, counting_span, decided);
        RknnOutcome::from_points(result, stats)
    }
}

/// The slack of a bucket entry at distance `d` whose point has radius `r`:
/// how far the query may lie from the hub for the entry to pass the radius
/// test through it.
fn slack(r: Weight, d: Weight) -> f64 {
    r.value() - d.value()
}

/// Whether the radius test `fl(a + d) <= r` fails for *every* entry of a
/// bucket whose last entry is at `last`, for a query at distance `a` from
/// the hub — decided without reading the bucket. `bound` bounds the
/// entries' slacks in one of two ways, and the guard is the same for both.
///
/// *The largest [`slack`] (`k <= R`).* Take an entry at distance
/// `d <= last` with radius `r`, so `fl(r - d) <= bound`, and suppose the
/// guard holds while `fl(a + d) <= r`. A floating-point sum or difference is
/// off by at most half an ulp, `|fl(s) - s| <= |s| * EPSILON / 2` (subnormal
/// results are exact), so `r - d >= a - EPSILON / 2 * (a + last)`. The
/// guard's rounded difference and sum cost it a factor below
/// `1 + 2 * EPSILON`, and its scaling by a power of two is exact or, if it
/// underflows, off by at most `2^-1075`, so it gives
/// `r - d - bound > 3 * EPSILON * (a + last) - 2^-1075`. Now `bound` lies in
/// `[-last, a)`: it is at least `fl(r - d) >= -d`, and below `a` by the
/// guard. So the float just above it is within
/// `max(EPSILON * (a + last), 2^-1074)`. If `EPSILON * (a + last) >= 2^-1074`,
/// `r - d` lies at or beyond that float and, rounding being monotone,
/// `fl(r - d) > bound` — a contradiction. Otherwise `a + last < 2^-1022`,
/// where `a + d` and `a - bound` are exact: the guard says `a > bound`, and
/// `r >= a + d` gives `fl(r - d) >= a > bound` all the same.
///
/// *The distance of the bucket's entry `k` (`k > R`).* Every entry has `k`
/// other entries among the bucket's first `k + 1`, each at most `bound` from
/// the hub, and the label distance to each is at most its sum through this
/// hub, so an entry at `d` has `r <= fl(d + bound)`. With `x = d + bound`
/// and `y = a + d` the exact sums, `y - x = a - bound`, and `x + y < 2 *
/// (a + last)` as `bound < a` by the guard, so
/// `fl(y) - fl(x) >= (y - x) - EPSILON / 2 * (x + y) > (a - bound) - EPSILON
/// * (a + last)`. The guard gives `a - bound >= EPSILON * (a + last)` as
/// above, and where its scaled margin underflows, rounding it cannot move it
/// past `fl(a - bound)`, a float. So `r <= fl(x) < fl(y)`.
///
/// Asking for `4 * EPSILON` leaves slack in both. An `∞` bound (an `∞`
/// radius, or a bucket without entry `k`) and an overflowing `a + last`,
/// which makes the margin `∞`, never skip the hub.
fn gate_skips(a: Weight, bound: f64, last: Weight) -> bool {
    let (a, last) = (a.value(), last.value());
    a - bound > 4.0 * f64::EPSILON * (a + last)
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
        // Above the stored radii no bucket of these short ones has an entry
        // `k`, so the gate reads them all and every point it reaches is
        // decided; at k >= |P| each radius is ∞ without a scan, so nothing
        // else is read.
        let out = index.rknn(NodeId::new(0), STORED_RADII + 1);
        assert!(out.stats.nodes_settled > 0, "query label entries were processed");
        assert!(out.stats.heap_pushes > 0, "candidate-phase bucket entries were read");
        assert_eq!(out.stats.candidates, 3);
        assert_eq!(out.stats.verifications, 3);
        assert_eq!(out.stats.range_nn_queries, 0, "no range probes in label space");
        assert_eq!(out.stats.label_scans, out.stats.nodes_settled);
        assert_eq!(out.stats.bucket_scans, out.stats.heap_pushes);
        assert_eq!(out.stats.auxiliary_settled, 0);
        let read = out.stats.heap_pushes;

        // At k = 1 the gate reads the same buckets, here the one bucket of
        // the query's label (node 0 is the top hub, at distance 0), and only
        // the points that pass their radius test become candidates: the point
        // on 1 (at 1, its r_1 is 2), not those on 3 and 4 (at 3 and 2, each 1
        // from the other). Nothing past the query's label and that bucket is
        // read.
        let out = index.rknn(NodeId::new(0), 1);
        assert_eq!(out.points, vec![pts.point_at(NodeId::new(1)).unwrap()]);
        assert_eq!((out.stats.candidates, out.stats.verifications), (1, 1));
        assert_eq!(out.stats.heap_pushes, read);
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
    fn the_gate_skips_whole_hubs_above_the_stored_radii() {
        // Unit path 0-1-...-19, points on 0..=9 and 14, query on 19, k = 5:
        // the hubs the far points share with the query are farther from it
        // than their bucket's entry k, so they are skipped unread, every
        // other bucket is read whole, and the far points are never decided.
        let g = path(20);
        let pts = NodePointSet::from_nodes(20, (0..10).chain([14]).map(NodeId::new));
        let index = HubLabelIndex::build(&g, &pts);
        let query = NodeId::new(19);
        let k = STORED_RADII + 1;
        let out = index.rknn(query, k);
        assert_eq!(out.points, naive::naive_rknn(&g, &pts, query, k).points);
        assert_eq!(out.points, vec![pts.point_at(NodeId::new(14)).unwrap()]);

        let (mut listed, mut read, mut skipped) = (0, 0, 0);
        for (h, a) in index.labeling().entries(query) {
            let dists = index.point_table().bucket(h).0;
            listed += dists.len();
            match dists.get(k) {
                Some(&kth) if gate_skips(a, kth.value(), index.last[h as usize]) => skipped += 1,
                _ => read += dists.len(),
            }
        }
        assert!(skipped > 0 && read < listed, "read {read} of {listed} listed entries");
        assert_eq!(out.stats.heap_pushes, read as u64);
        assert!(out.stats.candidates < 11, "the gate left far points undecided");
        assert_eq!(out.stats.bucket_scans, out.stats.heap_pushes + out.stats.auxiliary_settled);
    }

    #[test]
    fn the_gate_skips_hubs_whose_points_are_all_nearer_each_other() {
        // Unit path 0-1-...-9, points on 0, 1, 2 and 6, query on 9, k = 1:
        // every point on 0..=2 is 1 from another, and the query is farther
        // from each of their hubs than that, so the gate reads only buckets
        // that list the point on 6: 2 of the 12 entries the query's hubs
        // list. It decides that point alone.
        let g = path(10);
        let pts = NodePointSet::from_nodes(10, [0, 1, 2, 6].map(NodeId::new));
        let index = HubLabelIndex::build(&g, &pts);
        let query = NodeId::new(9);
        let out = index.rknn(query, 1);
        assert_eq!(out.points, naive::naive_rknn(&g, &pts, query, 1).points);
        assert_eq!(out.points, vec![pts.point_at(NodeId::new(6)).unwrap()]);
        assert_eq!((out.stats.candidates, out.stats.heap_pushes), (1, 2));
        let listed: usize = index
            .labeling()
            .entries(query)
            .map(|(h, _)| index.point_table().bucket(h).0.len())
            .sum();
        assert_eq!(listed, 12);
        let six = NodeId::new(6);
        for (h, a) in index.labeling().entries(query) {
            let (dists, nodes) = index.point_table().bucket(h);
            if !nodes.contains(&six) && !dists.is_empty() {
                assert!(gate_skips(a, index.max_slack[0][h as usize], dists[dists.len() - 1]));
            }
        }
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
    fn a_skip_at_entry_k_implies_the_radius_test() {
        // Every entry at `d <= last` of a bucket whose entry `k` is at `kth`
        // has a radius of at most `fl(d + kth)`, which a skip must reject.
        let values = nasty_weights();
        let mut skipped = 0;
        for &a in &values {
            for &kth in &values {
                for &last in values.iter().filter(|&&last| last >= kth) {
                    if !gate_skips(a, kth.value(), last) {
                        continue;
                    }
                    skipped += 1;
                    for &d in values.iter().filter(|&&d| d <= last) {
                        assert!(d + kth < a + d, "a={a} kth={kth} d={d} last={last}");
                    }
                }
            }
        }
        assert!(skipped > 100, "the gate fires on the well-separated triples ({skipped})");
    }

    #[test]
    fn gate_skip_implies_the_radius_test() {
        let values = nasty_weights();
        let radii: Vec<Weight> =
            [Weight::ZERO, Weight::INFINITY].into_iter().chain(values.iter().copied()).collect();
        let mut skipped = 0;
        for &a in &values {
            for &last in &values {
                for &d in values.iter().filter(|&&d| d <= last) {
                    for &r in &radii {
                        let own = slack(r, d);
                        let maxima = std::iter::once(own)
                            .chain(values.iter().map(|w| w.value()).filter(|&m| m >= own));
                        for max_slack in maxima {
                            if gate_skips(a, max_slack, last) {
                                skipped += 1;
                                assert!(a + d > r, "a={a} max={max_slack} d={d} r={r} last={last}");
                            }
                        }
                    }
                }
            }
        }
        assert!(skipped > 1000, "the gate fires on the well-separated tuples ({skipped})");
    }

    #[test]
    fn absorbed_sums_and_infinite_radii_keep_the_gate_open() {
        let w = Weight::new;
        let two53 = 9_007_199_254_740_992.0;
        // The query is 0.5 farther from the hub than the slack allows, yet
        // the sum rounds to 2^53 and ties the radius: the gate must read.
        let (a, d, r) = (w(0.5), w(two53), w(two53));
        assert!(a + d <= r);
        assert!(!gate_skips(a, slack(r, d), d));
        // The same gap below a short bucket is far outside the margin.
        assert!(w(0.5) + w(8.0) > w(8.0));
        assert!(gate_skips(w(0.5), slack(w(8.0), w(8.0)), w(8.0)));
        // An ∞ radius is never skipped, however far the hub.
        for &a in &nasty_weights() {
            assert!(!gate_skips(a, slack(Weight::INFINITY, w(1.0)), w(1.0)), "a={a}");
        }
    }

    #[test]
    fn absorbed_sums_fall_back_to_the_per_entry_test() {
        let w = Weight::new;
        let two53 = 9_007_199_254_740_992.0;
        // Entry k at 0.25 is nearer the hub than the query, yet both sums
        // round to 2^53: the entry ties with the query, so the gate must read
        // the hub and leave the entry to the radius test.
        assert_eq!(w(two53) + w(0.25), w(0.5) + w(two53));
        assert!(!gate_skips(w(0.5), 0.25, w(two53)));
        // The same gap below a short bucket is far outside the margin.
        assert!(w(8.0) + w(0.25) < w(0.5) + w(8.0));
        assert!(gate_skips(w(0.5), 0.25, w(8.0)));
        // Smallest normal weights: the scaled margin underflows, the sums
        // are exact, and the guard still agrees with the test.
        let tiny = f64::MIN_POSITIVE;
        assert!(w(tiny) + w(tiny) < w(2.0 * tiny) + w(tiny));
        assert!(gate_skips(w(2.0 * tiny), tiny, w(tiny)));
        // No gap, and an overflowing `a + last`, never skip.
        assert!(!gate_skips(w(1.0), 1.0, w(2.0)));
        assert!(!gate_skips(w(f64::MAX), 1.0, w(f64::MAX)));
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
