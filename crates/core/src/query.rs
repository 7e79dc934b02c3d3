//! Query results and per-query execution statistics.

use rnn_graph::PointId;
use std::ops::AddAssign;

/// Counters describing how much work a query did.
///
/// These are *algorithmic* counters (heap operations, expanded nodes,
/// auxiliary queries); the I/O page counters live in
/// [`rnn_storage::IoStats`] and wall-clock time is measured by the
/// standalone benchmark (`benchmark/`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes settled (de-heaped with their final distance) by the main
    /// expansion around the query.
    pub nodes_settled: u64,
    /// Entries pushed onto the main expansion heap.
    pub heap_pushes: u64,
    /// Range-NN queries issued (eager variants).
    pub range_nn_queries: u64,
    /// Verification queries issued.
    pub verifications: u64,
    /// Nodes settled by auxiliary expansions (range-NN, verification, and the
    /// parallel heap of lazy-EP).
    pub auxiliary_settled: u64,
    /// Data points discovered as candidates.
    pub candidates: u64,
    /// Hub-label only: label entries (hubs) iterated — the query's own label
    /// while generating candidates plus, per verified candidate, the hubs of
    /// its label examined while counting strictly closer points (zero for
    /// the traversal algorithms).
    pub label_scans: u64,
    /// Hub-label only: hub-bucket entries actually read — those of the
    /// candidate phase (`heap_pushes`; the entries of the buckets the gate
    /// skips unread are not counted) plus the bucket-prefix entries examined while counting
    /// (`auxiliary_settled`). Zero for the traversal algorithms.
    pub bucket_scans: u64,
}

impl QueryStats {
    /// Total settled nodes across the main and auxiliary expansions; a rough
    /// CPU-work proxy that is deterministic across machines.
    pub fn total_settled(&self) -> u64 {
        self.nodes_settled + self.auxiliary_settled
    }
}

/// Summing stats records aggregates a workload of queries.
impl AddAssign<&QueryStats> for QueryStats {
    fn add_assign(&mut self, other: &QueryStats) {
        self.nodes_settled += other.nodes_settled;
        self.heap_pushes += other.heap_pushes;
        self.range_nn_queries += other.range_nn_queries;
        self.verifications += other.verifications;
        self.auxiliary_settled += other.auxiliary_settled;
        self.candidates += other.candidates;
        self.label_scans += other.label_scans;
        self.bucket_scans += other.bucket_scans;
    }
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, other: QueryStats) {
        *self += &other;
    }
}

/// The outcome of a reverse k-nearest-neighbor query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RknnOutcome {
    /// The reverse k nearest neighbors, sorted by point id.
    pub points: Vec<PointId>,
    /// Work counters for this query.
    pub stats: QueryStats,
}

impl RknnOutcome {
    /// Creates an outcome from an unsorted candidate list, sorting and
    /// deduplicating the points.
    pub fn from_points(mut points: Vec<PointId>, stats: QueryStats) -> Self {
        points.sort_unstable();
        points.dedup();
        RknnOutcome { points, stats }
    }

    /// Number of reverse neighbors found.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no reverse neighbors were found.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns `true` if `point` is part of the result.
    pub fn contains(&self, point: PointId) -> bool {
        self.points.binary_search(&point).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_sorts_and_dedups() {
        let o = RknnOutcome::from_points(
            vec![PointId::new(3), PointId::new(1), PointId::new(3)],
            QueryStats::default(),
        );
        assert_eq!(o.points, vec![PointId::new(1), PointId::new(3)]);
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
        assert!(o.contains(PointId::new(3)));
        assert!(!o.contains(PointId::new(2)));
    }

    #[test]
    fn stats_add_assign_sums_every_field() {
        let mut a = QueryStats {
            nodes_settled: 1,
            heap_pushes: 2,
            range_nn_queries: 3,
            verifications: 4,
            auxiliary_settled: 5,
            candidates: 6,
            label_scans: 7,
            bucket_scans: 8,
        };
        let b = a;
        a += &b;
        assert_eq!(a.nodes_settled, 2);
        assert_eq!(a.heap_pushes, 4);
        assert_eq!(a.range_nn_queries, 6);
        assert_eq!(a.verifications, 8);
        assert_eq!(a.auxiliary_settled, 10);
        assert_eq!(a.candidates, 12);
        assert_eq!(a.label_scans, 14);
        assert_eq!(a.bucket_scans, 16);
        assert_eq!(a.total_settled(), 12);
        a += b; // by value
        assert_eq!(a.nodes_settled, 3);
        assert_eq!(RknnOutcome::default().len(), 0);
        assert!(RknnOutcome::default().is_empty());
    }
}
