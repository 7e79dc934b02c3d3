//! Uniform dispatch over the RkNN algorithms.
//!
//! The benchmark harness and the examples iterate over algorithms; this
//! module gives them a single entry point and stable display names matching
//! the abbreviations used in the paper's figures (E, L, EM, LP). Execution
//! routes through the [`RknnAlgorithm`] trait objects of the engine layer,
//! so the free functions here and [`crate::engine::QueryEngine`] run exactly
//! the same code.
//!
//! Matches on [`Algorithm`] are deliberately wildcard-free throughout the
//! workspace (dispatch, harness measurement, report code): adding a variant
//! fails to *compile* everywhere a decision must be made, instead of being
//! silently routed to a default arm. The `const` guard below documents that
//! contract next to the enum itself.

use crate::engine::RknnAlgorithm;
use crate::precomputed::Precomputed;
use crate::query::RknnOutcome;
use crate::scratch::Scratch;
use rnn_graph::{NodeId, PointsOnNodes, Topology};

/// The monochromatic RkNN algorithms: the paper's four (Sections 3–4), the
/// naive baseline, and the hub-label algorithm served from a precomputed
/// labeling (`rnn-index`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Eager (Section 3.2): prunes nodes as soon as they are de-heaped.
    Eager,
    /// Eager-M (Section 4.1): eager over a materialized k-NN table.
    EagerMaterialized,
    /// Lazy (Section 3.3): prunes when data points are discovered.
    Lazy,
    /// Lazy-EP (Section 4.2): lazy with the extended, parallel-heap pruning.
    LazyExtendedPruning,
    /// The naive baseline (full traversal + one NN query per data point).
    Naive,
    /// Hub-label (ReHub-style, beyond the paper): answers from a precomputed
    /// pruned-landmark labeling plus a per-hub inverted point table — no
    /// graph traversal at query time. Requires
    /// [`Precomputed::hub_labels`].
    HubLabel,
}

/// Compile-time exhaustiveness guard: this wildcard-free match breaks the
/// build the moment a variant is added, pointing straight at the tables that
/// must be extended ([`Algorithm::ALL`], the name methods, the engine's
/// `resolve`). Never replace it with `_`.
const _: fn(Algorithm) = |a| match a {
    Algorithm::Eager
    | Algorithm::EagerMaterialized
    | Algorithm::Lazy
    | Algorithm::LazyExtendedPruning
    | Algorithm::Naive
    | Algorithm::HubLabel => (),
};

impl Algorithm {
    /// All algorithms: the paper's figures order (E, EM, L, LP), then the
    /// baseline, then the index-served extension.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Eager,
        Algorithm::EagerMaterialized,
        Algorithm::Lazy,
        Algorithm::LazyExtendedPruning,
        Algorithm::Naive,
        Algorithm::HubLabel,
    ];

    /// The four algorithms evaluated in the paper (no baseline, no
    /// hub-label extension).
    pub const PAPER: [Algorithm; 4] = [
        Algorithm::Eager,
        Algorithm::EagerMaterialized,
        Algorithm::Lazy,
        Algorithm::LazyExtendedPruning,
    ];

    /// Short label as used on top of the paper's bar charts (HL is ours).
    pub fn short_name(self) -> &'static str {
        match self {
            Algorithm::Eager => "E",
            Algorithm::EagerMaterialized => "EM",
            Algorithm::Lazy => "L",
            Algorithm::LazyExtendedPruning => "LP",
            Algorithm::Naive => "NAIVE",
            Algorithm::HubLabel => "HL",
        }
    }

    /// Full human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Eager => "eager",
            Algorithm::EagerMaterialized => "eager-M",
            Algorithm::Lazy => "lazy",
            Algorithm::LazyExtendedPruning => "lazy-EP",
            Algorithm::Naive => "naive",
            Algorithm::HubLabel => "hub-label",
        }
    }

    /// Returns `true` if the algorithm needs a materialized k-NN table.
    pub fn needs_materialization(self) -> bool {
        matches!(self, Algorithm::EagerMaterialized)
    }

    /// Returns `true` if the algorithm needs a prebuilt hub-label index
    /// ([`Precomputed::hub_labels`]).
    pub fn needs_hub_labels(self) -> bool {
        matches!(self, Algorithm::HubLabel)
    }

    /// Resolves the enum tag to the executable [`RknnAlgorithm`] trait
    /// object the engine dispatches through.
    pub fn resolve(self) -> &'static dyn RknnAlgorithm {
        crate::engine::resolve(self)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `algorithm` on a restricted network.
///
/// `pre` must carry a materialized table for [`Algorithm::EagerMaterialized`]
/// (with `K >= k`) and a hub-label index for [`Algorithm::HubLabel`]; the
/// traversal-based algorithms ignore it (pass [`Precomputed::none`]).
///
/// # Panics
/// Panics if `k == 0`, or if a required precomputed structure is absent.
pub fn run_rknn<T, P>(
    algorithm: Algorithm,
    topo: &T,
    points: &P,
    pre: Precomputed<'_>,
    query: NodeId,
    k: usize,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    run_rknn_with(algorithm, topo, points, pre, query, k, &mut Scratch::new())
}

/// [`run_rknn`] on the recycled buffers of `scratch` — the entry point for
/// serving loops that answer many queries and want the steady state
/// allocation-free.
pub fn run_rknn_with<T, P>(
    algorithm: Algorithm,
    topo: &T,
    points: &P,
    pre: Precomputed<'_>,
    query: NodeId,
    k: usize,
    scratch: &mut Scratch,
) -> RknnOutcome
where
    T: Topology + ?Sized,
    P: PointsOnNodes + ?Sized,
{
    algorithm.resolve().run(&topo, &points, pre, query, k, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::MaterializedKnn;
    use rnn_graph::{GraphBuilder, NodePointSet};

    #[test]
    fn names_and_flags() {
        assert_eq!(Algorithm::Eager.short_name(), "E");
        assert_eq!(Algorithm::LazyExtendedPruning.short_name(), "LP");
        assert_eq!(Algorithm::HubLabel.short_name(), "HL");
        assert_eq!(Algorithm::EagerMaterialized.to_string(), "eager-M");
        assert_eq!(Algorithm::HubLabel.to_string(), "hub-label");
        assert!(Algorithm::EagerMaterialized.needs_materialization());
        assert!(!Algorithm::Lazy.needs_materialization());
        assert!(Algorithm::HubLabel.needs_hub_labels());
        assert!(!Algorithm::Eager.needs_hub_labels());
        assert_eq!(Algorithm::ALL.len(), 6);
        assert_eq!(Algorithm::PAPER.len(), 4);
    }

    #[test]
    fn every_algorithm_has_a_unique_name_and_short_name() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        let mut shorts: Vec<&str> = Algorithm::ALL.iter().map(|a| a.short_name()).collect();
        names.sort_unstable();
        names.dedup();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len(), "duplicate display name");
        assert_eq!(shorts.len(), Algorithm::ALL.len(), "duplicate short name");
    }

    #[test]
    fn dispatch_runs_every_traversal_algorithm_and_agrees() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7 {
            b.add_edge(i, i + 1, 1.0 + (i % 3) as f64).unwrap();
        }
        b.add_edge(0, 7, 2.5).unwrap();
        let g = b.build().unwrap();
        let pts = NodePointSet::from_nodes(8, [NodeId::new(1), NodeId::new(4), NodeId::new(6)]);
        let table = MaterializedKnn::build(&g, &pts, 2);
        let q = NodeId::new(2);

        let reference = run_rknn(Algorithm::Naive, &g, &pts, Precomputed::none(), q, 2);
        for algo in Algorithm::ALL {
            if algo.needs_hub_labels() {
                continue; // needs an rnn-index oracle; covered by engine tests
            }
            let out = run_rknn(algo, &g, &pts, Precomputed::materialized(&table), q, 2);
            assert_eq!(out.points, reference.points, "{algo}");
        }
    }

    #[test]
    #[should_panic]
    fn eager_m_without_table_panics() {
        let g = GraphBuilder::new(2).build().unwrap();
        let pts = NodePointSet::empty(2);
        let _ = run_rknn(
            Algorithm::EagerMaterialized,
            &g,
            &pts,
            Precomputed::none(),
            NodeId::new(0),
            1,
        );
    }

    #[test]
    #[should_panic]
    fn hub_label_without_index_panics() {
        let g = GraphBuilder::new(2).build().unwrap();
        let pts = NodePointSet::empty(2);
        let _ = run_rknn(Algorithm::HubLabel, &g, &pts, Precomputed::none(), NodeId::new(0), 1);
    }
}
