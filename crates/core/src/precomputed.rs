//! Precomputed auxiliary structures handed to the algorithms at query time.
//!
//! Two of the algorithms trade one-time preprocessing for query speed:
//! eager-M consults a [`MaterializedKnn`] table, and the hub-label algorithm
//! ([`crate::Algorithm::HubLabel`]) answers entirely from a precomputed
//! labeling (built by the `rnn-index` crate). [`Precomputed`] bundles the
//! optional references to both so the dispatch — [`crate::run_rknn`] and
//! [`crate::run_rknn_with`] — has one uniform context instead of one
//! parameter per auxiliary structure.
//!
//! The hub-label index itself lives *above* this crate (`rnn-index` depends
//! on `rnn-core`, not the other way around), which is why the dispatch sees
//! it only through the object-safe [`HubLabelRknn`] trait: any labeling scheme
//! that can answer a monochromatic RkNN query from its own precomputed state
//! plugs into the dispatch without `rnn-core` knowing its layout.

use crate::materialize::MaterializedKnn;
use crate::query::RknnOutcome;
use crate::scratch::Scratch;
use rnn_graph::NodeId;

/// A monochromatic RkNN oracle answering from a precomputed hub labeling.
///
/// Implemented by `rnn-index`'s `HubLabelIndex`. The oracle is built for one
/// specific topology *and* point set; [`HubLabelRknn::num_nodes`] and
/// [`HubLabelRknn::num_points`] let the dispatch layer cheaply reject an
/// index that was built for a different graph or data set (a mismatch would
/// silently return wrong results otherwise).
///
/// `Send + Sync` because the index is shared by reference across the worker
/// threads of batched query execution, exactly like the topology.
pub trait HubLabelRknn: Send + Sync {
    /// Number of graph nodes the labeling was built over.
    fn num_nodes(&self) -> usize;

    /// Number of data points in the inverted point table.
    fn num_points(&self) -> usize;

    /// Answers one monochromatic RkNN query purely from the labeling (no
    /// topology traversal), with the same result semantics as the expansion
    /// algorithms: every point `p` with `d(p, q) > 0` such that fewer than
    /// `k` other points are strictly closer to `p` than the query.
    ///
    /// # Panics
    /// Panics if `k == 0` or `query` is outside the labeled graph.
    fn rknn_from_labels(&self, query: NodeId, k: usize, scratch: &mut Scratch) -> RknnOutcome;
}

/// The optional precomputed structures available to a query.
///
/// `Default`/[`Precomputed::none`] carries nothing, which is all the
/// traversal-based algorithms (eager, lazy, lazy-EP, naive) ever need.
#[derive(Copy, Clone, Default)]
pub struct Precomputed<'a> {
    /// The materialized k-NN table, required by
    /// [`crate::Algorithm::EagerMaterialized`].
    pub materialized: Option<&'a MaterializedKnn>,
    /// The hub-label RkNN oracle, required by
    /// [`crate::Algorithm::HubLabel`].
    pub hub_labels: Option<&'a dyn HubLabelRknn>,
}

impl<'a> Precomputed<'a> {
    /// No precomputed structures (the default).
    pub fn none() -> Self {
        Precomputed::default()
    }

    /// Only a materialized k-NN table.
    pub fn materialized(table: &'a MaterializedKnn) -> Self {
        Precomputed { materialized: Some(table), hub_labels: None }
    }

    /// Only a hub-label index.
    pub fn hub_labels(index: &'a dyn HubLabelRknn) -> Self {
        Precomputed { materialized: None, hub_labels: Some(index) }
    }

    /// Adds a materialized k-NN table.
    pub fn with_materialized(mut self, table: &'a MaterializedKnn) -> Self {
        self.materialized = Some(table);
        self
    }

    /// Adds a hub-label index.
    pub fn with_hub_labels(mut self, index: &'a dyn HubLabelRknn) -> Self {
        self.hub_labels = Some(index);
        self
    }
}

impl std::fmt::Debug for Precomputed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Precomputed")
            .field("materialized", &self.materialized.is_some())
            .field("hub_labels", &self.hub_labels.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryStats;

    struct Dummy;

    impl HubLabelRknn for Dummy {
        fn num_nodes(&self) -> usize {
            7
        }
        fn num_points(&self) -> usize {
            3
        }
        fn rknn_from_labels(&self, _: NodeId, _: usize, _: &mut Scratch) -> RknnOutcome {
            RknnOutcome::from_points(Vec::new(), QueryStats::default())
        }
    }

    #[test]
    fn builders_fill_the_expected_slots() {
        let none = Precomputed::none();
        assert!(none.materialized.is_none() && none.hub_labels.is_none());

        let oracle = Dummy;
        let pre = Precomputed::hub_labels(&oracle);
        assert!(pre.materialized.is_none());
        assert_eq!(pre.hub_labels.unwrap().num_nodes(), 7);
        assert_eq!(pre.hub_labels.unwrap().num_points(), 3);
        assert!(format!("{pre:?}").contains("hub_labels: true"));
    }
}
