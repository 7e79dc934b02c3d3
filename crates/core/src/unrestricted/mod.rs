//! RNN queries in *unrestricted* networks, where data points and queries lie
//! on edges rather than nodes (Section 5.2 of the paper).
//!
//! The position of a point on edge `n_i n_j` (with `i < j`) is the triplet
//! `<n_i, n_j, pos>`; network distances combine the *direct distances* to the
//! edge endpoints with ordinary node-to-node distances, with a special case
//! for two positions on the same edge. None of that needs algorithms of its
//! own: [`rnn_graph::EdgePointSet`] is a [`rnn_graph::PointSource`] whose
//! points are revealed by the arcs an expansion traverses, and the drivers of
//! this crate — range-NN, verification, eager, lazy, naive — are written once
//! over that trait. This module holds what is left:
//!
//! * [`EdgePosition`] — a resolved location on an edge (both endpoints, the
//!   edge weight and the offset), which is what a query on an unrestricted
//!   network is; the position of a data point is read from its set
//!   ([`rnn_graph::EdgePointSet::position`]), so no function here needs the
//!   in-memory graph beside the traversed topology;
//! * [`unrestricted_eager_rknn`], [`unrestricted_lazy_rknn`] and
//!   [`unrestricted_naive_rknn`] — the entry points, each a call of the
//!   shared driver with an edge point set and a position;
//! * [`transform_to_restricted`] — the classical transformation that splits
//!   every edge at its data points, turning an unrestricted instance into a
//!   restricted one (the paper mentions it as the alternative it does not
//!   adopt; we provide it so that the materialized and extended-pruning
//!   variants, which the paper only defines on restricted networks, can also
//!   be evaluated on unrestricted workloads, and as a correctness
//!   cross-check).

pub mod algorithms;
#[cfg(test)]
mod expansion;
mod transform;

pub use algorithms::{unrestricted_eager_rknn, unrestricted_lazy_rknn, unrestricted_naive_rknn};
pub use rnn_graph::EdgePosition;
pub use transform::{transform_to_restricted, RestrictedView};
