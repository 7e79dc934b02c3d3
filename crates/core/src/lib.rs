//! Reverse nearest neighbor (RNN) query processing in large graphs.
//!
//! This crate implements the algorithms of Yiu, Papadias, Mamoulis and Tao,
//! *Reverse Nearest Neighbors in Large Graphs* (ICDE 2005 / TKDE 2006):
//!
//! * one *network expansion* kernel ([`expansion::NetworkExpansion`]): every
//!   traversal below settles nodes and relaxes neighbors through it, shaping
//!   it with a veto on settling, the choice to expand and a per-arc hook;
//! * one set of drivers over a [`rnn_graph::PointSource`] — the trait that
//!   says which data points settling a node or traversing an arc reveals, and
//!   where an expansion from a location starts. Range-NN, verification,
//!   eager, lazy and naive are each written once against it
//!   ([`expansion::PointExpansion`] merges what the arcs reveal into the
//!   kernel's settle order), so where the points sit and what a query is are
//!   arguments, not modules;
//! * the pruning lemma (Lemma 1) and the two NN-search primitives it relies
//!   on — *range-NN* and *verification* queries ([`knn`], [`verify`]);
//! * the [`eager`] algorithm, which prunes graph nodes as soon as they are
//!   de-heaped;
//! * the [`lazy`] algorithm, which prunes only when data points are
//!   discovered, using the verification expansions themselves to remove
//!   heap entries;
//! * the [`lazy_ep`] extension (extended pruning with a second, parallel
//!   expansion of the discovered points);
//! * the [`materialize`] module: the single-pass All-NN computation, the
//!   materialized k-NN table, its insertion/deletion maintenance and the
//!   `eager-M` algorithm built on it;
//! * query variants: [`bichromatic`] queries (the shared range-NN probe over
//!   the sites), [`continuous`] queries along a route (the query location of
//!   a node source is a *set* of nodes; a plain query has one, a route has
//!   many), and queries on *unrestricted* networks where data points lie on
//!   edges ([`unrestricted`]: the same drivers over an
//!   [`rnn_graph::EdgePointSet`], with a position on an edge as the query);
//! * a [`naive`] baseline used for correctness cross-checks and as the
//!   straw-man comparison;
//! * the [`dispatch`] a serving worker runs queries through:
//!   [`run_rknn_with`], one match on the [`Algorithm`] enum, on a reusable
//!   [`Scratch`] arena that makes steady-state queries allocation-free; it
//!   memoizes nothing, so every call prices its own work (the paper's page
//!   accesses and CPU time per query), and running queries concurrently is
//!   `rnn-server`'s job;
//! * the [`precomputed`] context: the [`Precomputed`] bundle handed to every
//!   query and the object-safe [`HubLabelRknn`] oracle trait through which
//!   the `rnn-index` crate's hub-label RkNN ([`Algorithm::HubLabel`]) plugs
//!   into the dispatch without a dependency cycle.
//!
//! All algorithms are generic over [`rnn_graph::Topology`], so they run
//! identically on the in-memory [`rnn_graph::Graph`] and on the disk-page
//! backed [`rnn_storage::PagedGraph`]; the latter is what the cost
//! experiments measure.
//!
//! # Result semantics
//!
//! A monochromatic RkNN query returns every data point `p` with
//! `d(p, q) > 0` such that fewer than `k` other data points are strictly
//! closer to `p` than the query is. Points located exactly at the query
//! location (distance zero) are trivially reverse neighbors and are *not*
//! reported; this matches the paper's experimental setup where queries are
//! drawn from the data points themselves.
//!
//! # Quick example
//!
//! ```
//! use rnn_core::{eager, lazy, naive};
//! use rnn_graph::{GraphBuilder, NodeId, NodePointSet};
//!
//! // A small road network: 0 - 1 - 2 - 3 - 4 in a line, plus a shortcut.
//! let mut b = GraphBuilder::new(5);
//! b.add_edge(0, 1, 2.0).unwrap();
//! b.add_edge(1, 2, 2.0).unwrap();
//! b.add_edge(2, 3, 2.0).unwrap();
//! b.add_edge(3, 4, 2.0).unwrap();
//! b.add_edge(0, 4, 3.0).unwrap();
//! let g = b.build().unwrap();
//!
//! // Data points on nodes 0, 3 and 4; query at node 1.
//! let points = NodePointSet::from_nodes(5, [NodeId::new(0), NodeId::new(3), NodeId::new(4)]);
//! let q = NodeId::new(1);
//!
//! let e = eager::eager_rknn(&g, &points, q, 1);
//! let l = lazy::lazy_rknn(&g, &points, q, 1);
//! let n = naive::naive_rknn(&g, &points, q, 1);
//! assert_eq!(e.points, l.points);
//! assert_eq!(e.points, n.points);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bichromatic;
mod candidates;
pub mod continuous;
pub mod dispatch;
pub mod eager;
pub mod expansion;
mod fast_hash;
mod flat_heap;
pub mod knn;
pub mod lazy;
pub mod lazy_ep;
pub mod materialize;
pub mod naive;
pub mod node_table;
pub mod precomputed;
pub mod query;
pub mod scratch;
pub mod unrestricted;
pub mod verify;

pub use dispatch::{run_rknn, run_rknn_with, Algorithm};
pub use materialize::MaterializedKnn;
pub use node_table::NodeTable;
pub use precomputed::{HubLabelRknn, Precomputed};
pub use query::{QueryStats, RknnOutcome};
pub use scratch::Scratch;
