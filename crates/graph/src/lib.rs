//! Graph model substrate for reverse nearest neighbor (RNN) query processing
//! in large graphs.
//!
//! This crate provides the data model shared by the whole workspace:
//!
//! * [`NodeId`], [`EdgeId`], [`PointId`] — compact typed identifiers.
//! * [`Weight`] — a non-negative, totally ordered edge weight / network
//!   distance type.
//! * [`Graph`] — a compressed sparse row (CSR) representation of an
//!   undirected, weighted graph, built through [`GraphBuilder`].
//! * [`Topology`] — the access abstraction the query algorithms are written
//!   against, so the same code runs on the in-memory [`Graph`] and on the
//!   disk-page backed graph of the `rnn-storage` crate.
//! * [`NodePointSet`] / [`EdgePointSet`] — data points residing on nodes
//!   (*restricted* networks) or on edges (*unrestricted* networks), following
//!   the terminology of the paper.
//! * [`PointSource`] — what a network expansion asks of either kind of data
//!   set, so the query algorithms are written once for both.
//! * [`Route`] — a node path used by continuous RNN queries.
//! * connectivity utilities, simple statistics and (de)serialization helpers.
//!
//! The terminology follows Yiu, Papadias, Mamoulis and Tao, *Reverse Nearest
//! Neighbors in Large Graphs* (ICDE 2005 / TKDE 2006).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod connectivity;
pub mod edge_points;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod point_source;
pub mod points;
pub mod route;
pub mod stats;
pub mod topology;
pub mod weight;

pub use builder::GraphBuilder;
pub use connectivity::{connected_components, is_connected, largest_connected_component};
pub use edge_points::{EdgeLocation, EdgePoint, EdgePointSet, EdgePointSetBuilder, EdgePosition};
pub use error::GraphError;
pub use graph::{Graph, Neighbor};
pub use ids::{EdgeId, NodeId, PointId};
pub use io::{read_edge_list, write_edge_list};
pub use point_source::{NodeLocation, PointSource, Revealed};
pub use points::{NodePointSet, PointsOnNodes};
pub use route::Route;
pub use stats::GraphStats;
pub use topology::{for_each_neighbor, Topology};
pub use weight::Weight;
