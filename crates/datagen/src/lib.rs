//! Synthetic dataset and workload generators for the RNN experiments.
//!
//! The paper evaluates its algorithms on four families of networks:
//!
//! * the **DBLP coauthorship graph** (4,260 authors, 13,199 edges, unit
//!   weights, per-author publication counts used for ad hoc predicates);
//! * **BRITE internet topologies** (90K–360K nodes, average degree 4),
//!   whose expansions reach most of the graph within a few hops
//!   ("exponential expansion");
//! * the **San Francisco road map** (174,956 nodes / 223,001 edges, weights
//!   equal to the Euclidean length of each segment), a near-planar spatial
//!   network used for the unrestricted experiments;
//! * synthetic **grid maps** with controllable size and degree.
//!
//! None of those datasets can be redistributed here, so this crate generates
//! synthetic graphs with the same structural characteristics (each module's
//! doc says which ones it keeps): [`coauthor`], [`brite`], [`spatial`] and
//! [`grid`]. The [`points`] module places data points on nodes or edges at a
//! prescribed density `D = |P| / |V|` and [`workload`] samples query
//! workloads the way the paper does (50 queries drawn from the data points).
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brite;
pub mod coauthor;
pub mod grid;
pub mod points;
pub mod spatial;
pub mod workload;

pub use brite::{brite_topology, BriteConfig};
pub use coauthor::{coauthorship_graph, CoauthorConfig, CoauthorGraph};
pub use grid::{grid_map, GridConfig};
pub use points::{place_points_on_edges, place_points_on_nodes};
pub use spatial::{spatial_road_network, SpatialConfig, SpatialNetwork};
pub use workload::{sample_edge_queries, sample_node_queries, sample_routes};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates the deterministic RNG used by every generator in this crate.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}
