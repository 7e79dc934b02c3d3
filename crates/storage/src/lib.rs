//! Disk-page storage scheme for large graphs, following Section 3.1 of the
//! paper.
//!
//! The paper stores the network as a *file of adjacency lists*: the adjacency
//! list of node `n` keeps the neighboring nodes of `n` together with the
//! weights of the corresponding edges. Lists of neighboring nodes are grouped
//! together in 4 KB disk pages (using the clustering idea of Chan & Zhang) and
//! a node-id index maps every node to its list and to the data point it
//! contains, if any. An LRU buffer (1 MB = 256 pages in the experiments)
//! caches pages, and the experiments charge 10 ms per buffer fault.
//!
//! This crate reproduces that architecture:
//!
//! * [`page`] — binary page encoding of adjacency records ([`Page`],
//!   [`PAGE_SIZE`]).
//! * [`layout`] — grouping of adjacency lists into pages ([`PageLayout`],
//!   [`LayoutStrategy`]), including the BFS-locality grouping used by default
//!   and id-order / random layouts for ablations.
//! * [`disk`] — the page store ([`PageStore`]) with an in-memory simulated
//!   disk and a real file-backed implementation.
//! * [`lru`] — the workspace's one generic LRU ([`Lru`]): slot vector plus
//!   intrusive recency list, shared by the buffer pool and `rnn-core`'s
//!   result cache.
//! * [`buffer`] — the striped buffer manager ([`BufferPool`]): capacity
//!   split over independently locked shards ([`BufferPoolConfig`]) with
//!   exact per-shard access/fault/eviction accounting ([`ShardStats`])
//!   and speculative prefetch with its own accounting. Every shard evicts
//!   in exact LRU order — the paper's buffer, and the only policy there is.
//! * [`node_index`] — the node-id index ([`NodeIndex`]).
//! * [`paged_graph`] — [`PagedGraph`], which ties everything together and
//!   implements [`rnn_graph::Topology`], so every query algorithm of
//!   `rnn-core` runs unchanged on top of it.
//! * [`io_stats`] — the I/O triple ([`IoStats`]) and [`IoCounters`], a read
//!   handle on a pool's shard counters — the one place an access is counted.
//! * [`metrics`] — registry glue: publishes the I/O counters and the buffer
//!   pool's per-shard stats as snapshot sources of an
//!   [`rnn_obs::MetricsRegistry`], preserving each API's own snapshot
//!   consistency in the exported numbers.
//!
//! Storage only ever affects *cost*, never query *results*; the property
//! tests of the workspace check exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod disk;
pub mod error;
pub mod io_stats;
pub mod layout;
pub mod lru;
pub mod metrics;
pub mod node_index;
pub mod page;
pub mod paged_graph;
mod policy;

pub use buffer::{BufferPool, BufferPoolConfig, BufferPoolStats, ShardStats};
pub use disk::{FileDisk, MemoryDisk, PageStore};
pub use error::StorageError;
pub use io_stats::{IoCounters, IoStats};
pub use layout::{LayoutStrategy, PageLayout};
pub use lru::Lru;
pub use metrics::{register_buffer_pool, register_io_counters};
pub use node_index::{NodeIndex, NodeIndexEntry};
pub use page::{Page, PageId, PAGE_SIZE};
pub use paged_graph::{PagedGraph, StorageControl};
