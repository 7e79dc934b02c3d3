//! Hub-label index subsystem: RkNN served from a precomputed labeling.
//!
//! The paper's expansion algorithms pay a Dijkstra-style traversal on every
//! query. On large networks a *2-hop cover* (hub labeling) turns shortest
//! path distance into a sorted-list intersection, and — following ReHub
//! (Efentakis & Pfoser, *Extending Hub Labels for Reverse k-Nearest Neighbor
//! Queries on Large-Scale Networks*) — turns k-NN and reverse-k-NN over a
//! point set into scans of small per-hub inverted lists. This crate is that
//! trade: one-time preprocessing for near-allocation-free, traversal-free
//! query latency, complementing (not replacing) the paper-faithful
//! algorithms in `rnn-core`.
//!
//! Three layers:
//!
//! * [`HubLabeling`] — a degree-ordered **pruned landmark labeling** (PLL,
//!   Akiba/Iwata/Yoshida) built over any [`rnn_graph::Topology`]: one pruned
//!   Dijkstra per node, in descending-degree order, each settling only nodes
//!   whose distance is not already covered by earlier (higher-ranked) hubs.
//!   Construction batches roots into rank levels whose searches run on
//!   scoped worker threads ([`HubLabeling::build_with_threads`]) with
//!   thread-count-independent, byte-identical output. The result is a
//!   compact per-node sorted hub list with exact distances:
//!   `d(u, v) = min over common hubs h of d(u, h) + d(h, v)` — stored as
//!   delta-varint ranks beside exact `f64` distances, and read one entry at
//!   a time through [`HubLabeling::entries`].
//! * [`HubPointTable`] — the inverted view of a labeling restricted to a
//!   data point set: for every hub, the occupied nodes it covers sorted by
//!   distance. This is what makes point queries *output-sensitive*: a k-NN
//!   or verification scan touches label entries, never adjacency lists.
//!   Point insert/delete is incremental — sorted splices into the affected
//!   node's hub buckets instead of a rebuild.
//! * [`HubLabelIndex`] — labeling + point table + every point's distances to
//!   its [`STORED_RADII`] nearest other points, answering label-based
//!   distance, k-NN over [`rnn_graph::PointsOnNodes`], and the ReHub-style
//!   monochromatic RkNN query, which accepts a candidate `p` iff
//!   `d(q, p) <= r_k(p)`, its k-th nearest-other-point distance. It implements
//!   [`rnn_core::precomputed::HubLabelRknn`], so
//!   [`rnn_core::Algorithm::HubLabel`] runs through `run_rknn_with`, the
//!   server, scratch reuse and [`rnn_core::QueryStats`] exactly like the
//!   built-in algorithms.
//!
//! Result semantics are identical to `rnn-core`'s: a point `p` with
//! `d(p, q) > 0` is reported iff fewer than `k` *other* points are strictly
//! closer to `p` than the query; ties never disqualify, and the labeling's
//! `d(u,h) + d(h,v)` sums are symmetric in `u`/`v` (float addition commutes),
//! so tie handling cannot drift between the two directions of a pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod labeling;
pub mod point_table;

pub use index::{HubLabelIndex, STORED_RADII};
pub use labeling::{HubLabeling, LabelBuildProgress, LabelStats};
pub use point_table::HubPointTable;
