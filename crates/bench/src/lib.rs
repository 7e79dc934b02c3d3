//! The count-only reproduction of the paper's experimental evaluation.
//!
//! Section 6 of the paper reports two tables and eight figures. Every one of
//! them is implemented as a function in [`experiments`] that builds the
//! corresponding workload with `rnn-datagen`, runs the algorithms over the
//! disk-page backed graph of `rnn-storage`, and returns a [`Report`]
//! whose rows mirror the rows/series of the original table or figure and
//! whose columns are machine-independent counts: buffer faults, page
//! accesses and the work counters every query returns.
//!
//! The `repro` binary (`cargo run -p rnn-bench --release --bin repro`) prints
//! them and, under `--json DIR`, writes each as `DIR/BENCH_<name>.json`. The
//! files at the repository root are committed; CI regenerates them and fails
//! on any difference, so a change that moves a count shows it as a diff.
//!
//! Nothing here measures time. End-to-end time is the standalone
//! `benchmark/` crate's; the three criterion benches of this crate
//! (`core_kernels`, `storage_fetch`, `index_rknn`) time single kernels.
//!
//! The default [`Scale::Quick`] sizes keep the whole suite at laptop scale
//! (tens of thousands of nodes); [`Scale::Full`] uses the paper's
//! cardinalities (up to 360K nodes) and takes correspondingly longer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod harness;
mod report;

pub use harness::Scale;
pub use report::Report;
