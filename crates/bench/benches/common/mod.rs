//! Shared helpers for the criterion benches.
//!
//! Every bench times one kernel at a reduced size so that
//! `cargo bench --workspace` finishes in minutes; the `repro` binary is the
//! tool for paper-style tables with I/O accounting.

use criterion::Criterion;

/// A criterion configuration small enough for the whole suite to run quickly.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}
