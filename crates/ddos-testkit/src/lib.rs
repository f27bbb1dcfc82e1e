//! Correctness tooling for the ddos workspace: the differential
//! conformance driver and the fault-injection harness.
//!
//! The workspace computes the same report in several ways — serial vs
//! crossbeam scheduling, different job lengths in the context build,
//! the monolithic build vs the epoch engine's incremental appends, and
//! in-memory vs framed round-trip vs memory-mapped ingest. The paper's
//! findings only hold if every combination agrees byte for byte, and
//! with the dataset-scan oracle that shares no pass body with the rest.
//! This crate makes that a first-class, reusable check instead of
//! point-wise suites:
//!
//! * [`oracle`] — [`baseline_report`], the one independent oracle: the
//!   whole report assembled from dataset scans that live here, not in
//!   the library, with the unit tests that hold each pass body to its
//!   scan.
//! * [`fixtures`] — the hand-built miniature datasets those tests and
//!   the library's unit tests share.
//! * [`variant`] — the lattice itself: a [`Cell`] names one point
//!   (ingest × build × scheduler × kernels), [`matrix`] enumerates the
//!   curated 13-cell coverage set, [`matrix_full`] the exhaustive
//!   36-cell cross product for soak runs.
//! * [`conformance`] — digest plumbing ([`report_digest`], the
//!   committed [`golden_digest`]), the shared small trace, and the
//!   assertion helpers the integration suites build on.
//! * [`faults`] — drive any named failpoint (see [`failpoints`]) to an
//!   `Err`, then prove the retry without the fault reproduces the
//!   clean result.
//! * [`serve`] — the snapshot-isolation probe: replay a trace through
//!   an `AnalysisService` and pin its published watermarks to fresh
//!   epoch-prefix runs.
//! * [`soak`] — N seeded rounds of the full differential check
//!   (`repro --soak N`), emitting a reproducible failure bundle on the
//!   first divergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod faults;
pub mod fixtures;
pub mod oracle;
pub mod serve;
pub mod soak;
pub mod variant;

/// Re-export of the seam crate, so tests depending on `ddos-testkit`
/// build `FailPlan`s without naming `ddos-failpoints` themselves.
pub use ddos_failpoints as failpoints;

pub use conformance::{
    assert_cells_agree, assert_cells_match_golden, check_telemetry_purity, golden_digest,
    report_digest, small_dataset, small_trace,
};
pub use faults::inject_and_recover;
pub use oracle::baseline_report;
pub use serve::check_serve_conformance;
pub use soak::{run_soak, SoakFailure, SoakOptions, SoakRound, SoakSummary};
pub use variant::{matrix, matrix_full, Build, Cell, CellError, Ingest, Scheduler};

/// A fresh temp-file path for a trace: unique per process *and* per
/// call, so tests running concurrently in one process never write, or
/// truncate under a live memory map, the same file.
pub(crate) fn temp_trace_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ddos-testkit-{tag}-{}-{}.ddtl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}
