//! Golden-report conformance suite.
//!
//! `tests/golden/report_small.digest` pins the FNV-1a 64 digest of the
//! canonical small-trace report (`SimConfig::small`, the same trace the
//! rest of the integration suite analyzes). The variant enumeration —
//! schedulers, job lengths, context builds (the monolithic build, and
//! the epoch engine's incremental appends of weekly and of ragged
//! 100,000 s epochs), ingest round-trips, and the dataset-scan
//! baseline — lives in `ddos_testkit::matrix`; this suite is the one
//! place tier-1 runs it, pinning every cell, plus the variants the
//! lattice cannot express (telemetry off, a pre-built context handed
//! straight to the scheduler), to the committed digest byte for byte.
//!
//! If a change *intends* to alter report output, regenerate the file:
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- --report-digest \
//!     > tests/golden/report_small.digest
//! ```
//!
//! The property tests below extend the guarantee off the golden trace:
//! on arbitrary sim configurations, recording telemetry never perturbs
//! report bytes.

use ddos_analytics::{Analysis, AnalysisContext, AnalysisReport, KernelPolicy};
use ddos_obs::Obs;
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use ddos_testkit::{
    assert_cells_match_golden, golden_digest, matrix, report_digest, small_dataset,
};
use proptest::prelude::*;

#[test]
fn every_pipeline_variant_matches_the_golden_digest() {
    assert_cells_match_golden(small_dataset(), &matrix(), &golden_digest());
}

/// The variants the lattice cannot express: telemetry switched off, and
/// a context built outside the pipeline then handed to the scheduler
/// (serial build under the parallel schedule, one-attack-per-job build
/// under the serial one).
#[test]
fn off_lattice_variants_match_the_golden_digest() {
    let ds = small_dataset();
    let build = |parallel, policy| {
        AnalysisContext::build_kernels(ds, ArimaSpec::DEFAULT, parallel, policy, &Obs::disabled())
    };
    let serial = build(false, KernelPolicy::Auto);
    let per_attack = build(true, KernelPolicy::Chunked(1));
    let variants: Vec<(&str, AnalysisReport)> = vec![
        (
            "parallel, telemetry off",
            Analysis::new(ds).telemetry(false).run(),
        ),
        (
            "scheduler over serial context",
            Analysis::over(&serial).parallel(true).run(),
        ),
        (
            "scheduler over one-attack-per-job context",
            Analysis::over(&per_attack).parallel(false).run(),
        ),
    ];
    let want = golden_digest();
    for (name, report) in &variants {
        assert_eq!(
            report_digest(report),
            want,
            "pipeline variant `{name}` diverged from the golden report \
             digest; if the report change is intentional, regenerate with \
             `repro --report-digest`"
        );
    }
}

#[test]
fn golden_digest_file_is_well_formed() {
    let d = golden_digest();
    assert!(
        d.starts_with("fnv1a64:") && d.len() == "fnv1a64:".len() + 16,
        "digest file malformed: {d:?}"
    );
}

proptest! {
    // Trace generation dominates the cost; a handful of configurations
    // across seeds, scales, and injection toggles is plenty to catch a
    // telemetry path that leaks into report bytes.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn telemetry_never_perturbs_report_bytes(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.01,
        spike in any::<bool>(),
        collaborations in any::<bool>(),
        chains in any::<bool>(),
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots: false,
            spike,
            collaborations,
            chains,
            ..SimConfig::small()
        };
        let trace = generate(&cfg);
        let ds = &trace.dataset;
        let on = Analysis::new(ds).run();
        let off = Analysis::new(ds).telemetry(false).run();
        let off_serial = Analysis::new(ds).telemetry(false).parallel(false).run();
        let json = |r: &AnalysisReport| serde_json::to_string(r).expect("report serializes");
        prop_assert_eq!(json(&on), json(&off));
        prop_assert_eq!(json(&on), json(&off_serial));
        // The artifact itself differs exactly as documented: recording
        // runs populate it, quiet runs leave it empty.
        prop_assert!(!on.telemetry.spans.is_empty());
        prop_assert!(off.telemetry.is_empty());
        prop_assert!(off_serial.telemetry.is_empty());
    }
}
