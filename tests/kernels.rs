//! Pass-body equivalence property suite (DESIGN.md §12).
//!
//! Every pass has one body over the shared context, and the dataset-scan
//! pipeline behind `ddos_testkit::baseline_report` shares none of them:
//! it is the one independent oracle. The golden-report suite pins the two together
//! on the canonical trace; this suite extends that to arbitrary simulated
//! traces and adversarial job lengths in the context build — length 1
//! (every attack its own job), a length that never divides the input
//! evenly, and a length larger than any input (one job per family).
//!
//! Equivalence is asserted on serialized report bytes, so it covers every
//! body at once — the snapshot scans (dispersion, weekly shifts), the
//! sort-sweep collaboration detector, the dense country rankings, the
//! sorted-gap recurrence scorer, and the id-stamp blacklist replay —
//! including each one's f64 ordering contract.

use ddos_analytics::collab::concurrent::CollabAnalysis;
use ddos_analytics::{Analysis, AnalysisContext, KernelPolicy};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use proptest::prelude::*;

fn report_json(ds: &ddos_schema::Dataset, kernels: KernelPolicy, parallel: bool) -> String {
    let report = Analysis::new(ds)
        .kernels(kernels)
        .parallel(parallel)
        .telemetry(false)
        .run();
    serde_json::to_string(&report).expect("report serializes")
}

proptest! {
    // Trace generation and six full pipeline runs per case dominate the
    // cost; a handful of configurations across seeds, scales, and
    // injection toggles covers the bodies (the testkit's oracle unit
    // tests already pin crafted fixtures against the dataset scans).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The default report and every forced job length — including 1 and
    /// one larger than the trace — serialize to the baseline report's
    /// bytes, serial and parallel.
    #[test]
    fn chunked_kernels_match_reference_bytes_for_any_config(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.01,
        spike in any::<bool>(),
        collaborations in any::<bool>(),
        chains in any::<bool>(),
        chunk in 1usize..64,
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
        let want = serde_json::to_string(&ddos_testkit::baseline_report(ds, ArimaSpec::DEFAULT))
            .expect("report serializes");
        for policy in [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(chunk),
            KernelPolicy::Chunked(1),
            // Larger than any family: one job per family.
            KernelPolicy::Chunked(ds.len() + 1),
        ] {
            let got = report_json(ds, policy, true);
            prop_assert!(got == want, "{policy:?} parallel diverged from the baseline bytes");
        }
        // Serial scheduling must not interact with the job length either.
        prop_assert_eq!(&report_json(ds, KernelPolicy::Chunked(chunk), false), &want);
    }

    /// The sort-sweep concurrent-attack detector reproduces the
    /// oracle's pairwise dataset scan exactly on arbitrary traces (the
    /// testkit's unit suite pins crafted chain/window fixtures; this
    /// covers simulated collaboration injection).
    #[test]
    fn sweep_matches_pairwise_on_arbitrary_traces(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.01,
        collaborations in any::<bool>(),
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots: false,
            collaborations,
            ..SimConfig::small()
        };
        let trace = generate(&cfg);
        let ctx = AnalysisContext::new(&trace.dataset);
        let sweep = CollabAnalysis::compute_ctx(&ctx);
        let pairwise =
            ddos_testkit::baseline_report(&trace.dataset, ArimaSpec::DEFAULT).collaborations;
        prop_assert_eq!(
            serde_json::to_string(&sweep).expect("collab serializes"),
            serde_json::to_string(&pairwise).expect("collab serializes")
        );
    }
}
