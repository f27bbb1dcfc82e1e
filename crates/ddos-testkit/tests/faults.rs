//! Fault-injection conformance: every named failpoint must surface as
//! `Err` (never a panic), and retrying without the fault must
//! reproduce the golden result.
//!
//! The whole suite is gated on `debug_assertions` because the seam is
//! compiled out of release builds (`ddos_failpoints::ACTIVE`) — which
//! the release-inertness test at the bottom pins from both sides.
#![cfg(debug_assertions)]

use std::sync::Barrier;

use ddos_analytics::{Analysis, IncrementalPipeline, PipelineError, PipelineOptions};
use ddos_obs::Obs;
use ddos_schema::{framed, Seconds};
use ddos_testkit::failpoints::{names, FailPlan, ACTIVE};
use ddos_testkit::{golden_digest, inject_and_recover, report_digest, small_dataset};

const WEEK: Seconds = Seconds(7 * 24 * 3600);

fn serial() -> PipelineOptions {
    PipelineOptions::new().parallel(false)
}

/// The blanket contract, at every named failpoint: injected fault ⇒
/// `Err` naming the failpoint, retry ⇒ byte-identical clean result.
#[test]
fn every_failpoint_errors_and_recovers() {
    let ds = small_dataset();
    for name in names::ALL {
        inject_and_recover(name, ds).unwrap_or_else(|e| panic!("failpoint `{name}`: {e}"));
    }
}

/// A mid-stream frame fault (not just the first frame) still errors
/// cleanly on both the serial and the worker decode paths.
#[test]
fn mid_frame_faults_error_on_both_decode_paths() {
    let ds = small_dataset();
    let bytes = framed::encode_with(ds, 64);
    for workers in [1, 4] {
        let _scope = FailPlan::new()
            .fail_nth(names::INGEST_FRAMED_FRAME, 3)
            .install();
        let err =
            framed::decode_with_workers(&bytes, workers).expect_err("mid-frame fault must surface");
        assert!(
            err.to_string()
                .contains("injected fault at ingest/framed/frame"),
            "unexpected error: {err}"
        );
    }
    // And the retry decodes the identical dataset.
    let clean = framed::decode(&bytes).expect("clean decode");
    assert_eq!(
        report_digest(&Analysis::new(&clean).parallel(false).run()),
        golden_digest()
    );
}

/// The incremental pipeline's strongest recovery property: an
/// `epoch/merge` abort is checked before any state is consumed, so the
/// *same* pipeline retries the same epoch in place and still converges
/// to the golden report.
#[test]
fn incremental_append_retries_in_place_after_merge_fault() {
    let ds = small_dataset();
    let mut pipe = IncrementalPipeline::new(ds, serial(), WEEK);
    let before = pipe.watermark();
    {
        let _scope = FailPlan::new().fail_nth(names::EPOCH_MERGE, 0).install();
        let err = pipe
            .try_append_epoch()
            .expect_err("first append must hit the fault");
        assert!(matches!(err, PipelineError::Fault { ref failpoint, .. }
            if failpoint == names::EPOCH_MERGE));
    }
    // Nothing was consumed: the failed append left the cursor alone.
    assert_eq!(pipe.watermark(), before);
    // In-place retry of the same epoch, then drive to completion.
    assert_eq!(report_digest(&pipe.into_report()), golden_digest());
}

/// A `scheduler/pass` fault mid-append leaves no report; the pipeline
/// re-runs every pass on the next drive and still reaches the golden
/// report.
#[test]
fn incremental_pipeline_recovers_from_pass_fault() {
    let ds = small_dataset();
    let mut pipe = IncrementalPipeline::new(ds, serial(), WEEK);
    {
        let _scope = FailPlan::new().fail_nth(names::SCHEDULER_PASS, 2).install();
        let err = pipe
            .try_append_epoch()
            .expect_err("append must hit the pass fault");
        assert!(matches!(err, PipelineError::Fault { ref failpoint, .. }
            if failpoint == names::SCHEDULER_PASS));
    }
    assert_eq!(report_digest(&pipe.into_report()), golden_digest());
}

/// Parallel scheduling under a pass fault: deterministic `Err`, no
/// panic, and the first pass in registry order fails on its first hit,
/// because the scheduler consults the seam before any stage spawns.
#[test]
fn parallel_scheduler_fault_is_deterministic() {
    let ds = small_dataset();
    for _ in 0..3 {
        let _scope = FailPlan::new().fail_always(names::SCHEDULER_PASS).install();
        let err = Analysis::new(ds)
            .try_run()
            .expect_err("always-fail plan must error");
        assert_eq!(
            err.to_string(),
            "injected fault at scheduler/pass (hit 0)",
            "error attribution varied across runs"
        );
    }
}

/// A plan belongs to the thread that installed it: a clean run that
/// overlaps an always-fail plan on another thread (held installed by
/// the barriers for the whole run) decodes with workers, runs the
/// parallel pipeline, and reproduces the golden report.
#[test]
fn clean_run_beside_an_always_fail_plan_succeeds() {
    let ds = small_dataset();
    let bytes = framed::encode_with(ds, 64);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let plan = names::ALL
                .into_iter()
                .fold(FailPlan::new(), FailPlan::fail_always);
            let _scope = plan.install();
            barrier.wait();
            let decoded = framed::decode_with_workers(&bytes, 4);
            let ran = Analysis::new(ds).try_run();
            barrier.wait();
            // Assert only after the last wait, so a failure cannot leave
            // the other thread blocked on the barrier.
            decoded.expect_err("always-fail plan must error");
            ran.expect_err("always-fail plan must error");
        });
        barrier.wait();
        let report = framed::decode_with_workers(&bytes, 4)
            .map_err(|e| e.to_string())
            .and_then(|(decoded, _)| Analysis::new(&decoded).try_run().map_err(|e| e.to_string()));
        barrier.wait();
        let report = report.expect("clean decode and run");
        assert_eq!(report_digest(&report), golden_digest());
    });
}

/// Injections are counted on the `faults/injected` counter, so fault
/// telemetry can be asserted (and dashboards can alarm on nonzero
/// counts outside test runs).
#[test]
fn injections_move_the_fault_counter() {
    let ds = small_dataset();
    let obs = Obs::enabled();
    {
        let _scope = FailPlan::new().fail_nth(names::SCHEDULER_PASS, 0).install();
        Analysis::new(ds)
            .parallel(false)
            .obs(&obs)
            .try_run()
            .expect_err("fault must surface");
    }
    let telemetry = obs.finish(false);
    let count = telemetry
        .metrics
        .counters
        .iter()
        .find(|c| c.name == ddos_obs::names::FAULTS_INJECTED)
        .map(|c| c.value)
        .unwrap_or(0);
    assert_eq!(count, 1, "exactly one injection should be counted");
}

/// The seam really is live in this (debug) build — guarding against a
/// silent `ACTIVE = false` regression that would turn every fault test
/// above into a vacuous pass.
#[test]
#[allow(clippy::assertions_on_constants)] // asserting the constant is the point
fn seam_is_active_in_debug_builds() {
    assert!(ACTIVE, "debug builds must compile the seam in");
    let _scope = FailPlan::new().fail_always("probe").install();
    assert!(ddos_testkit::failpoints::check("probe").is_some());
}
