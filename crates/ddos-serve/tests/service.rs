//! The service's isolation contract: every published watermark answers
//! exactly like a fresh monolithic run over the same epoch prefix,
//! faulted appends never disturb the published snapshot, and readers
//! racing the writer only ever see whole folds with monotone
//! watermarks.

use std::sync::atomic::{AtomicBool, Ordering};

use ddos_analytics::{Analysis, AnalysisReport, PipelineOptions};
use ddos_obs::{fnv1a_64_hex, names, Obs};
use ddos_schema::{Dataset, Seconds};
use ddos_serve::AnalysisService;
use ddos_sim::{generate, SimConfig};

fn digest(report: &AnalysisReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    fnv1a_64_hex(json.as_bytes())
}

fn small() -> Dataset {
    generate(&SimConfig::small()).dataset
}

/// An epoch length that folds `ds` into (about) `epochs` epochs.
fn epoch_len(ds: &Dataset, epochs: i64) -> Seconds {
    Seconds(((ds.window().length().get() + epochs - 1) / epochs).max(1))
}

/// The reference answer at a watermark: a fresh monolithic run over
/// the dataset's first `w` epochs.
fn prefix_digest(ds: &Dataset, len: Seconds, w: usize) -> String {
    digest(&Analysis::new(&ds.epoch_prefix(len, w)).run())
}

#[test]
fn queries_before_the_first_publish_return_none() {
    let ds = small();
    let obs = Obs::enabled();
    let service = AnalysisService::new(&ds, PipelineOptions::default(), epoch_len(&ds, 5), &obs);
    assert_eq!(service.watermark(), 0);
    assert!(service.snapshot().is_none());
    assert!(service.top_targets(3).is_none());
    assert!(service.family_breakdown().is_none());
    // Unanswered queries still must not count as answered.
    assert_eq!(obs.counter(names::SERVE_QUERIES_ANSWERED).get(), 0);
}

#[test]
fn every_watermark_answers_like_a_fresh_prefix_run() {
    let ds = small();
    let len = epoch_len(&ds, 5);
    let obs = Obs::enabled();
    let service = AnalysisService::new(&ds, PipelineOptions::default(), len, &obs);
    assert!(service.epochs() > 1, "want a multi-epoch fold");

    let mut seen = Vec::new();
    while service.try_append().expect("clean append").is_some() {
        let snap = service.snapshot().expect("published after first append");
        if seen.last().map(|(w, _)| *w) != Some(snap.watermark) {
            seen.push((snap.watermark, digest(&snap.report)));
        }
    }
    assert!(service.is_complete());
    assert_eq!(seen.len(), service.epochs(), "one publish per epoch");
    assert_eq!(
        seen.last().expect("non-empty").0,
        service.epochs(),
        "final watermark covers the whole dataset"
    );

    for (w, got) in &seen {
        assert_eq!(
            got,
            &prefix_digest(&ds, len, *w),
            "watermark {w} diverged from a fresh {w}-epoch monolithic run"
        );
    }
    // The complete snapshot is byte-identical to the plain batch run.
    assert_eq!(
        seen.last().expect("non-empty").1,
        digest(&Analysis::new(&ds).run())
    );
}

#[test]
fn typed_answers_carry_the_publish_watermark() {
    let ds = small();
    let obs = Obs::enabled();
    let service = AnalysisService::new(&ds, PipelineOptions::default(), epoch_len(&ds, 4), &obs);
    service.ingest_all().expect("clean ingest");
    let snap = service.snapshot().expect("published");
    assert!(snap.is_complete());

    let top = service.top_targets(3).expect("answered");
    assert_eq!(top.watermark, snap.watermark);
    assert_eq!(top.epochs, snap.epochs);
    assert_eq!(
        top.value,
        snap.report
            .overall_targets
            .iter()
            .take(3)
            .copied()
            .collect::<Vec<_>>()
    );

    let families = service.family_breakdown().expect("answered");
    assert_eq!(*families.value, snap.report.activity);
    assert_eq!(
        *service.collaboration_groups().expect("answered").value,
        snap.report.collaborations
    );
    assert_eq!(
        *service.shift_series().expect("answered").value,
        snap.report.shifts
    );
    assert_eq!(
        *service.dispersion_series().expect("answered").value,
        snap.report.dispersion
    );
    assert_eq!(
        *service.blacklist_verdicts().expect("answered").value,
        snap.report.blacklist
    );

    // A timeline query for a tracked target returns its train; an
    // unattacked target answers (at the same watermark) with `None`.
    if let Some(train) = snap.report.recurrence.trains.first() {
        let hit = service.target_timeline(train.target).expect("answered");
        assert_eq!(hit.value.expect("tracked target").starts, train.starts);
    }
    let miss = service
        .target_timeline(ddos_schema::IpAddr4::from_octets(203, 0, 113, 250))
        .expect("answered");
    assert_eq!(miss.watermark, snap.watermark);
    assert!(miss.value.is_none());

    assert!(obs.counter(names::SERVE_QUERIES_ANSWERED).get() >= 7);
    assert_eq!(
        obs.gauge(names::SERVE_WATERMARK).get(),
        snap.watermark as u64
    );
}

#[test]
fn answers_at_one_watermark_share_the_published_sections() {
    let ds = small();
    let obs = Obs::disabled();
    let service = AnalysisService::new(&ds, PipelineOptions::default(), epoch_len(&ds, 3), &obs);
    service
        .try_append()
        .expect("clean append")
        .expect("epoch 0");
    let snap = service.snapshot().expect("published");
    let (a, b) = (
        service.collaboration_groups().expect("answered"),
        service.collaboration_groups().expect("answered"),
    );
    assert_eq!(a.watermark, b.watermark);
    assert!(
        std::ptr::eq(&*a.value, &*b.value),
        "two copies of one section"
    );
    assert!(std::ptr::eq(&*a.value, &snap.report.collaborations));
    let (a, b) = (
        service.dispersion_series().expect("answered"),
        service.dispersion_series().expect("answered"),
    );
    assert!(
        std::ptr::eq(&*a.value, &*b.value),
        "two copies of one section"
    );
    // A section outlives the publish that replaces its snapshot.
    service.ingest_all().expect("clean ingest");
    assert_eq!(*a.value, snap.report.dispersion);
}

#[test]
fn faulted_appends_leave_the_published_snapshot_untouched() {
    if !ddos_failpoints::ACTIVE {
        return; // release build: the seam is compiled out.
    }
    let ds = small();
    let len = epoch_len(&ds, 5);
    let golden = digest(&Analysis::new(&ds).run());

    for fp in [
        ddos_failpoints::names::EPOCH_MERGE,
        ddos_failpoints::names::SCHEDULER_PASS,
    ] {
        let obs = Obs::enabled();
        let service = AnalysisService::new(&ds, PipelineOptions::default(), len, &obs);
        // Land two clean epochs so a fault has a snapshot to threaten.
        service
            .try_append()
            .expect("clean append")
            .expect("epoch 0");
        service
            .try_append()
            .expect("clean append")
            .expect("epoch 1");
        let before = service.snapshot().expect("published");
        let before_digest = digest(&before.report);

        {
            let _scope = ddos_failpoints::FailPlan::new().fail_nth(fp, 0).install();
            let err = service.try_append().expect_err("injected fault surfaces");
            assert!(
                err.to_string().contains(fp),
                "error names the failpoint: {err}"
            );
        }
        // The published snapshot is exactly what it was before the
        // fault — same Arc-visible watermark, same bytes.
        let after = service.snapshot().expect("still published");
        assert_eq!(after.watermark, before.watermark, "failpoint {fp}");
        assert_eq!(digest(&after.report), before_digest, "failpoint {fp}");
        assert_eq!(service.watermark(), before.watermark);
        assert_eq!(obs.counter(names::SERVE_APPEND_FAULTS).get(), 1);

        // With the plan gone the writer resumes and converges to the
        // golden full report.
        service.ingest_all().expect("clean retry");
        assert!(service.is_complete());
        assert_eq!(
            digest(&service.snapshot().expect("published").report),
            golden,
            "failpoint {fp}: recovery diverged from the golden report"
        );
    }
}

#[test]
fn concurrent_readers_see_monotone_whole_folds() {
    let ds = small();
    let len = epoch_len(&ds, 6);
    let obs = Obs::enabled();
    let service = AnalysisService::new(&ds, PipelineOptions::default(), len, &obs);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            service.ingest_all().expect("clean ingest");
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    if let Some(top) = service.top_targets(5) {
                        assert!(top.watermark >= last, "watermark went backwards");
                        assert!(top.watermark <= top.epochs);
                        last = top.watermark;
                        // A snapshot taken around the answer brackets
                        // the same monotone sequence.
                        let snap = service.snapshot().expect("published");
                        assert!(snap.watermark >= top.watermark);
                    }
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
                assert_eq!(last, service.epochs(), "readers end fully caught up");
            });
        }
    });

    assert!(service.is_complete());
    // Readers answered throughout the ingest without ever blocking on
    // the writer; the counter proves the read path actually ran.
    assert!(obs.counter(names::SERVE_QUERIES_ANSWERED).get() > 0);
    assert_eq!(
        digest(&service.snapshot().expect("published").report),
        digest(&Analysis::new(&ds).run())
    );
}
