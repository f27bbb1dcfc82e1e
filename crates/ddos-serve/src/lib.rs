//! `ddos-serve` — a snapshot-isolated concurrent query service over the
//! incremental analysis engine.
//!
//! [`AnalysisService`] keeps one [`IncrementalPipeline`] resident on a
//! writer path and publishes each completed epoch fold as an immutable,
//! `Arc`-swapped [`Snapshot`]. Readers answer typed queries against
//! whatever snapshot is published when they arrive — they never block
//! on the writer, never observe a partial fold, and every [`Answer`]
//! is stamped with the epoch watermark it was computed at.
//!
//! The isolation contract (enforced by this crate's test suite and by
//! the per-publish gates of the `perfbench` serve workloads):
//!
//! 1. **Snapshot isolation** — a query at watermark `w` returns bytes
//!    identical to a fresh monolithic run over the dataset's first `w`
//!    epochs ([`Dataset::epoch_prefix`]), no matter how many appends
//!    race with it.
//! 2. **Monotone watermarks** — published watermarks only move
//!    forward; two reads by the same thread never go back in time.
//! 3. **Fault atomicity** — an append that surfaces an injected fault
//!    (`epoch/merge`, `scheduler/pass`) leaves the published snapshot
//!    untouched; the next clean append converges to the golden report.
//!
//! Nothing on the serve path copies the prefix. The writer's fold grows
//! in place, and every watermark of an [`IncrementalPipeline`] is an
//! exact prefix report whose passes read a borrowed view of that fold,
//! so an append pays for resolving its own epoch plus one run of every
//! pass, or none when the epoch changed nothing. The report is assembled
//! once per pass run and shared: a publish wraps it in a [`Snapshot`]
//! without copying it, and a query that returns a whole report section
//! answers with a [`Section`] into the snapshot instead of a clone. A
//! replaced snapshot is freed after the publication lock is released,
//! so readers never wait on the free.
//!
//! Writer-side progress is observable through `ddos-obs` under the
//! `serve/*` names: `serve/append` spans, the `serve/watermark` gauge,
//! the `serve/append_faults` counter, and `serve/append_us` latencies.
//! The read path records the `serve/queries_answered` counter, the
//! `serve/inflight` high-water gauge, `serve/query_us` latencies and,
//! when the recorder is enabled, `serve/query/<name>` spans. Every
//! metric handle is resolved once, when the service is built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ddos_analytics::collab::concurrent::CollabAnalysis;
use ddos_analytics::defense::BlacklistSim;
use ddos_analytics::overview::activity::FamilyActivity;
use ddos_analytics::source::dispersion::FamilyDispersion;
use ddos_analytics::source::shift::ShiftAnalysis;
use ddos_analytics::target::recurrence::TargetTrain;
use ddos_analytics::{
    AnalysisReport, AppendStats, IncrementalPipeline, PipelineError, PipelineOptions,
};
use ddos_obs::{names, Counter, Gauge, Histogram, Obs};
use ddos_schema::{CountryCode, Dataset, IpAddr4, Seconds};
use parking_lot::{Mutex, RwLock};

/// One published epoch fold: the exact report of the dataset's first
/// [`Snapshot::watermark`] epochs, immutable once published.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// How many epochs the report covers (monotonically increasing
    /// across publishes).
    pub watermark: usize,
    /// Total epochs the underlying dataset folds into — the watermark
    /// at which the service is fully caught up.
    pub epochs: usize,
    /// The prefix-exact report at this watermark, shared with the
    /// writer that assembled it and with every [`Section`] answered
    /// from it.
    pub report: Arc<AnalysisReport>,
    /// Every recurrence train's `(target, train index)`, sorted: built
    /// by the snapshot's first `target_timeline` query, so a publish
    /// never pays for it.
    trains_by_target: OnceLock<Vec<(IpAddr4, u32)>>,
}

impl Snapshot {
    /// Whether this snapshot covers the whole dataset.
    pub fn is_complete(&self) -> bool {
        self.watermark == self.epochs
    }

    /// The recurrence train of `target`, if the report tracks one. The
    /// trains are sorted by length, so the first call sorts an index of
    /// their targets and every call binary-searches it.
    fn train_of(&self, target: IpAddr4) -> Option<&TargetTrain> {
        let trains = &self.report.recurrence.trains;
        let index = self.trains_by_target.get_or_init(|| {
            let mut index: Vec<(IpAddr4, u32)> = trains
                .iter()
                .enumerate()
                .map(|(i, t)| (t.target, i as u32))
                .collect();
            index.sort_unstable();
            index
        });
        let at = index.partition_point(|&(t, _)| t < target);
        let &(found, i) = index.get(at)?;
        (found == target).then(|| &trains[i as usize])
    }
}

/// A typed query result stamped with the watermark it was answered at.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer<T> {
    /// The epoch watermark of the snapshot that answered the query.
    pub watermark: usize,
    /// Total epochs the dataset folds into (see [`Snapshot::epochs`]).
    pub epochs: usize,
    /// The answer itself.
    pub value: T,
}

/// One section of a published report, shared rather than copied: the
/// snapshot's report plus a projection onto the section. Dereferences
/// to the section, and stays valid however far the writer advances.
pub struct Section<T: 'static> {
    report: Arc<AnalysisReport>,
    project: fn(&AnalysisReport) -> &T,
}

impl<T> Deref for Section<T> {
    type Target = T;

    fn deref(&self) -> &T {
        (self.project)(&self.report)
    }
}

impl<T> Clone for Section<T> {
    fn clone(&self) -> Section<T> {
        Section {
            report: Arc::clone(&self.report),
            project: self.project,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Section<T> {
    fn eq(&self, other: &Section<T>) -> bool {
        **self == **other
    }
}

/// The service's metric handles, resolved once so neither path looks a
/// name up in the registry per call.
struct Handles {
    inflight: Arc<Gauge>,
    query_us: Arc<Histogram>,
    queries_answered: Arc<Counter>,
    watermark: Arc<Gauge>,
    append_us: Arc<Histogram>,
    append_faults: Arc<Counter>,
}

/// A long-lived analysis service: one incremental writer, any number of
/// concurrent snapshot readers.
///
/// The writer path ([`AnalysisService::try_append`]) is serialized by a
/// mutex around the [`IncrementalPipeline`]; the read path only ever
/// takes a momentary read lock to clone the published `Arc`, so reads
/// never wait on an in-flight fold.
pub struct AnalysisService<'d> {
    writer: Mutex<IncrementalPipeline<'d>>,
    published: RwLock<Option<Arc<Snapshot>>>,
    obs: &'d Obs,
    handles: Handles,
    epochs: usize,
    inflight: AtomicU64,
}

impl<'d> AnalysisService<'d> {
    /// Builds a service over `ds`, folding epochs of `epoch_len`, with
    /// all telemetry recorded into the caller's `obs`. No epochs are
    /// ingested yet — drive the writer with [`AnalysisService::try_append`]
    /// (or [`AnalysisService::ingest_all`]).
    pub fn new(
        ds: &'d Dataset,
        opts: PipelineOptions,
        epoch_len: Seconds,
        obs: &'d Obs,
    ) -> AnalysisService<'d> {
        let pipeline = IncrementalPipeline::with_obs(ds, opts, epoch_len, obs);
        let epochs = pipeline.epochs();
        AnalysisService {
            writer: Mutex::new(pipeline),
            published: RwLock::new(None),
            obs,
            handles: Handles {
                inflight: obs.gauge(names::SERVE_INFLIGHT),
                query_us: obs.histogram(names::SERVE_QUERY_US),
                queries_answered: obs.counter(names::SERVE_QUERIES_ANSWERED),
                watermark: obs.gauge(names::SERVE_WATERMARK),
                append_us: obs.histogram(names::SERVE_APPEND_US),
                append_faults: obs.counter(names::SERVE_APPEND_FAULTS),
            },
            epochs,
            inflight: AtomicU64::new(0),
        }
    }

    /// Total epochs the dataset folds into.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The watermark of the currently published snapshot (0 before the
    /// first publish).
    pub fn watermark(&self) -> usize {
        self.published.read().as_ref().map_or(0, |s| s.watermark)
    }

    /// Whether every epoch has been appended and published.
    pub fn is_complete(&self) -> bool {
        self.watermark() == self.epochs
    }

    /// Appends the next epoch on the writer path and, if the fold
    /// produced a new prefix-exact report, publishes it atomically.
    ///
    /// Returns `Ok(Some(stats))` while epochs remain, `Ok(None)` once
    /// the stream is exhausted. On `Err` the published snapshot is
    /// untouched: readers keep answering from the last good watermark,
    /// and a retry resumes from the failed epoch.
    pub fn try_append(&self) -> Result<Option<AppendStats>, PipelineError> {
        let start = self.obs.now_us();
        let mut writer = self.writer.lock();
        let result = writer.try_append_epoch();
        match &result {
            Ok(_) => {
                // `snapshot_report` returns `None` until a pass run over
                // the current fold succeeds, so a half-folded state can
                // never reach `published`.
                if writer.watermark() > self.watermark() {
                    if let Some(report) = writer.snapshot_report() {
                        let snap = Arc::new(Snapshot {
                            watermark: writer.watermark(),
                            epochs: self.epochs,
                            report,
                            trains_by_target: OnceLock::new(),
                        });
                        self.handles.watermark.set(snap.watermark as u64);
                        // The guard is a temporary of this statement, so
                        // the replaced snapshot is freed below, after
                        // the write lock is released, and readers never
                        // wait on the free.
                        let replaced = self.published.write().replace(snap);
                        drop(replaced);
                    }
                }
            }
            Err(_) => self.handles.append_faults.inc(),
        }
        drop(writer);
        let end = self.obs.now_us();
        self.obs.record_span(names::SERVE_APPEND, start, end);
        self.handles.append_us.record(end.saturating_sub(start));
        result
    }

    /// Drives the writer until every epoch is appended and published.
    pub fn ingest_all(&self) -> Result<(), PipelineError> {
        while self.try_append()?.is_some() {}
        Ok(())
    }

    /// The currently published snapshot, if any epoch has landed yet.
    /// The returned `Arc` stays valid (and immutable) forever, however
    /// far the writer advances.
    pub fn snapshot(&self) -> Option<Arc<Snapshot>> {
        self.published.read().clone()
    }

    /// Answers one typed query against the published snapshot,
    /// recording the read-path telemetry. `None` until the first
    /// publish.
    fn answer<T>(&self, name: &str, f: impl FnOnce(&Snapshot) -> T) -> Option<Answer<T>> {
        let start = self.obs.now_us();
        let inflight = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        self.handles.inflight.record_max(inflight);
        let snap = self.snapshot();
        let out = snap.map(|snap| Answer {
            watermark: snap.watermark,
            epochs: snap.epochs,
            value: f(&snap),
        });
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        let end = self.obs.now_us();
        if self.obs.is_enabled() {
            self.obs
                .record_span(format!("{}/{name}", names::SERVE_QUERY), start, end);
        }
        self.handles.query_us.record(end.saturating_sub(start));
        if out.is_some() {
            self.handles.queries_answered.inc();
        }
        out
    }

    /// Answers with one section of the published report, shared.
    fn section<T>(
        &self,
        name: &str,
        project: fn(&AnalysisReport) -> &T,
    ) -> Option<Answer<Section<T>>> {
        self.answer(name, |snap| Section {
            report: Arc::clone(&snap.report),
            project,
        })
    }

    /// The top `n` victim countries by attack count (§IV-B; the report
    /// tracks at most its overall top five).
    pub fn top_targets(&self, n: usize) -> Option<Answer<Vec<(CountryCode, usize)>>> {
        self.answer("top_targets", |snap| {
            snap.report
                .overall_targets
                .iter()
                .take(n)
                .copied()
                .collect()
        })
    }

    /// Per-family activity levels (§III-A).
    pub fn family_breakdown(&self) -> Option<Answer<Section<Vec<FamilyActivity>>>> {
        self.section("family_breakdown", |r| &r.activity)
    }

    /// The recurrence train for one target: its attack start timeline
    /// and the families that hit it. `value` is `None` for targets the
    /// recurrence pass dropped (fewer than four attacks — its
    /// `MIN_TRAIN_LEN` — in the covered prefix). Found by binary search
    /// over an index the snapshot builds on its first such query.
    pub fn target_timeline(&self, target: IpAddr4) -> Option<Answer<Option<TargetTrain>>> {
        self.answer("target_timeline", |snap| snap.train_of(target).cloned())
    }

    /// Concurrent collaboration pairs and events (§V, Table VI).
    pub fn collaboration_groups(&self) -> Option<Answer<Section<CollabAnalysis>>> {
        self.section("collaboration_groups", |r| &r.collaborations)
    }

    /// The weekly shift analysis (§IV-A, Fig. 8).
    pub fn shift_series(&self) -> Option<Answer<Section<ShiftAnalysis>>> {
        self.section("shift_series", |r| &r.shifts)
    }

    /// Qualifying families' source-dispersion series (§IV-A, Fig. 9).
    pub fn dispersion_series(&self) -> Option<Answer<Section<Vec<FamilyDispersion>>>> {
        self.section("dispersion_series", |r| &r.dispersion)
    }

    /// The blacklist warm-up simulation verdicts (§V summary).
    pub fn blacklist_verdicts(&self) -> Option<Answer<Section<BlacklistSim>>> {
        self.section("blacklist_verdicts", |r| &r.blacklist)
    }
}
