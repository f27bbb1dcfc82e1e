//! The one-call analysis pipeline: everything the paper reports, from
//! one dataset.
//!
//! [`AnalysisReport::run`] is a thin driver over the pass-based
//! pipeline: it builds the shared [`AnalysisContext`] once, executes the
//! [`crate::passes::REGISTRY`] through the dependency-aware scheduler
//! (in parallel by default), and assembles the report from the pass
//! outputs. [`Analysis::baseline`] runs the original monolithic path —
//! every analysis rescanning the dataset for itself — which stays as the
//! one independent oracle the equivalence tests hold every pass body to.
//!
//! The epoch engines — the folded batch run behind [`Analysis::epochs`]
//! and the [`IncrementalPipeline`] — are left folds of
//! [`EpochContext::append`]: each consults the `epoch/merge` failpoint
//! before it touches the fold, and runs the passes over the fold's
//! borrowed view. The incremental pipeline assembles each report once
//! and shares it ([`IncrementalPipeline::snapshot_report`]) instead of
//! copying it per reader.
//!
//! Every run carries a [`RunTelemetry`]: hierarchical spans per build
//! stage and per pass, plus scheduler/kernel metrics, recorded through
//! [`ddos_obs::Obs`]. Telemetry is run metadata — `#[serde(skip)]` on
//! the report field — so its presence (or absence, see
//! [`PipelineOptions::telemetry`]) never changes report bytes.

use std::sync::Arc;

use ddos_obs::{Obs, RunTelemetry};
use ddos_schema::{Dataset, DatasetShard, Family, Seconds};
use ddos_stats::ArimaSpec;
use serde::{Deserialize, Serialize};

use crate::analysis::Analysis;
use crate::collab::concurrent::{CollabAnalysis, PairFocus};
use crate::collab::multistage::MultistageAnalysis;
use crate::context::AnalysisContext;
use crate::defense::{detection_latency_sweep, BlacklistSim, LatencyPoint};
use crate::epoch::EpochContext;
use crate::fault::{self, PipelineError};
use crate::kernels::KernelPolicy;
use crate::overview::activity::{activity_levels, FamilyActivity};
use crate::overview::daily::DailyDistribution;
use crate::overview::duration::DurationAnalysis;
use crate::overview::intervals::{self, ConcurrencyAnalysis, IntervalStats};
use crate::overview::protocols::{protocol_preferences, ProtocolFamilyRow, ProtocolPopularity};
use crate::passes::{self, PartialReport, LATENCY_GRID_S};
use crate::source::dispersion::{qualifying_families, FamilyDispersion};
use crate::source::prediction::PredictionAnalysis;
use crate::source::shift::ShiftAnalysis;
use crate::summary::SummaryComparison;
use crate::target::country::{all_profiles, overall_top_countries, FamilyCountryProfile};
use crate::target::recurrence::RecurrenceAnalysis;
use crate::util::BotIndex;

/// How to run the pipeline.
///
/// Non-exhaustive so future flags don't break downstream construction:
/// build one with [`PipelineOptions::new`] (or `default()`) and the
/// builder-style setters, e.g.
/// `PipelineOptions::new().parallel(false).telemetry(false)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PipelineOptions {
    /// ARIMA order for the prediction pass.
    pub spec: ArimaSpec,
    /// Run the context build and independent passes on scoped threads.
    /// The serialized report is byte-identical either way; only
    /// wall-clock differs.
    pub parallel: bool,
    /// Record spans and metrics into [`AnalysisReport::telemetry`].
    /// Off means a no-op recorder ([`Obs::disabled`]) — the exact same
    /// code runs and the report bytes are identical (the conformance
    /// suite asserts this); only the telemetry artifact is empty.
    pub telemetry: bool,
    /// The job length of the monolithic context build's per-family
    /// resolution (see [`KernelPolicy`]); the epoch engines never read
    /// it. Report bytes are identical for every policy — the golden
    /// suite and the kernel proptests pin this.
    pub kernels: KernelPolicy,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            spec: ArimaSpec::DEFAULT,
            parallel: true,
            telemetry: true,
            kernels: KernelPolicy::Auto,
        }
    }
}

impl PipelineOptions {
    /// The default options (parallel, telemetry on, `Auto` kernels,
    /// default ARIMA order) — the starting point for the setters below.
    pub fn new() -> PipelineOptions {
        PipelineOptions::default()
    }

    /// Sets the ARIMA order for the prediction pass.
    pub fn spec(mut self, spec: ArimaSpec) -> PipelineOptions {
        self.spec = spec;
        self
    }

    /// Sets whether the context build and pass scheduler fan out on
    /// scoped threads.
    pub fn parallel(mut self, parallel: bool) -> PipelineOptions {
        self.parallel = parallel;
        self
    }

    /// Sets whether spans and metrics are recorded into
    /// [`AnalysisReport::telemetry`].
    pub fn telemetry(mut self, telemetry: bool) -> PipelineOptions {
        self.telemetry = telemetry;
        self
    }

    /// Sets the context build's job-length policy.
    pub fn kernels(mut self, kernels: KernelPolicy) -> PipelineOptions {
        self.kernels = kernels;
        self
    }
}

/// Every analysis of the paper, computed over one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Fig. 1 — protocol popularity.
    pub protocols: ProtocolPopularity,
    /// Table II — per-family protocol preferences.
    pub protocol_rows: Vec<ProtocolFamilyRow>,
    /// Table III — workload summary vs the paper.
    pub summary: SummaryComparison,
    /// Fig. 2 — daily distribution.
    pub daily: DailyDistribution,
    /// §III-B — interval statistics per family (None where a family has
    /// fewer than two attacks).
    pub interval_stats: Vec<(Family, Option<IntervalStats>)>,
    /// §III-B — interval statistics across all attacks.
    pub all_interval_stats: Option<IntervalStats>,
    /// §III-B — concurrency classification (single- vs multi-family).
    pub concurrency: ConcurrencyAnalysis,
    /// §III-C / Figs. 6–7 — durations.
    pub durations: Option<DurationAnalysis>,
    /// Fig. 8 — weekly shift analysis.
    pub shifts: ShiftAnalysis,
    /// Fig. 9 — qualifying families' dispersion series.
    pub dispersion: Vec<FamilyDispersion>,
    /// Table IV / Figs. 12–13 — ARIMA prediction.
    pub prediction: PredictionAnalysis,
    /// Table V — country-level target profiles.
    pub target_countries: Vec<FamilyCountryProfile>,
    /// §IV-B — the overall top victim countries.
    pub overall_targets: Vec<(ddos_schema::CountryCode, usize)>,
    /// Table VI / Figs. 15–16 — concurrent collaborations.
    pub collaborations: CollabAnalysis,
    /// The Dirtjumper×Pandora deep dive (Fig. 16), when present.
    pub flagship_pair: Option<PairFocus>,
    /// §V-B / Figs. 17–18 — multistage chains.
    pub multistage: MultistageAnalysis,
    /// §III-A — per-family activity levels.
    pub activity: Vec<FamilyActivity>,
    /// Abstract finding 2 — next-attack start-time prediction.
    pub recurrence: RecurrenceAnalysis,
    /// §V summary — blacklist warm-up simulation.
    pub blacklist: BlacklistSim,
    /// §III-D — detection-latency sweep (1 min, 10 min, 1 h, 4 h, 1 day).
    pub latency: Vec<LatencyPoint>,
    /// Spans and metrics of the run (machine-dependent metadata —
    /// never serialized, so parallel and serial reports stay
    /// byte-identical). Empty when telemetry was off or the report
    /// came from [`Analysis::baseline`].
    #[serde(skip)]
    pub telemetry: RunTelemetry,
}

/// The monolithic engine: one context build, one pass-scheduler run,
/// recording into `obs`. The body behind `Analysis::try_run` (batch
/// mode).
pub(crate) fn run_monolithic(
    ds: &Dataset,
    opts: PipelineOptions,
    obs: &Obs,
) -> Result<AnalysisReport, PipelineError> {
    let ctx = {
        let _span = obs.span("context");
        AnalysisContext::build_kernels(ds, opts.spec, opts.parallel, opts.kernels, obs)
    };
    let partial = passes::try_execute(&ctx, opts.parallel, obs)?;
    let mut report = {
        let _span = obs.span("assemble");
        assemble(partial)
    };
    report.telemetry = obs.finish(opts.parallel);
    Ok(report)
}

/// Runs the pass scheduler over a context built elsewhere, recording
/// into `obs`. The body behind `Analysis::over(..).try_run()`.
pub(crate) fn run_over(
    ctx: &AnalysisContext,
    parallel: bool,
    obs: &Obs,
) -> Result<AnalysisReport, PipelineError> {
    let partial = passes::try_execute(ctx, parallel, obs)?;
    let mut report = assemble(partial);
    report.telemetry = obs.finish(parallel);
    Ok(report)
}

/// The epoch-sharded engine: the trace is sliced into `epoch_len`
/// shards that append one by one to an [`EpochContext`], whose fold the
/// append rules make bit-identical to the monolithic
/// [`AnalysisContext::build`]. The body behind
/// `Analysis::epochs(..).try_run()`.
pub(crate) fn run_folded(
    ds: &Dataset,
    opts: PipelineOptions,
    epoch_len: Seconds,
    obs: &Obs,
) -> Result<AnalysisReport, PipelineError> {
    let mut folded = EpochContext::new(ds.window());
    for shard in ds.shards(epoch_len) {
        fault::check(fault::EPOCH_MERGE, obs)?;
        folded.append(&shard, obs);
    }
    let ctx = {
        let _span = obs.span("context");
        folded.into_context(ds, opts.spec)
    };
    let partial = passes::try_execute(&ctx, opts.parallel, obs)?;
    let mut report = {
        let _span = obs.span("assemble");
        assemble(partial)
    };
    report.telemetry = obs.finish(opts.parallel);
    Ok(report)
}

/// The pre-refactor monolithic pipeline: every analysis rescans the
/// dataset for itself (the dispersion join runs twice, the shift join a
/// third time, four analyses regroup the per-target index). It shares
/// no pass body with the context path, which makes it the one
/// independent oracle: the equivalence tests assert the pass-based
/// pipeline serializes identically, and `repro --pipeline-bench`
/// measures the speedup against it. The body behind
/// `Analysis::baseline()`.
pub(crate) fn baseline_report(ds: &Dataset, spec: ArimaSpec) -> AnalysisReport {
    let bots = BotIndex::build(ds);
    let collaborations = CollabAnalysis::compute(ds);
    let flagship_pair =
        PairFocus::compute(ds, &collaborations, Family::Dirtjumper, Family::Pandora);
    AnalysisReport {
        protocols: ProtocolPopularity::compute(ds),
        protocol_rows: protocol_preferences(ds),
        summary: SummaryComparison::compute(ds),
        daily: DailyDistribution::compute(ds),
        interval_stats: Family::ACTIVE
            .into_iter()
            .map(|f| {
                let ivs = intervals::family_intervals(ds, f);
                (f, IntervalStats::compute(&ivs))
            })
            .collect(),
        all_interval_stats: IntervalStats::compute(&intervals::all_intervals(ds)),
        concurrency: ConcurrencyAnalysis::compute(ds),
        durations: DurationAnalysis::compute(ds),
        shifts: ShiftAnalysis::compute(ds, &bots),
        dispersion: qualifying_families(ds, &bots),
        prediction: PredictionAnalysis::compute(ds, &bots, spec),
        target_countries: all_profiles(ds),
        overall_targets: overall_top_countries(ds, 5),
        collaborations,
        flagship_pair,
        multistage: MultistageAnalysis::compute(ds),
        activity: activity_levels(ds),
        recurrence: RecurrenceAnalysis::compute(ds, None),
        blacklist: BlacklistSim::run(ds),
        latency: detection_latency_sweep(ds, LATENCY_GRID_S),
        telemetry: RunTelemetry::default(),
    }
}

impl AnalysisReport {
    /// Runs the full pipeline with the default options — shorthand for
    /// [`Analysis::new`]`(ds).run()`.
    pub fn run(ds: &Dataset) -> AnalysisReport {
        Analysis::new(ds).run()
    }
}

/// What one [`IncrementalPipeline::append_epoch`] call did.
#[derive(Debug, Clone)]
pub struct AppendStats {
    /// Zero-based index of the epoch appended.
    pub epoch: usize,
    /// Attacks the epoch contributed.
    pub attacks: usize,
    /// Names of the passes re-run after this append, in registry
    /// order: the whole registry when the append changed the fold (or
    /// no report stood before it), empty when the epoch changed nothing a
    /// pass reads (e.g. an epoch with no attacks and no new bots).
    pub reran: Vec<&'static str>,
}

/// An [`Obs`] the pipeline either owns (created from
/// [`PipelineOptions::telemetry`]) or borrows from a caller that wants
/// the spans — [`Obs`] is deliberately not `Clone`, so a long-lived
/// service recording into its own recorder shares it by reference.
enum ObsSlot<'a> {
    Owned(Obs),
    Shared(&'a Obs),
}

impl ObsSlot<'_> {
    fn get(&self) -> &Obs {
        match self {
            ObsSlot::Owned(obs) => obs,
            ObsSlot::Shared(obs) => obs,
        }
    }
}

/// The incremental pipeline: epochs append one at a time, and after
/// each append that changed the fold the whole registry re-runs.
///
/// Each append grows the [`EpochContext`] in place. When the
/// [`crate::epoch::AppendDelta`] is not
/// [empty](crate::epoch::AppendDelta::is_empty), every pass re-runs
/// against the folded context through [`passes::try_execute`], the
/// scheduler a batch run uses; an epoch that changed nothing keeps the
/// previous report and re-runs nothing.
///
/// The pipeline keeps one [`passes::Carry`] per pass, so the five
/// resumable passes (blacklist, shifts, durations and both interval
/// statistics) extend their states over the appended epoch's attacks
/// instead of replaying the prefix. An append that re-resolved earlier
/// attacks resets every carry. A `scheduler/pass` fault after the first
/// stage leaves that stage's carries covering the fold, which is
/// consistent: the next run finds nothing new for them and emits the
/// same sections.
///
/// Every watermark is an exact prefix report. The folded context
/// borrows the fold's columns and the appended epochs' slice of the
/// attack list, and carries Table III as distinct sets grown per epoch
/// ([`EpochContext::to_context`]), so after each clean append the
/// report is byte-identical to a fresh monolithic run over
/// [`Dataset::epoch_prefix`] of the same epochs
/// ([`IncrementalPipeline::snapshot_report`]), and no append copies the
/// prefix. After the last epoch the fold covers the whole trace, so
/// [`IncrementalPipeline::into_report`] is byte-identical to the batch
/// pipeline's report.
pub struct IncrementalPipeline<'a> {
    ds: &'a Dataset,
    opts: PipelineOptions,
    obs: ObsSlot<'a>,
    shards: Vec<DatasetShard<'a>>,
    next: usize,
    acc: EpochContext,
    /// The report at the current watermark, assembled once per pass run
    /// and shared with every reader. `None` before the first append,
    /// and from an append that changed the fold until a pass run over
    /// the new fold succeeds: a `scheduler/pass` fault leaves it `None`,
    /// so the next append (or the final flush in
    /// [`IncrementalPipeline::try_into_report`]) runs the registry
    /// again.
    report: Option<Arc<AnalysisReport>>,
    /// One [`passes::Carry`] per registry entry: the state each
    /// resumable pass extends on the next pass run. Reset by an append
    /// that re-resolved earlier attacks.
    carries: Vec<passes::Carry>,
}

impl<'a> IncrementalPipeline<'a> {
    /// Slices `ds` into `epoch_len` epochs and readies the pipeline.
    /// Nothing is computed until the first [`append_epoch`] call.
    ///
    /// [`append_epoch`]: IncrementalPipeline::append_epoch
    pub fn new(ds: &'a Dataset, opts: PipelineOptions, epoch_len: Seconds) -> Self {
        let obs = if opts.telemetry {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        Self::with_slot(ds, opts, epoch_len, ObsSlot::Owned(obs))
    }

    /// Like [`IncrementalPipeline::new`], but records spans and metrics
    /// into a caller-supplied [`Obs`] (which `opts.telemetry` then does
    /// not override) — the serve layer shares its service-wide recorder
    /// with the pipeline this way.
    pub fn with_obs(
        ds: &'a Dataset,
        opts: PipelineOptions,
        epoch_len: Seconds,
        obs: &'a Obs,
    ) -> Self {
        Self::with_slot(ds, opts, epoch_len, ObsSlot::Shared(obs))
    }

    fn with_slot(
        ds: &'a Dataset,
        opts: PipelineOptions,
        epoch_len: Seconds,
        obs: ObsSlot<'a>,
    ) -> Self {
        IncrementalPipeline {
            ds,
            opts,
            obs,
            shards: ds.shards(epoch_len),
            next: 0,
            acc: EpochContext::new(ds.window()),
            report: None,
            carries: passes::REGISTRY
                .iter()
                .map(|_| passes::Carry::default())
                .collect(),
        }
    }

    /// Total number of epochs in the slicing.
    pub fn epochs(&self) -> usize {
        self.shards.len()
    }

    /// Epochs appended so far.
    pub fn appended(&self) -> usize {
        self.next
    }

    /// The epoch watermark: how many epochs the state reflects — an
    /// alias of [`IncrementalPipeline::appended`] under the name the
    /// serve layer stamps on every query answer.
    pub fn watermark(&self) -> usize {
        self.next
    }

    /// An exact prefix report at the current watermark, or `None` when
    /// one isn't available: no epoch has been appended yet, or a
    /// `scheduler/pass` fault aborted the pass run over the current
    /// fold (no report until a pass run succeeds; the next clean append
    /// runs the registry again).
    ///
    /// The returned report is byte-identical to a monolithic run over
    /// the dataset's first [`watermark`](IncrementalPipeline::watermark)
    /// epochs ([`Dataset::epoch_prefix`]) — the epoch and serve suites
    /// pin this at every watermark. It is shared, not copied: every call
    /// until the next pass run returns the same allocation. Telemetry is
    /// empty (it is run metadata, not part of the snapshot).
    pub fn snapshot_report(&self) -> Option<Arc<AnalysisReport>> {
        self.report.clone()
    }

    /// Whether every epoch has been appended.
    pub fn is_complete(&self) -> bool {
        self.next == self.shards.len()
    }

    /// Appends the next epoch and, if it changed the fold, re-runs every
    /// pass. Returns `None` once every epoch has been appended.
    pub fn append_epoch(&mut self) -> Option<AppendStats> {
        fault::infallible(self.try_append_epoch())
    }

    /// Fallible [`append_epoch`] with a two-level error contract:
    ///
    /// * An `epoch/merge` injection is checked **before any state is
    ///   consumed** — on `Err` the pipeline is untouched, and calling
    ///   `try_append_epoch` again retries the *same* epoch (the fault
    ///   suite pins that the in-place retry still reaches the golden
    ///   report).
    /// * A `scheduler/pass` injection aborts the pass run after the
    ///   epoch was appended and leaves no report
    ///   ([`snapshot_report`] is `None`); the next successful append,
    ///   idle or not (or the final flush in [`try_into_report`]), runs
    ///   the whole registry over the fold, so the pipeline still
    ///   converges to the golden report.
    ///
    /// [`append_epoch`]: IncrementalPipeline::append_epoch
    /// [`snapshot_report`]: IncrementalPipeline::snapshot_report
    /// [`try_into_report`]: IncrementalPipeline::try_into_report
    pub fn try_append_epoch(&mut self) -> Result<Option<AppendStats>, PipelineError> {
        let epoch = self.next;
        let Some(shard) = self.shards.get(epoch) else {
            // Every epoch is in; re-run the registry if a faulted pass
            // run left no report, so a recovered pipeline converges
            // without a trailing `try_into_report`.
            self.try_flush()?;
            return Ok(None);
        };
        fault::check(fault::EPOCH_MERGE, self.obs.get())?;
        self.next += 1;
        // The fold is consistent before the fallible pass run: a pass
        // fault then leaves it with no report.
        let delta = self.acc.append(shard, self.obs.get());
        if !delta.is_empty() {
            self.report = None;
        }
        if !delta.reresolved.is_empty() {
            // Earlier attacks resolve differently now (only the shift
            // grids read resolved data, but one rule covers every carry).
            self.carries.fill_with(passes::Carry::default);
        }
        let reran: Vec<&'static str> = match self.report {
            Some(_) => Vec::new(),
            None => passes::REGISTRY.iter().map(|p| p.name).collect(),
        };
        self.try_flush()?;
        Ok(Some(AppendStats {
            epoch,
            attacks: delta.appended_attacks,
            reran,
        }))
    }

    /// Runs the registry over the current fold when no report stands
    /// for it. No-op otherwise.
    fn try_flush(&mut self) -> Result<(), PipelineError> {
        if self.report.is_some() {
            return Ok(());
        }
        let ctx = {
            let _span = self.obs.get().span("epoch/materialize");
            self.acc.to_context(self.ds, self.opts.spec)
        };
        let partial = passes::try_execute_carried(
            &ctx,
            self.opts.parallel,
            &mut self.carries,
            self.obs.get(),
        )?;
        self.report = Some(Arc::new(assemble(partial)));
        Ok(())
    }

    /// Appends any remaining epochs and assembles the final report —
    /// byte-identical to the batch pipeline's.
    pub fn into_report(self) -> AnalysisReport {
        fault::infallible(self.try_into_report())
    }

    /// Fallible [`into_report`]: drives the remaining appends through
    /// [`try_append_epoch`], whose final call re-runs the registry if a
    /// previous faulted append left no report, then assembles.
    ///
    /// [`into_report`]: IncrementalPipeline::into_report
    /// [`try_append_epoch`]: IncrementalPipeline::try_append_epoch
    pub fn try_into_report(mut self) -> Result<AnalysisReport, PipelineError> {
        while self.try_append_epoch()?.is_some() {}
        let shared = self.report.expect("the final append flushed the report");
        let mut report = Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone());
        report.telemetry = self.obs.get().finish(self.opts.parallel);
        Ok(report)
    }
}

/// Assembles the report from a completed pass run. Panics if a slot was
/// never filled — the registry test guards against that.
fn assemble(partial: PartialReport) -> AnalysisReport {
    macro_rules! take {
        ($field:ident) => {
            partial
                .$field
                .expect(concat!("pass left report slot empty: ", stringify!($field)))
        };
    }
    AnalysisReport {
        protocols: take!(protocols),
        protocol_rows: take!(protocol_rows),
        summary: take!(summary),
        daily: take!(daily),
        interval_stats: take!(interval_stats),
        all_interval_stats: take!(all_interval_stats),
        concurrency: take!(concurrency),
        durations: take!(durations),
        shifts: take!(shifts),
        dispersion: take!(dispersion),
        prediction: take!(prediction),
        target_countries: take!(target_countries),
        overall_targets: take!(overall_targets),
        collaborations: take!(collaborations),
        flagship_pair: take!(flagship_pair),
        multistage: take!(multistage),
        activity: take!(activity),
        recurrence: take!(recurrence),
        blacklist: take!(blacklist),
        latency: take!(latency),
        telemetry: RunTelemetry::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn report_runs_on_a_tiny_dataset() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
            attack(Family::Dirtjumper, 3, 5_000, 900, 2),
        ]);
        let r = AnalysisReport::run(&ds);
        assert_eq!(r.summary.measured.attacks, 3);
        assert_eq!(r.protocols.counts[0].1, 3);
        assert_eq!(r.daily.counts[0], 3);
        assert_eq!(r.collaborations.pairs.len(), 1);
        assert!(r.flagship_pair.is_some());
        assert!(r.durations.is_some());
        // Only families with ≥2 attacks have interval stats.
        let dj = r
            .interval_stats
            .iter()
            .find(|&&(f, _)| f == Family::Dirtjumper)
            .unwrap();
        assert!(dj.1.is_some());
        let nitol = r
            .interval_stats
            .iter()
            .find(|&&(f, _)| f == Family::Nitol)
            .unwrap();
        assert!(nitol.1.is_none());
        // The run carries its telemetry: one span per pass, the build
        // stages under `context/`, and scheduler metrics.
        assert_eq!(
            r.telemetry.spans_under("passes").count(),
            passes::REGISTRY.len()
        );
        assert!(r.telemetry.span("context").is_some());
        assert!(r.telemetry.span("context/bot_table").is_some());
        assert!(r.telemetry.span("assemble").is_some());
        assert!(r.telemetry.parallel);
        assert!(r.telemetry.metrics.counter("scheduler/stages").unwrap() > 0);
    }

    #[test]
    fn report_runs_on_an_empty_dataset() {
        let ds = dataset(vec![]);
        let r = AnalysisReport::run(&ds);
        assert!(r.durations.is_none());
        assert!(r.recurrence.trains.is_empty());
        assert!(r.blacklist.hits.is_empty());
        assert_eq!(r.latency.len(), 5);
        assert!(r.all_interval_stats.is_none());
        assert!(r.flagship_pair.is_none());
        assert!(r.dispersion.is_empty());
        assert!(r.prediction.rows.is_empty());
        assert!(r.multistage.chains.is_empty());
    }

    #[test]
    fn parallel_serial_and_baseline_agree_on_a_tiny_dataset() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Dirtjumper, 2, 100, 650, 1),
            attack(Family::Pandora, 3, 120, 700, 1),
            attack(Family::Pandora, 4, 760, 60, 1),
            attack(Family::Pandora, 5, 1_500, 60, 1),
            attack(Family::Pandora, 6, 2_400, 60, 1),
            attack(Family::Dirtjumper, 7, 5_000, 900, 2),
        ]);
        let parallel = Analysis::new(&ds).run();
        let serial = Analysis::new(&ds).parallel(false).run();
        let baseline = Analysis::new(&ds).baseline().run();
        let quiet = Analysis::new(&ds).telemetry(false).run();
        let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&parallel), json(&serial));
        assert_eq!(json(&parallel), json(&baseline));
        // Telemetry is metadata: excluded from serialization, and
        // turning it off changes nothing but the attached artifact.
        assert_eq!(json(&parallel), json(&quiet));
        assert!(!json(&parallel).contains("telemetry"));
        assert!(!serial.telemetry.parallel);
        assert!(quiet.telemetry.is_empty());
        assert!(baseline.telemetry.is_empty());
    }
}
