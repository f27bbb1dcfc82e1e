//! The analysis-pass registry and scheduler.
//!
//! Every section of the report is produced by one [`PassSpec`]: a named
//! pure function from the shared [`AnalysisContext`] (plus any
//! already-finished passes it depends on) to one [`PassOutput`]. The
//! [`execute`] driver schedules the registry in dependency stages and —
//! when asked — runs the passes of a stage on a pool of workers. Because
//! passes are pure functions of the context and their declared
//! dependencies, the parallel schedule produces a report byte-identical
//! to the serial one; only the recorded telemetry differs.
//!
//! Each pass has exactly one body, and it is the one public body of its
//! section. Most bodies read the context's shared joins (the dense shift
//! and country grids, the sorted-gap recurrence scorer, the
//! collaboration sort-sweep, the merged duration and interval samples,
//! the id-stamp blacklist replay); the count sections run a slice-level
//! function over the context's borrowed attack slice or one of its
//! columns. The testkit's `baseline_report` assembles the same report
//! from dataset scans of its own, and is the one independent oracle
//! every body is tested against.
//!
//! Four passes are *resumable* (`interval_stats`, `all_interval_stats`,
//! `durations`, `blacklist`): their body extends a state
//! carried in a [`Carry`] slot over the attacks past the ones it
//! covers. [`try_execute`] lends every pass a fresh carry, so a batch
//! run is the same body from an empty state; the
//! [`crate::IncrementalPipeline`] keeps one carry per pass across its
//! appends, so each run pays for the appended epoch's attacks only.
//!
//! A body reads raw records only through `ctx.attacks` and Table III
//! only through `ctx.summary()`, never through the dataset: a context
//! covers a prefix of the trace (all of it, or an epoch fold's appended
//! epochs), and those two views end where the prefix ends.
//!
//! Every caller runs the whole registry: the batch engines once through
//! [`try_execute`], and the incremental pipeline, lending its carries,
//! after every append that changed its fold. No pass is skipped on its
//! own, because on real traces every epoch brings attacks and every
//! pass reads something derived from them.
//!
//! Observability: [`execute`] records one `passes/<name>` span per pass
//! and one `scheduler/stage<i>` span per dependency stage into the
//! [`Obs`] it is handed, plus a `scheduler/wait_us` histogram of how
//! long each pass of a pooled stage waited in the queue, and a
//! `scheduler/workers` gauge of the largest pool a stage ran on — the
//! run's scheduler behavior, captured without touching report bytes.
//!
//! # Adding a pass
//!
//! 1. Add the output variant to [`PassOutput`] and a slot to
//!    [`PartialReport`] (and wire it through `PartialReport::apply`).
//! 2. Write the pass function (`fn(&AnalysisContext, &PartialReport,
//!    &Obs) -> PassOutput`) and append a [`PassSpec`] to [`REGISTRY`]
//!    with `resume: None`, listing in `deps` the names of any passes
//!    whose output it reads.
//! 3. Consume the slot in `AnalysisReport`'s assembly
//!    (`pipeline::assemble`).
//!
//! To make a pass resumable instead, add its state as a [`Carry`]
//! variant and write the body as `fn(&AnalysisContext, &PartialReport,
//! &mut Carry, &Obs) -> PassOutput`, extending the state over the
//! attacks past the ones it covers (and starting it over on a shorter
//! context). Register it with `resumable!`, whose `run` is the body over
//! an empty carry. Its output must not depend on the carry it is lent:
//! a unit test folds a fixture epoch by epoch and holds the resumed
//! output to a fresh run (and, in the testkit, to the oracle's scan) at
//! every watermark. A state must not read
//! resolved sources (bot rows, countries, coordinates): an append that
//! re-resolves earlier attacks keeps every carry.

use std::collections::HashSet;
use std::sync::Mutex;

use ddos_obs::{names, Obs};
use ddos_schema::{CountryCode, Family};

use crate::collab::concurrent::{CollabAnalysis, PairFocus};
use crate::collab::multistage::MultistageAnalysis;
use crate::columnar::{fan_out, worker_count};
use crate::context::AnalysisContext;
use crate::defense::{latency_sweep_from_durations, BlacklistSim, BlacklistState, LatencyPoint};
use crate::fault::{self, PipelineError};
use crate::overview::activity::{activity_levels_ctx, FamilyActivity};
use crate::overview::daily::DailyDistribution;
use crate::overview::duration::DurationAnalysis;
use crate::overview::intervals::{ConcurrencyAnalysis, IntervalStats};
use crate::overview::protocols::{protocol_preferences_of, ProtocolFamilyRow, ProtocolPopularity};
use crate::overview::SortedSample;
use crate::source::dispersion::{qualifying_families_ctx, FamilyDispersion};
use crate::source::prediction::PredictionAnalysis;
use crate::source::shift::ShiftAnalysis;
use crate::summary::SummaryComparison;
use crate::target::country::{all_profiles_ctx, overall_top_countries_ctx, FamilyCountryProfile};
use crate::target::recurrence::RecurrenceAnalysis;

/// The detection-latency grid of the report (§III-D: 1 min, 10 min,
/// 1 h, 4 h, 1 day).
pub const LATENCY_GRID_S: &[f64] = &[60.0, 600.0, 3_600.0, 4.0 * 3_600.0, 86_400.0];

/// The output of one pass — one report section.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant names mirror the report fields
pub enum PassOutput {
    Protocols(ProtocolPopularity),
    ProtocolRows(Vec<ProtocolFamilyRow>),
    Summary(SummaryComparison),
    Daily(DailyDistribution),
    IntervalStats(Vec<(Family, Option<IntervalStats>)>),
    AllIntervalStats(Option<IntervalStats>),
    Concurrency(ConcurrencyAnalysis),
    Durations(Option<DurationAnalysis>),
    Shifts(ShiftAnalysis),
    Dispersion(Vec<FamilyDispersion>),
    Prediction(PredictionAnalysis),
    TargetCountries(Vec<FamilyCountryProfile>),
    OverallTargets(Vec<(CountryCode, usize)>),
    Collaborations(CollabAnalysis),
    FlagshipPair(Option<PairFocus>),
    Multistage(MultistageAnalysis),
    Activity(Vec<FamilyActivity>),
    Recurrence(RecurrenceAnalysis),
    Blacklist(BlacklistSim),
    Latency(Vec<LatencyPoint>),
}

/// The report under construction: one optional slot per section.
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)] // field names mirror the report fields
pub struct PartialReport {
    pub protocols: Option<ProtocolPopularity>,
    pub protocol_rows: Option<Vec<ProtocolFamilyRow>>,
    pub summary: Option<SummaryComparison>,
    pub daily: Option<DailyDistribution>,
    pub interval_stats: Option<Vec<(Family, Option<IntervalStats>)>>,
    pub all_interval_stats: Option<Option<IntervalStats>>,
    pub concurrency: Option<ConcurrencyAnalysis>,
    pub durations: Option<Option<DurationAnalysis>>,
    pub shifts: Option<ShiftAnalysis>,
    pub dispersion: Option<Vec<FamilyDispersion>>,
    pub prediction: Option<PredictionAnalysis>,
    pub target_countries: Option<Vec<FamilyCountryProfile>>,
    pub overall_targets: Option<Vec<(CountryCode, usize)>>,
    pub collaborations: Option<CollabAnalysis>,
    pub flagship_pair: Option<Option<PairFocus>>,
    pub multistage: Option<MultistageAnalysis>,
    pub activity: Option<Vec<FamilyActivity>>,
    pub recurrence: Option<RecurrenceAnalysis>,
    pub blacklist: Option<BlacklistSim>,
    pub latency: Option<Vec<LatencyPoint>>,
}

impl PartialReport {
    /// Stores one pass's output in its slot.
    pub fn apply(&mut self, output: PassOutput) {
        match output {
            PassOutput::Protocols(v) => self.protocols = Some(v),
            PassOutput::ProtocolRows(v) => self.protocol_rows = Some(v),
            PassOutput::Summary(v) => self.summary = Some(v),
            PassOutput::Daily(v) => self.daily = Some(v),
            PassOutput::IntervalStats(v) => self.interval_stats = Some(v),
            PassOutput::AllIntervalStats(v) => self.all_interval_stats = Some(v),
            PassOutput::Concurrency(v) => self.concurrency = Some(v),
            PassOutput::Durations(v) => self.durations = Some(v),
            PassOutput::Shifts(v) => self.shifts = Some(v),
            PassOutput::Dispersion(v) => self.dispersion = Some(v),
            PassOutput::Prediction(v) => self.prediction = Some(v),
            PassOutput::TargetCountries(v) => self.target_countries = Some(v),
            PassOutput::OverallTargets(v) => self.overall_targets = Some(v),
            PassOutput::Collaborations(v) => self.collaborations = Some(v),
            PassOutput::FlagshipPair(v) => self.flagship_pair = Some(v),
            PassOutput::Multistage(v) => self.multistage = Some(v),
            PassOutput::Activity(v) => self.activity = Some(v),
            PassOutput::Recurrence(v) => self.recurrence = Some(v),
            PassOutput::Blacklist(v) => self.blacklist = Some(v),
            PassOutput::Latency(v) => self.latency = Some(v),
        }
    }
}

/// The state a resumable pass carries from one run to the next, so a
/// run over a grown context extends the previous one over the new
/// attacks only. One variant per resumable pass; a slot starts
/// [`Carry::Empty`], and a pass handed a slot that holds no state of
/// its own starts one.
///
/// Each state records the attacks (or sample values) it covers and
/// extends over the rest of the context; a context shorter than that
/// starts it over. The carry only saves work: a pass's output is the
/// same from any carry it is lent, an empty one included.
#[derive(Debug, Default)]
#[allow(missing_docs)] // variant names mirror the pass names
pub enum Carry {
    /// No state yet.
    #[default]
    Empty,
    /// One ascending interval sample per [`Family::ACTIVE`] entry.
    IntervalStats(Vec<SortedSample>),
    AllIntervalStats(SortedSample),
    Durations(SortedSample),
    Blacklist(BlacklistState),
}

/// The pass's own state in a carry slot, started afresh when the slot
/// holds none.
macro_rules! state_in {
    ($carry:expr, $variant:ident) => {{
        let carry: &mut Carry = $carry;
        if !matches!(carry, Carry::$variant(_)) {
            *carry = Carry::$variant(Default::default());
        }
        match carry {
            Carry::$variant(state) => state,
            _ => unreachable!("the slot was just filled"),
        }
    }};
}

/// One registered analysis pass.
pub struct PassSpec {
    /// Unique pass name (also the `deps` vocabulary).
    pub name: &'static str,
    /// Names of the passes whose output this pass reads.
    pub deps: &'static [&'static str],
    /// The pass body. Its output must be a function of the context and
    /// the declared dependencies' slots in the partial report alone.
    /// The observer lets a body record its own metrics; none does
    /// today, and recording may never change the output. A resumable
    /// pass's `run` is its `resume` over an empty [`Carry`].
    pub run: fn(&AnalysisContext, &PartialReport, &Obs) -> PassOutput,
    /// The body of a resumable pass, extending the state in its
    /// [`Carry`] slot; `None` for a pass that carries nothing. Its
    /// output obeys `run`'s contract: the carry only saves work.
    pub resume: Option<ResumeFn>,
}

/// The body of a resumable pass ([`PassSpec::resume`]).
pub type ResumeFn = fn(&AnalysisContext, &PartialReport, &mut Carry, &Obs) -> PassOutput;

fn pass_protocols(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Protocols(ProtocolPopularity::of_attacks(ctx.attacks))
}

fn pass_protocol_rows(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::ProtocolRows(protocol_preferences_of(ctx.attacks))
}

fn pass_summary(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Summary(SummaryComparison::of(ctx.summary()))
}

fn pass_daily(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Daily(DailyDistribution::of_attacks(ctx.window(), ctx.attacks))
}

fn pass_interval_stats(
    ctx: &AnalysisContext,
    _: &PartialReport,
    carry: &mut Carry,
    _obs: &Obs,
) -> PassOutput {
    let samples = state_in!(carry, IntervalStats);
    samples.resize_with(ctx.families().len(), SortedSample::default);
    PassOutput::IntervalStats(
        ctx.families()
            .iter()
            .zip(samples)
            .map(|(fc, sorted)| (fc.family, IntervalStats::resume(&fc.starts, sorted)))
            .collect(),
    )
}

fn pass_all_interval_stats(
    ctx: &AnalysisContext,
    _: &PartialReport,
    carry: &mut Carry,
    _obs: &Obs,
) -> PassOutput {
    let sorted = state_in!(carry, AllIntervalStats);
    PassOutput::AllIntervalStats(IntervalStats::resume(&ctx.all_starts, sorted))
}

fn pass_concurrency(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Concurrency(ConcurrencyAnalysis::compute_ctx(ctx))
}

fn pass_durations(
    ctx: &AnalysisContext,
    _: &PartialReport,
    carry: &mut Carry,
    _obs: &Obs,
) -> PassOutput {
    PassOutput::Durations(DurationAnalysis::resume(ctx, state_in!(carry, Durations)))
}

fn pass_shifts(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Shifts(ShiftAnalysis::compute_ctx(ctx))
}

fn pass_dispersion(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Dispersion(qualifying_families_ctx(ctx))
}

fn pass_prediction(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Prediction(PredictionAnalysis::compute_ctx(ctx))
}

fn pass_target_countries(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::TargetCountries(all_profiles_ctx(ctx))
}

fn pass_overall_targets(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::OverallTargets(overall_top_countries_ctx(ctx, 5))
}

fn pass_collaborations(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Collaborations(CollabAnalysis::compute_ctx(ctx))
}

fn pass_flagship_pair(ctx: &AnalysisContext, partial: &PartialReport, _obs: &Obs) -> PassOutput {
    let collab = partial
        .collaborations
        .as_ref()
        .expect("scheduler ran flagship_pair before its collaborations dependency");
    PassOutput::FlagshipPair(PairFocus::of_attacks(
        ctx.attacks,
        collab,
        Family::Dirtjumper,
        Family::Pandora,
    ))
}

fn pass_multistage(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Multistage(MultistageAnalysis::compute_ctx(ctx))
}

fn pass_activity(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Activity(activity_levels_ctx(ctx))
}

fn pass_recurrence(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Recurrence(RecurrenceAnalysis::compute_ctx(ctx))
}

fn pass_blacklist(
    ctx: &AnalysisContext,
    _: &PartialReport,
    carry: &mut Carry,
    _obs: &Obs,
) -> PassOutput {
    PassOutput::Blacklist(BlacklistSim::resume(ctx, state_in!(carry, Blacklist)))
}

fn pass_latency(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Latency(latency_sweep_from_durations(&ctx.durations, LATENCY_GRID_S))
}

/// A resumable pass with no dependencies: `run` is `resume` over an
/// empty carry.
macro_rules! resumable {
    ($name:literal, $resume:ident) => {
        PassSpec {
            name: $name,
            deps: &[],
            run: |ctx, partial, obs| $resume(ctx, partial, &mut Carry::default(), obs),
            resume: Some($resume),
        }
    };
}

/// Every pass of the report, in registry order. The only inter-pass
/// dependency is `flagship_pair` → `collaborations`; everything else
/// reads the context alone.
pub const REGISTRY: &[PassSpec] = &[
    PassSpec {
        name: "protocols",
        deps: &[],
        run: pass_protocols,
        resume: None,
    },
    PassSpec {
        name: "protocol_rows",
        deps: &[],
        run: pass_protocol_rows,
        resume: None,
    },
    PassSpec {
        name: "summary",
        deps: &[],
        run: pass_summary,
        resume: None,
    },
    PassSpec {
        name: "daily",
        deps: &[],
        run: pass_daily,
        resume: None,
    },
    resumable!("interval_stats", pass_interval_stats),
    resumable!("all_interval_stats", pass_all_interval_stats),
    PassSpec {
        name: "concurrency",
        deps: &[],
        run: pass_concurrency,
        resume: None,
    },
    resumable!("durations", pass_durations),
    PassSpec {
        name: "shifts",
        deps: &[],
        run: pass_shifts,
        resume: None,
    },
    PassSpec {
        name: "dispersion",
        deps: &[],
        run: pass_dispersion,
        resume: None,
    },
    PassSpec {
        name: "prediction",
        deps: &[],
        run: pass_prediction,
        resume: None,
    },
    PassSpec {
        name: "target_countries",
        deps: &[],
        run: pass_target_countries,
        resume: None,
    },
    PassSpec {
        name: "overall_targets",
        deps: &[],
        run: pass_overall_targets,
        resume: None,
    },
    PassSpec {
        name: "collaborations",
        deps: &[],
        run: pass_collaborations,
        resume: None,
    },
    PassSpec {
        name: "flagship_pair",
        deps: &["collaborations"],
        run: pass_flagship_pair,
        resume: None,
    },
    PassSpec {
        name: "multistage",
        deps: &[],
        run: pass_multistage,
        resume: None,
    },
    PassSpec {
        name: "activity",
        deps: &[],
        run: pass_activity,
        resume: None,
    },
    PassSpec {
        name: "recurrence",
        deps: &[],
        run: pass_recurrence,
        resume: None,
    },
    resumable!("blacklist", pass_blacklist),
    PassSpec {
        name: "latency",
        deps: &[],
        run: pass_latency,
        resume: None,
    },
];

/// What one pass run yields: `(name, output, start_us, end_us)`.
type PassRun = (&'static str, PassOutput, u64, u64);

/// Runs one pass, stamping its start/end offsets off the observer's
/// clock (offsets are recorded by the driver after the join, so worker
/// threads never contend on the span sink mid-stage). A resumable pass
/// extends the state in its carry slot.
fn run_pass(
    pass: &'static PassSpec,
    ctx: &AnalysisContext,
    partial: &PartialReport,
    carry: &mut Carry,
    obs: &Obs,
) -> PassRun {
    let start_us = obs.now_us();
    let out = match pass.resume {
        Some(resume) => resume(ctx, partial, carry, obs),
        None => (pass.run)(ctx, partial, obs),
    };
    (pass.name, out, start_us, obs.now_us())
}

/// Runs the whole registry against a context, recording telemetry into
/// `obs` (hand it [`Obs::disabled`] for an uninstrumented run).
///
/// Passes are grouped into stages: a stage holds every not-yet-run pass
/// whose dependencies have all finished. With `parallel` set, the passes
/// of a stage run on a pool of `min(worker_count, stage length)` workers,
/// the calling thread among them, which claim passes in registry order
/// from a shared index; results are joined in registry order, so the
/// assembled report — and even the order of the recorded pass spans —
/// does not depend on thread interleaving. Serial execution is the
/// one-worker pool: the exact same functions in the exact same order,
/// on the calling thread.
pub fn execute(ctx: &AnalysisContext, parallel: bool, obs: &Obs) -> PartialReport {
    fault::infallible(try_execute(ctx, parallel, obs))
}

/// Fallible [`execute`]: the `scheduler/pass` failpoint is consulted
/// once per pass, on the calling thread and in registry order, before
/// any pass of its stage runs. An injection surfaces as `Err` before
/// the stage starts and the partially filled report is discarded;
/// re-running without the fault plan reproduces the golden report (the
/// scheduler holds no state across calls: each pass is lent a fresh
/// [`Carry`]). Because no pool worker consults the seam, the failing
/// pass and its hit index never depend on thread interleaving.
pub fn try_execute(
    ctx: &AnalysisContext,
    parallel: bool,
    obs: &Obs,
) -> Result<PartialReport, PipelineError> {
    let mut carries: Vec<Carry> = REGISTRY.iter().map(|_| Carry::default()).collect();
    try_execute_carried(ctx, parallel, &mut carries, obs)
}

/// [`try_execute`] lending each pass its own slot of `carries` (one per
/// [`REGISTRY`] entry, in registry order), so resumable passes extend
/// the state a previous run over a shorter prefix left. Each queued
/// pass holds its slot as a disjoint `&mut`, which the worker that
/// claims the pass takes. A `scheduler/pass` fault after an earlier
/// stage leaves that stage's states advanced over the whole context,
/// which is consistent: the next run over the same context finds
/// nothing new and emits the same sections.
pub(crate) fn try_execute_carried(
    ctx: &AnalysisContext,
    parallel: bool,
    carries: &mut [Carry],
    obs: &Obs,
) -> Result<PartialReport, PipelineError> {
    assert_eq!(carries.len(), REGISTRY.len(), "one carry per pass");
    let wait_hist = obs.histogram(names::SCHEDULER_WAIT_US);
    let stage_counter = obs.counter("scheduler/stages");
    let mut partial = PartialReport::default();
    let mut done: HashSet<&'static str> = HashSet::new();
    let mut stage_idx = 0usize;
    let mut most_workers = 1;
    while done.len() < REGISTRY.len() {
        // The stage's queue, in registry order; a worker takes a pass
        // (and its carry) out of its slot when it claims the index.
        type Queued<'c> = Mutex<Option<(&'static PassSpec, &'c mut Carry)>>;
        let queue: Vec<Queued<'_>> = REGISTRY
            .iter()
            .zip(carries.iter_mut())
            .filter(|(p, _)| !done.contains(p.name) && p.deps.iter().all(|d| done.contains(d)))
            .map(|item| Mutex::new(Some(item)))
            .collect();
        assert!(
            !queue.is_empty(),
            "pass registry has a dependency cycle or an unknown dep name"
        );
        // One consult per pass, here on the scheduling thread, before
        // any pass of the stage runs (see the doc comment above).
        for _ in &queue {
            fault::check(fault::SCHEDULER_PASS, obs)?;
        }
        let stage_start = obs.now_us();
        let workers = if parallel {
            worker_count().min(queue.len())
        } else {
            1
        };
        most_workers = most_workers.max(workers);
        let partial_ref = &partial;
        let results: Vec<PassRun> = fan_out(queue.len(), &mut vec![(); workers], |i, _| {
            let (pass, carry) = queue[i]
                .lock()
                .expect("queue slot poisoned")
                .take()
                .expect("each queued pass is claimed once");
            run_pass(pass, ctx, partial_ref, carry, obs)
        });
        for (name, out, start_us, end_us) in results {
            if workers > 1 {
                // Queue wait: how long the pass sat between the stage
                // opening and a worker claiming it.
                wait_hist.record(start_us.saturating_sub(stage_start));
            }
            obs.record_span(format!("passes/{name}"), start_us, end_us);
            partial.apply(out);
            done.insert(name);
        }
        obs.record_span(
            format!("scheduler/stage{stage_idx}"),
            stage_start,
            obs.now_us(),
        );
        stage_counter.inc();
        stage_idx += 1;
    }
    obs.gauge(names::SCHEDULER_WORKERS).set(most_workers as u64);
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn registry_names_are_unique_and_deps_resolve() {
        let names: HashSet<&str> = REGISTRY.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
        for p in REGISTRY {
            for d in p.deps {
                assert!(names.contains(d), "{}: unknown dep {d}", p.name);
                assert_ne!(*d, p.name, "{} depends on itself", p.name);
            }
        }
    }

    #[test]
    fn execute_fills_every_slot() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        for parallel in [false, true] {
            let obs = Obs::enabled();
            let partial = execute(&ctx, parallel, &obs);
            assert!(partial.protocols.is_some());
            assert!(partial.flagship_pair.is_some());
            assert!(partial.latency.is_some());
            let t = obs.finish(parallel);
            assert_eq!(t.spans_under("passes").count(), REGISTRY.len());
            // flagship_pair must run after collaborations (spans are
            // sorted by start time, so position order is run order).
            let pos = |n: &str| {
                t.spans
                    .iter()
                    .position(|s| s.path == format!("passes/{n}"))
                    .unwrap()
            };
            assert!(pos("flagship_pair") > pos("collaborations"));
            assert_eq!(
                t.metrics.counter("scheduler/stages"),
                Some(t.spans_under("scheduler").count() as u64)
            );
        }
    }

    #[test]
    fn a_pooled_stage_runs_each_pass_once_with_its_own_carry() {
        let ds = crate::overview::test_support::carry_fixture();
        let ctx = AnalysisContext::new(&ds);
        let obs = Obs::enabled();
        let mut carries: Vec<Carry> = REGISTRY.iter().map(|_| Carry::default()).collect();
        let pooled = try_execute_carried(&ctx, true, &mut carries, &obs).unwrap();
        // The first stage queues every pass but one on at most
        // `worker_count()` workers.
        let t = obs.finish(true);
        let workers = t.metrics.gauge(names::SCHEDULER_WORKERS).unwrap();
        assert!(workers >= 1 && workers as usize <= worker_count());
        assert!((workers as usize) < REGISTRY.len() - 1, "{workers} workers");
        // Every pass ran exactly once.
        for p in REGISTRY {
            let path = format!("passes/{}", p.name);
            assert_eq!(
                t.spans.iter().filter(|s| s.path == path).count(),
                1,
                "{path}"
            );
        }
        // Each resumable pass was lent its own slot; the rest stay empty.
        for (p, carry) in REGISTRY.iter().zip(&carries) {
            let own = match carry {
                Carry::Empty => None,
                Carry::IntervalStats(_) => Some("interval_stats"),
                Carry::AllIntervalStats(_) => Some("all_interval_stats"),
                Carry::Durations(_) => Some("durations"),
                Carry::Blacklist(_) => Some("blacklist"),
            };
            assert_eq!(own, p.resume.map(|_| p.name), "{}", p.name);
        }
        // The outputs join in registry order: the same report as the
        // serial schedule.
        let serial = execute(&ctx, false, &Obs::disabled());
        let json = |r: PartialReport| serde_json::to_string(&crate::pipeline::assemble(r)).unwrap();
        assert_eq!(json(pooled), json(serial));
    }

    #[test]
    fn disabled_observer_runs_identical_passes() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        let on = Obs::enabled();
        let off = Obs::disabled();
        let a = execute(&ctx, true, &on);
        let b = execute(&ctx, true, &off);
        assert_eq!(a.protocols, b.protocols);
        assert_eq!(a.flagship_pair, b.flagship_pair);
        assert!(off.finish(true).is_empty());
    }
}
