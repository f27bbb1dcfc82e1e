//! The analysis-pass registry and scheduler.
//!
//! Every section of the report is produced by one [`PassSpec`]: a named
//! pure function from the shared [`AnalysisContext`] (plus any
//! already-finished passes it depends on) to one [`PassOutput`]. The
//! [`execute`] driver schedules the registry in dependency stages and —
//! when asked — runs the passes of a stage on scoped threads. Because
//! passes are pure functions of the context and their declared
//! dependencies, the parallel schedule produces a report byte-identical
//! to the serial one; only the recorded telemetry differs.
//!
//! Each pass has exactly one body. Most bodies read the context's
//! shared joins where the dataset scans behind
//! [`crate::Analysis::baseline`] rebuild them, and some run a faster
//! algorithm than their scan (the dense shift and country grids, the
//! sorted-gap recurrence scorer, the collaboration sort-sweep, the
//! single-sort duration statistics, the id-stamp blacklist replay); the
//! rest run the dataset scan's own loop over the context's borrowed
//! attack slice. The baseline report is the one independent oracle
//! every body that differs from its scan is tested against.
//!
//! A body reads raw records only through `ctx.attacks` and Table III
//! only through `ctx.summary()`, never through the dataset: a context
//! covers a prefix of the trace (all of it, or an epoch fold's appended
//! epochs), and those two views end where the prefix ends.
//!
//! Every caller runs the whole registry through [`try_execute`]: the
//! batch engines once, and the incremental pipeline after every append
//! that changed its fold. No pass is skipped on its own, because on real
//! traces every epoch brings attacks and every pass reads something
//! derived from them.
//!
//! Observability: [`execute`] records one `passes/<name>` span per pass
//! and one `scheduler/stage<i>` span per dependency stage into the
//! [`Obs`] it is handed, plus a `scheduler/wait_us` histogram of
//! spawn-to-start latency on threaded stages — the run's scheduler
//! behavior, captured without touching report bytes.
//!
//! # Adding a pass
//!
//! 1. Add the output variant to [`PassOutput`] and a slot to
//!    [`PartialReport`] (and wire it through `PartialReport::apply`).
//! 2. Write the pass function (`fn(&AnalysisContext, &PartialReport) ->
//!    PassOutput`) and append a [`PassSpec`] to [`REGISTRY`], listing in
//!    `deps` the names of any passes whose output it reads.
//! 3. Consume the slot in `AnalysisReport`'s assembly
//!    (`PartialReport::into_report`).

use std::collections::HashSet;

use ddos_obs::Obs;
use ddos_schema::{CountryCode, Family};

use crate::collab::concurrent::{CollabAnalysis, PairFocus};
use crate::collab::multistage::MultistageAnalysis;
use crate::context::AnalysisContext;
use crate::defense::{latency_sweep_from_durations, BlacklistSim, LatencyPoint};
use crate::fault::{self, PipelineError};
use crate::overview::activity::{activity_levels_ctx, FamilyActivity};
use crate::overview::daily::DailyDistribution;
use crate::overview::duration::DurationAnalysis;
use crate::overview::intervals::{starts_to_intervals, ConcurrencyAnalysis, IntervalStats};
use crate::overview::protocols::{protocol_preferences_of, ProtocolFamilyRow, ProtocolPopularity};
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

/// One registered analysis pass.
pub struct PassSpec {
    /// Unique pass name (also the `deps` vocabulary).
    pub name: &'static str,
    /// Names of the passes whose output this pass reads.
    pub deps: &'static [&'static str],
    /// The pass body. Must be a pure function of the context and the
    /// declared dependencies' slots in the partial report. The observer
    /// lets a body record its own metrics; none does today, and
    /// recording may never change the output.
    pub run: fn(&AnalysisContext, &PartialReport, &Obs) -> PassOutput,
}

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

fn pass_interval_stats(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::IntervalStats(
        ctx.families()
            .iter()
            .map(|fc| {
                (
                    fc.family,
                    IntervalStats::compute(&starts_to_intervals(&fc.starts)),
                )
            })
            .collect(),
    )
}

fn pass_all_interval_stats(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::AllIntervalStats(IntervalStats::compute(&starts_to_intervals(
        &ctx.all_starts,
    )))
}

fn pass_concurrency(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Concurrency(ConcurrencyAnalysis::compute_ctx(ctx))
}

fn pass_durations(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Durations(DurationAnalysis::compute_ctx(ctx))
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

fn pass_blacklist(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Blacklist(BlacklistSim::run_ctx(ctx))
}

fn pass_latency(ctx: &AnalysisContext, _: &PartialReport, _obs: &Obs) -> PassOutput {
    PassOutput::Latency(latency_sweep_from_durations(&ctx.durations, LATENCY_GRID_S))
}

/// Every pass of the report, in registry order. The only inter-pass
/// dependency is `flagship_pair` → `collaborations`; everything else
/// reads the context alone.
pub const REGISTRY: &[PassSpec] = &[
    PassSpec {
        name: "protocols",
        deps: &[],
        run: pass_protocols,
    },
    PassSpec {
        name: "protocol_rows",
        deps: &[],
        run: pass_protocol_rows,
    },
    PassSpec {
        name: "summary",
        deps: &[],
        run: pass_summary,
    },
    PassSpec {
        name: "daily",
        deps: &[],
        run: pass_daily,
    },
    PassSpec {
        name: "interval_stats",
        deps: &[],
        run: pass_interval_stats,
    },
    PassSpec {
        name: "all_interval_stats",
        deps: &[],
        run: pass_all_interval_stats,
    },
    PassSpec {
        name: "concurrency",
        deps: &[],
        run: pass_concurrency,
    },
    PassSpec {
        name: "durations",
        deps: &[],
        run: pass_durations,
    },
    PassSpec {
        name: "shifts",
        deps: &[],
        run: pass_shifts,
    },
    PassSpec {
        name: "dispersion",
        deps: &[],
        run: pass_dispersion,
    },
    PassSpec {
        name: "prediction",
        deps: &[],
        run: pass_prediction,
    },
    PassSpec {
        name: "target_countries",
        deps: &[],
        run: pass_target_countries,
    },
    PassSpec {
        name: "overall_targets",
        deps: &[],
        run: pass_overall_targets,
    },
    PassSpec {
        name: "collaborations",
        deps: &[],
        run: pass_collaborations,
    },
    PassSpec {
        name: "flagship_pair",
        deps: &["collaborations"],
        run: pass_flagship_pair,
    },
    PassSpec {
        name: "multistage",
        deps: &[],
        run: pass_multistage,
    },
    PassSpec {
        name: "activity",
        deps: &[],
        run: pass_activity,
    },
    PassSpec {
        name: "recurrence",
        deps: &[],
        run: pass_recurrence,
    },
    PassSpec {
        name: "blacklist",
        deps: &[],
        run: pass_blacklist,
    },
    PassSpec {
        name: "latency",
        deps: &[],
        run: pass_latency,
    },
];

/// What one pass run yields: `(name, output, start_us, end_us)`.
type PassRun = (&'static str, PassOutput, u64, u64);

/// Runs one pass, stamping its start/end offsets off the observer's
/// clock (offsets are recorded by the driver after the join, so worker
/// threads never contend on the span sink mid-stage).
fn run_pass(
    pass: &'static PassSpec,
    ctx: &AnalysisContext,
    partial: &PartialReport,
    obs: &Obs,
) -> PassRun {
    let start_us = obs.now_us();
    let out = (pass.run)(ctx, partial, obs);
    (pass.name, out, start_us, obs.now_us())
}

/// Runs the whole registry against a context, recording telemetry into
/// `obs` (hand it [`Obs::disabled`] for an uninstrumented run).
///
/// Passes are grouped into stages: a stage holds every not-yet-run pass
/// whose dependencies have all finished. With `parallel` set, the passes
/// of a stage run on scoped threads ([`crossbeam::thread::scope`]);
/// results are joined in registry order, so the assembled report — and
/// even the order of the recorded pass spans — does not depend on thread
/// interleaving. Serial execution is the fallback and runs the exact
/// same functions in the exact same order.
pub fn execute(ctx: &AnalysisContext, parallel: bool, obs: &Obs) -> PartialReport {
    fault::infallible(try_execute(ctx, parallel, obs))
}

/// Fallible [`execute`]: the `scheduler/pass` failpoint is consulted
/// once per pass, on the calling thread and in registry order, before
/// any pass of its stage runs. An injection surfaces as `Err` before
/// the stage starts and the partially filled report is discarded;
/// re-running without the fault plan reproduces the golden report (the
/// scheduler holds no state across calls). Because no worker thread
/// consults the seam, the failing pass and its hit index never depend
/// on thread interleaving.
pub fn try_execute(
    ctx: &AnalysisContext,
    parallel: bool,
    obs: &Obs,
) -> Result<PartialReport, PipelineError> {
    let wait_hist = obs.histogram("scheduler/wait_us");
    let stage_counter = obs.counter("scheduler/stages");
    let mut partial = PartialReport::default();
    let mut done: HashSet<&'static str> = HashSet::new();
    let mut remaining: Vec<&'static PassSpec> = REGISTRY.iter().collect();
    let mut stage_idx = 0usize;
    while !remaining.is_empty() {
        let (stage, rest): (Vec<_>, Vec<_>) = remaining
            .into_iter()
            .partition(|p| p.deps.iter().all(|d| done.contains(d)));
        assert!(
            !stage.is_empty(),
            "pass registry has a dependency cycle or an unknown dep name"
        );
        remaining = rest;
        // One consult per pass, here on the scheduling thread, before
        // anything spawns (see the doc comment above).
        for _ in &stage {
            fault::check(fault::SCHEDULER_PASS, obs)?;
        }
        let stage_start = obs.now_us();
        let threaded = parallel && stage.len() > 1;
        let results: Vec<PassRun> = if threaded {
            let partial_ref = &partial;
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = stage
                    .iter()
                    .map(|&p| scope.spawn(move |_| run_pass(p, ctx, partial_ref, obs)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("analysis pass panicked"))
                    .collect()
            })
            .expect("analysis pass scope panicked")
        } else {
            stage
                .iter()
                .map(|&p| run_pass(p, ctx, &partial, obs))
                .collect()
        };
        for (name, out, start_us, end_us) in results {
            if threaded {
                // Spawn-to-start latency: how long the pass sat between
                // the stage opening and its thread actually running it.
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
