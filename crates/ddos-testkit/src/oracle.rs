//! The one independent oracle: the whole report assembled from the
//! dataset scans, with no pass body and no shared context.

use ddos_analytics::collab::concurrent::{CollabAnalysis, PairFocus};
use ddos_analytics::collab::multistage::MultistageAnalysis;
use ddos_analytics::defense::{detection_latency_sweep, BlacklistSim};
use ddos_analytics::overview::activity::activity_levels;
use ddos_analytics::overview::daily::DailyDistribution;
use ddos_analytics::overview::duration::DurationAnalysis;
use ddos_analytics::overview::intervals::{self, ConcurrencyAnalysis, IntervalStats};
use ddos_analytics::overview::protocols::{protocol_preferences, ProtocolPopularity};
use ddos_analytics::passes::LATENCY_GRID_S;
use ddos_analytics::source::dispersion::qualifying_families;
use ddos_analytics::source::prediction::PredictionAnalysis;
use ddos_analytics::source::shift::ShiftAnalysis;
use ddos_analytics::summary::SummaryComparison;
use ddos_analytics::target::country::{all_profiles, overall_top_countries};
use ddos_analytics::target::recurrence::RecurrenceAnalysis;
use ddos_analytics::util::BotIndex;
use ddos_analytics::AnalysisReport;
use ddos_obs::RunTelemetry;
use ddos_schema::{Dataset, Family};
use ddos_stats::ArimaSpec;

/// The pre-refactor monolithic pipeline: every analysis rescans the
/// dataset for itself (the dispersion join runs twice, the shift join a
/// third time, four analyses regroup the per-target index). It shares
/// no pass body with the context path, which makes it the one
/// independent oracle: the equivalence tests assert that every engine,
/// scheduler and job length serializes to its bytes. Its report carries
/// no telemetry.
pub fn baseline_report(ds: &Dataset, spec: ArimaSpec) -> AnalysisReport {
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
