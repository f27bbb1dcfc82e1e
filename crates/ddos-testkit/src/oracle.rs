//! The one independent oracle: the whole report assembled from dataset
//! scans, with no pass body and no shared context.
//!
//! Each scan below regroups the dataset for itself, with the plain data
//! structure a reader would reach for first: hash maps per target, hash
//! sets per family and week, a pairwise collaboration scan, a re-sorting
//! recurrence walk, an IP-set blacklist replay. None of them runs in the
//! library, whose passes read the shared `AnalysisContext` instead, so
//! the equivalence suites that hold every engine to this report hold
//! each pass body to an independent statement of its section.
//!
//! What the oracle shares with the passes: the report types and rule
//! constants; the slice-level bodies of the count sections (protocols,
//! Table II, Table III, daily counts, interval statistics, the latency
//! sweep, the flagship pair), which the passes run over the context's
//! columns and the oracle over the dataset; the chaining rule
//! ([`MultistageAnalysis::detect`]) and the activity profile
//! ([`activity_levels_of`]), which it feeds groupings of its own; and
//! the geolocation join. `BotIndex` and `FamilyDispersion::compute` stay
//! in `ddos-analytics` because they call `ddos-geo`, which this crate
//! does not depend on.

use std::collections::{BTreeMap, HashMap, HashSet};

use ddos_analytics::collab::concurrent::{
    CollabAnalysis, CollabEvent, CollabPair, PairFocus, DURATION_WINDOW_S, START_WINDOW_S,
};
use ddos_analytics::collab::multistage::MultistageAnalysis;
use ddos_analytics::defense::{latency_sweep_from_durations, BlacklistHit, BlacklistSim};
use ddos_analytics::overview::activity::{activity_levels_of, FamilyActivity};
use ddos_analytics::overview::daily::DailyDistribution;
use ddos_analytics::overview::duration::DurationAnalysis;
use ddos_analytics::overview::intervals::{
    self, ConcurrencyAnalysis, ConcurrentEvent, IntervalStats,
};
use ddos_analytics::overview::protocols::{protocol_preferences_of, ProtocolPopularity};
use ddos_analytics::passes::LATENCY_GRID_S;
use ddos_analytics::source::dispersion::FamilyDispersion;
use ddos_analytics::source::prediction::{predict_family, PredictionAnalysis};
use ddos_analytics::source::shift::{ShiftAnalysis, WeekShift};
use ddos_analytics::summary::SummaryComparison;
use ddos_analytics::target::country::FamilyCountryProfile;
use ddos_analytics::target::recurrence::{
    PredictionOutcome, RecurrenceAnalysis, TargetTrain, MIN_TRAIN_LEN,
};
use ddos_analytics::util::BotIndex;
use ddos_analytics::AnalysisReport;
use ddos_obs::RunTelemetry;
use ddos_schema::{AttackRecord, CountryCode, Dataset, Family, IpAddr4, Timestamp};
use ddos_stats::descriptive::{self, median};
use ddos_stats::ArimaSpec;

/// The pre-refactor monolithic pipeline: every analysis rescans the
/// dataset for itself (the dispersion join runs twice, the shift join a
/// third time, four analyses regroup the per-target index). It shares
/// no pass body with the context path, which makes it the one
/// independent oracle: the equivalence tests assert that every engine,
/// scheduler and job length serializes to its bytes. Its report carries
/// no telemetry.
pub fn baseline_report(ds: &Dataset, spec: ArimaSpec) -> AnalysisReport {
    let attacks = ds.attacks();
    let bots = BotIndex::build(ds);
    let collaborations = collaborations(ds);
    let flagship_pair = PairFocus::of_attacks(
        attacks,
        &collaborations,
        Family::Dirtjumper,
        Family::Pandora,
    );
    let attack_durations: Vec<f64> = attacks.iter().map(|a| a.duration().as_f64()).collect();
    AnalysisReport {
        protocols: ProtocolPopularity::of_attacks(attacks),
        protocol_rows: protocol_preferences_of(attacks),
        summary: SummaryComparison::of(ds.summary()),
        daily: DailyDistribution::of_attacks(ds.window(), attacks),
        interval_stats: Family::ACTIVE
            .into_iter()
            .map(|f| {
                let ivs = intervals::family_intervals(ds, f);
                (f, IntervalStats::compute(&ivs))
            })
            .collect(),
        all_interval_stats: IntervalStats::compute(&intervals::all_intervals(ds)),
        concurrency: concurrency(ds),
        durations: durations(ds),
        shifts: shifts(ds, &bots),
        dispersion: qualifying_families(ds, &bots),
        prediction: prediction(ds, &bots, spec),
        target_countries: all_profiles(ds),
        overall_targets: overall_top_countries(ds, 5),
        collaborations,
        flagship_pair,
        multistage: multistage(ds),
        activity: activity_levels(ds),
        recurrence: recurrence(ds),
        blacklist: blacklist(ds),
        latency: latency_sweep_from_durations(&attack_durations, LATENCY_GRID_S),
        telemetry: RunTelemetry::default(),
    }
}

/// Table VI: detects all collaborations in the trace.
fn collaborations(ds: &Dataset) -> CollabAnalysis {
    let attacks = ds.attacks();
    // Group by target; windows are tiny relative to per-target lists.
    let mut by_target: HashMap<IpAddr4, Vec<usize>> = HashMap::new();
    for (i, a) in attacks.iter().enumerate() {
        by_target.entry(a.target_ip).or_default().push(i);
    }
    let mut targets: Vec<_> = by_target.into_iter().collect();
    targets.sort_by_key(|&(ip, _)| ip);
    detect_pairs(attacks, targets.iter().map(|(_, idxs)| idxs.as_slice()))
}

/// The pairwise detection rule over per-target attack-index lists,
/// sorted by target IP with indices ascending.
fn detect_pairs<'t>(
    attacks: &[AttackRecord],
    per_target: impl Iterator<Item = &'t [usize]>,
) -> CollabAnalysis {
    let mut pairs = Vec::new();

    let mut parent: HashMap<usize, usize> = HashMap::new();
    fn find(parent: &mut HashMap<usize, usize>, x: usize) -> usize {
        let p = *parent.get(&x).unwrap_or(&x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }

    for idxs in per_target {
        // idxs are in start order already (attacks() is sorted).
        for (k, &i) in idxs.iter().enumerate() {
            for &j in &idxs[k + 1..] {
                let (ai, aj) = (&attacks[i], &attacks[j]);
                if (aj.start - ai.start).get() > START_WINDOW_S {
                    break;
                }
                if ai.botnet == aj.botnet {
                    continue;
                }
                let ddur = (ai.duration().get() - aj.duration().get()).abs();
                if ddur > DURATION_WINDOW_S {
                    continue;
                }
                pairs.push(CollabPair { a: i, b: j });
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent.insert(ri, rj);
                }
            }
        }
    }

    // Events: connected components.
    let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
    let members: HashSet<usize> = pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    for &m in &members {
        components.entry(find(&mut parent, m)).or_default().push(m);
    }
    let mut events: Vec<CollabEvent> = components
        .into_values()
        .map(|mut attacks_in| {
            attacks_in.sort_unstable();
            let botnets: HashSet<_> = attacks_in.iter().map(|&i| attacks[i].botnet).collect();
            let mut families: Vec<Family> = attacks_in.iter().map(|&i| attacks[i].family).collect();
            families.sort_unstable();
            families.dedup();
            CollabEvent {
                botnets: botnets.len(),
                families,
                attacks: attacks_in,
            }
        })
        .collect();
    events.sort_by_key(|e| e.attacks[0]);

    // Table VI counts.
    let mut intra_pairs: BTreeMap<Family, usize> = BTreeMap::new();
    let mut inter_pairs: BTreeMap<Family, usize> = BTreeMap::new();
    for p in &pairs {
        let (fa, fb) = (attacks[p.a].family, attacks[p.b].family);
        if fa == fb {
            *intra_pairs.entry(fa).or_default() += 1;
        } else {
            *inter_pairs.entry(fa).or_default() += 1;
            *inter_pairs.entry(fb).or_default() += 1;
        }
    }

    CollabAnalysis {
        pairs,
        events,
        intra_pairs,
        inter_pairs,
    }
}

/// Fig. 8: weekly shifts from attack participation.
fn shifts(ds: &Dataset, bots: &BotIndex) -> ShiftAnalysis {
    let window = ds.window();
    let num_weeks = window.num_weeks();
    let mut weeks = empty_weeks(num_weeks);

    for family in Family::ACTIVE {
        // Distinct bots per week, with their countries.
        let mut weekly: Vec<HashMap<IpAddr4, CountryCode>> = vec![HashMap::new(); num_weeks];
        for a in ds.attacks_of(family) {
            let Some(w) = window.week_index(a.start) else {
                continue;
            };
            for &ip in &a.sources {
                if let Some((cc, _)) = bots.lookup(ip) {
                    weekly[w].insert(ip, cc);
                }
            }
        }
        classify_family(&mut weeks, &weekly);
    }
    ShiftAnalysis { weeks }
}

fn empty_weeks(num_weeks: usize) -> Vec<WeekShift> {
    (0..num_weeks)
        .map(|week| WeekShift {
            week,
            existing_country_bots: 0,
            new_country_bots: 0,
        })
        .collect()
}

/// Classifies one family's weekly bot populations into existing- vs
/// new-country shifts and accumulates the counts. Per-bot counts depend
/// only on the *set* of countries seen so far, so map iteration order
/// cannot affect the result.
fn classify_family(weeks: &mut [WeekShift], weekly: &[HashMap<IpAddr4, CountryCode>]) {
    let mut seen: HashSet<CountryCode> = HashSet::new();
    for (w, bots_this_week) in weekly.iter().enumerate() {
        let fresh: HashSet<CountryCode> = bots_this_week
            .values()
            .copied()
            .filter(|cc| !seen.contains(cc))
            .collect();
        for cc in bots_this_week.values() {
            if fresh.contains(cc) {
                weeks[w].new_country_bots += 1;
            } else {
                weeks[w].existing_country_bots += 1;
            }
        }
        seen.extend(bots_this_week.values().copied());
    }
}

/// Fig. 9: the dispersion series of all qualifying families.
fn qualifying_families(ds: &Dataset, bots: &BotIndex) -> Vec<FamilyDispersion> {
    Family::ACTIVE
        .into_iter()
        .map(|f| FamilyDispersion::compute(ds, bots, f))
        .filter(FamilyDispersion::qualifies_for_cdf)
        .collect()
}

/// Table IV: runs the prediction protocol over all active families.
fn prediction(ds: &Dataset, bots: &BotIndex, spec: ArimaSpec) -> PredictionAnalysis {
    let mut rows = Vec::new();
    let mut excluded = Vec::new();
    for family in Family::ACTIVE {
        match predict_family(ds, bots, family, spec) {
            Ok(row) => rows.push(row),
            Err(reason) => excluded.push((family, reason)),
        }
    }
    PredictionAnalysis { rows, excluded }
}

/// Table V for every active family, in `Family::ACTIVE` order.
fn all_profiles(ds: &Dataset) -> Vec<FamilyCountryProfile> {
    Family::ACTIVE
        .into_iter()
        .map(|family| family_country_profile(ds, family))
        .collect()
}

/// Counts one family's attacks per victim country.
fn family_country_profile(ds: &Dataset, family: Family) -> FamilyCountryProfile {
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for atk in ds.attacks() {
        if atk.family == family {
            *counts.entry(atk.target.country).or_insert(0) += 1;
        }
    }
    let by_country = rank(counts);
    FamilyCountryProfile {
        family,
        countries: by_country.len(),
        by_country,
    }
}

/// The overall top `k` victim countries across every family.
fn overall_top_countries(ds: &Dataset, k: usize) -> Vec<(CountryCode, usize)> {
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for atk in ds.attacks() {
        *counts.entry(atk.target.country).or_insert(0) += 1;
    }
    let mut ranked = rank(counts);
    ranked.truncate(k);
    ranked
}

fn rank(counts: HashMap<CountryCode, usize>) -> Vec<(CountryCode, usize)> {
    let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Builds trains for every target with at least [`MIN_TRAIN_LEN`]
/// attacks and scores the median-gap predictor on each.
fn recurrence(ds: &Dataset) -> RecurrenceAnalysis {
    let mut by_target: HashMap<IpAddr4, TargetTrain> = HashMap::new();
    // Dataset attacks are sorted by start time, so each train's starts
    // come out ascending without re-sorting.
    for atk in ds.attacks() {
        let train = by_target
            .entry(atk.target_ip)
            .or_insert_with(|| TargetTrain {
                target: atk.target_ip,
                starts: Vec::new(),
                families: Vec::new(),
            });
        train.starts.push(atk.start);
        if !train.families.contains(&atk.family) {
            train.families.push(atk.family);
        }
    }
    let mut trains: Vec<TargetTrain> = by_target
        .into_values()
        .filter(|t| t.len() >= MIN_TRAIN_LEN)
        .collect();
    trains.sort_by(|a, b| b.len().cmp(&a.len()).then(a.target.cmp(&b.target)));
    let outcomes = score_trains(&trains);
    RecurrenceAnalysis { trains, outcomes }
}

/// Walks every train with the median-gap predictor and scores each
/// prediction (trains must already be in their final sorted order).
fn score_trains(trains: &[TargetTrain]) -> Vec<PredictionOutcome> {
    let mut outcomes = Vec::new();
    for train in trains {
        let gaps: Vec<f64> = train
            .starts
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) as f64)
            .collect();
        for i in (MIN_TRAIN_LEN - 1)..train.len() {
            let median_gap = median(&gaps[..i - 1]).expect("i >= 3 gives >= 2 gaps");
            let predicted = Timestamp(train.starts[i - 1].0 + median_gap.round() as i64);
            let actual = train.starts[i];
            let abs_error_s = (actual.0 - predicted.0).abs() as f64;
            outcomes.push(PredictionOutcome {
                target: train.target,
                predicted,
                actual,
                abs_error_s,
                relative_error: abs_error_s / median_gap.max(1.0),
            });
        }
    }
    outcomes
}

/// Replays the trace: every target accumulates the sources of the
/// attacks it has already suffered; each later attack is scored by how
/// much of it the accumulated blacklist would pre-block.
fn blacklist(ds: &Dataset) -> BlacklistSim {
    let mut blacklists: HashMap<IpAddr4, HashSet<IpAddr4>> = HashMap::new();
    let mut rounds: HashMap<IpAddr4, usize> = HashMap::new();
    let mut hits = Vec::new();
    for a in ds.attacks() {
        let list = blacklists.entry(a.target_ip).or_default();
        let round = rounds.entry(a.target_ip).or_insert(0);
        if *round > 0 && !a.sources.is_empty() {
            let known = a.sources.iter().filter(|ip| list.contains(ip)).count();
            hits.push(BlacklistHit {
                target: a.target_ip,
                round: *round,
                coverage: known as f64 / a.sources.len() as f64,
                family: a.family,
            });
        }
        list.extend(a.sources.iter().copied());
        *round += 1;
    }
    BlacklistSim { hits }
}

/// §III-B: groups attacks by exact start instant; groups of ≥ 2 attacks
/// are concurrent events.
fn concurrency(ds: &Dataset) -> ConcurrencyAnalysis {
    let mut by_start: BTreeMap<Timestamp, Vec<usize>> = BTreeMap::new();
    for (i, a) in ds.attacks().iter().enumerate() {
        by_start.entry(a.start).or_default().push(i);
    }
    let mut single = Vec::new();
    let mut multi = Vec::new();
    for (start, attacks) in by_start {
        if attacks.len() < 2 {
            continue;
        }
        let mut families: Vec<Family> = attacks.iter().map(|&i| ds.attacks()[i].family).collect();
        families.sort_unstable();
        families.dedup();
        let event = ConcurrentEvent {
            start,
            attacks,
            families,
        };
        if event.is_single_family() {
            single.push(event);
        } else {
            multi.push(event);
        }
    }
    ConcurrencyAnalysis {
        single_family_events: single,
        multi_family_events: multi,
    }
}

/// Figs. 6–7: duration statistics over all attacks; `None` for an
/// empty trace.
fn durations(ds: &Dataset) -> Option<DurationAnalysis> {
    let series: Vec<(Timestamp, f64)> = ds
        .attacks()
        .iter()
        .map(|a| (a.start, a.duration().as_f64()))
        .collect();
    if series.is_empty() {
        return None;
    }
    let xs: Vec<f64> = series.iter().map(|&(_, d)| d).collect();
    Some(DurationAnalysis {
        mean: descriptive::mean(&xs)?,
        median: descriptive::median(&xs)?,
        std_dev: descriptive::std_dev_population(&xs)?,
        p80: descriptive::quantile(&xs, 0.8)?,
        series,
    })
}

/// Figs. 17–18: finds all chains in the trace, grouping each target's
/// attacks through a hash map.
fn multistage(ds: &Dataset) -> MultistageAnalysis {
    let attacks = ds.attacks();
    let mut by_target: HashMap<IpAddr4, Vec<usize>> = HashMap::new();
    for (i, a) in attacks.iter().enumerate() {
        by_target.entry(a.target_ip).or_default().push(i);
    }
    let mut targets: Vec<_> = by_target.into_iter().collect();
    targets.sort_by_key(|&(ip, _)| ip);
    MultistageAnalysis::detect(
        attacks,
        targets.iter().map(|&(ip, ref idxs)| (ip, idxs.as_slice())),
    )
}

/// §III-A: activity profiles of all active families, from each family's
/// attacks in the dataset's per-family index.
fn activity_levels(ds: &Dataset) -> Vec<FamilyActivity> {
    let starts: Vec<(Family, Vec<Timestamp>)> = Family::ACTIVE
        .into_iter()
        .map(|family| (family, ds.attacks_of(family).map(|a| a.start).collect()))
        .collect();
    activity_levels_of(
        ds.window(),
        starts.iter().map(|(family, s)| (*family, s.as_slice())),
    )
}

#[cfg(test)]
mod tests {
    //! The pass bodies held to the oracle's scans on crafted fixtures,
    //! under every job length of the context build and at every
    //! watermark of an epoch fold.

    use super::*;
    use crate::fixtures::{attack, carry_fixture, dataset, CARRY_EPOCH};
    use ddos_analytics::defense::BlacklistState;
    use ddos_analytics::overview::SortedSample;
    use ddos_analytics::source::dispersion::qualifying_families_ctx;
    use ddos_analytics::target::country::{all_profiles_ctx, overall_top_countries_ctx};
    use ddos_analytics::{AnalysisContext, EpochContext, KernelPolicy};
    use ddos_obs::Obs;
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{Asn, BotnetId, CityId, DatasetBuilder, LatLon, OrgId, Seconds};

    /// Number of dense country slots in a `FamilyContext::bot_grid` row
    /// (26 × 26 two-letter codes).
    const CC_SLOTS: usize = 26 * 26;

    /// The dense slot a country's bots count in within a grid row.
    fn cc_slot(cc: CountryCode) -> usize {
        let b = cc.as_str().as_bytes();
        (b[0] - b'A') as usize * 26 + (b[1] - b'A') as usize
    }

    /// The context of `ds` under every family-resolution job length:
    /// one job per worker, one per attack, three attacks per job, and
    /// one per family. A pass body must match its dataset scan on each.
    fn chunked_contexts(ds: &Dataset) -> Vec<(KernelPolicy, AnalysisContext<'_>)> {
        [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(1),
            KernelPolicy::Chunked(3),
            KernelPolicy::Chunked(100),
        ]
        .into_iter()
        .map(|policy| {
            let ctx = AnalysisContext::build_kernels(
                ds,
                ArimaSpec::DEFAULT,
                true,
                policy,
                &Obs::disabled(),
            );
            (policy, ctx)
        })
        .collect()
    }

    /// Appends `ds` to an epoch fold one `len` epoch at a time and calls
    /// `check(w, prefix, folded)` at each watermark `w`: `prefix` is
    /// [`Dataset::epoch_prefix`] of the first `w` epochs (the dataset
    /// the scans run over), `folded` the fold's context.
    fn for_each_watermark(
        ds: &Dataset,
        len: Seconds,
        mut check: impl FnMut(usize, &Dataset, &AnalysisContext<'_>),
    ) {
        let obs = Obs::disabled();
        let mut fold = EpochContext::new(ds.window(), true, KernelPolicy::Auto);
        for (k, shard) in ds.shards(len).iter().enumerate() {
            fold.append(shard, &obs);
            let prefix = ds.epoch_prefix(len, k + 1);
            check(k + 1, &prefix, &fold.to_context(ds, ArimaSpec::DEFAULT));
        }
    }

    #[test]
    fn dispersion_matches_standalone_compute() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        let bots = BotIndex::build(&ds);
        for family in Family::ACTIVE {
            let standalone = FamilyDispersion::compute(&ds, &bots, family);
            assert_eq!(ctx.dispersion_of(family), Some(&standalone));
        }
        // And the shared join agrees with the standalone shift analysis.
        assert_eq!(ShiftAnalysis::compute_ctx(&ctx), shifts(&ds, &bots));
        assert_eq!(
            qualifying_families_ctx(&ctx),
            qualifying_families(&ds, &bots)
        );
    }

    #[test]
    fn sweep_matches_pairwise_for_every_chunking() {
        // Chains, shared starts, duration-window rejections, and
        // several interleaved targets.
        let mut attacks_v = Vec::new();
        let fams = [
            Family::Dirtjumper,
            Family::Pandora,
            Family::Blackenergy,
            Family::Nitol,
        ];
        for n in 0..28u8 {
            let mut a = attack(
                fams[(n % 4) as usize],
                u64::from(n) + 1,
                i64::from(n / 2) * 40,
                600 + i64::from(n % 5) * 700,
                n % 3,
            );
            a.botnet = BotnetId(u32::from(n % 7));
            attacks_v.push(a);
        }
        let ds = dataset(attacks_v);
        let expect = collaborations(&ds);
        assert!(!expect.pairs.is_empty(), "fixture must exercise pairs");
        for (policy, ctx) in chunked_contexts(&ds) {
            assert_eq!(CollabAnalysis::compute_ctx(&ctx), expect, "{policy:?}");
        }
    }

    #[test]
    fn dense_kernel_matches_set_classifier_for_every_chunking() {
        // Weeks with repeats, gaps, and same-week multi-country mixes,
        // spread over several attacks a week so one-attack jobs must
        // dedup a bot across jobs, and a second family sighting the same
        // bots in the same weeks.
        let cc = |s: &str| -> CountryCode { s.parse().unwrap() };
        let ip = |n: u8| IpAddr4::from_octets(10, 0, 0, n);
        let countries = [
            (1, "RU"),
            (2, "RU"),
            (3, "UA"),
            (4, "DE"),
            (5, "DE"),
            (6, "BR"),
        ];
        let week = 7 * 86_400;
        let window = ddos_schema::Window::new(Timestamp(0), Timestamp(5 * week)).unwrap();
        let mut b = DatasetBuilder::new(window);
        for (n, country) in countries {
            b.push_bot(BotRecord {
                ip: ip(n),
                botnet: BotnetId(1),
                family: Family::Dirtjumper,
                location: Location {
                    country: cc(country),
                    city: CityId(u32::from(n)),
                    org: OrgId(1),
                    asn: Asn(64_001),
                    coords: LatLon::new_unchecked(50.0, f64::from(n)),
                },
                first_seen: Timestamp(0),
                last_seen: Timestamp(5 * week),
            })
            .unwrap();
        }
        let attacks = [
            (Family::Dirtjumper, 100, vec![1, 2]),
            (Family::Pandora, 200, vec![1]),
            (Family::Dirtjumper, 300, vec![2, 3]),
            (Family::Dirtjumper, 2 * week, vec![1, 4]),
            (Family::Pandora, 2 * week + 10, vec![6, 1]),
            (Family::Dirtjumper, 2 * week + 20, vec![5, 4]),
            (Family::Dirtjumper, 3 * week, vec![3, 6]),
        ];
        for (k, (family, start, sources)) in attacks.iter().enumerate() {
            let mut a = attack(*family, k as u64 + 1, *start, 60, 1);
            a.sources = sources.iter().map(|&n| ip(n)).collect();
            b.push_attack(a).unwrap();
        }
        let ds = b.build().unwrap();
        let dirtjumper: Vec<HashMap<IpAddr4, CountryCode>> = vec![
            [(ip(1), cc("RU")), (ip(2), cc("RU")), (ip(3), cc("UA"))]
                .into_iter()
                .collect(),
            HashMap::new(),
            [(ip(1), cc("RU")), (ip(4), cc("DE")), (ip(5), cc("DE"))]
                .into_iter()
                .collect(),
            [(ip(3), cc("UA")), (ip(6), cc("BR"))].into_iter().collect(),
            HashMap::new(),
        ];
        let mut set_rule = empty_weeks(dirtjumper.len());
        classify_family(&mut set_rule, &dirtjumper);
        let scan = shifts(&ds, &BotIndex::build(&ds));
        // Every job length counts Dirtjumper's grid as the maps hold it,
        // and the grids classify like the dataset scan.
        for (policy, ctx) in chunked_contexts(&ds) {
            let fc = ctx.family(Family::Dirtjumper).unwrap();
            for (w, (row, bots)) in fc
                .bot_grid
                .chunks_exact(CC_SLOTS)
                .zip(&dirtjumper)
                .enumerate()
            {
                let mut expect = vec![0u32; CC_SLOTS];
                for &country in bots.values() {
                    expect[cc_slot(country)] += 1;
                }
                assert_eq!(row, &expect[..], "{policy:?}: week {w}");
            }
            let mut got = empty_weeks(dirtjumper.len());
            ShiftAnalysis::classify_grid(&mut got, &fc.bot_grid);
            assert_eq!(got, set_rule, "{policy:?}");
            assert_eq!(ShiftAnalysis::compute_ctx(&ctx), scan, "{policy:?}");
        }
    }

    #[test]
    fn folded_grids_classify_like_a_fresh_build_at_every_watermark() {
        // The carry fixture's second epoch opens inside week 0 and adds
        // a DE bot to Dirtjumper's week 0, so the fold's marks must keep
        // week 0's bots counted across the ragged epoch boundary. The
        // second trace also re-records bot 2 in UA (it was RU) on day 5,
        // mid-week, so that append re-resolves the week-0 attacks that
        // used bot 2 and recounts their families' grids.
        let plain = carry_fixture();
        let mut b = DatasetBuilder::new(plain.window());
        for bot in plain.bots() {
            b.push_bot(*bot).unwrap();
        }
        let mut moved = plain.bots()[1];
        moved.location.country = "UA".parse().unwrap();
        moved.first_seen = Timestamp(5 * 86_400);
        b.push_bot(moved).unwrap();
        b.extend_attacks(plain.attacks().iter().cloned()).unwrap();
        let moved = b.build().unwrap();
        for ds in [&plain, &moved] {
            let mut watermarks = 0;
            for_each_watermark(ds, CARRY_EPOCH, |w, prefix, folded| {
                let fresh = AnalysisContext::new(prefix);
                for (a, b) in folded.families().iter().zip(fresh.families()) {
                    assert_eq!(a.bot_grid, b.bot_grid, "watermark {w}: {:?}", a.family);
                }
                let got = ShiftAnalysis::compute_ctx(folded);
                assert_eq!(got, ShiftAnalysis::compute_ctx(&fresh), "watermark {w}");
                assert_eq!(
                    got,
                    shifts(prefix, &BotIndex::build(prefix)),
                    "watermark {w}"
                );
                watermarks += 1;
            });
            assert_eq!(watermarks, 3);
        }
        // Week 0 of Dirtjumper counts bot 1 in RU, bot 4 in DE, and bot 3
        // in UA, joined by bot 2 once it moved there.
        for (ds, ru, ua) in [(&plain, 2, 1), (&moved, 1, 2)] {
            let ctx = AnalysisContext::new(ds);
            let week0 = &ctx.family(Family::Dirtjumper).unwrap().bot_grid[..CC_SLOTS];
            let count = |c: &str| week0[cc_slot(c.parse().unwrap())];
            assert_eq!((count("RU"), count("UA"), count("DE")), (ru, ua, 1));
        }
        let s = ShiftAnalysis::compute_ctx(&AnalysisContext::new(&plain));
        assert_eq!(s.weeks[0].new_country_bots, 4 + 3);
        assert_eq!(s.weeks[1].new_country_bots, 1);
        assert_eq!(s.weeks[1].existing_country_bots, 2 + 1);
    }

    #[test]
    fn dense_kernels_match_hash_ranking_for_every_chunking() {
        // Ties (two countries with one attack each) exercise the
        // comparator's country-code tiebreak.
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 200, 60, 1),
            attack(Family::Dirtjumper, 3, 300, 60, 2),
            attack(Family::Pandora, 4, 400, 60, 3),
            attack(Family::Yzf, 5, 500, 60, 2),
        ]);
        let expect_profiles = serde_json::to_string(&all_profiles(&ds)).unwrap();
        let expect_top = overall_top_countries(&ds, 3);
        for (policy, ctx) in chunked_contexts(&ds) {
            assert_eq!(
                serde_json::to_string(&all_profiles_ctx(&ctx)).unwrap(),
                expect_profiles,
                "{policy:?}"
            );
            assert_eq!(overall_top_countries_ctx(&ctx, 3), expect_top, "{policy:?}");
        }
    }

    #[test]
    fn kernel_scorer_matches_reference_for_every_chunking() {
        // Irregular gaps (duplicates, zero gaps, mixed magnitudes)
        // across trains of different lengths.
        let trains: [(u8, &[i64]); 3] = [
            (1, &[0, 10, 10, 35, 36, 90, 90, 1_000]),
            (2, &[5, 1_005, 2_005, 3_200, 3_200]),
            (3, &[0, 1, 2, 3]),
        ];
        let mut attacks = Vec::new();
        for (target, starts) in trains {
            for &start in starts {
                let id = attacks.len() as u64 + 1;
                attacks.push(attack(Family::Dirtjumper, id, start, 60, target));
            }
        }
        let ds = dataset(attacks);
        let expect = serde_json::to_string(&recurrence(&ds)).unwrap();
        for (policy, ctx) in chunked_contexts(&ds) {
            let got = serde_json::to_string(&RecurrenceAnalysis::compute_ctx(&ctx)).unwrap();
            assert_eq!(got, expect, "{policy:?}");
        }
    }

    #[test]
    fn kernel_statistics_match_reference_for_every_chunking() {
        // Repeated durations, and an even count so the median averages.
        let ds = dataset(
            [100, 200, 200, 600, 50, 13_882]
                .into_iter()
                .enumerate()
                .map(|(i, d)| attack(Family::Dirtjumper, i as u64 + 1, i as i64 * 10, d, 1))
                .collect(),
        );
        let expect = durations(&ds);
        assert!(expect.is_some());
        for (policy, ctx) in chunked_contexts(&ds) {
            let got = DurationAnalysis::resume(&ctx, &mut SortedSample::default());
            assert_eq!(got, expect, "{policy:?}");
        }
        let empty = dataset(vec![]);
        let ctx = AnalysisContext::new(&empty);
        assert!(DurationAnalysis::resume(&ctx, &mut SortedSample::default()).is_none());
    }

    #[test]
    fn carried_sample_matches_a_fresh_sort_at_every_watermark() {
        let ds = carry_fixture();
        let mut sorted = SortedSample::default();
        let mut watermarks = 0;
        for_each_watermark(&ds, CARRY_EPOCH, |w, prefix, folded| {
            let got = DurationAnalysis::resume(folded, &mut sorted);
            let fresh = AnalysisContext::new(prefix);
            let expect = DurationAnalysis::resume(&fresh, &mut SortedSample::default());
            assert_eq!(got, expect, "watermark {w}");
            assert_eq!(got, durations(prefix), "watermark {w}");
            assert_eq!(DurationAnalysis::resume(folded, &mut sorted), got);
            watermarks += 1;
        });
        assert_eq!(watermarks, 3);
    }

    fn ip(last: u8) -> IpAddr4 {
        IpAddr4::from_octets(203, 0, 113, last)
    }

    #[test]
    fn ctx_replay_matches_ip_replay() {
        // Interleaved targets with shared and unseen sources: the
        // id-stamp replay must score exactly like the hash-set replay.
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 10, 1);
        a1.sources = vec![ip(1), ip(2), ip(2)];
        let mut a2 = attack(Family::Pandora, 2, 200, 10, 2);
        a2.sources = vec![ip(2), ip(3)];
        let mut a3 = attack(Family::Dirtjumper, 3, 300, 10, 1);
        a3.sources = vec![ip(2), ip(4)];
        let mut a4 = attack(Family::Pandora, 4, 400, 10, 2);
        a4.sources = vec![ip(2), ip(3), ip(5)];
        let ds = dataset(vec![a1, a2, a3, a4]);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(
            blacklist(&ds),
            BlacklistSim::resume(&ctx, &mut BlacklistState::default())
        );
    }

    #[test]
    fn carried_replay_matches_a_fresh_replay_at_every_watermark() {
        let ds = carry_fixture();
        let mut state = BlacklistState::default();
        let mut last = None;
        let mut watermarks = 0;
        for_each_watermark(&ds, CARRY_EPOCH, |w, prefix, folded| {
            let got = BlacklistSim::resume(folded, &mut state);
            let fresh = AnalysisContext::new(prefix);
            let expect = BlacklistSim::resume(&fresh, &mut BlacklistState::default());
            assert_eq!(got, expect, "watermark {w}");
            assert_eq!(got, blacklist(prefix), "watermark {w}");
            // Nothing new: the same hits again (the path a faulted pass
            // run takes on its retry).
            assert_eq!(BlacklistSim::resume(folded, &mut state), got);
            watermarks += 1;
            last = Some(got);
        });
        assert_eq!(watermarks, 3);
        // Target 1's epoch-3 attack [1, 4, 4] against its epoch-1
        // attack [1, 2]: one of three listings was blacklisted.
        let target_1 = IpAddr4::from_octets(198, 51, 100, 1);
        let last = last.expect("three watermarks ran");
        let hit = last.hits.iter().find(|h| h.target == target_1);
        let hit = hit.expect("epoch 3 scored target 1");
        assert_eq!((hit.round, hit.coverage), (1, 1.0 / 3.0));
        // A context shorter than the state starts it over.
        let first = ds.epoch_prefix(CARRY_EPOCH, 1);
        let ctx = AnalysisContext::new(&first);
        assert_eq!(BlacklistSim::resume(&ctx, &mut state), blacklist(&first));
    }
}
