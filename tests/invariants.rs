//! Invariant checks: every structured result the analyses report must
//! internally satisfy the rules it claims to implement, on a full
//! generated trace. Each check reads its section of one report.

use std::sync::OnceLock;

use ddos_analytics::collab::concurrent::{DURATION_WINDOW_S, START_WINDOW_S};
use ddos_analytics::collab::multistage::CHAIN_MARGIN_S;
use ddos_analytics::defense::latency_sweep_from_durations;
use ddos_analytics::target::recurrence::MIN_TRAIN_LEN;
use ddos_analytics::util::BotIndex;
use ddos_analytics::AnalysisReport;
use ddos_geo::distance_km;
use ddos_schema::Family;
// The canonical small trace is generated once per process by the
// testkit and shared with every other suite that analyzes it.
use ddos_testkit::small_dataset as ds;

/// The report of the canonical small trace, with the default options.
fn report() -> &'static AnalysisReport {
    static REPORT: OnceLock<AnalysisReport> = OnceLock::new();
    REPORT.get_or_init(|| AnalysisReport::run(ds()))
}

#[test]
fn every_collab_pair_satisfies_the_rule() {
    let c = &report().collaborations;
    let attacks = ds().attacks();
    assert!(!c.pairs.is_empty());
    for p in &c.pairs {
        let (a, b) = (&attacks[p.a], &attacks[p.b]);
        assert_eq!(a.target_ip, b.target_ip, "pair on different targets");
        assert!(
            (b.start - a.start).get().abs() <= START_WINDOW_S,
            "start window violated"
        );
        assert!(
            (a.duration().get() - b.duration().get()).abs() <= DURATION_WINDOW_S,
            "duration window violated"
        );
        assert_ne!(a.botnet, b.botnet, "same botnet cannot collaborate");
    }
}

#[test]
fn collab_events_partition_their_members() {
    let c = &report().collaborations;
    let mut seen = std::collections::HashSet::new();
    for e in &c.events {
        assert!(e.attacks.len() >= 2);
        assert!(e.botnets >= 2);
        for &i in &e.attacks {
            assert!(seen.insert(i), "attack {i} in two events");
        }
    }
    // Every paired attack belongs to exactly one event.
    let members: std::collections::HashSet<usize> =
        c.pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    assert_eq!(members, seen);
}

#[test]
fn every_chain_link_satisfies_the_margin() {
    let m = &report().multistage;
    let attacks = ds().attacks();
    assert!(!m.chains.is_empty());
    let mut seen = std::collections::HashSet::new();
    for chain in &m.chains {
        assert!(chain.len() >= 2);
        for w in chain.attacks.windows(2) {
            let (a, b) = (&attacks[w[0]], &attacks[w[1]]);
            assert_eq!(a.target_ip, chain.target);
            assert_eq!(b.target_ip, chain.target);
            assert!(a.start <= b.start, "chain out of order");
            let gap = (b.start - a.end).get();
            assert!(gap.abs() <= CHAIN_MARGIN_S, "gap {gap} outside margin");
        }
        for &i in &chain.attacks {
            assert!(seen.insert(i), "attack {i} in two chains");
        }
    }
    // The reported gap sample matches the chain structure.
    let expected_gaps: usize = m.chains.iter().map(|c| c.len() - 1).sum();
    assert_eq!(m.gaps.len(), expected_gaps);
}

#[test]
fn concurrency_events_share_exact_starts() {
    let c = &report().concurrency;
    let attacks = ds().attacks();
    for e in c.single_family_events.iter().chain(&c.multi_family_events) {
        assert!(e.attacks.len() >= 2);
        for &i in &e.attacks {
            assert_eq!(attacks[i].start, e.start);
        }
        let mut fams: Vec<Family> = e.attacks.iter().map(|&i| attacks[i].family).collect();
        fams.sort_unstable();
        fams.dedup();
        assert_eq!(fams, e.families);
    }
}

#[test]
fn dispersion_is_bounded_by_geometry() {
    let bots = BotIndex::build(ds());
    for family in [Family::Dirtjumper, Family::Pandora] {
        for a in ds().attacks_of(family).take(300) {
            let coords = bots.coords_of(&a.sources);
            let Some(d) = ddos_geo::dispersion(&coords) else {
                continue;
            };
            assert!(d.value().is_finite());
            // |signed sum| <= n * max distance from center.
            let max_dist = coords
                .iter()
                .map(|&p| distance_km(d.center, p))
                .fold(0.0f64, f64::max);
            assert!(
                d.value() <= coords.len() as f64 * max_dist + 1e-6,
                "{} > {} * {}",
                d.value(),
                coords.len(),
                max_dist
            );
        }
    }
}

#[test]
fn daily_counts_conserve_attacks() {
    let d = &report().daily;
    let total: usize = d.counts.iter().sum();
    assert_eq!(total, ds().len(), "every attack starts inside the window");
}

#[test]
fn recurrence_trains_are_sorted_and_sized() {
    let r = &report().recurrence;
    assert!(!r.trains.is_empty());
    for train in &r.trains {
        assert!(train.len() >= MIN_TRAIN_LEN);
        for w in train.starts.windows(2) {
            assert!(w[0] <= w[1], "train out of order");
        }
        assert!(!train.families.is_empty());
    }
    for o in &r.outcomes {
        assert!(o.abs_error_s >= 0.0);
        assert!(o.relative_error >= 0.0);
    }
}

#[test]
fn blacklist_rounds_and_coverage_are_sane() {
    let sim = &report().blacklist;
    assert!(!sim.hits.is_empty());
    for h in &sim.hits {
        assert!((0.0..=1.0).contains(&h.coverage), "coverage {}", h.coverage);
        assert!(h.round >= 1);
    }
    // Target reuse via Zipf means warmed-up blacklists pre-block a
    // meaningful share of repeat attacks (same pools get resampled).
    let mean = sim.mean_coverage().unwrap();
    assert!(mean > 0.05, "mean blacklist coverage {mean}");
}

#[test]
fn interval_stats_are_internally_consistent() {
    for family in Family::ACTIVE {
        let ivs = ddos_analytics::overview::intervals::family_intervals(ds(), family);
        let Some(s) = ddos_analytics::overview::intervals::IntervalStats::compute(&ivs) else {
            continue;
        };
        assert_eq!(s.count, ivs.len());
        assert!(s.p80 <= s.max + 1e-9);
        let zeros = ivs.iter().filter(|&&v| v == 0).count();
        assert!((s.concurrent_fraction - zeros as f64 / ivs.len() as f64).abs() < 1e-12);
        assert!(s.mean >= 0.0);
    }
}

#[test]
fn latency_sweep_is_monotone_on_real_data() {
    let durations = report().durations.as_ref().unwrap();
    let durations: Vec<f64> = durations.series.iter().map(|&(_, d)| d).collect();
    let sweep =
        latency_sweep_from_durations(&durations, &[0.0, 60.0, 600.0, 3_600.0, 14_400.0, 86_400.0]);
    assert_eq!(sweep[0].mitigable_fraction, 1.0);
    for w in sweep.windows(2) {
        assert!(w[0].mitigable_fraction >= w[1].mitigable_fraction);
        assert!(w[0].missed_attacks <= w[1].missed_attacks);
    }
    // §III-D shape: a 1-minute automatic responder mitigates almost all
    // attack time; a 4-hour manual one misses most attacks entirely.
    assert!(sweep[1].mitigable_fraction > 0.8, "{:?}", sweep[1]);
    assert!(sweep[4].missed_attacks > 0.5, "{:?}", sweep[4]);
}

#[test]
fn asn_analysis_is_consistent_with_summary() {
    let a = ddos_analytics::target::asn::AsnAnalysis::compute(ds(), None);
    let summary = ds().summary();
    assert_eq!(a.distinct_asns(), summary.victims.asns);
    let total: usize = a.pressure.iter().map(|p| p.attacks).sum();
    assert_eq!(total, ds().len());
    // Pressure is sorted descending and shares are monotone in k.
    for w in a.pressure.windows(2) {
        assert!(w[0].attacks >= w[1].attacks);
    }
    assert!(a.top_k_share(5) <= a.top_k_share(50));
    assert!(a.top_k_share(usize::MAX) > 0.999);
}

#[test]
fn activity_levels_rank_dirtjumper_first() {
    let levels = &report().activity;
    assert_eq!(levels[0].family, Family::Dirtjumper);
    // Dirtjumper is constantly active (duty near 1.0 at any scale).
    assert!(levels[0].duty_cycle > 0.8, "{}", levels[0].duty_cycle);
    let be = levels
        .iter()
        .find(|l| l.family == Family::Blackenergy)
        .unwrap();
    assert!(be.duty_cycle < levels[0].duty_cycle);
}
