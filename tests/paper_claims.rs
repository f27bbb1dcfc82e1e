//! Shape-level checks of the paper's headline claims on a generated
//! trace.
//!
//! These assertions are deliberately *bands*, not exact numbers: the
//! trace is synthetic and scaled down (20% volume here), so we verify
//! who wins, rough factors, and where crossovers fall — the same bar
//! EXPERIMENTS.md applies to the full-scale run. Each claim reads its
//! section of one report of the trace, as `repro` does.

use std::sync::OnceLock;

use ddos_analytics::overview::daily::DailyDistribution;
use ddos_analytics::overview::intervals;
use ddos_analytics::source::dispersion::FamilyDispersion;
use ddos_analytics::source::prediction::Exclusion;
use ddos_analytics::target::country::FamilyCountryProfile;
use ddos_analytics::target::organization::widest_presence;
use ddos_analytics::util::BotIndex;
use ddos_analytics::AnalysisReport;
use ddos_schema::{AttackRecord, Dataset, Family};
use ddos_sim::{generate, GeneratedTrace, SimConfig};

/// A 20%-scale trace: big enough for the statistical claims, small
/// enough for CI.
fn trace() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        generate(&SimConfig {
            scale: 0.2,
            ..SimConfig::default()
        })
    })
}

fn ds() -> &'static Dataset {
    &trace().dataset
}

/// The report of the 20% trace, with the default options.
fn report() -> &'static AnalysisReport {
    static REPORT: OnceLock<AnalysisReport> = OnceLock::new();
    REPORT.get_or_init(|| AnalysisReport::run(ds()))
}

/// One qualifying family's dispersion series (Fig. 9).
fn dispersion(family: Family) -> &'static FamilyDispersion {
    report()
        .dispersion
        .iter()
        .find(|d| d.family == family)
        .unwrap_or_else(|| panic!("{family} qualifies for Fig. 9"))
}

/// One family's Table V profile.
fn country_profile(family: Family) -> &'static FamilyCountryProfile {
    report()
        .target_countries
        .iter()
        .find(|p| p.family == family)
        .unwrap_or_else(|| panic!("{family} has a Table V profile"))
}

// ---------------------------------------------------------------- §III-A

#[test]
fn daily_peak_is_the_dirtjumper_spike_day() {
    let d = &report().daily;
    let (day, peak) = d.peak().unwrap();
    // §III-A: the max day is 2012-08-30 (day index 1), Dirtjumper-driven.
    assert_eq!(day, 1, "peak on day {day}");
    assert!(
        peak as f64 > 3.0 * d.mean_per_day(),
        "peak {peak} not an outlier"
    );
    let dirtjumper: Vec<AttackRecord> = ds().attacks_of(Family::Dirtjumper).cloned().collect();
    let dj = DailyDistribution::of_attacks(ds().window(), &dirtjumper);
    assert_eq!(dj.peak().unwrap().0, 1);
}

#[test]
fn no_weekly_periodicity() {
    let d = &report().daily;
    // §III-A: no diurnal/weekly pattern. Lag-7 autocorrelation ≈ 0.
    let ac = d.autocorrelation(7).unwrap();
    assert!(ac.abs() < 0.35, "lag-7 autocorrelation {ac}");
}

// ---------------------------------------------------------------- §III-B

#[test]
fn majority_of_family_intervals_are_concurrent() {
    // Fig. 3: >50% of family-based intervals are simultaneous. Dirtjumper
    // dominates the pooled count.
    let mut zeros = 0usize;
    let mut total = 0usize;
    for f in Family::ACTIVE {
        let ivs = intervals::family_intervals(ds(), f);
        zeros += ivs.iter().filter(|&&v| v == 0).count();
        total += ivs.len();
    }
    let frac = zeros as f64 / total as f64;
    assert!(frac > 0.45, "concurrent interval fraction {frac}");
}

#[test]
fn floor_families_have_no_sub_minute_intervals() {
    // Fig. 5: Aldibot and Optima never strike twice within 60 s.
    for f in [Family::Aldibot, Family::Optima] {
        let ivs = intervals::family_intervals(ds(), f);
        // The scheduled attacks always respect the floor; the paper's own
        // Table VI nevertheless lists one Optima collaboration (within
        // 60 s of a partner), so a few injected exceptions are allowed.
        let below = ivs.iter().filter(|&&v| v <= 60).count();
        assert!(below <= 3, "{f} has {below} sub-minute intervals");
    }
}

#[test]
fn interval_modes_match_fig_4() {
    let ivs = intervals::family_intervals(ds(), Family::Dirtjumper);
    let bands = intervals::interval_bands(&ivs);
    // The 1–10 min, 10–60 min, and 1–6 h bands each hold a solid share
    // of the non-simultaneous intervals.
    let nonzero: usize = bands.iter().map(|&(_, n)| n).sum();
    for idx in [1, 2, 3] {
        let share = bands[idx].1 as f64 / nonzero as f64;
        assert!(share > 0.15, "band {} share {share}", bands[idx].0);
    }
}

#[test]
fn concurrency_split_single_vs_multi_family() {
    let c = &report().concurrency;
    let single = c.single_family_events.len();
    let multi = c.multi_family_events.len();
    // Paper full scale: 3,692 vs 956 (ratio ≈ 3.9). At 20% scale we
    // check the ratio band and that both kinds exist.
    assert!(single > 0 && multi > 0);
    let ratio = single as f64 / multi as f64;
    assert!((2.0..=8.0).contains(&ratio), "ratio {ratio}");
    // Seven of the ten families exhibit single-family simultaneity.
    let fams = c.families_with_simultaneous();
    assert!((6..=8).contains(&fams.len()), "{} families", fams.len());
    assert!(!fams.contains(&Family::Aldibot));
    assert!(!fams.contains(&Family::Optima));
}

#[test]
fn dirtjumper_partners_dominate_multi_family_events() {
    let pairs = report().concurrency.pair_counts();
    // §III-B: the two most common combinations are Dirtjumper with
    // Blackenergy and Dirtjumper with Pandora.
    assert!(pairs.len() >= 2);
    let top2: Vec<(Family, Family)> = pairs.iter().take(2).map(|&(p, _)| p).collect();
    for p in &top2 {
        assert!(
            p.0 == Family::Dirtjumper || p.1 == Family::Dirtjumper,
            "top combo {p:?} lacks Dirtjumper"
        );
    }
    let be = pairs
        .iter()
        .find(|&&((a, b), _)| (a, b) == (Family::Blackenergy, Family::Dirtjumper))
        .map(|&(_, n)| n)
        .unwrap_or(0);
    let pa = pairs
        .iter()
        .find(|&&((a, b), _)| (a, b) == (Family::Dirtjumper, Family::Pandora))
        .map(|&(_, n)| n)
        .unwrap_or(0);
    assert!(be > 0 && pa > 0, "be {be} pa {pa}");
}

// ---------------------------------------------------------------- §III-C

#[test]
fn durations_are_heavy_tailed_with_four_hour_p80() {
    let d = report().durations.as_ref().unwrap();
    // Paper: mean 10,308 s vs median 1,766 s (heavy right tail).
    assert!(
        d.mean > 2.0 * d.median,
        "mean {} median {}",
        d.mean,
        d.median
    );
    // Paper: 80% of attacks last under ~four hours (13,882 s).
    assert!(
        (4_000.0..30_000.0).contains(&d.p80),
        "p80 {} out of band",
        d.p80
    );
    // Paper (§II-D): fewer than 10% of attacks last under 60 s.
    assert!(d.fraction_under(60.0) < 0.10);
}

// ---------------------------------------------------------------- §IV-A

#[test]
fn sources_are_regionalized() {
    let ratio = report().shifts.regionalization_ratio().unwrap();
    // Fig. 8 plots existing-country shifts on a 10^4 axis and
    // new-country shifts on 10^3: about an order of magnitude apart.
    assert!(ratio > 5.0, "regionalization ratio {ratio}");
}

#[test]
fn symmetric_fractions_match_the_paper_ordering() {
    let pandora = dispersion(Family::Pandora);
    let blackenergy = dispersion(Family::Blackenergy);
    let dirtjumper = dispersion(Family::Dirtjumper);
    // §IV-A: 76.7% for Pandora, 89.5% for Blackenergy; Fig. 9 shows >40%
    // zeros for Dirtjumper.
    assert!(
        (0.68..=0.86).contains(&pandora.symmetric_fraction()),
        "pandora {}",
        pandora.symmetric_fraction()
    );
    assert!(
        (0.82..=0.97).contains(&blackenergy.symmetric_fraction()),
        "blackenergy {}",
        blackenergy.symmetric_fraction()
    );
    assert!(
        dirtjumper.symmetric_fraction() > 0.35,
        "dirtjumper {}",
        dirtjumper.symmetric_fraction()
    );
    assert!(blackenergy.symmetric_fraction() > pandora.symmetric_fraction());
}

#[test]
fn pandora_dispersion_is_smaller_than_blackenergy() {
    let pandora = dispersion(Family::Pandora);
    let blackenergy = dispersion(Family::Blackenergy);
    let pm = pandora.asymmetric_mean().unwrap();
    let bm = blackenergy.asymmetric_mean().unwrap();
    // Fig. 10 vs Fig. 11: Pandora ≈ 566 km, Blackenergy ≈ 4,304 km —
    // the regional-vs-intercontinental gap must be a clear factor.
    assert!(bm > 2.0 * pm, "pandora {pm} vs blackenergy {bm}");
}

#[test]
fn dirtjumper_prediction_is_accurate() {
    // Table IV: similarity 0.848 for Dirtjumper at full scale. At 20%
    // the series is ~6,900 values; the fitted model must stay well above
    // an uninformed baseline.
    let row = report()
        .prediction
        .row(Family::Dirtjumper)
        .expect("dirtjumper qualifies");
    assert!(
        row.forecast.eval.cosine > 0.70,
        "cosine {}",
        row.forecast.eval.cosine
    );
    // Prediction and truth agree on the level.
    let e = &row.forecast.eval;
    assert!(
        (e.pred_mean - e.truth_mean).abs() / e.truth_mean < 0.25,
        "means {} vs {}",
        e.pred_mean,
        e.truth_mean
    );
}

#[test]
fn sparse_families_are_excluded_from_prediction() {
    // Darkshell: the paper drops it ("not enough data points").
    let p = &report().prediction;
    let err = p
        .excluded
        .iter()
        .find(|&&(f, _)| f == Family::Darkshell)
        .map(|&(_, why)| why)
        .expect("darkshell is excluded");
    assert!(matches!(
        err,
        Exclusion::TooFewActiveDays { .. } | Exclusion::SeriesTooShort { .. }
    ));
    // Aldibot has almost no attacks at all.
    assert!(p.row(Family::Aldibot).is_none());
}

// ---------------------------------------------------------------- §IV-B

#[test]
fn top_victim_countries_match_table_v() {
    let top = &report().overall_targets;
    let codes: Vec<&str> = top.iter().map(|(cc, _)| cc.as_str()).collect();
    // Paper: USA, Russia, Germany, Ukraine, Netherlands (in that order).
    assert_eq!(codes[0], "US", "top5 {codes:?}");
    assert_eq!(codes[1], "RU", "top5 {codes:?}");
    assert!(codes.contains(&"DE"), "top5 {codes:?}");
}

#[test]
fn family_favourites_match_table_v() {
    // Families whose Table V leader is far ahead must rank it first.
    for (family, fav) in [
        (Family::Dirtjumper, "US"),
        (Family::Colddeath, "IN"),
        (Family::Darkshell, "CN"),
        (Family::Nitol, "CN"),
        // Ddoser is omitted here: at 20% scale its trace is dominated by
        // the injected 22-attack chain on a single target, so the
        // favourite is decided by one draw (checked at full scale in
        // EXPERIMENTS.md instead).
        (Family::Pandora, "RU"),
    ] {
        let p = country_profile(family);
        assert_eq!(
            p.favourite().unwrap().as_str(),
            fav,
            "{family} favourite mismatch: {:?}",
            p.top(3)
        );
    }
    // Photo-finish races in Table V (Optima RU 171 vs DE 155; YZF RU 120
    // vs UA 105; Blackenergy NL 949 vs US 820 vs SG 729): the leader must
    // land within the measured top-k of the tied group.
    for (family, fav, k) in [
        (Family::Optima, "RU", 2),
        (Family::Yzf, "RU", 2),
        (Family::Blackenergy, "NL", 3),
    ] {
        let p = country_profile(family);
        let top: Vec<&str> = p.top(k).iter().map(|(cc, _)| cc.as_str()).collect();
        assert!(top.contains(&fav), "{family}: {fav} not in top {k} {top:?}");
    }
}

#[test]
fn dirtjumper_attacks_the_most_organizations() {
    let (f, n) = widest_presence(ds()).unwrap();
    assert_eq!(f, Family::Dirtjumper);
    assert!(n > 50, "{n} organizations");
}

// ------------------------------------------------------------------- §V

#[test]
fn collaboration_structure_matches_table_vi() {
    let c = &report().collaborations;
    // Dirtjumper has the most intra-family pairs.
    let dj = *c.intra_pairs.get(&Family::Dirtjumper).unwrap_or(&0);
    assert!(dj > 0);
    for (f, &n) in &c.intra_pairs {
        if *f != Family::Dirtjumper {
            assert!(dj >= n, "{f} has more intra pairs than Dirtjumper");
        }
    }
    // Inter-family collaborations exist and involve Dirtjumper+Pandora.
    let dj_inter = *c.inter_pairs.get(&Family::Dirtjumper).unwrap_or(&0);
    let pa_inter = *c.inter_pairs.get(&Family::Pandora).unwrap_or(&0);
    assert!(dj_inter > 0 && pa_inter > 0);
    // Blackenergy starts simultaneously with Dirtjumper often (§III-B)
    // but almost never passes the duration rule (Table VI: 1).
    let be_inter = *c.inter_pairs.get(&Family::Blackenergy).unwrap_or(&0);
    assert!(
        be_inter < pa_inter / 4 + 2,
        "blackenergy {be_inter} vs pandora {pa_inter}"
    );
}

#[test]
fn flagship_pair_has_paper_like_shape() {
    let focus = report().flagship_pair.as_ref().unwrap();
    // §V-A: 96 unique targets in 16 countries at full scale — scaled
    // down here, but plural on both axes.
    assert!(
        focus.unique_targets >= 3,
        "{} targets",
        focus.unique_targets
    );
    assert!(focus.countries.len() >= 2, "{:?}", focus.countries);
    // Pandora attacks outlast Dirtjumper's (6,420 s vs 5,083 s).
    assert!(
        focus.mean_duration_b > 0.8 * focus.mean_duration_a,
        "durations {} vs {}",
        focus.mean_duration_a,
        focus.mean_duration_b
    );
    // Magnitudes nearly equal (Fig. 16).
    let close = focus
        .series
        .iter()
        .filter(|&&(_, _, _, ma, mb)| {
            let (ma, mb) = (ma as f64, mb as f64);
            (ma - mb).abs() / ma.max(mb) < 0.5
        })
        .count();
    assert!(close * 10 >= focus.series.len() * 8, "magnitudes diverge");
}

#[test]
fn chains_are_intra_family_and_in_the_right_families() {
    let m = &report().multistage;
    assert!(!m.chains.is_empty());
    let intra = m.chains.iter().filter(|c| c.is_intra_family()).count();
    // §V-B: "only intra-family collaborations were involved".
    assert!(
        intra * 10 >= m.chains.len() * 9,
        "{intra}/{} intra",
        m.chains.len()
    );
    // The chain families are (a subset of) the paper's four.
    let allowed = [
        Family::Darkshell,
        Family::Ddoser,
        Family::Dirtjumper,
        Family::Nitol,
    ];
    let chain_attacks: usize = m
        .chains
        .iter()
        .filter(|c| c.families.iter().all(|f| allowed.contains(f)))
        .map(|c| c.len())
        .sum();
    let total: usize = m.chains.iter().map(|c| c.len()).sum();
    assert!(
        chain_attacks * 10 >= total * 8,
        "{chain_attacks}/{total} in the four chain families"
    );
}

// ------------------------------------------------------------ extensions

#[test]
fn activity_levels_quantify_s3a() {
    let levels = &report().activity;
    assert_eq!(levels[0].family, Family::Dirtjumper);
    let be = levels
        .iter()
        .find(|l| l.family == Family::Blackenergy)
        .unwrap();
    // §III-A: Blackenergy active ~1/3 of the period.
    assert!(
        (0.2..=0.45).contains(&be.duty_cycle),
        "blackenergy duty {}",
        be.duty_cycle
    );
}

#[test]
fn next_attack_prediction_is_usable() {
    let r = &report().recurrence;
    assert!(r.outcomes.len() > 50, "{} outcomes", r.outcomes.len());
    // Accuracy must be judged against each target's own attack cadence
    // (per-target gaps span minutes to weeks): count predictions that
    // land within half a typical gap of the true start (abstract
    // finding 2's "accurate start time prediction").
    let close = r
        .outcomes
        .iter()
        .filter(|o| o.relative_error <= 0.5)
        .count() as f64
        / r.outcomes.len() as f64;
    // Our per-target trains are Zipf-recurrent, not periodic, so the
    // median-interval predictor is only moderately accurate — the honest
    // measurement for this claim (see x2 in the repro harness).
    assert!(close > 0.2, "close-prediction fraction {close}");
}

#[test]
fn blacklist_warmup_pays_off() {
    let sim = &report().blacklist;
    let mean = sim.mean_coverage().unwrap();
    // Bot pools persist per family, so repeat attacks reuse sources.
    assert!(mean > 0.2, "mean coverage {mean}");
    // Coverage improves (or at least does not collapse) over rounds.
    let rounds = sim.coverage_by_round(5);
    assert!(rounds.len() >= 3);
    let first = rounds.first().unwrap().1;
    let last = rounds.last().unwrap().1;
    assert!(last >= first * 0.8, "coverage degraded: {first} -> {last}");
}

#[test]
fn takedown_priority_is_front_loaded() {
    let steps = ddos_analytics::defense::takedown_priority(ds(), &BotIndex::build(ds()), 10);
    assert!(steps.len() >= 5);
    // Regionalization (Fig. 8): the top three countries host most of the
    // attack participation.
    let third = steps[2].cumulative_participation_removed;
    assert!(third > 0.5, "top-3 countries remove only {third}");
}

#[test]
fn chain_gaps_match_fig_17() {
    let cdf = report().multistage.gap_cdf().unwrap();
    // Fig. 17: ≈65% under 10 s, ≈80% under 30 s.
    assert!(cdf.eval(10.0) > 0.5, "under-10s {}", cdf.eval(10.0));
    assert!(cdf.eval(30.0) > 0.7, "under-30s {}", cdf.eval(30.0));
}
