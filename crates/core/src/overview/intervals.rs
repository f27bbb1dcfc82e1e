//! §III-B — attack intervals (Figs. 3–5) and concurrent attacks.

use std::collections::BTreeMap;

use ddos_schema::{Dataset, Family, Timestamp};
use ddos_stats::{descriptive, Ecdf};
use serde::{Deserialize, Serialize};

use super::SortedSample;

/// Inter-attack intervals of one family, in chronological order of the
/// family's attacks (seconds; zero = simultaneous).
pub fn family_intervals(ds: &Dataset, family: Family) -> Vec<i64> {
    let starts: Vec<Timestamp> = ds.attacks_of(family).map(|a| a.start).collect();
    starts_to_intervals(&starts)
}

/// Inter-attack intervals across *all* attacks (the "all" series of
/// Fig. 3).
pub fn all_intervals(ds: &Dataset) -> Vec<i64> {
    let starts: Vec<Timestamp> = ds.attacks().iter().map(|a| a.start).collect();
    starts_to_intervals(&starts)
}

/// Inter-attack intervals of attacks on one target, across families.
pub fn target_intervals(ds: &Dataset, target: ddos_schema::IpAddr4) -> Vec<i64> {
    let starts: Vec<Timestamp> = ds.attacks_on(target).map(|a| a.start).collect();
    starts_to_intervals(&starts)
}

/// Consecutive differences of an ascending start-time series — the
/// interval sample every variant above reduces to. Public so the
/// pipeline can reuse the start vectors precomputed in the analysis
/// context.
pub fn starts_to_intervals(starts: &[Timestamp]) -> Vec<i64> {
    starts.windows(2).map(|w| (w[1] - w[0]).get()).collect()
}

/// Descriptive statistics of an interval sample (§III-B quotes mean
/// 3,060 s, std 39,140 s, 80th percentile 1,081 s for family-based
/// intervals).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Number of intervals.
    pub count: usize,
    /// Mean interval (seconds).
    pub mean: f64,
    /// Population standard deviation (seconds).
    pub std_dev: f64,
    /// 80th percentile (seconds).
    pub p80: f64,
    /// Longest interval (seconds) — the paper saw 59 days.
    pub max: f64,
    /// Fraction of exactly-simultaneous intervals (zero seconds).
    pub concurrent_fraction: f64,
}

impl IntervalStats {
    /// Computes the statistics; `None` for an empty sample.
    pub fn compute(intervals: &[i64]) -> Option<IntervalStats> {
        if intervals.is_empty() {
            return None;
        }
        let xs: Vec<f64> = intervals.iter().map(|&v| v as f64).collect();
        let zeros = intervals.iter().filter(|&&v| v == 0).count();
        Some(IntervalStats {
            count: xs.len(),
            mean: descriptive::mean(&xs)?,
            std_dev: descriptive::std_dev_population(&xs)?,
            p80: descriptive::quantile(&xs, 0.8)?,
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            concurrent_fraction: zeros as f64 / xs.len() as f64,
        })
    }

    /// The interval statistics passes: [`IntervalStats::compute`] over
    /// the intervals of an ascending start series, with the 80th
    /// percentile read from `sorted`, the ascending interval sample the
    /// pass carries across appends ([`SortedSample::sync`] sorts only
    /// the new intervals and merges them in). The count, mean,
    /// deviation, maximum and zero count read the in-order sample, as
    /// `compute` does, so every statistic is bit-identical.
    pub fn resume(starts: &[Timestamp], sorted: &mut SortedSample) -> Option<IntervalStats> {
        let intervals = starts_to_intervals(starts);
        let xs: Vec<f64> = intervals.iter().map(|&v| v as f64).collect();
        let sorted = sorted.sync(&xs);
        if xs.is_empty() {
            return None;
        }
        let zeros = intervals.iter().filter(|&&v| v == 0).count();
        Some(IntervalStats {
            count: xs.len(),
            mean: descriptive::mean(&xs)?,
            std_dev: descriptive::std_dev_population(&xs)?,
            p80: descriptive::quantile_sorted(sorted, 0.8),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            concurrent_fraction: zeros as f64 / xs.len() as f64,
        })
    }
}

/// Builds the interval ECDF of a sample (Figs. 3 and 5); `None` when
/// empty.
pub fn interval_cdf(intervals: &[i64]) -> Option<Ecdf> {
    let xs: Vec<f64> = intervals.iter().map(|&v| v as f64).collect();
    Ecdf::new(&xs)
}

/// Fig. 4's interval clusters: named duration bands, with simultaneous
/// attacks excluded (as the figure does).
pub const INTERVAL_BANDS: &[(&str, i64, i64)] = &[
    ("under 1 min", 1, 60),
    ("1-10 min (6-7 min mode)", 60, 600),
    ("10-60 min (20-40 min mode)", 600, 3_600),
    ("1-6 h (2-3 h mode)", 3_600, 21_600),
    ("6-24 h", 21_600, 86_400),
    ("over 1 day", 86_400, i64::MAX),
];

/// Counts non-simultaneous intervals per Fig. 4 band.
pub fn interval_bands(intervals: &[i64]) -> Vec<(&'static str, usize)> {
    INTERVAL_BANDS
        .iter()
        .map(|&(name, lo, hi)| {
            let n = intervals.iter().filter(|&&v| v >= lo && v < hi).count();
            (name, n)
        })
        .collect()
}

/// One simultaneous-attack event: all attacks sharing a start instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrentEvent {
    /// The shared start instant.
    pub start: Timestamp,
    /// Indices into `Dataset::attacks()`.
    pub attacks: Vec<usize>,
    /// Distinct families involved (sorted).
    pub families: Vec<Family>,
}

impl ConcurrentEvent {
    /// Whether a single family launched the whole event.
    pub fn is_single_family(&self) -> bool {
        self.families.len() == 1
    }
}

/// §III-B's concurrent-attack classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyAnalysis {
    /// Events launched by one family (the paper counts 3,692).
    pub single_family_events: Vec<ConcurrentEvent>,
    /// Events involving multiple families (the paper counts 956).
    pub multi_family_events: Vec<ConcurrentEvent>,
}

impl ConcurrencyAnalysis {
    /// Groups attacks by exact start instant; groups of ≥ 2 attacks are
    /// concurrent events.
    pub fn compute(ds: &Dataset) -> ConcurrencyAnalysis {
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
            let mut families: Vec<Family> =
                attacks.iter().map(|&i| ds.attacks()[i].family).collect();
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

    /// Context-based variant of [`ConcurrencyAnalysis::compute`].
    ///
    /// The trace is sorted by start time, so attacks sharing a start
    /// instant form consecutive runs — a single linear scan replaces the
    /// `BTreeMap` regrouping and yields the exact same events in the
    /// exact same order.
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> ConcurrencyAnalysis {
        let attacks = ctx.attacks;
        let mut single = Vec::new();
        let mut multi = Vec::new();
        let mut i = 0;
        while i < attacks.len() {
            let start = attacks[i].start;
            let mut j = i + 1;
            while j < attacks.len() && attacks[j].start == start {
                j += 1;
            }
            if j - i >= 2 {
                let idxs: Vec<usize> = (i..j).collect();
                let mut families: Vec<Family> = idxs.iter().map(|&k| attacks[k].family).collect();
                families.sort_unstable();
                families.dedup();
                let event = ConcurrentEvent {
                    start,
                    attacks: idxs,
                    families,
                };
                if event.is_single_family() {
                    single.push(event);
                } else {
                    multi.push(event);
                }
            }
            i = j;
        }
        ConcurrencyAnalysis {
            single_family_events: single,
            multi_family_events: multi,
        }
    }

    /// Families that launch single-family simultaneous events (the paper:
    /// seven of the ten).
    pub fn families_with_simultaneous(&self) -> Vec<Family> {
        let mut fams: Vec<Family> = self
            .single_family_events
            .iter()
            .map(|e| e.families[0])
            .collect();
        fams.sort_unstable();
        fams.dedup();
        fams
    }

    /// Fraction of one family's attacks that are simultaneous with
    /// another attack of the same family (the paper: "10% of the attacks
    /// launched by Dirtjumper are simultaneous" — counting *events*
    /// relative to attacks).
    pub fn simultaneous_event_share(&self, ds: &Dataset, family: Family) -> f64 {
        let total = ds.attacks_of(family).count();
        if total == 0 {
            return 0.0;
        }
        let events = self
            .single_family_events
            .iter()
            .filter(|e| e.families[0] == family)
            .count();
        events as f64 / total as f64
    }

    /// Multi-family event counts per family pair, most common first (the
    /// paper: Dirtjumper+Blackenergy 391, Dirtjumper+Pandora 338).
    pub fn pair_counts(&self) -> Vec<((Family, Family), usize)> {
        let mut counts: BTreeMap<(Family, Family), usize> = BTreeMap::new();
        for e in &self.multi_family_events {
            for i in 0..e.families.len() {
                for j in i + 1..e.families.len() {
                    *counts.entry((e.families[i], e.families[j])).or_default() += 1;
                }
            }
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn family_intervals_are_consecutive_diffs() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 10, 1),
            attack(Family::Dirtjumper, 2, 100, 10, 2),
            attack(Family::Dirtjumper, 3, 400, 10, 1),
            attack(Family::Pandora, 4, 150, 10, 3),
        ]);
        assert_eq!(family_intervals(&ds, Family::Dirtjumper), vec![0, 300]);
        assert_eq!(family_intervals(&ds, Family::Pandora), Vec::<i64>::new());
        assert_eq!(all_intervals(&ds), vec![0, 50, 250]);
    }

    #[test]
    fn target_intervals_span_families() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 10, 7),
            attack(Family::Pandora, 2, 160, 10, 7),
            attack(Family::Dirtjumper, 3, 400, 10, 8),
        ]);
        let ip = ddos_schema::IpAddr4::from_octets(198, 51, 100, 7);
        assert_eq!(target_intervals(&ds, ip), vec![60]);
    }

    #[test]
    fn stats_capture_zero_fraction() {
        let s = IntervalStats::compute(&[0, 0, 100, 300]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.concurrent_fraction, 0.5);
        assert_eq!(s.max, 300.0);
        assert_eq!(s.mean, 100.0);
        assert!(IntervalStats::compute(&[]).is_none());
    }

    #[test]
    fn carried_family_samples_match_a_fresh_sort_at_every_watermark() {
        use crate::context::AnalysisContext;
        use crate::overview::test_support::{carry_fixture, for_each_watermark, CARRY_EPOCH};
        let ds = carry_fixture();
        let mut samples = vec![SortedSample::default(); Family::ACTIVE.len()];
        let mut idle = None;
        for_each_watermark(&ds, CARRY_EPOCH, |w, prefix, folded| {
            let fresh = AnalysisContext::new(prefix);
            for ((fc, fresh_fc), sorted) in folded
                .families()
                .iter()
                .zip(fresh.families())
                .zip(&mut samples)
            {
                let got = IntervalStats::resume(&fc.starts, sorted);
                let expect = IntervalStats::resume(&fresh_fc.starts, &mut SortedSample::default());
                assert_eq!(got, expect, "{:?} at watermark {w}", fc.family);
                let scan = IntervalStats::compute(&family_intervals(prefix, fc.family));
                assert_eq!(got, scan, "{:?} at watermark {w}", fc.family);
                assert_eq!(IntervalStats::resume(&fc.starts, sorted), got);
            }
            // Pandora attacks in epochs 1 and 3 only.
            let pandora = samples[Family::Pandora.index()].clone();
            match w {
                1 => idle = Some(pandora),
                2 => assert_eq!(Some(pandora), idle, "an idle family's sample moved"),
                _ => assert_ne!(Some(pandora), idle, "epoch 3 left Pandora's sample"),
            }
        });
        assert!(idle.is_some());
    }

    #[test]
    fn carried_trace_sample_matches_a_fresh_sort_at_every_watermark() {
        use crate::context::AnalysisContext;
        use crate::overview::test_support::{carry_fixture, for_each_watermark, CARRY_EPOCH};
        let ds = carry_fixture();
        let mut sorted = SortedSample::default();
        let mut watermarks = 0;
        for_each_watermark(&ds, CARRY_EPOCH, |w, prefix, folded| {
            let got = IntervalStats::resume(&folded.all_starts, &mut sorted);
            let fresh = AnalysisContext::new(prefix);
            let expect = IntervalStats::resume(&fresh.all_starts, &mut SortedSample::default());
            assert_eq!(got, expect, "watermark {w}");
            assert_eq!(
                got,
                IntervalStats::compute(&all_intervals(prefix)),
                "watermark {w}"
            );
            assert_eq!(IntervalStats::resume(&folded.all_starts, &mut sorted), got);
            watermarks += 1;
        });
        assert_eq!(watermarks, 3);
        // The two Dirtjumper attacks of day 5 share a start.
        let full = IntervalStats::compute(&all_intervals(&ds)).unwrap();
        assert!(full.concurrent_fraction > 0.0);
    }

    #[test]
    fn cdf_and_bands() {
        let intervals = vec![0, 0, 30, 400, 2_000, 8_000, 90_000];
        let cdf = interval_cdf(&intervals).unwrap();
        assert!((cdf.eval(0.0) - 2.0 / 7.0).abs() < 1e-12);
        let bands = interval_bands(&intervals);
        assert_eq!(bands[0], ("under 1 min", 1));
        assert_eq!(bands[1].1, 1); // 400 s
        assert_eq!(bands[2].1, 1); // 2000 s
        assert_eq!(bands[3].1, 1); // 8000 s
        assert_eq!(bands[5].1, 1); // 90000 s
                                   // Simultaneous attacks excluded from every band.
        let total: usize = bands.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn concurrency_classification() {
        let ds = dataset(vec![
            // Single-family event: two Dirtjumper attacks at t=100.
            attack(Family::Dirtjumper, 1, 100, 10, 1),
            attack(Family::Dirtjumper, 2, 100, 10, 2),
            // Multi-family event at t=500.
            attack(Family::Dirtjumper, 3, 500, 10, 3),
            attack(Family::Pandora, 4, 500, 10, 3),
            attack(Family::Blackenergy, 5, 500, 10, 4),
            // Isolated attack.
            attack(Family::Yzf, 6, 900, 10, 5),
        ]);
        let c = ConcurrencyAnalysis::compute(&ds);
        assert_eq!(c.single_family_events.len(), 1);
        assert_eq!(c.multi_family_events.len(), 1);
        assert_eq!(c.multi_family_events[0].families.len(), 3);
        assert_eq!(c.families_with_simultaneous(), vec![Family::Dirtjumper]);
        let pairs = c.pair_counts();
        assert_eq!(pairs.len(), 3);
        assert!(pairs
            .iter()
            .any(|&((a, b), n)| a == Family::Dirtjumper && b == Family::Pandora && n == 1));
        let share = c.simultaneous_event_share(&ds, Family::Dirtjumper);
        assert!((share - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.simultaneous_event_share(&ds, Family::Nitol), 0.0);
    }
}
