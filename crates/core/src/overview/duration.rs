//! §III-C — attack durations (Figs. 6–7).

use ddos_schema::{Dataset, Family, Timestamp};
use ddos_stats::{descriptive, Ecdf};
use serde::{Deserialize, Serialize};

use super::SortedSample;

/// Duration analysis over a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationAnalysis {
    /// `(start, duration_s)` per attack in time order — Fig. 6's scatter.
    pub series: Vec<(Timestamp, f64)>,
    /// Mean duration (paper: 10,308 s).
    pub mean: f64,
    /// Median duration (paper: 1,766 s).
    pub median: f64,
    /// Population standard deviation (paper: 18,475 s).
    pub std_dev: f64,
    /// 80th percentile (paper: 13,882 s ≈ four hours).
    pub p80: f64,
}

impl DurationAnalysis {
    /// Computes duration statistics over all attacks; `None` for an
    /// empty trace.
    pub fn compute(ds: &Dataset) -> Option<DurationAnalysis> {
        Self::compute_filtered(ds, None)
    }

    /// Same, restricted to one family.
    pub fn compute_for(ds: &Dataset, family: Family) -> Option<DurationAnalysis> {
        Self::compute_filtered(ds, Some(family))
    }

    /// The duration pass: [`DurationAnalysis::compute`] over the
    /// context's start and duration vectors (both in trace order, so the
    /// series is identical), with the quantiles read from `sorted`, the
    /// ascending sample the pass carries across appends
    /// ([`SortedSample::sync`] sorts only the new durations and merges
    /// them in). The mean and deviation read the in-order sample, as
    /// `compute` does, so every statistic is bit-identical.
    pub fn resume(
        ctx: &crate::context::AnalysisContext,
        sorted: &mut SortedSample,
    ) -> Option<DurationAnalysis> {
        let xs: &[f64] = &ctx.durations;
        let sorted = sorted.sync(xs);
        if xs.is_empty() {
            return None;
        }
        Some(DurationAnalysis {
            mean: descriptive::mean(xs)?,
            median: descriptive::quantile_sorted(sorted, 0.5),
            std_dev: descriptive::std_dev_population(xs)?,
            p80: descriptive::quantile_sorted(sorted, 0.8),
            series: ctx
                .all_starts
                .iter()
                .copied()
                .zip(xs.iter().copied())
                .collect(),
        })
    }

    fn compute_filtered(ds: &Dataset, family: Option<Family>) -> Option<DurationAnalysis> {
        let series: Vec<(Timestamp, f64)> = ds
            .attacks()
            .iter()
            .filter(|a| family.map_or(true, |f| f == a.family))
            .map(|a| (a.start, a.duration().as_f64()))
            .collect();
        Self::from_series(series)
    }

    fn from_series(series: Vec<(Timestamp, f64)>) -> Option<DurationAnalysis> {
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

    /// The duration ECDF (Fig. 7).
    pub fn cdf(&self) -> Ecdf {
        let xs: Vec<f64> = self.series.iter().map(|&(_, d)| d).collect();
        Ecdf::new(&xs).expect("non-empty by construction")
    }

    /// Fraction of attacks shorter than `seconds` (the paper checks the
    /// four-hour point and the sub-minute share that justifies the 60 s
    /// attack-separation rule).
    pub fn fraction_under(&self, seconds: f64) -> f64 {
        let n = self.series.iter().filter(|&&(_, d)| d < seconds).count();
        n as f64 / self.series.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, chunked_contexts, dataset};

    #[test]
    fn statistics_over_known_durations() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 0, 100, 1),
            attack(Family::Dirtjumper, 2, 10, 200, 1),
            attack(Family::Dirtjumper, 3, 20, 600, 2),
        ]);
        let d = DurationAnalysis::compute(&ds).unwrap();
        assert_eq!(d.mean, 300.0);
        assert_eq!(d.median, 200.0);
        assert_eq!(d.series.len(), 3);
        assert!((d.fraction_under(250.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.fraction_under(50.0), 0.0);
        assert_eq!(d.fraction_under(1e9), 1.0);
    }

    #[test]
    fn cdf_matches_series() {
        let ds = dataset(vec![
            attack(Family::Pandora, 1, 0, 50, 1),
            attack(Family::Pandora, 2, 5, 150, 1),
        ]);
        let d = DurationAnalysis::compute(&ds).unwrap();
        let cdf = d.cdf();
        assert_eq!(cdf.eval(50.0), 0.5);
        assert_eq!(cdf.eval(150.0), 1.0);
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
        let expect = DurationAnalysis::compute(&ds);
        assert!(expect.is_some());
        for (policy, ctx) in chunked_contexts(&ds) {
            let got = DurationAnalysis::resume(&ctx, &mut SortedSample::default());
            assert_eq!(got, expect, "{policy:?}");
        }
        let empty = dataset(vec![]);
        let ctx = crate::context::AnalysisContext::new(&empty);
        assert!(DurationAnalysis::resume(&ctx, &mut SortedSample::default()).is_none());
    }

    #[test]
    fn carried_sample_matches_a_fresh_sort_at_every_watermark() {
        use crate::context::AnalysisContext;
        use crate::overview::test_support::{carry_fixture, for_each_watermark, CARRY_EPOCH};
        let ds = carry_fixture();
        let mut sorted = SortedSample::default();
        let mut watermarks = 0;
        for_each_watermark(&ds, CARRY_EPOCH, |w, prefix, folded| {
            let got = DurationAnalysis::resume(folded, &mut sorted);
            let fresh = AnalysisContext::new(prefix);
            let expect = DurationAnalysis::resume(&fresh, &mut SortedSample::default());
            assert_eq!(got, expect, "watermark {w}");
            assert_eq!(got, DurationAnalysis::compute(prefix), "watermark {w}");
            assert_eq!(DurationAnalysis::resume(folded, &mut sorted), got);
            watermarks += 1;
        });
        assert_eq!(watermarks, 3);
    }

    #[test]
    fn family_filter_and_empty() {
        let ds = dataset(vec![attack(Family::Pandora, 1, 0, 50, 1)]);
        assert!(DurationAnalysis::compute_for(&ds, Family::Nitol).is_none());
        let d = DurationAnalysis::compute_for(&ds, Family::Pandora).unwrap();
        assert_eq!(d.series.len(), 1);
        assert_eq!(d.std_dev, 0.0);
        let empty = dataset(vec![]);
        assert!(DurationAnalysis::compute(&empty).is_none());
    }
}
