//! §III-C — attack durations (Figs. 6–7).

use ddos_schema::Timestamp;
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
    /// The duration pass: duration statistics over the context's start
    /// and duration vectors (both in trace order), `None` for an empty
    /// trace. The quantiles read from `sorted`, the ascending sample the
    /// pass carries across appends ([`SortedSample::sync`] sorts only
    /// the new durations and merges them in), which holds the same
    /// multiset as a full sort, so every statistic is bit-identical to
    /// one over a freshly sorted sample. The mean and deviation read the
    /// in-order sample.
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
    use crate::context::AnalysisContext;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::{Dataset, Family};

    fn durations(ds: &Dataset) -> Option<DurationAnalysis> {
        DurationAnalysis::resume(&AnalysisContext::new(ds), &mut SortedSample::default())
    }

    #[test]
    fn statistics_over_known_durations() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 0, 100, 1),
            attack(Family::Dirtjumper, 2, 10, 200, 1),
            attack(Family::Dirtjumper, 3, 20, 600, 2),
        ]);
        let d = durations(&ds).unwrap();
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
        let d = durations(&ds).unwrap();
        let cdf = d.cdf();
        assert_eq!(cdf.eval(50.0), 0.5);
        assert_eq!(cdf.eval(150.0), 1.0);
    }
}
