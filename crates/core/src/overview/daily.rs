//! Fig. 2 — the daily attack distribution.

use ddos_schema::{AttackRecord, Timestamp, Window};
use serde::{Deserialize, Serialize};

/// Daily attack counts over the observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailyDistribution {
    /// Count of attacks that *started* on each day of the window
    /// (indexed by day).
    pub counts: Vec<usize>,
    /// Midnight timestamp of day 0.
    pub first_day: Timestamp,
}

impl DailyDistribution {
    /// Buckets the start times of an attack slice by the days of
    /// `window`.
    pub fn of_attacks(window: Window, attacks: &[AttackRecord]) -> DailyDistribution {
        let mut counts = vec![0usize; window.num_days()];
        for a in attacks {
            if let Some(d) = window.day_index(a.start) {
                counts[d] += 1;
            }
        }
        DailyDistribution {
            counts,
            first_day: window.start,
        }
    }

    /// Mean attacks per day over the whole window (the paper: "on
    /// average there are 243 DDoS attacks ... every day").
    pub fn mean_per_day(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().sum::<usize>() as f64 / self.counts.len() as f64
    }

    /// The busiest day: `(day_index, count)` (the paper: 983 attacks on
    /// 2012-08-30).
    pub fn peak(&self) -> Option<(usize, usize)> {
        self.counts
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .filter(|&(_, c)| c > 0)
    }

    /// The calendar date of a day index.
    pub fn date_of(&self, day: usize) -> Timestamp {
        self.first_day + ddos_schema::Seconds::days(day as i64)
    }

    /// Plot series: `(date, count)` per day.
    pub fn series(&self) -> Vec<(Timestamp, usize)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(d, &c)| (self.date_of(d), c))
            .collect()
    }

    /// Lag-`k` autocorrelation of the daily counts — the paper checked
    /// for (and found no) daily/weekly periodicity; a weekly pattern
    /// would show as a spike at lag 7.
    pub fn autocorrelation(&self, lag: usize) -> Option<f64> {
        let xs: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        ddos_stats::timeseries::acf::acf(&xs, lag).map(|a| a[lag])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::{Dataset, Family};

    fn daily(ds: &Dataset) -> DailyDistribution {
        DailyDistribution::of_attacks(ds.window(), ds.attacks())
    }

    #[test]
    fn buckets_by_day() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 1_000, 60, 1),
            attack(Family::Pandora, 3, 86_400 + 5, 60, 2),
        ]);
        let d = daily(&ds);
        assert_eq!(d.counts[0], 2);
        assert_eq!(d.counts[1], 1);
        assert_eq!(d.counts[2], 0);
        assert_eq!(d.peak(), Some((0, 2)));
        assert!((d.mean_per_day() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn series_dates_advance_daily() {
        let ds = dataset(vec![attack(Family::Yzf, 1, 0, 10, 1)]);
        let d = daily(&ds);
        let s = d.series();
        assert_eq!(s.len(), 10);
        assert_eq!((s[1].0 - s[0].0).get(), 86_400);
    }

    #[test]
    fn empty_dataset_has_no_peak() {
        let ds = dataset(vec![]);
        let d = daily(&ds);
        assert_eq!(d.peak(), None);
        assert_eq!(d.mean_per_day(), 0.0);
    }

    #[test]
    fn autocorrelation_of_flat_series_is_none() {
        let ds = dataset(vec![]);
        let d = daily(&ds);
        // All-zero counts are constant: ACF undefined.
        assert!(d.autocorrelation(7).is_none());
    }
}
