//! Abstract finding 2 — targets are attacked repeatedly, and the next
//! attack's start time is predictable from the victim's history.
//!
//! A [`TargetTrain`] is one victim's chronological attack history. The
//! predictor walks each train: after seeing `i ≥ 3` attacks it predicts
//! the next start as `last start + median gap so far` and scores the
//! prediction against the actual start.

use ddos_schema::{Family, IpAddr4, Timestamp};
use ddos_stats::descriptive::{median, quantile_sorted};
use ddos_stats::ecdf::Ecdf;
use serde::{Deserialize, Serialize};

/// Minimum attacks a target needs before it forms a train.
pub const MIN_TRAIN_LEN: usize = 4;

/// One repeatedly-attacked target's history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetTrain {
    /// The victim IP.
    pub target: IpAddr4,
    /// Attack start times, ascending.
    pub starts: Vec<Timestamp>,
    /// Families that attacked this target, in first-seen order.
    pub families: Vec<Family>,
}

impl TargetTrain {
    /// Number of attacks in the train.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the train is empty (never true for a constructed train).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

/// One scored next-attack prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionOutcome {
    /// The victim IP.
    pub target: IpAddr4,
    /// Predicted start of the next attack.
    pub predicted: Timestamp,
    /// Actual start of the next attack.
    pub actual: Timestamp,
    /// `|actual − predicted|` in seconds.
    pub abs_error_s: f64,
    /// Absolute error relative to the train's median gap.
    pub relative_error: f64,
}

/// Recurrence analysis: every train plus every scored prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecurrenceAnalysis {
    /// Trains sorted by length descending (ties broken by target IP).
    pub trains: Vec<TargetTrain>,
    /// Prediction outcomes in train order.
    pub outcomes: Vec<PredictionOutcome>,
}

impl RecurrenceAnalysis {
    /// The recurrence pass: builds a train for every target with at
    /// least [`MIN_TRAIN_LEN`] attacks from the per-target timelines
    /// already grouped in the analysis context, and scores the
    /// median-gap predictor on each with the sorted-gap walk
    /// (`score_trains_sorted`).
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> RecurrenceAnalysis {
        let attacks = ctx.attacks;
        let mut trains: Vec<TargetTrain> = ctx
            .target_timelines
            .iter()
            .filter(|t| t.attacks.len() >= MIN_TRAIN_LEN)
            .map(|t| {
                let mut families = Vec::new();
                let starts = t
                    .attacks
                    .iter()
                    .map(|&i| {
                        let a = &attacks[i];
                        if !families.contains(&a.family) {
                            families.push(a.family);
                        }
                        a.start
                    })
                    .collect();
                TargetTrain {
                    target: t.target,
                    starts,
                    families,
                }
            })
            .collect();
        trains.sort_by(|a, b| b.len().cmp(&a.len()).then(a.target.cmp(&b.target)));
        let outcomes = score_trains_sorted(&trains);
        RecurrenceAnalysis { trains, outcomes }
    }

    /// The most-attacked target's train.
    pub fn hottest_target(&self) -> Option<&TargetTrain> {
        self.trains.first()
    }

    /// ECDF of absolute prediction errors in seconds.
    pub fn error_cdf(&self) -> Option<Ecdf> {
        let errors: Vec<f64> = self.outcomes.iter().map(|o| o.abs_error_s).collect();
        Ecdf::new(&errors)
    }

    /// Median absolute prediction error in seconds.
    pub fn median_abs_error(&self) -> Option<f64> {
        let errors: Vec<f64> = self.outcomes.iter().map(|o| o.abs_error_s).collect();
        median(&errors)
    }

    /// Fraction of predictions within `seconds` of the actual start
    /// (0.0 when there are no outcomes).
    pub fn fraction_within(&self, seconds: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let hits = self
            .outcomes
            .iter()
            .filter(|o| o.abs_error_s <= seconds)
            .count();
        hits as f64 / self.outcomes.len() as f64
    }
}

/// Walks every train (in its final sorted order) with the median-gap
/// predictor and scores each prediction: after `i ≥ 3` attacks the next
/// start is predicted as `last start + median of the gaps so far`. The
/// gap prefix lives in one incrementally maintained sorted buffer
/// instead of being re-cloned and re-sorted at every step: insertion by
/// `partition_point` maintains exactly the ascending prefix multiset, so
/// every median (duplicates included) is bit-identical to a re-sorting
/// walk's.
fn score_trains_sorted(trains: &[TargetTrain]) -> Vec<PredictionOutcome> {
    let mut outcomes = Vec::new();
    let mut sorted: Vec<f64> = Vec::new();
    for train in trains {
        sorted.clear();
        let starts = &train.starts;
        for i in (MIN_TRAIN_LEN - 1)..starts.len() {
            while sorted.len() < i - 1 {
                let j = sorted.len();
                let gap = (starts[j + 1].0 - starts[j].0) as f64;
                let pos = sorted.partition_point(|&x| x < gap);
                sorted.insert(pos, gap);
            }
            let median_gap = quantile_sorted(&sorted, 0.5);
            let predicted = Timestamp(starts[i - 1].0 + median_gap.round() as i64);
            let actual = starts[i];
            let abs_error_s = (actual.0 - predicted.0).abs() as f64;
            outcomes.push(PredictionOutcome {
                target: train.target,
                predicted,
                actual,
                abs_error_s,
                // Relative to the typical gap; the max(1.0) floor keeps
                // the ratio finite for back-to-back attacks (a
                // non-finite value would not survive JSON).
                relative_error: abs_error_s / median_gap.max(1.0),
            });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::Dataset;

    fn recurrence(ds: &Dataset) -> RecurrenceAnalysis {
        RecurrenceAnalysis::compute_ctx(&AnalysisContext::new(ds))
    }

    fn periodic_ds() -> Dataset {
        // Target 1: attacked every 1000 s, 6 times — perfectly
        // predictable. Target 2: only 2 attacks — below MIN_TRAIN_LEN.
        let mut attacks = Vec::new();
        for i in 0..6 {
            attacks.push(attack(
                Family::Dirtjumper,
                i + 1,
                1_000 * (i as i64 + 1),
                60,
                1,
            ));
        }
        attacks.push(attack(Family::Pandora, 10, 1_500, 60, 2));
        attacks.push(attack(Family::Pandora, 11, 2_500, 60, 2));
        dataset(attacks)
    }

    #[test]
    fn trains_respect_min_len() {
        let rec = recurrence(&periodic_ds());
        assert_eq!(rec.trains.len(), 1);
        assert_eq!(rec.hottest_target().unwrap().len(), 6);
        assert_eq!(
            rec.hottest_target().unwrap().families,
            vec![Family::Dirtjumper]
        );
    }

    #[test]
    fn periodic_train_predicts_exactly() {
        let rec = recurrence(&periodic_ds());
        // 6 attacks → predictions for indices 3, 4, 5.
        assert_eq!(rec.outcomes.len(), 3);
        for o in &rec.outcomes {
            assert_eq!(o.abs_error_s, 0.0);
            assert_eq!(o.relative_error, 0.0);
        }
        assert_eq!(rec.median_abs_error(), Some(0.0));
        assert_eq!(rec.fraction_within(3_600.0), 1.0);
        assert_eq!(rec.error_cdf().unwrap().len(), 3);
    }

    #[test]
    fn empty_dataset_yields_nothing() {
        let rec = recurrence(&dataset(vec![]));
        assert!(rec.trains.is_empty());
        assert!(rec.outcomes.is_empty());
        assert!(rec.hottest_target().is_none());
        assert!(rec.error_cdf().is_none());
        assert!(rec.median_abs_error().is_none());
        assert_eq!(rec.fraction_within(1.0), 0.0);
    }
}
