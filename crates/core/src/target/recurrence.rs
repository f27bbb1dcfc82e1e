//! Abstract finding 2 — targets are attacked repeatedly, and the next
//! attack's start time is predictable from the victim's history.
//!
//! A [`TargetTrain`] is one victim's chronological attack history. The
//! predictor walks each train: after seeing `i ≥ 3` attacks it predicts
//! the next start as `last start + median gap so far` and scores the
//! prediction against the actual start.

use std::collections::HashMap;

use ddos_schema::{Dataset, Family, IpAddr4, Timestamp};
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
    /// Builds trains for every target with at least [`MIN_TRAIN_LEN`]
    /// attacks, optionally restricted to attacks starting in
    /// `[window.0, window.1)`, and scores the median-gap predictor on
    /// each.
    pub fn compute(ds: &Dataset, window: Option<(Timestamp, Timestamp)>) -> RecurrenceAnalysis {
        let mut by_target: HashMap<IpAddr4, TargetTrain> = HashMap::new();
        // Dataset attacks are sorted by start time, so each train's
        // starts come out ascending without re-sorting.
        for atk in ds.attacks() {
            if let Some((lo, hi)) = window {
                if atk.start < lo || atk.start >= hi {
                    continue;
                }
            }
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

    /// Context-based variant of [`RecurrenceAnalysis::compute`] over the
    /// whole window: builds the trains from the per-target timelines
    /// already grouped in the analysis context, and scores them with the
    /// sorted-gap walk (`score_trains_sorted`).
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
                // Relative to the typical gap; the max(1.0) floor keeps
                // the ratio finite for back-to-back attacks (a
                // non-finite value would not survive JSON).
                relative_error: abs_error_s / median_gap.max(1.0),
            });
        }
    }
    outcomes
}

/// Scores the same walk as [`score_trains`] but keeps the gap prefix in
/// one incrementally maintained sorted buffer instead of re-cloning and
/// re-sorting it at every step. `score_trains`'s `median(&gaps[..i-1])`
/// reads values by rank from the ascending prefix multiset; insertion by
/// `partition_point` maintains exactly that multiset, so every median
/// (duplicates included) is bit-identical.
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
                relative_error: abs_error_s / median_gap.max(1.0),
            });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, chunked_contexts, dataset};

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
        let rec = RecurrenceAnalysis::compute(&periodic_ds(), None);
        assert_eq!(rec.trains.len(), 1);
        assert_eq!(rec.hottest_target().unwrap().len(), 6);
        assert_eq!(
            rec.hottest_target().unwrap().families,
            vec![Family::Dirtjumper]
        );
    }

    #[test]
    fn periodic_train_predicts_exactly() {
        let rec = RecurrenceAnalysis::compute(&periodic_ds(), None);
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
        let rec = RecurrenceAnalysis::compute(&dataset(vec![]), None);
        assert!(rec.trains.is_empty());
        assert!(rec.outcomes.is_empty());
        assert!(rec.hottest_target().is_none());
        assert!(rec.error_cdf().is_none());
        assert!(rec.median_abs_error().is_none());
        assert_eq!(rec.fraction_within(1.0), 0.0);
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
        let expect = serde_json::to_string(&RecurrenceAnalysis::compute(&ds, None)).unwrap();
        for (policy, ctx) in chunked_contexts(&ds) {
            let got = serde_json::to_string(&RecurrenceAnalysis::compute_ctx(&ctx)).unwrap();
            assert_eq!(got, expect, "{policy:?}");
        }
    }

    #[test]
    fn window_restricts_trains() {
        let rec =
            RecurrenceAnalysis::compute(&periodic_ds(), Some((Timestamp(0), Timestamp(3_500))));
        // Only 3 of target 1's attacks start before 3500 s.
        assert!(rec.trains.is_empty());
    }
}
