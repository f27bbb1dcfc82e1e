//! Empirical cumulative distribution functions.
//!
//! Half the paper's figures are CDFs (attack intervals, durations,
//! dispersion, consecutive-attack gaps). [`Ecdf`] owns a sorted copy of
//! the sample and answers `P(X ≤ x)`, quantiles, and plot-ready step
//! points.

use serde::{Deserialize, Serialize};

use crate::descriptive::quantile_sorted;

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, ignoring NaNs. Returns `None` when no
    /// finite values remain.
    pub fn new(values: &[f64]) -> Option<Ecdf> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Some(Ecdf { sorted })
    }

    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`: the fraction of observations at or below `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (`0 ≤ q ≤ 1`, linear interpolation).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        Some(quantile_sorted(&self.sorted, q))
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Plot-ready `(x, F(x))` step points, deduplicating equal x values
    /// (the y of the last duplicate wins, as in a right-continuous step
    /// function).
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(self.sorted.len());
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match pts.last_mut() {
                Some(last) if last.0 == x => last.1 = y,
                _ => pts.push((x, y)),
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_nan_inputs() {
        assert!(Ecdf::new(&[]).is_none());
        assert!(Ecdf::new(&[f64::NAN, f64::NAN]).is_none());
        let e = Ecdf::new(&[1.0, f64::NAN, 2.0]).unwrap();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn eval_step_function() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_with_ties() {
        let e = Ecdf::new(&[1.0, 1.0, 1.0, 5.0]).unwrap();
        assert_eq!(e.eval(1.0), 0.75);
        assert_eq!(e.eval(4.9), 0.75);
        assert_eq!(e.eval(5.0), 1.0);
    }

    #[test]
    fn quantile_round_trip() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(e.quantile(0.0), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(20.0));
        assert_eq!(e.quantile(1.0), Some(30.0));
        assert_eq!(e.quantile(1.5), None);
    }

    #[test]
    fn points_deduplicate_ties() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]).unwrap();
        let pts = e.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(pts[1], (2.0, 1.0));
    }

    proptest! {
        #[test]
        fn eval_is_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                            a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let e = Ecdf::new(&xs).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.eval(lo) <= e.eval(hi));
        }

        #[test]
        fn eval_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100), x in -2e6f64..2e6) {
            let e = Ecdf::new(&xs).unwrap();
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert_eq!(e.eval(e.max()), 1.0);
        }
    }
}
