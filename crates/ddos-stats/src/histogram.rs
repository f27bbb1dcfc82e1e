//! Linear and logarithmic histograms.
//!
//! Figures 10–11 of the paper are histograms of dispersion distances;
//! Figure 4 clusters attack intervals into logarithmically spaced bands.

use serde::{Deserialize, Serialize};

/// A histogram with explicit bin edges.
///
/// Bins are half-open `[edge[i], edge[i+1])`, the last bin closed. Values
/// outside the edges are counted in `underflow`/`overflow` rather than
/// silently dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    /// Observations below the first edge.
    pub underflow: u64,
    /// Observations above the last edge.
    pub overflow: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// Returns `None` for a degenerate range or zero bins.
    pub fn linear(values: &[f64], lo: f64, hi: f64, bins: usize) -> Option<Histogram> {
        if bins == 0 || hi <= lo || hi.is_nan() || lo.is_nan() {
            return None;
        }
        let edges: Vec<f64> = (0..=bins)
            .map(|i| lo + (hi - lo) * i as f64 / bins as f64)
            .collect();
        Some(Self::with_edges(values, edges))
    }

    /// Builds a histogram with logarithmically spaced bins over
    /// `[lo, hi]`; both bounds must be positive.
    pub fn logarithmic(values: &[f64], lo: f64, hi: f64, bins: usize) -> Option<Histogram> {
        if bins == 0 || hi <= lo || hi.is_nan() || lo <= 0.0 {
            return None;
        }
        let (llo, lhi) = (lo.ln(), hi.ln());
        let edges: Vec<f64> = (0..=bins)
            .map(|i| (llo + (lhi - llo) * i as f64 / bins as f64).exp())
            .collect();
        Some(Self::with_edges(values, edges))
    }

    /// Builds a histogram with caller-provided ascending edges.
    pub fn with_edges(values: &[f64], edges: Vec<f64>) -> Histogram {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let mut h = Histogram {
            counts: vec![0; edges.len().saturating_sub(1)],
            edges,
            underflow: 0,
            overflow: 0,
        };
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        if v.is_nan() || self.edges.len() < 2 {
            return;
        }
        let first = self.edges[0];
        let last = self.edges[self.edges.len() - 1];
        if v < first {
            self.underflow += 1;
        } else if v > last {
            self.overflow += 1;
        } else if v == last {
            // Last bin is closed on the right.
            let n = self.counts.len();
            self.counts[n - 1] += 1;
        } else {
            let i = self.edges.partition_point(|&e| e <= v) - 1;
            self.counts[i] += 1;
        }
    }

    /// Bin edges (`bins + 1` values).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bin_center, count)` pairs for plotting.
    pub fn centers(&self) -> Vec<(f64, u64)> {
        self.edges
            .windows(2)
            .zip(&self.counts)
            .map(|(w, &c)| ((w[0] + w[1]) / 2.0, c))
            .collect()
    }

    /// Normalized bin weights (fractions of in-range total); all zeros if
    /// the histogram is empty.
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_binning_places_values() {
        let h = Histogram::linear(&[0.5, 1.5, 1.6, 9.9, 10.0], 0.0, 10.0, 10).unwrap();
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        // 9.9 and the closed right edge 10.0 both land in the last bin.
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow, 0);
    }

    #[test]
    fn out_of_range_counted_separately() {
        let h = Histogram::linear(&[-1.0, 5.0, 11.0], 0.0, 10.0, 2).unwrap();
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn log_bins_grow_geometrically() {
        let h = Histogram::logarithmic(&[], 1.0, 1_000.0, 3).unwrap();
        let e = h.edges();
        assert!((e[1] - 10.0).abs() < 1e-9);
        assert!((e[2] - 100.0).abs() < 1e-9);
        assert!(Histogram::logarithmic(&[], 0.0, 10.0, 3).is_none());
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert!(Histogram::linear(&[], 0.0, 0.0, 5).is_none());
        assert!(Histogram::linear(&[], 5.0, 1.0, 5).is_none());
        assert!(Histogram::linear(&[], 0.0, 1.0, 0).is_none());
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::linear(&[], 0.0, 1.0, 2).unwrap();
        h.add(f64::NAN);
        assert_eq!(h.total() + h.underflow + h.overflow, 0);
    }

    #[test]
    fn centers_and_fractions() {
        let h = Histogram::linear(&[0.5, 0.6, 1.5], 0.0, 2.0, 2).unwrap();
        let centers = h.centers();
        assert_eq!(centers[0].0, 0.5);
        assert_eq!(centers[0].1, 2);
        let f = h.fractions();
        assert!((f[0] - 2.0 / 3.0).abs() < 1e-12);
        let empty = Histogram::linear(&[], 0.0, 1.0, 3).unwrap();
        assert_eq!(empty.fractions(), vec![0.0, 0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn conservation(values in proptest::collection::vec(-10.0f64..20.0, 0..200)) {
            let h = Histogram::linear(&values, 0.0, 10.0, 7).unwrap();
            prop_assert_eq!(
                h.total() + h.underflow + h.overflow,
                values.len() as u64
            );
        }

        #[test]
        fn every_in_range_value_lands_in_its_bin(v in 0.0f64..10.0) {
            let h = Histogram::linear(&[v], 0.0, 10.0, 5).unwrap();
            let i = ((v / 2.0) as usize).min(4);
            prop_assert_eq!(h.counts()[i], 1);
        }
    }
}
