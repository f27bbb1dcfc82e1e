//! Descriptive statistics: the moments and quantiles the paper quotes.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (n−1 denominator); `None` for fewer than two
/// observations.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    // Two-pass algorithm: numerically stable for the magnitudes we see
    // (durations up to ~10^5 s, distances up to ~10^4 km).
    let ss: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    Some(ss / (xs.len() - 1) as f64)
}

/// Sample standard deviation; `None` for fewer than two observations.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Population standard deviation (n denominator), used when the data are
/// the full population rather than a sample (e.g. *all* attacks in the
/// window).
pub fn std_dev_population(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    Some((ss / xs.len() as f64).sqrt())
}

/// Median (interpolated for even lengths); `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (type 7, the R/NumPy default).
///
/// `q` must be in `[0, 1]`; returns `None` for empty input or a `q`
/// outside the domain.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile over an already-sorted slice (no allocation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_inputs_are_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(variance(&[1.0]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        // Population std is 2.0 for this classic example.
        assert!((std_dev_population(&xs).unwrap() - 2.0).abs() < 1e-12);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(median(&xs), Some(4.5));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!((quantile(&xs, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 1.5), None);
        assert_eq!(quantile(&xs, -0.1), None);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), Some(5.0));
    }

    proptest! {
        #[test]
        fn mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let m = mean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn variance_non_negative(xs in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
            prop_assert!(variance(&xs).unwrap() >= 0.0);
        }

        #[test]
        fn quantiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                              q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&xs, qa).unwrap() <= quantile(&xs, qb).unwrap() + 1e-9);
        }

        #[test]
        fn shift_invariance_of_std(xs in proptest::collection::vec(-1e3f64..1e3, 2..50),
                                   shift in -1e3f64..1e3) {
            let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
            let a = std_dev(&xs).unwrap();
            let b = std_dev(&shifted).unwrap();
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
