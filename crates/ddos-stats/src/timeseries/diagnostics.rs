//! Model diagnostics: residual whiteness.
//!
//! The Ljung–Box test checks that a fitted model's one-step innovations
//! are white (no autocorrelation structure left to model); the Table IV
//! report prints it for each family's forecast errors.

use crate::timeseries::acf::acf;

/// Result of a Ljung–Box whiteness test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LjungBox {
    /// The Q statistic.
    pub statistic: f64,
    /// Degrees of freedom used for the reference χ² distribution.
    pub df: usize,
    /// Approximate p-value (probability of a Q at least this large under
    /// the white-noise null).
    pub p_value: f64,
}

impl LjungBox {
    /// Whether the white-noise null survives at the given significance
    /// level (e.g. `0.05`).
    pub fn is_white(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Ljung–Box test on residuals at lags `1..=lags`, with `fitted_params`
/// model parameters subtracted from the degrees of freedom.
///
/// Returns `None` when the series is too short, constant, or the df
/// would be non-positive.
pub fn ljung_box(residuals: &[f64], lags: usize, fitted_params: usize) -> Option<LjungBox> {
    let n = residuals.len();
    if n <= lags + 1 || lags == 0 || lags <= fitted_params {
        return None;
    }
    let rho = acf(residuals, lags)?;
    let nf = n as f64;
    let statistic = nf
        * (nf + 2.0)
        * (1..=lags)
            .map(|k| rho[k] * rho[k] / (nf - k as f64))
            .sum::<f64>();
    let df = lags - fitted_params;
    Some(LjungBox {
        statistic,
        df,
        p_value: chi_square_sf(statistic, df as f64),
    })
}

/// Survival function of the χ² distribution: `P(X > x)` with `k` degrees
/// of freedom, via the regularized upper incomplete gamma function.
pub fn chi_square_sf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    1.0 - regularized_lower_gamma(k / 2.0, x / 2.0)
}

/// Regularized lower incomplete gamma `P(a, x)`, by series expansion for
/// `x < a + 1` and continued fraction otherwise (Numerical Recipes
/// `gammp`). Accurate to ~1e-10 over the range diagnostics need.
fn regularized_lower_gamma(a: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut ap = a;
        for _ in 0..500 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-14 {
                break;
            }
        }
        (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for the upper tail (Lentz's method).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-14 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// `ln Γ(z)` by the Lanczos approximation (g = 7, n = 9).
fn ln_gamma(z: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if z < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * z).sin()).ln() - ln_gamma(1.0 - z);
    }
    let z = z - 1.0;
    let mut x = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        x += c / (z + i as f64 + 1.0);
    }
    let t = z + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + x.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::Rng;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn chi_square_reference_points() {
        // Standard table values: P(X > 3.841 | k=1) ≈ 0.05,
        // P(X > 5.991 | k=2) ≈ 0.05, P(X > 18.307 | k=10) ≈ 0.05.
        assert!((chi_square_sf(3.841, 1.0) - 0.05).abs() < 2e-3);
        assert!((chi_square_sf(5.991, 2.0) - 0.05).abs() < 2e-3);
        assert!((chi_square_sf(18.307, 10.0) - 0.05).abs() < 2e-3);
        assert_eq!(chi_square_sf(0.0, 3.0), 1.0);
        assert!(chi_square_sf(1e6, 3.0) < 1e-12);
    }

    #[test]
    fn white_noise_passes_ljung_box() {
        let noise = Normal::new(0.0, 1.0);
        let mut rng = Rng::new(42);
        let xs: Vec<f64> = (0..2_000).map(|_| noise.sample(&mut rng)).collect();
        let lb = ljung_box(&xs, 20, 0).unwrap();
        assert!(lb.is_white(0.01), "white noise rejected: {lb:?}");
        assert_eq!(lb.df, 20);
    }

    #[test]
    fn autocorrelated_series_fails_ljung_box() {
        let noise = Normal::new(0.0, 1.0);
        let mut rng = Rng::new(43);
        let mut prev = 0.0;
        let xs: Vec<f64> = (0..2_000)
            .map(|_| {
                prev = 0.7 * prev + noise.sample(&mut rng);
                prev
            })
            .collect();
        let lb = ljung_box(&xs, 20, 0).unwrap();
        assert!(!lb.is_white(0.05), "AR(1) accepted as white: {lb:?}");
        assert!(lb.p_value < 1e-6);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(ljung_box(&[1.0, 2.0], 5, 0).is_none());
        assert!(ljung_box(&vec![3.0; 100], 10, 0).is_none(), "constant");
        assert!(ljung_box(&[1.0, 2.0, 3.0, 2.0, 1.0, 2.0], 3, 3).is_none());
    }
}
