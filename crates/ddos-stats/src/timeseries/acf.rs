//! Autocorrelation (ACF) and the Yule–Walker AR estimates built on it.

/// Sample autocorrelation at lags `0..=max_lag`.
///
/// Uses the biased (1/n) estimator, the standard choice for ACF because
/// it guarantees a positive semi-definite autocovariance sequence (which
/// Yule–Walker fitting depends on). Returns `None` for constant or
/// too-short series.
pub fn acf(xs: &[f64], max_lag: usize) -> Option<Vec<f64>> {
    let n = xs.len();
    if n < 2 || max_lag >= n {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let c0: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    if c0 <= 0.0 {
        return None;
    }
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let ck: f64 = (0..n - lag)
            .map(|t| (xs[t] - mean) * (xs[t + lag] - mean))
            .sum::<f64>()
            / n as f64;
        out.push(ck / c0);
    }
    Some(out)
}

/// Yule–Walker AR(p) coefficient estimates from the sample ACF, via the
/// same Durbin–Levinson recursion. Used to initialize the CSS optimizer.
pub fn yule_walker(xs: &[f64], p: usize) -> Option<Vec<f64>> {
    if p == 0 {
        return Some(Vec::new());
    }
    let rho = acf(xs, p)?;
    let mut phi: Vec<f64> = vec![rho[1]];
    for k in 2..=p {
        let num = rho[k]
            - phi
                .iter()
                .enumerate()
                .map(|(j, &c)| c * rho[k - 1 - j])
                .sum::<f64>();
        let den = 1.0
            - phi
                .iter()
                .enumerate()
                .map(|(j, &c)| c * rho[j + 1])
                .sum::<f64>();
        let phi_kk = if den.abs() < 1e-12 { 0.0 } else { num / den };
        let mut next = Vec::with_capacity(k);
        for j in 0..k - 1 {
            next.push(phi[j] - phi_kk * phi[k - 2 - j]);
        }
        next.push(phi_kk);
        phi = next;
    }
    Some(phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::Rng;

    fn ar1_series(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let noise = Normal::new(0.0, 1.0);
        let mut rng = Rng::new(seed);
        let mut xs = Vec::with_capacity(n);
        let mut prev = 0.0;
        for _ in 0..n {
            prev = phi * prev + noise.sample(&mut rng);
            xs.push(prev);
        }
        xs
    }

    #[test]
    fn acf_lag_zero_is_one() {
        let xs = ar1_series(0.5, 500, 1);
        let a = acf(&xs, 5).unwrap();
        assert_eq!(a[0], 1.0);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let xs = ar1_series(0.8, 20_000, 2);
        let a = acf(&xs, 3).unwrap();
        assert!((a[1] - 0.8).abs() < 0.05, "lag1 {}", a[1]);
        assert!((a[2] - 0.64).abs() < 0.07, "lag2 {}", a[2]);
    }

    #[test]
    fn acf_rejects_degenerate_input() {
        assert!(acf(&[1.0], 0).is_none());
        assert!(acf(&[2.0, 2.0, 2.0], 1).is_none(), "constant series");
        assert!(acf(&[1.0, 2.0], 5).is_none(), "lag beyond length");
    }

    #[test]
    fn yule_walker_recovers_ar1() {
        let xs = ar1_series(0.6, 20_000, 4);
        let phi = yule_walker(&xs, 1).unwrap();
        assert!((phi[0] - 0.6).abs() < 0.05, "{}", phi[0]);
    }

    #[test]
    fn yule_walker_recovers_ar2() {
        // X_t = 0.5 X_{t-1} + 0.3 X_{t-2} + e.
        let noise = Normal::new(0.0, 1.0);
        let mut rng = Rng::new(5);
        let mut xs = vec![0.0, 0.0];
        for t in 2..30_000 {
            let v = 0.5 * xs[t - 1] + 0.3 * xs[t - 2] + noise.sample(&mut rng);
            xs.push(v);
        }
        let phi = yule_walker(&xs, 2).unwrap();
        assert!((phi[0] - 0.5).abs() < 0.06, "{:?}", phi);
        assert!((phi[1] - 0.3).abs() < 0.06, "{:?}", phi);
    }

    #[test]
    fn yule_walker_zero_order() {
        assert_eq!(yule_walker(&[1.0, 2.0, 3.0], 0), Some(vec![]));
    }
}
