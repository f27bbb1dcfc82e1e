//! ARIMA(p, d, q) modeling.
//!
//! The paper: *"we use the Autoregressive Integrated Moving Average
//! (ARIMA) model, which is one of the popular linear models in time
//! series forecasting"* (§IV-A). This implementation fits by
//! **conditional sum of squares** (CSS): the series is differenced `d`
//! times, demeaned, AR coefficients are initialized by Yule–Walker, and a
//! Nelder–Mead search minimizes the sum of squared one-step innovations.
//! CSS is self-regularizing against explosive AR roots (the objective
//! blows up), which keeps the optimizer inside the sane region without a
//! constraint solver.

use serde::{Deserialize, Serialize};

use crate::descriptive::mean;
use crate::timeseries::acf::yule_walker;
use crate::timeseries::diff::{difference, integrate};
use crate::timeseries::optimize::{nelder_mead, Options};

/// Model order: AR terms `p`, differencing `d`, MA terms `q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArimaSpec {
    /// Autoregressive order.
    pub p: usize,
    /// Differencing order.
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

impl ArimaSpec {
    /// Creates a spec.
    pub const fn new(p: usize, d: usize, q: usize) -> ArimaSpec {
        ArimaSpec { p, d, q }
    }

    /// The default order used for the paper's dispersion series.
    ///
    /// The dispersion series are locally stationary with slow level
    /// shifts, which a single difference absorbs; (2,1,1) matched or beat
    /// neighboring orders on CSS across families in our calibration runs
    /// (the `prediction` bench sweeps the grid).
    pub const DEFAULT: ArimaSpec = ArimaSpec::new(2, 1, 1);

    /// Number of free coefficients (`p + q`).
    pub fn num_params(&self) -> usize {
        self.p + self.q
    }
}

impl std::fmt::Display for ArimaSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ARIMA({},{},{})", self.p, self.d, self.q)
    }
}

/// Errors from fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArimaError {
    /// The series is too short for the requested order.
    TooShort {
        /// Minimum observations needed.
        needed: usize,
        /// Observations provided.
        got: usize,
    },
    /// The series contains NaN or infinite values.
    NonFinite,
}

impl std::fmt::Display for ArimaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArimaError::TooShort { needed, got } => {
                write!(f, "series too short: need >= {needed}, got {got}")
            }
            ArimaError::NonFinite => write!(f, "series contains non-finite values"),
        }
    }
}

impl std::error::Error for ArimaError {}

/// A fitted ARIMA model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaModel {
    /// Model order.
    pub spec: ArimaSpec,
    /// Mean of the differenced series (the drift/intercept).
    pub mean: f64,
    /// AR coefficients φ₁..φ_p.
    pub phi: Vec<f64>,
    /// MA coefficients θ₁..θ_q.
    pub theta: Vec<f64>,
    /// Innovation variance estimate (SSE / n).
    pub sigma2: f64,
}

/// Fit diagnostics alongside the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaFit {
    /// The fitted model.
    pub model: ArimaModel,
    /// Conditional sum of squared innovations at the optimum.
    pub sse: f64,
    /// Optimizer iterations.
    pub iterations: usize,
    /// Whether the optimizer converged (vs iteration cap).
    pub converged: bool,
}

impl ArimaModel {
    /// Fits the model to `series` by CSS.
    ///
    /// Needs at least `d + max(p, q) + 8` observations. Constant series
    /// fit trivially (all coefficients zero, σ² = 0).
    pub fn fit(series: &[f64], spec: ArimaSpec) -> Result<ArimaFit, ArimaError> {
        let needed = spec.d + spec.p.max(spec.q) + 8;
        if series.len() < needed {
            return Err(ArimaError::TooShort {
                needed,
                got: series.len(),
            });
        }
        if series.iter().any(|v| !v.is_finite()) {
            return Err(ArimaError::NonFinite);
        }
        let w = difference(series, spec.d).expect("length checked");
        let mu = mean(&w).expect("non-empty");
        let z: Vec<f64> = w.iter().map(|v| v - mu).collect();

        // Degenerate (constant after differencing): nothing to optimize.
        if z.iter().all(|v| v.abs() < 1e-12) {
            return Ok(ArimaFit {
                model: ArimaModel {
                    spec,
                    mean: mu,
                    phi: vec![0.0; spec.p],
                    theta: vec![0.0; spec.q],
                    sigma2: 0.0,
                },
                sse: 0.0,
                iterations: 0,
                converged: true,
            });
        }

        let mut x0 = yule_walker(&z, spec.p).unwrap_or_else(|| vec![0.0; spec.p]);
        // Clamp a wild Yule–Walker start back into the plausible region.
        for v in &mut x0 {
            *v = v.clamp(-0.95, 0.95);
        }
        x0.extend(std::iter::repeat(0.0).take(spec.q));

        let objective = |params: &[f64]| css(&z, spec, params);
        let result = nelder_mead(
            objective,
            &x0,
            Options {
                max_iterations: 500 * (1 + spec.num_params()),
                ..Options::default()
            },
        );
        let (phi, theta) = result.x.split_at(spec.p);
        let sse = result.value;
        Ok(ArimaFit {
            model: ArimaModel {
                spec,
                mean: mu,
                phi: phi.to_vec(),
                theta: theta.to_vec(),
                sigma2: sse / z.len() as f64,
            },
            sse,
            iterations: result.iterations,
            converged: result.converged,
        })
    }

    /// One-step innovations over a centered, differenced series.
    fn innovations(&self, z: &[f64]) -> Vec<f64> {
        innovations_for(z, &self.phi, &self.theta)
    }

    /// Multi-step forecast: the next `horizon` values after `history`,
    /// on the original (undifferenced) scale.
    ///
    /// Returns `None` when `history` is shorter than the differencing
    /// order allows.
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Option<Vec<f64>> {
        let spec = self.spec;
        let w = difference(history, spec.d)?;
        let mut z: Vec<f64> = w.iter().map(|v| v - self.mean).collect();
        let mut e = self.innovations(&z);

        let n = z.len();
        let mut out_z = Vec::with_capacity(horizon);
        for k in 0..horizon {
            let t = n + k;
            let mut pred = 0.0;
            for (i, &p) in self.phi.iter().enumerate() {
                if t > i {
                    pred += p * z[t - 1 - i];
                }
            }
            for (j, &q) in self.theta.iter().enumerate() {
                if t > j {
                    pred += q * e[t - 1 - j];
                }
            }
            z.push(pred);
            e.push(0.0); // future innovations are zero in expectation
            out_z.push(pred);
        }
        let w_hat: Vec<f64> = out_z.iter().map(|v| v + self.mean).collect();
        integrate(&w_hat, history, spec.d)
    }

    /// Rolling one-step-ahead predictions over `test`, conditioning each
    /// step on the *actual* history up to that point (the paper's
    /// evaluation protocol for Figs. 12–13: fit once on the first half,
    /// then predict each held-out point from everything before it).
    ///
    /// Returns one prediction per element of `test`, on the original
    /// scale, or `None` if `history` is too short for the differencing
    /// order.
    pub fn rolling_one_step(&self, history: &[f64], test: &[f64]) -> Option<Vec<f64>> {
        let spec = self.spec;
        if history.len() <= spec.d {
            return None;
        }
        let mut full = Vec::with_capacity(history.len() + test.len());
        full.extend_from_slice(history);
        full.extend_from_slice(test);
        let w = difference(&full, spec.d)?;
        let z: Vec<f64> = w.iter().map(|v| v - self.mean).collect();
        let e = self.innovations(&z);

        // In z-index space the first test point sits at this offset.
        let first = history.len() - spec.d;
        let mut preds = Vec::with_capacity(test.len());
        for (k, &actual) in test.iter().enumerate() {
            let t = first + k;
            let mut zhat = 0.0;
            for (i, &p) in self.phi.iter().enumerate() {
                if t > i {
                    zhat += p * z[t - 1 - i];
                }
            }
            for (j, &q) in self.theta.iter().enumerate() {
                if t > j {
                    zhat += q * e[t - 1 - j];
                }
            }
            let w_hat = zhat + self.mean;
            // Undo differencing against the actual previous values:
            // x̂_t = x_t − w_t + ŵ_t  (w_t is the actual d-th difference).
            preds.push(actual - w[t] + w_hat);
        }
        Some(preds)
    }
}

/// One-step innovations for given coefficients (shared by fitting and
/// prediction).
fn innovations_for(z: &[f64], phi: &[f64], theta: &[f64]) -> Vec<f64> {
    let mut e = Vec::with_capacity(z.len());
    for t in 0..z.len() {
        let mut pred = 0.0;
        for (i, &p) in phi.iter().enumerate() {
            if t > i {
                pred += p * z[t - 1 - i];
            }
        }
        for (j, &q) in theta.iter().enumerate() {
            if t > j {
                pred += q * e[t - 1 - j];
            }
        }
        e.push(z[t] - pred);
    }
    e
}

/// Conditional sum of squares for a parameter vector `[phi.., theta..]`.
///
/// Orders with `p, q <= 3` (the default order and the ablation grid)
/// run [`css_fixed`]; larger orders run [`css_loop`]. Both return the
/// same bits.
fn css(z: &[f64], spec: ArimaSpec, params: &[f64]) -> f64 {
    macro_rules! dispatch {
        ($($p:literal: [$($q:literal)*])*) => {
            match (spec.p, spec.q) {
                $($(($p, $q) => css_fixed::<$p, $q>(z, params),)*)*
                _ => css_loop(z, spec, params),
            }
        };
    }
    dispatch! {
        0: [0 1 2 3]
        1: [0 1 2 3]
        2: [0 1 2 3]
        3: [0 1 2 3]
    }
}

/// [`css_loop`] for a fixed order. The first `max(P, Q)` steps run the
/// general loop's bounds-checked sums; after them every lag exists, so
/// the steady state keeps the last `Q` innovations in a local array
/// (`hist[j]` is `e[t - 1 - j]`) instead of a growing vector. Each
/// prediction adds its terms in the general loop's order — `0.0`, then
/// φ₁..φ_p, then θ₁..θ_q — so every sum rounds the same and the result
/// is bit-identical.
fn css_fixed<const P: usize, const Q: usize>(z: &[f64], params: &[f64]) -> f64 {
    let phi: [f64; P] = params[..P].try_into().expect("P AR coefficients");
    let theta: [f64; Q] = params[P..].try_into().expect("Q MA coefficients");
    let mut hist = [0.0f64; Q];
    let mut sse = 0.0;
    let warm = P.max(Q).min(z.len());
    for t in 0..warm {
        let mut pred = 0.0;
        for (i, &p) in phi.iter().enumerate() {
            if t > i {
                pred += p * z[t - 1 - i];
            }
        }
        for (j, &q) in theta.iter().enumerate() {
            if t > j {
                pred += q * hist[j];
            }
        }
        let err = z[t] - pred;
        if !err.is_finite() {
            return f64::INFINITY;
        }
        sse += err * err;
        push_innovation(&mut hist, err);
    }
    // Past the warm-up `w[P]` is z[t] and `w[P - 1 - i]` is z[t - 1 - i].
    for w in z[warm - P.min(warm)..].windows(P + 1) {
        let mut pred = 0.0;
        for (i, &p) in phi.iter().enumerate() {
            pred += p * w[P - 1 - i];
        }
        for (&q, &e) in theta.iter().zip(&hist) {
            pred += q * e;
        }
        let err = w[P] - pred;
        if !err.is_finite() {
            return f64::INFINITY;
        }
        sse += err * err;
        push_innovation(&mut hist, err);
    }
    sse
}

/// Shifts the newest innovation into `hist` (`hist[0]` is the newest).
#[inline(always)]
fn push_innovation<const Q: usize>(hist: &mut [f64; Q], err: f64) {
    if Q > 0 {
        hist.copy_within(..Q - 1, 1);
        hist[0] = err;
    }
}

/// The general CSS loop, for any order.
fn css_loop(z: &[f64], spec: ArimaSpec, params: &[f64]) -> f64 {
    let (phi, theta) = params.split_at(spec.p);
    let mut sse = 0.0;
    let mut e: Vec<f64> = Vec::with_capacity(z.len());
    for t in 0..z.len() {
        let mut pred = 0.0;
        for (i, &p) in phi.iter().enumerate() {
            if t > i {
                pred += p * z[t - 1 - i];
            }
        }
        for (j, &q) in theta.iter().enumerate() {
            if t > j {
                pred += q * e[t - 1 - j];
            }
        }
        let err = z[t] - pred;
        if !err.is_finite() {
            return f64::INFINITY;
        }
        sse += err * err;
        e.push(err);
    }
    sse
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::Rng;
    use proptest::prelude::*;

    fn ar1(phi: f64, n: usize, seed: u64) -> Vec<f64> {
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
    fn fit_recovers_ar1_coefficient() {
        let xs = ar1(0.7, 5_000, 1);
        let fit = ArimaModel::fit(&xs, ArimaSpec::new(1, 0, 0)).unwrap();
        assert!(
            (fit.model.phi[0] - 0.7).abs() < 0.05,
            "phi {:?}",
            fit.model.phi
        );
        assert!(
            (fit.model.sigma2 - 1.0).abs() < 0.1,
            "σ² {}",
            fit.model.sigma2
        );
    }

    #[test]
    fn fit_recovers_ma1_coefficient() {
        // X_t = e_t + 0.6 e_{t-1}.
        let noise = Normal::new(0.0, 1.0);
        let mut rng = Rng::new(2);
        let mut prev_e = 0.0;
        let xs: Vec<f64> = (0..5_000)
            .map(|_| {
                let e = noise.sample(&mut rng);
                let x = e + 0.6 * prev_e;
                prev_e = e;
                x
            })
            .collect();
        let fit = ArimaModel::fit(&xs, ArimaSpec::new(0, 0, 1)).unwrap();
        assert!(
            (fit.model.theta[0] - 0.6).abs() < 0.07,
            "theta {:?}",
            fit.model.theta
        );
    }

    #[test]
    fn fit_handles_random_walk_with_drift() {
        // x_t = x_{t-1} + 0.5 + e: after d=1 it's white noise, mean 0.5.
        let noise = Normal::new(0.0, 0.3);
        let mut rng = Rng::new(3);
        let mut x = 0.0;
        let xs: Vec<f64> = (0..2_000)
            .map(|_| {
                x += 0.5 + noise.sample(&mut rng);
                x
            })
            .collect();
        let fit = ArimaModel::fit(&xs, ArimaSpec::new(0, 1, 0)).unwrap();
        assert!(
            (fit.model.mean - 0.5).abs() < 0.05,
            "mean {}",
            fit.model.mean
        );
        let fc = fit.model.forecast(&xs, 3).unwrap();
        let last = *xs.last().unwrap();
        assert!((fc[0] - (last + 0.5)).abs() < 0.1);
        assert!((fc[2] - (last + 1.5)).abs() < 0.2);
    }

    #[test]
    fn constant_series_fits_trivially() {
        let xs = vec![5.0; 100];
        let fit = ArimaModel::fit(&xs, ArimaSpec::new(2, 0, 1)).unwrap();
        assert_eq!(fit.model.sigma2, 0.0);
        assert_eq!(fit.model.mean, 5.0);
        let fc = fit.model.forecast(&xs, 4).unwrap();
        for v in fc {
            assert!((v - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_on_short_or_bad_input() {
        assert!(matches!(
            ArimaModel::fit(&[1.0, 2.0], ArimaSpec::DEFAULT),
            Err(ArimaError::TooShort { .. })
        ));
        let mut xs = ar1(0.5, 100, 4);
        xs[50] = f64::NAN;
        assert_eq!(
            ArimaModel::fit(&xs, ArimaSpec::new(1, 0, 0)),
            Err(ArimaError::NonFinite)
        );
    }

    #[test]
    fn forecast_of_ar1_decays_toward_mean() {
        let xs = ar1(0.8, 3_000, 5);
        let fit = ArimaModel::fit(&xs, ArimaSpec::new(1, 0, 0)).unwrap();
        let fc = fit.model.forecast(&xs, 50).unwrap();
        // Long-horizon AR(1) forecasts converge to the series mean (~0).
        assert!(fc[49].abs() < 0.3, "horizon-50 {}", fc[49]);
    }

    #[test]
    fn rolling_one_step_beats_naive_on_ar1() {
        let xs = ar1(0.8, 4_000, 6);
        let (train, test) = xs.split_at(2_000);
        let fit = ArimaModel::fit(train, ArimaSpec::new(1, 0, 0)).unwrap();
        let preds = fit.model.rolling_one_step(train, test).unwrap();
        assert_eq!(preds.len(), test.len());
        let model_sse: f64 = preds.iter().zip(test).map(|(p, t)| (p - t).powi(2)).sum();
        // Naive predictor: repeat the previous value.
        let mut naive_sse = 0.0;
        let mut prev = train[train.len() - 1];
        for &t in test {
            naive_sse += (prev - t).powi(2);
            prev = t;
        }
        assert!(
            model_sse < naive_sse,
            "model {model_sse} vs naive {naive_sse}"
        );
    }

    #[test]
    fn rolling_one_step_with_differencing_round_trips() {
        let noise = Normal::new(0.0, 1.0);
        let mut rng = Rng::new(7);
        let mut x = 100.0;
        let xs: Vec<f64> = (0..1_000)
            .map(|_| {
                x += noise.sample(&mut rng);
                x
            })
            .collect();
        let (train, test) = xs.split_at(500);
        let fit = ArimaModel::fit(train, ArimaSpec::new(1, 1, 1)).unwrap();
        let preds = fit.model.rolling_one_step(train, test).unwrap();
        // Random-walk one-step predictions track the series closely.
        let mae: f64 = preds
            .iter()
            .zip(test)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / test.len() as f64;
        assert!(mae < 2.0, "mae {mae}");
    }

    /// Bit-level comparison of the dispatched objective with the
    /// general loop for one `(p, q)`.
    fn assert_css_matches_loop(z: &[f64], p: usize, q: usize, params: &[f64]) {
        let spec = ArimaSpec::new(p, 0, q);
        let params = &params[..p + q];
        assert_eq!(
            css(z, spec, params).to_bits(),
            css_loop(z, spec, params).to_bits(),
            "ARIMA({p},0,{q}) over {} points, params {params:?}",
            z.len()
        );
    }

    proptest! {
        #[test]
        fn fixed_order_css_is_bit_identical_to_the_loop(
            z in proptest::collection::vec(-1e3f64..1e3, 1..64),
            at in 0usize..64,
            params in proptest::collection::vec(-1.5f64..1.5, 6),
        ) {
            let k = at % z.len();
            let with = |bad: f64| {
                let mut z = z.clone();
                z[k] = bad;
                z
            };
            let (nan, inf) = (with(f64::NAN), with(f64::NEG_INFINITY));
            for p in 0..=3 {
                for q in 0..=3 {
                    // Shorter than the warm-up and just past it, the
                    // whole series, and a non-finite value.
                    let warm = p.max(q);
                    for series in [
                        &z[..warm.min(z.len())],
                        &z[..(warm + 1).min(z.len())],
                        &z[..],
                        &nan[..],
                        &inf[..],
                    ] {
                        assert_css_matches_loop(series, p, q, &params);
                    }
                }
            }
        }
    }

    #[test]
    fn spec_display_and_params() {
        let s = ArimaSpec::new(2, 1, 1);
        assert_eq!(s.to_string(), "ARIMA(2,1,1)");
        assert_eq!(s.num_params(), 3);
        assert_eq!(ArimaSpec::DEFAULT, s);
    }
}
