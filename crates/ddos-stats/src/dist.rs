//! Sampling distributions for the trace generator.
//!
//! These are the generative building blocks `ddos-sim` uses to reproduce
//! the paper's marginals: log-normal bodies for durations and intervals,
//! Pareto tails for the rare multi-week gaps, Zipf for target popularity,
//! categorical draws for protocol and country preferences, and mixtures
//! to compose them.

use crate::rng::Rng;

/// A sampleable distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;
}

/// Normal distribution (Marsaglia polar method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (must be ≥ 0).
    pub std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution; panics if `std_dev` is negative or
    /// not finite.
    pub fn new(mean: f64, std_dev: f64) -> Normal {
        assert!(std_dev >= 0.0 && std_dev.is_finite(), "bad std_dev");
        Normal { mean, std_dev }
    }

    /// One standard-normal draw.
    fn standard(rng: &mut Rng) -> f64 {
        loop {
            let u = rng.f64() * 2.0 - 1.0;
            let v = rng.f64() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.std_dev * Normal::standard(rng)
    }
}

/// Log-normal distribution parameterized by the underlying normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X` (must be ≥ 0).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal; panics on a negative or non-finite `sigma`.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(sigma >= 0.0 && sigma.is_finite(), "bad sigma");
        LogNormal { mu, sigma }
    }

    /// Builds the log-normal whose *median* is `median` and whose body
    /// spread is `sigma` — convenient when calibrating to the paper's
    /// quoted medians.
    pub fn from_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// The distribution mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
    }
}

/// Pareto (type I) distribution: heavy tail for rare huge gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale (minimum value, > 0).
    pub x_min: f64,
    /// Shape (tail index, > 0; smaller = heavier tail).
    pub alpha: f64,
}

impl Pareto {
    /// Creates a Pareto; panics on non-positive parameters.
    pub fn new(x_min: f64, alpha: f64) -> Pareto {
        assert!(x_min > 0.0 && alpha > 0.0, "bad pareto params");
        Pareto { x_min, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.x_min / (1.0 - rng.f64()).powf(1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `1..=n` (popularity skew for targets).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf with `n` ranks and exponent `s` (> 0). O(n) setup,
    /// O(log n) sampling via the precomputed CDF.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0 && s > 0.0, "bad zipf params");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) + 1
    }

    /// Samples a zero-based index in `0..n`.
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        self.sample_rank(rng) - 1
    }
}

/// Categorical distribution over weighted alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Builds from non-negative weights; returns `None` if the weights
    /// are empty or all zero.
    pub fn new(weights: &[f64]) -> Option<Categorical> {
        if weights.is_empty() || weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Some(Categorical { cdf })
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether there are no alternatives (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples an index in `0..len`.
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A weighted mixture of component distributions.
pub struct Mixture {
    weights: Categorical,
    components: Vec<Box<dyn Distribution + Send + Sync>>,
}

impl Mixture {
    /// Builds a mixture; returns `None` on empty/invalid weights or a
    /// component-count mismatch.
    pub fn new(
        weights: &[f64],
        components: Vec<Box<dyn Distribution + Send + Sync>>,
    ) -> Option<Mixture> {
        if weights.len() != components.len() {
            return None;
        }
        Some(Mixture {
            weights: Categorical::new(weights)?,
            components,
        })
    }
}

impl Distribution for Mixture {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let i = self.weights.sample_index(rng);
        self.components[i].sample(rng)
    }
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mixture")
            .field("components", &self.components.len())
            .finish()
    }
}

/// A point mass at a constant (useful as a mixture component, e.g. the
/// "simultaneous attack" spike at interval zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, std_dev};

    fn draw<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn normal_moments() {
        let xs = draw(&Normal::new(10.0, 2.0), 50_000, 1);
        assert!((mean(&xs).unwrap() - 10.0).abs() < 0.05);
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 0.05);
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let d = LogNormal::from_median(1_766.0, 1.2);
        let xs = draw(&d, 50_000, 2);
        assert!(xs.iter().all(|&x| x > 0.0));
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            (median / 1_766.0 - 1.0).abs() < 0.1,
            "median {median} vs 1766"
        );
        assert!((d.mean() / (1_766.0f64.ln() + 0.72).exp() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_respects_minimum_and_is_heavy() {
        let xs = draw(&Pareto::new(10.0, 1.5), 50_000, 4);
        assert!(xs.iter().all(|&x| x >= 10.0));
        let huge = xs.iter().filter(|&&x| x > 1_000.0).count();
        assert!(huge > 10, "tail too light: {huge}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.2);
        let mut rng = Rng::new(5);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        assert!(counts[0] as f64 / 50_000.0 > 0.1);
    }

    #[test]
    fn categorical_respects_weights() {
        let c = Categorical::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut rng = Rng::new(6);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[c.sample_index(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_none());
        assert!(Categorical::new(&[0.0, 0.0]).is_none());
        assert!(Categorical::new(&[-1.0, 2.0]).is_none());
        assert!(Categorical::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn mixture_blends_components() {
        let m = Mixture::new(
            &[0.5, 0.5],
            vec![Box::new(Constant(0.0)), Box::new(Constant(100.0))],
        )
        .unwrap();
        let xs = draw(&m, 10_000, 8);
        let zeros = xs.iter().filter(|&&x| x == 0.0).count();
        assert!((zeros as f64 / 10_000.0 - 0.5).abs() < 0.05);
        assert!(Mixture::new(&[1.0], vec![]).is_none());
    }

    #[test]
    fn constant_is_constant() {
        let xs = draw(&Constant(7.5), 10, 9);
        assert!(xs.iter().all(|&x| x == 7.5));
    }
}
