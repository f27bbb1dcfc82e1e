//! Statistics toolkit for the DDoS characterization pipeline.
//!
//! The paper's analyses are statistical: empirical CDFs of intervals and
//! durations (Figs. 3, 5, 7, 17), histograms of geolocation dispersion
//! (Figs. 10–11), descriptive moments quoted throughout, cosine similarity
//! between prediction and ground truth (Table IV), and an **ARIMA**
//! time-series model for source-location forecasting (§IV-A, Figs. 12–13).
//! The authors used an off-the-shelf stats stack; this crate is that
//! substrate, built from scratch:
//!
//! * [`descriptive`] — means, variances, medians and quantiles;
//! * [`ecdf`] — empirical CDFs with evaluation and quantiles;
//! * [`histogram`] — linear and logarithmic binning;
//! * [`similarity`] — cosine and Pearson similarity;
//! * [`fit`] — maximum-likelihood log-normal fitting and the
//!   Kolmogorov–Smirnov goodness-of-fit test;
//! * [`rng`] — a seedable xoshiro256++ generator (stable across `rand`
//!   versions, interoperable through `rand_core::RngCore`);
//! * [`dist`] — the samplers the trace generator needs (normal,
//!   log-normal, Pareto, Zipf, categorical, mixtures);
//! * [`timeseries`] — ACF, differencing, Nelder–Mead, and
//!   ARIMA(p,d,q) fitting by conditional sum of squares with Yule–Walker
//!   initialization, plus train/test forecast evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
pub mod dist;
pub mod ecdf;
pub mod fit;
pub mod histogram;
pub mod rng;
pub mod similarity;
pub mod timeseries;

pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use rng::Rng;
pub use similarity::{cosine_similarity, pearson_correlation};
pub use timeseries::arima::{ArimaFit, ArimaModel, ArimaSpec};
pub use timeseries::forecast::{evaluate_forecast, ForecastEval};
