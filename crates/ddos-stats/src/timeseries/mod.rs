//! Time-series analysis: the machinery behind the paper's source
//! prediction (§IV-A).
//!
//! The paper fits an **ARIMA** model to the per-snapshot geolocation
//! dispersion series of each botnet family, splits the data in half,
//! predicts the second half, and reports mean/std/cosine-similarity
//! between prediction and ground truth (Table IV, Figs. 12–13). This
//! module provides that pipeline end-to-end:
//!
//! * [`acf`] — autocorrelation and partial autocorrelation;
//! * [`diff`] — differencing and re-integration (the "I" in ARIMA);
//! * [`optimize`] — a dependency-free Nelder–Mead simplex minimizer;
//! * [`arima`] — ARIMA(p,d,q) fitting by conditional sum of squares with
//!   Yule–Walker initialization, plus multi-step and rolling one-step
//!   forecasts;
//! * [`forecast`] — train/test evaluation producing the paper's Table IV
//!   statistics;
//! * [`diagnostics`] — Ljung–Box residual whiteness tests.

pub mod acf;
pub mod arima;
pub mod diagnostics;
pub mod diff;
pub mod forecast;
pub mod optimize;
