//! Pipeline-level fault surface.
//!
//! [`PipelineError`] is what the fallible entry points —
//! [`crate::Analysis::try_run`], the incremental and streaming `try_*`
//! methods, and the scheduler's [`crate::passes::try_execute`] — return
//! when a named failpoint (see `ddos-failpoints`) injects a failure
//! mid-run. The crate-internal `check` shim consults the seam and
//! counts every injection on the [`ddos_obs::names::FAULTS_INJECTED`]
//! counter, so fault tests can assert the error they saw was the one
//! they scheduled. In release builds the seam is inert
//! (`ddos_failpoints::ACTIVE`), so `check` folds to `Ok(())`.

use std::fmt;

use ddos_obs::Obs;

/// An error surfaced by a fallible pipeline entry point.
///
/// Today the only source is the fault-injection seam; the enum is
/// non-exhaustive so real recoverable failures (e.g. a poisoned epoch
/// source) can join it without breaking matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// A failpoint fired: `failpoint` names the seam location and
    /// `hit` is the zero-based consult index the plan failed on.
    Fault {
        /// Failpoint name (one of `ddos_failpoints::names`).
        failpoint: String,
        /// Zero-based hit index at which the plan fired.
        hit: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Fault { failpoint, hit } => {
                write!(f, "injected fault at {failpoint} (hit {hit})")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

pub(crate) use ddos_failpoints::names::{EPOCH_MERGE, SCHEDULER_PASS};

/// Consult the failpoint `name`; `Err` when the installed plan
/// schedules a failure for this hit. Every injection bumps the
/// `faults/injected` counter on `obs` before surfacing.
#[inline]
pub(crate) fn check(name: &str, obs: &Obs) -> Result<(), PipelineError> {
    match ddos_failpoints::check(name) {
        Some(injected) => {
            obs.counter(ddos_obs::names::FAULTS_INJECTED).inc();
            Err(PipelineError::Fault {
                failpoint: injected.name,
                hit: injected.hit,
            })
        }
        None => Ok(()),
    }
}

/// Maps an error out of an infallible entry point. Reachable only when
/// a fault plan is installed under a non-`try_*` API — a test-harness
/// bug, not a data condition — so the message says which API to use.
#[inline]
pub(crate) fn infallible<T>(r: Result<T, PipelineError>) -> T {
    r.unwrap_or_else(|e| {
        panic!("fault injected under an infallible pipeline entry point ({e}); use the try_* variant under a FailPlan")
    })
}
