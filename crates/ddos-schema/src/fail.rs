//! Crate-internal shim over the `ddos-failpoints` seam.
//!
//! With the `failpoints` feature off this module compiles to empty
//! inline functions, so call sites stay zero-cost without sprinkling
//! `cfg` through the ingest paths. With the feature on, an injected
//! fault surfaces as [`SchemaError::Io`] carrying the failpoint name
//! and hit index — indistinguishable from a real I/O failure to
//! callers, which is the point.

use crate::error::SchemaError;

// Canonical names come from ddos-failpoints when the seam is compiled
// in. The feature-off fallbacks only keep call sites compiling — the
// stub `check` ignores its argument entirely.
#[cfg(feature = "failpoints")]
pub(crate) use ddos_failpoints::names::{
    INGEST_CSV_CHUNK, INGEST_FRAMED_FRAME, INGEST_FRAMED_HEADER, INGEST_OPEN,
};

#[cfg(not(feature = "failpoints"))]
mod names_off {
    pub const INGEST_OPEN: &str = "ingest/open";
    pub const INGEST_FRAMED_HEADER: &str = "ingest/framed/header";
    pub const INGEST_FRAMED_FRAME: &str = "ingest/framed/frame";
    pub const INGEST_CSV_CHUNK: &str = "ingest/csv/chunk";
}
#[cfg(not(feature = "failpoints"))]
pub(crate) use names_off::*;

/// Consult the failpoint `name`; `Err` when the installed plan
/// schedules a failure for this hit.
#[cfg(feature = "failpoints")]
#[inline]
pub(crate) fn check(name: &str) -> Result<(), SchemaError> {
    match ddos_failpoints::check(name) {
        Some(injected) => Err(SchemaError::Io(injected.to_string())),
        None => Ok(()),
    }
}

/// Feature-off stub: always succeeds, compiles to nothing.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn check(_name: &str) -> Result<(), SchemaError> {
    Ok(())
}

/// The calling thread's fault plan, handed to scoped decode workers so
/// their [`check`] calls see it (see `ddos_failpoints::Handoff`).
#[cfg(feature = "failpoints")]
pub(crate) use ddos_failpoints::Handoff;

/// Feature-off stub of the plan hand-off: zero-sized, compiles to
/// nothing.
#[cfg(not(feature = "failpoints"))]
pub(crate) struct Handoff;

#[cfg(not(feature = "failpoints"))]
impl Handoff {
    #[inline(always)]
    pub(crate) fn current() -> Handoff {
        Handoff
    }

    #[inline(always)]
    pub(crate) fn enter(&self) -> Handoff {
        Handoff
    }
}
