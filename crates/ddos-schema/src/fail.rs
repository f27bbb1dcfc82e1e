//! Crate-internal shim over the `ddos-failpoints` seam.
//!
//! An injected fault surfaces as [`SchemaError::Io`] carrying the
//! failpoint name and hit index — indistinguishable from a real I/O
//! failure to callers, which is the point. In release builds the seam
//! is inert (`ddos_failpoints::ACTIVE`), so `check` folds to `Ok(())`.

use crate::error::SchemaError;

pub(crate) use ddos_failpoints::names::{
    INGEST_CSV_CHUNK, INGEST_FRAMED_FRAME, INGEST_FRAMED_HEADER, INGEST_OPEN,
};

/// The calling thread's fault plan, handed to scoped decode workers so
/// their [`check`] calls see it (see `ddos_failpoints::Handoff`).
pub(crate) use ddos_failpoints::Handoff;

/// Consult the failpoint `name`; `Err` when the installed plan
/// schedules a failure for this hit.
#[inline]
pub(crate) fn check(name: &str) -> Result<(), SchemaError> {
    match ddos_failpoints::check(name) {
        Some(injected) => Err(SchemaError::Io(injected.to_string())),
        None => Ok(()),
    }
}
