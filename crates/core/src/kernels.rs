//! The context build's job-length knob, and the dense country slots the
//! grid-based passes share.
//!
//! Every analysis pass has exactly one body (DESIGN.md §12). The one
//! loop in the pipeline that cuts its work into jobs of a chosen length
//! is the per-family source resolution of every context build, one-shot
//! or appended, and [`KernelPolicy`] sets that length. Every policy
//! builds a bit-identical context, so the report bytes never depend on
//! it.

use ddos_schema::CountryCode;

/// How each [`EpochContext::append`] cuts a family's attacks into
/// resolution jobs for its pool, in a one-shot build
/// ([`AnalysisContext::build_kernels`]) as in the epoch engine.
///
/// [`EpochContext::append`]: crate::epoch::EpochContext::append
/// [`AnalysisContext::build_kernels`]: crate::context::AnalysisContext::build_kernels
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// One job per available worker per family (the default).
    #[default]
    Auto,
    /// Jobs of a fixed number of attacks (clamped to ≥ 1). Tests use it
    /// to force multi-job merges on any core count: length 1 makes every
    /// attack its own job.
    Chunked(usize),
}

/// Number of dense [`cc_slot`] values (26 × 26 two-letter codes).
pub(crate) const CC_SLOTS: usize = 26 * 26;

/// Dense array slot of a country code: both bytes are ASCII uppercase
/// by `CountryCode`'s invariant, so codes index `[0, 26 * 26)` — the
/// shift and country passes count on flat grids instead of hash maps.
#[inline]
pub(crate) fn cc_slot(cc: CountryCode) -> usize {
    let b = cc.as_str().as_bytes();
    (b[0] - b'A') as usize * 26 + (b[1] - b'A') as usize
}

/// Inverse of [`cc_slot`]: the country code a dense slot denotes. Slots
/// come from `cc_slot`, so the two bytes are always uppercase ASCII.
#[inline]
pub(crate) fn cc_of_slot(slot: usize) -> CountryCode {
    CountryCode::new(b'A' + (slot / 26) as u8, b'A' + (slot % 26) as u8)
        .expect("dense slot maps to an uppercase ASCII pair")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_slots_are_dense_and_distinct() {
        let us = cc_slot("US".parse().unwrap());
        let ru = cc_slot("RU".parse().unwrap());
        assert!(us < CC_SLOTS && ru < CC_SLOTS);
        assert_ne!(us, ru);
        assert_eq!(cc_slot("AA".parse().unwrap()), 0);
        assert_eq!(cc_slot("ZZ".parse().unwrap()), CC_SLOTS - 1);
    }

    #[test]
    fn cc_of_slot_inverts_cc_slot() {
        for slot in 0..CC_SLOTS {
            assert_eq!(cc_slot(cc_of_slot(slot)), slot);
        }
    }
}
