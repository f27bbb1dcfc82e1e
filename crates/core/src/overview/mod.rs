//! §III — overview of the DDoS attacks: protocol mix, daily density,
//! inter-attack intervals, durations.

pub mod activity;
pub mod daily;
pub mod duration;
pub mod intervals;
pub mod protocols;

/// An ascending copy of an in-order sample that grows with it — the
/// state the duration and interval statistics passes carry from one
/// append to the next.
///
/// The copy covers a prefix of the sample: [`SortedSample::sync`] sorts
/// only the values past it and merges them in. The merged copy holds
/// the same multiset as a full sort of the sample, so a quantile read
/// from it ([`ddos_stats::descriptive::quantile_sorted`]) reads the same
/// ranks and returns the same bits. The samples it serves are integer
/// seconds converted to `f64`, so no `-0.0` can sit beside a `0.0`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortedSample {
    sorted: Vec<f64>,
}

impl SortedSample {
    /// Brings the copy up to `sample`, whose first `len()` values it
    /// already covers, and returns it. A sample shorter than the copy
    /// starts it over.
    ///
    /// # Panics
    ///
    /// If a new value is NaN.
    pub fn sync(&mut self, sample: &[f64]) -> &[f64] {
        if sample.len() < self.sorted.len() {
            self.sorted.clear();
        }
        let old = self.sorted.len();
        let mut fresh = sample[old..].to_vec();
        fresh.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sorted sample"));
        // Merge from the back: each new value, largest first, lands
        // after every old value above it.
        self.sorted.resize(sample.len(), 0.0);
        let (mut i, mut k) = (old, sample.len());
        for &x in fresh.iter().rev() {
            while i > 0 && self.sorted[i - 1] > x {
                k -= 1;
                i -= 1;
                self.sorted[k] = self.sorted[i];
            }
            k -= 1;
            self.sorted[k] = x;
        }
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::SortedSample;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn synced_prefixes_equal_a_full_sort(
            xs in proptest::collection::vec(-50i64..50, 0..80),
            cuts in proptest::collection::vec(0usize..80, 0..6),
        ) {
            let xs: Vec<f64> = xs.into_iter().map(|v| v as f64).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(xs.len())).collect();
            cuts.sort_unstable();
            cuts.push(xs.len());
            let mut sample = SortedSample::default();
            for &cut in &cuts {
                let mut expect = xs[..cut].to_vec();
                expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
                prop_assert_eq!(sample.sync(&xs[..cut]), &expect[..]);
            }
            // A shorter sample starts the copy over.
            let half = xs.len() / 2;
            let mut expect = xs[..half].to_vec();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(sample.sync(&xs[..half]), &expect[..]);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! The testkit's hand-built miniature datasets, plus the epoch
    //! replay that hands out this crate's contexts.

    use ddos_obs::Obs;
    use ddos_schema::{Dataset, Seconds};
    use ddos_stats::ArimaSpec;
    pub use ddos_testkit::fixtures::{
        attack, carry_fixture, dataset, location, window, CARRY_EPOCH,
    };

    use crate::context::AnalysisContext;
    use crate::epoch::EpochContext;
    use crate::kernels::KernelPolicy;

    /// Appends `ds` to an epoch fold one `len` epoch at a time and calls
    /// `check(w, prefix, folded)` at each watermark `w`: `prefix` is
    /// [`Dataset::epoch_prefix`] of the first `w` epochs (the oracle a
    /// fresh context is built over), `folded` the fold's context.
    pub fn for_each_watermark(
        ds: &Dataset,
        len: Seconds,
        mut check: impl FnMut(usize, &Dataset, &AnalysisContext<'_>),
    ) {
        let obs = Obs::disabled();
        let mut fold = EpochContext::new(ds.window(), true, KernelPolicy::Auto);
        for (k, shard) in ds.shards(len).iter().enumerate() {
            fold.append(shard, &obs);
            let prefix = ds.epoch_prefix(len, k + 1);
            check(k + 1, &prefix, &fold.to_context(ds, ArimaSpec::DEFAULT));
        }
    }
}
