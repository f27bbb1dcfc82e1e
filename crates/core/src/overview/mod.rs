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
    //! Hand-built miniature datasets for overview unit tests.

    use ddos_obs::Obs;
    use ddos_schema::record::Location;
    use ddos_schema::{
        Asn, AttackRecord, BotRecord, BotnetId, CityId, Dataset, DatasetBuilder, DdosId, Family,
        IpAddr4, LatLon, OrgId, Protocol, Seconds, Timestamp, Window,
    };
    use ddos_stats::ArimaSpec;

    use crate::context::AnalysisContext;
    use crate::epoch::EpochContext;
    use crate::kernels::KernelPolicy;

    /// Window of 10 days starting at the epoch.
    pub fn window() -> Window {
        Window::new(Timestamp(0), Timestamp(10 * 86_400)).unwrap()
    }

    pub fn location(cc: &str, city: u32) -> Location {
        Location {
            country: cc.parse().unwrap(),
            city: CityId(city),
            org: OrgId(city),
            asn: Asn(64_000 + city),
            coords: LatLon::new_unchecked(10.0 + city as f64, 20.0),
        }
    }

    /// A minimal attack: family, id, start, duration, target ip last
    /// octet.
    pub fn attack(
        family: Family,
        id: u64,
        start: i64,
        duration: i64,
        target_octet: u8,
    ) -> AttackRecord {
        AttackRecord {
            id: DdosId(id),
            botnet: BotnetId(family.index() as u32 * 10 + 1),
            family,
            category: Protocol::Http,
            target_ip: IpAddr4::from_octets(198, 51, 100, target_octet),
            target: location("US", 1),
            start: Timestamp(start),
            end: Timestamp(start + duration),
            sources: vec![IpAddr4::from_octets(203, 0, 113, 1)],
        }
    }

    pub fn dataset(attacks: Vec<AttackRecord>) -> Dataset {
        let mut b = DatasetBuilder::new(window());
        b.extend_attacks(attacks).unwrap();
        b.build().unwrap()
    }

    /// The epoch length of [`carry_fixture`]: three epochs, of days
    /// 0–3, 4–7 and 8–9.
    pub const CARRY_EPOCH: Seconds = Seconds::days(4);

    /// A 10-day trace whose three [`CARRY_EPOCH`] epochs walk every
    /// carried pass state through its resume paths:
    ///
    /// * target 1 is attacked in epochs 1 and 3, and its epoch-3 attack
    ///   lists one source twice, so the blacklist re-stamps the ids of
    ///   its epoch-1 attack and scores the duplicate once per listing;
    ///   target 2 is attacked in epochs 1 and 2, with a duplicate in its
    ///   epoch-1 attack;
    /// * Pandora attacks in epochs 1 and 3 only, so its interval sample
    ///   must not move in epoch 2;
    /// * epoch 2 opens inside week 0 and adds a bot to Dirtjumper's
    ///   week-0 map, so the shift grid recounts a week it counted
    ///   before; epoch 3 brings week 1 and a new country (BR);
    /// * two Dirtjumper attacks share a start (a zero interval).
    pub fn carry_fixture() -> Dataset {
        let day = 86_400;
        let ip = |last: u8| IpAddr4::from_octets(203, 0, 113, last);
        let mut b = DatasetBuilder::new(window());
        for (last, cc) in [(1, "RU"), (2, "RU"), (3, "UA"), (4, "DE"), (5, "BR")] {
            b.push_bot(BotRecord {
                ip: ip(last),
                botnet: BotnetId(1),
                family: Family::Dirtjumper,
                location: location(cc, u32::from(last)),
                first_seen: Timestamp(0),
                last_seen: Timestamp(10 * day),
            })
            .unwrap();
        }
        let attacks = [
            (Family::Dirtjumper, 100, 1, vec![1, 2]),
            (Family::Pandora, day, 2, vec![1, 3]),
            (Family::Pandora, 2 * day + 50, 3, vec![2]),
            (Family::Dirtjumper, 3 * day, 2, vec![3, 3]),
            (Family::Dirtjumper, 5 * day, 2, vec![1, 4]),
            (Family::Dirtjumper, 5 * day, 4, vec![2]),
            (Family::Dirtjumper, 8 * day, 1, vec![1, 4, 4]),
            (Family::Pandora, 9 * day, 3, vec![2, 5]),
        ];
        for (k, (family, start, target, sources)) in attacks.into_iter().enumerate() {
            let mut a = attack(family, k as u64 + 1, start, 600 + 300 * k as i64, target);
            a.sources = sources.into_iter().map(ip).collect();
            b.push_attack(a).unwrap();
        }
        b.build().unwrap()
    }

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

    /// The context of `ds` under every family-resolution job length:
    /// one job per worker, one per attack, three attacks per job, and
    /// one per family. A pass body must match its dataset scan on each.
    pub fn chunked_contexts(ds: &Dataset) -> Vec<(KernelPolicy, AnalysisContext<'_>)> {
        [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(1),
            KernelPolicy::Chunked(3),
            KernelPolicy::Chunked(100),
        ]
        .into_iter()
        .map(|policy| {
            let ctx = AnalysisContext::build_kernels(
                ds,
                ArimaSpec::DEFAULT,
                true,
                policy,
                &Obs::disabled(),
            );
            (policy, ctx)
        })
        .collect()
    }
}
