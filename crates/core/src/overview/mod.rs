//! §III — overview of the DDoS attacks: protocol mix, daily density,
//! inter-attack intervals, durations.

pub mod activity;
pub mod daily;
pub mod duration;
pub mod intervals;
pub mod protocols;

#[cfg(test)]
pub(crate) mod test_support {
    //! Hand-built miniature datasets for overview unit tests.

    use ddos_obs::Obs;
    use ddos_schema::record::Location;
    use ddos_schema::{
        Asn, AttackRecord, BotnetId, CityId, Dataset, DatasetBuilder, DdosId, Family, IpAddr4,
        LatLon, OrgId, Protocol, Timestamp, Window,
    };
    use ddos_stats::ArimaSpec;

    use crate::context::AnalysisContext;
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
