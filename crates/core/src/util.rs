//! Shared joins and helpers used across the analyses.

use ddos_schema::hashing::FastMap;
use ddos_schema::{CountryCode, Dataset, IpAddr4, LatLon};

/// The `Botlist` join: bot IP → (country, coordinates).
///
/// Built once and shared; the source analyses resolve every attack's
/// participants through it (the paper's feed geolocates at collection
/// time, so the mapping is stable — §II-D). Keyed through a
/// [`FastMap`]: lookups are membership-style and never iterate, so the
/// fast hasher's different iteration order is unobservable.
#[derive(Debug, Clone, Default)]
pub struct BotIndex {
    map: FastMap<IpAddr4, (CountryCode, LatLon)>,
}

impl BotIndex {
    /// Builds the index from a dataset's bot records.
    pub fn build(ds: &Dataset) -> BotIndex {
        let mut map = FastMap::with_capacity_and_hasher(ds.bots().len(), Default::default());
        for bot in ds.bots() {
            map.insert(bot.ip, (bot.location.country, bot.location.coords));
        }
        BotIndex { map }
    }

    /// Resolves one address.
    pub fn lookup(&self, ip: IpAddr4) -> Option<(CountryCode, LatLon)> {
        self.map.get(&ip).copied()
    }

    /// Coordinates of every resolvable address in `ips`.
    pub fn coords_of(&self, ips: &[IpAddr4]) -> Vec<LatLon> {
        ips.iter()
            .filter_map(|ip| self.map.get(ip).map(|&(_, c)| c))
            .collect()
    }

    /// Number of indexed bots.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{Asn, BotnetId, CityId, DatasetBuilder, Family, OrgId, Timestamp, Window};

    fn dataset_with_bot(ip: IpAddr4) -> Dataset {
        let window = Window::new(Timestamp(0), Timestamp(1_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        b.push_bot(BotRecord {
            ip,
            botnet: BotnetId(1),
            family: Family::Pandora,
            location: Location {
                country: CountryCode::literal("RU"),
                city: CityId(3),
                org: OrgId(4),
                asn: Asn(5),
                coords: LatLon::new_unchecked(55.0, 37.0),
            },
            first_seen: Timestamp(0),
            last_seen: Timestamp(10),
        })
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lookup_and_bulk_resolution() {
        let ip = IpAddr4::from_octets(203, 0, 113, 1);
        let other = IpAddr4::from_octets(203, 0, 113, 2);
        let idx = BotIndex::build(&dataset_with_bot(ip));
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        let (cc, coords) = idx.lookup(ip).unwrap();
        assert_eq!(cc, CountryCode::literal("RU"));
        assert_eq!(coords.lat, 55.0);
        assert!(idx.lookup(other).is_none());
        assert_eq!(idx.coords_of(&[ip, other]).len(), 1);
    }

    #[test]
    fn empty_dataset_empty_index() {
        let window = Window::new(Timestamp(0), Timestamp(1)).unwrap();
        let ds = DatasetBuilder::new(window).build().unwrap();
        let idx = BotIndex::build(&ds);
        assert!(idx.is_empty());
    }
}
