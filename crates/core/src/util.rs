//! Shared joins and helpers used across the analyses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use ddos_schema::{CountryCode, Dataset, IpAddr4, LatLon};

/// A hasher specialized for [`IpAddr4`] keys (a `u32` newtype): one
/// Fibonacci multiply plus an xor-shift, instead of SipHash. The context
/// build and the defense simulations perform millions of IP map
/// operations per trace; HashDoS resistance buys nothing against a fixed
/// research dataset, so they trade it for throughput.
///
/// Hash maps keyed this way have a different iteration order than
/// SipHash maps — only use [`IpMap`]/[`IpSet`] where results are
/// independent of iteration order (membership tests, or maps that get
/// sorted before anything order-sensitive reads them).
#[derive(Debug, Clone, Copy, Default)]
pub struct IpHasher(u64);

impl Hasher for IpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // Mix the previous state in so composite keys still distribute.
        let x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

/// Hash map keyed by [`IpAddr4`] using [`IpHasher`].
pub type IpMap<V> = HashMap<IpAddr4, V, BuildHasherDefault<IpHasher>>;

/// Hash set of [`IpAddr4`] using [`IpHasher`].
pub type IpSet = HashSet<IpAddr4, BuildHasherDefault<IpHasher>>;

/// The `Botlist` join: bot IP → (country, coordinates).
///
/// Built once and shared; the source analyses resolve every attack's
/// participants through it (the paper's feed geolocates at collection
/// time, so the mapping is stable — §II-D). Keyed through [`IpMap`] —
/// this is exactly the hot map [`IpHasher`] was built for; lookups are
/// membership-style and never iterate, so the hasher's different
/// iteration order is unobservable.
#[derive(Debug, Clone, Default)]
pub struct BotIndex {
    map: IpMap<(CountryCode, LatLon)>,
}

impl BotIndex {
    /// Builds the index from a dataset's bot records.
    pub fn build(ds: &Dataset) -> BotIndex {
        let mut map = IpMap::with_capacity_and_hasher(ds.bots().len(), Default::default());
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
    fn ip_hasher_distributes_and_mixes_state() {
        use std::hash::Hash;
        // Same key → same hash; different keys → (here) different hashes.
        let hash_of = |ip: IpAddr4| {
            let mut h = IpHasher::default();
            ip.hash(&mut h);
            h.finish()
        };
        let a = IpAddr4::from_octets(203, 0, 113, 1);
        let b = IpAddr4::from_octets(203, 0, 113, 2);
        assert_eq!(hash_of(a), hash_of(a));
        assert_ne!(hash_of(a), hash_of(b));

        // The map behaves like a std map for membership.
        let mut set = IpSet::default();
        assert!(set.insert(a));
        assert!(!set.insert(a));
        assert!(set.contains(&a));
        assert!(!set.contains(&b));
        let mut map: IpMap<u32> = IpMap::default();
        map.insert(a, 1);
        map.insert(b, 2);
        assert_eq!(map.get(&a), Some(&1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn empty_dataset_empty_index() {
        let window = Window::new(Timestamp(0), Timestamp(1)).unwrap();
        let ds = DatasetBuilder::new(window).build().unwrap();
        let idx = BotIndex::build(&ds);
        assert!(idx.is_empty());
    }
}
