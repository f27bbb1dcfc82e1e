//! The synthetic GeoIP database.
//!
//! [`GeoDb::synthesize`] builds, deterministically from a seed, a world
//! model equivalent in shape to the commercial feed the paper used:
//!
//! * every country in the [`crate::country`] registry gets a set of
//!   **cities** scattered around its centroid (more cities for larger
//!   internet populations);
//! * every city hosts one or more **organizations** (web hosters, cloud
//!   providers, data centers, registrars, backbone ASes, ISPs,
//!   enterprises — the victim categories the paper observes in §IV-B);
//! * every organization owns one or two **ASNs** and a handful of IPv4
//!   **prefixes** carved sequentially out of unicast space.
//!
//! [`GeoDb::lookup`] then answers `IP → (country, city, org, ASN,
//! coordinates)` exactly like the NetAcuity service: the coordinates are
//! the owning city's, plus a small per-address deterministic jitter.

use std::collections::HashMap;

use ddos_schema::ip::Prefix;
use ddos_schema::record::Location;
use ddos_schema::{Asn, CityId, CountryCode, IpAddr4, LatLon, OrgId};
use parking_lot::RwLock;

use crate::country::{CountryInfo, COUNTRIES};
use crate::haversine::destination;
use crate::rng::{mix64, mix_f64, SplitMix64};

/// The kind of organization owning an address block.
///
/// §IV-B: "most attacks were aimed towards web hosting services,
/// large-scale cloud providers and data centers, Internet domain
/// registers and backbone autonomous systems".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Web hosting service.
    WebHosting,
    /// Large-scale cloud provider.
    CloudProvider,
    /// Data center operator.
    DataCenter,
    /// Internet domain registrar.
    DomainRegistrar,
    /// Backbone autonomous system.
    BackboneAs,
    /// Access/eyeball ISP (where most *bots* live).
    Isp,
    /// Generic enterprise network.
    Enterprise,
}

impl OrgKind {
    /// All kinds, for iteration.
    pub const ALL: [OrgKind; 7] = [
        OrgKind::WebHosting,
        OrgKind::CloudProvider,
        OrgKind::DataCenter,
        OrgKind::DomainRegistrar,
        OrgKind::BackboneAs,
        OrgKind::Isp,
        OrgKind::Enterprise,
    ];

    /// Short label used in synthesized organization names.
    pub fn label(self) -> &'static str {
        match self {
            OrgKind::WebHosting => "Host",
            OrgKind::CloudProvider => "Cloud",
            OrgKind::DataCenter => "DC",
            OrgKind::DomainRegistrar => "Registrar",
            OrgKind::BackboneAs => "Backbone",
            OrgKind::Isp => "ISP",
            OrgKind::Enterprise => "Corp",
        }
    }

    /// Whether this kind hosts *infrastructure* (the paper's preferred
    /// victim categories) rather than eyeballs.
    pub fn is_infrastructure(self) -> bool {
        !matches!(self, OrgKind::Isp | OrgKind::Enterprise)
    }
}

/// One synthesized city.
#[derive(Debug, Clone, PartialEq)]
pub struct CityInfo {
    /// Registry id (dense, global).
    pub id: CityId,
    /// Synthesized name, e.g. `"RU-city-03"`.
    pub name: String,
    /// Country the city belongs to.
    pub country: CountryCode,
    /// City coordinates.
    pub coords: LatLon,
}

/// One synthesized organization with its address space.
#[derive(Debug, Clone, PartialEq)]
pub struct OrgInfo {
    /// Registry id (dense, global).
    pub id: OrgId,
    /// Synthesized name, e.g. `"Cloud-DE-017"`.
    pub name: String,
    /// Organization kind.
    pub kind: OrgKind,
    /// Home country.
    pub country: CountryCode,
    /// Home city.
    pub city: CityId,
    /// ASNs announced by the organization (one or two).
    pub asns: Vec<Asn>,
    /// Prefixes owned, each tagged with the announcing ASN.
    pub prefixes: Vec<(Prefix, Asn)>,
}

impl OrgInfo {
    /// Total number of addresses across all prefixes.
    pub fn address_count(&self) -> u64 {
        self.prefixes.iter().map(|(p, _)| p.size()).sum()
    }
}

/// Tuning knobs for world synthesis.
#[derive(Debug, Clone, Copy)]
pub struct GeoConfig {
    /// Seed for all synthesis randomness.
    pub seed: u64,
    /// City count scale: cities ≈ `weight^0.6 * city_scale`, clamped.
    pub city_scale: f64,
    /// Maximum cities per country.
    pub max_cities_per_country: usize,
    /// Maximum extra organizations per city (beyond the guaranteed one).
    pub max_extra_orgs_per_city: usize,
    /// Prefix lengths to draw from when allocating blocks.
    pub prefix_len_range: (u8, u8),
    /// Per-address coordinate jitter radius in kilometers.
    pub jitter_km: f64,
}

impl Default for GeoConfig {
    fn default() -> GeoConfig {
        GeoConfig {
            seed: 0xDD05_6E01,
            city_scale: 7.0,
            max_cities_per_country: 150,
            max_extra_orgs_per_city: 2,
            prefix_len_range: (18, 22),
            // City-level resolution, like commercial GeoIP feeds: every
            // address in a city resolves to the city centroid. This is
            // what makes single-city attack populations *exactly*
            // symmetric under the paper's dispersion metric (the zero
            // spike of Fig. 9). Set non-zero for the jitter ablation.
            jitter_km: 0.0,
        }
    }
}

/// Aggregate statistics of a synthesized world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoDbStats {
    /// Countries in the registry.
    pub countries: usize,
    /// Cities synthesized.
    pub cities: usize,
    /// Organizations synthesized.
    pub organizations: usize,
    /// Distinct ASNs allocated.
    pub asns: usize,
    /// Total addresses allocated to prefixes.
    pub allocated_addresses: u64,
}

/// Per-country slice of the world: indices into the global tables.
#[derive(Debug, Clone, Default)]
struct CountrySlice {
    cities: std::ops::Range<u32>,
    orgs: Vec<u32>,
    /// Cumulative address counts over `orgs` (for weighted sampling).
    org_addr_cumsum: Vec<u64>,
}

/// The synthesized world database.
///
/// Cheap to share: all lookups take `&self`. A small memo cache
/// (`parking_lot::RwLock`) accelerates repeated lookups of hot addresses
/// (bot IPs recur in every hourly snapshot).
#[derive(Debug)]
pub struct GeoDb {
    cities: Vec<CityInfo>,
    orgs: Vec<OrgInfo>,
    by_country: HashMap<CountryCode, CountrySlice>,
    /// Organizations homed in each city (indexed by `CityId`).
    city_orgs: Vec<Vec<u32>>,
    /// Sorted `(block_start, block_end_inclusive, org_index, asn)`.
    ranges: Vec<(u32, u32, u32, Asn)>,
    jitter_km: f64,
    cache: RwLock<HashMap<IpAddr4, Location>>,
}

impl GeoDb {
    /// Builds a world from the country registry, deterministically.
    pub fn synthesize(config: &GeoConfig) -> GeoDb {
        let mut rng = SplitMix64::new(config.seed);
        let mut cities = Vec::new();
        let mut orgs: Vec<OrgInfo> = Vec::new();
        let mut by_country: HashMap<CountryCode, CountrySlice> = HashMap::new();
        let mut ranges = Vec::new();

        // Sequential block allocator over unicast space, skipping the
        // bottom /8 (we start at 1.0.0.0) — enough room for any config.
        let mut next_block: u64 = 1 << 24;
        let mut next_asn: u32 = 1_000;

        for country in COUNTRIES {
            let city_lo = cities.len() as u32;
            let n_cities = ((country.weight.powf(0.6) * config.city_scale).ceil() as usize)
                .clamp(1, config.max_cities_per_country);
            for ci in 0..n_cities {
                let id = CityId(cities.len() as u32);
                // Scatter around the centroid: sub-linear radial falloff
                // keeps most cities near the population center.
                let bearing = rng.next_f64() * 360.0;
                let dist = rng.next_f64().powf(0.7) * country.spread_km;
                let coords = destination(country.centroid, bearing, dist);
                cities.push(CityInfo {
                    id,
                    name: format!("{}-city-{ci:02}", country.code),
                    country: country.code,
                    coords,
                });
            }
            let city_hi = cities.len() as u32;

            let mut slice = CountrySlice {
                cities: city_lo..city_hi,
                ..CountrySlice::default()
            };

            for city_idx in city_lo..city_hi {
                let n_orgs = 1 + rng.next_below(config.max_extra_orgs_per_city as u64 + 1) as usize;
                for _ in 0..n_orgs {
                    let org_id = OrgId(orgs.len() as u32);
                    let kind = Self::pick_kind(&mut rng, country);
                    let n_asns = 1 + rng.next_below(2) as usize;
                    let asns: Vec<Asn> = (0..n_asns)
                        .map(|_| {
                            let a = Asn(next_asn);
                            next_asn += 1;
                            a
                        })
                        .collect();
                    let n_prefixes = 1 + rng.next_below(3) as usize;
                    let mut prefixes = Vec::with_capacity(n_prefixes);
                    for _ in 0..n_prefixes {
                        let (lo, hi) = config.prefix_len_range;
                        let len = lo + rng.next_below(u64::from(hi - lo) + 1) as u8;
                        let size = 1u64 << (32 - len as u32);
                        // Align to the block size and clear every
                        // special-use (bogon) range: a synthetic bot in
                        // 10/8 would be rejected by any real pipeline.
                        let start = crate::reserved::next_clear_block(next_block, size)
                            .expect("address space exhausted; reduce GeoConfig scales");
                        assert!(
                            u64::from(start) + size <= (1u64 << 32) - (1 << 28),
                            "address space exhausted; reduce GeoConfig scales"
                        );
                        let prefix = Prefix::new(IpAddr4(start), len).expect("len within 0..=32");
                        next_block = u64::from(start) + size;
                        let asn = asns[rng.next_below(asns.len() as u64) as usize];
                        ranges.push((prefix.first().value(), prefix.last().value(), org_id.0, asn));
                        prefixes.push((prefix, asn));
                    }
                    orgs.push(OrgInfo {
                        id: org_id,
                        name: format!("{}-{}-{:03}", kind.label(), country.code, org_id.0),
                        kind,
                        country: country.code,
                        city: CityId(city_idx),
                        asns,
                        prefixes,
                    });
                    slice.orgs.push(org_id.0);
                }
            }

            let mut cum = 0u64;
            slice.org_addr_cumsum = slice
                .orgs
                .iter()
                .map(|&oi| {
                    cum += orgs[oi as usize].address_count();
                    cum
                })
                .collect();
            by_country.insert(country.code, slice);
        }

        ranges.sort_unstable_by_key(|r| r.0);
        let mut city_orgs: Vec<Vec<u32>> = vec![Vec::new(); cities.len()];
        for org in &orgs {
            city_orgs[org.city.0 as usize].push(org.id.0);
        }
        GeoDb {
            cities,
            orgs,
            by_country,
            city_orgs,
            ranges,
            jitter_km: config.jitter_km,
            cache: RwLock::new(HashMap::new()),
        }
    }

    fn pick_kind(rng: &mut SplitMix64, country: &CountryInfo) -> OrgKind {
        // Infrastructure concentrates in high-weight countries; eyeball
        // ISPs and enterprises dominate everywhere else.
        let infra_share = if country.weight >= 20.0 { 0.45 } else { 0.20 };
        if rng.next_f64() < infra_share {
            let infra = [
                OrgKind::WebHosting,
                OrgKind::CloudProvider,
                OrgKind::DataCenter,
                OrgKind::DomainRegistrar,
                OrgKind::BackboneAs,
            ];
            infra[rng.next_below(infra.len() as u64) as usize]
        } else if rng.next_f64() < 0.7 {
            OrgKind::Isp
        } else {
            OrgKind::Enterprise
        }
    }

    /// All synthesized cities.
    pub fn cities(&self) -> &[CityInfo] {
        &self.cities
    }

    /// All synthesized organizations.
    pub fn orgs(&self) -> &[OrgInfo] {
        &self.orgs
    }

    /// Cities of one country.
    pub fn cities_in(&self, country: CountryCode) -> &[CityInfo] {
        match self.by_country.get(&country) {
            Some(s) => &self.cities[s.cities.start as usize..s.cities.end as usize],
            None => &[],
        }
    }

    /// Organizations of one country.
    pub fn orgs_in(&self, country: CountryCode) -> impl Iterator<Item = &OrgInfo> + '_ {
        self.by_country
            .get(&country)
            .into_iter()
            .flat_map(move |s| s.orgs.iter().map(move |&i| &self.orgs[i as usize]))
    }

    /// Looks up an organization by id.
    pub fn org(&self, id: OrgId) -> Option<&OrgInfo> {
        self.orgs.get(id.0 as usize)
    }

    /// Looks up a city by id.
    pub fn city(&self, id: CityId) -> Option<&CityInfo> {
        self.cities.get(id.0 as usize)
    }

    /// Resolves an address to its full location, like the commercial feed.
    ///
    /// Returns `None` for unallocated space. Coordinates are the owning
    /// city's plus a deterministic per-address jitter (same address, same
    /// answer — the feed's "real-time" resolution is stable in our world).
    pub fn lookup(&self, ip: IpAddr4) -> Option<Location> {
        if let Some(loc) = self.cache.read().get(&ip) {
            return Some(*loc);
        }
        let idx = self.ranges.partition_point(|r| r.0 <= ip.value());
        let (start, end, org_idx, asn) = *self.ranges.get(idx.checked_sub(1)?)?;
        debug_assert!(start <= ip.value());
        if ip.value() > end {
            return None;
        }
        let org = &self.orgs[org_idx as usize];
        let city = &self.cities[org.city.0 as usize];
        let bearing = mix_f64(u64::from(ip.value()) << 1) * 360.0;
        let dist = mix_f64((u64::from(ip.value()) << 1) | 1) * self.jitter_km;
        let coords = destination(city.coords, bearing, dist);
        let loc = Location {
            country: org.country,
            city: org.city,
            org: org.id,
            asn,
            coords,
        };
        let mut cache = self.cache.write();
        if cache.len() < 1 << 20 {
            cache.insert(ip, loc);
        }
        Some(loc)
    }

    /// Deterministically picks the `k`-th pseudo-random allocated address
    /// of a country (weighted by organization address-space size).
    ///
    /// RNG-agnostic by design: callers supply the randomness as `k`.
    pub fn ip_in_country(&self, country: CountryCode, k: u64) -> Option<IpAddr4> {
        let slice = self.by_country.get(&country)?;
        let total = *slice.org_addr_cumsum.last()?;
        let pick = mix64(k) % total;
        let oi = slice.org_addr_cumsum.partition_point(|&c| c <= pick);
        let org = &self.orgs[slice.orgs[oi] as usize];
        self.ip_in_org_inner(org, mix64(k ^ 0xA5A5_A5A5_A5A5_A5A5))
    }

    /// Deterministically picks the `k`-th pseudo-random address of an
    /// organization.
    pub fn ip_in_org(&self, org: OrgId, k: u64) -> Option<IpAddr4> {
        let org = self.org(org)?;
        self.ip_in_org_inner(org, mix64(k))
    }

    /// Deterministically picks the `k`-th pseudo-random address homed in
    /// one city (spreading over the city's organizations).
    ///
    /// The trace generator uses this to build per-city bot populations —
    /// with city-level coordinate resolution, a single-city population is
    /// exactly symmetric under the paper's dispersion metric.
    pub fn ip_in_city(&self, city: CityId, k: u64) -> Option<IpAddr4> {
        let orgs = self.city_orgs.get(city.0 as usize)?;
        if orgs.is_empty() {
            return None;
        }
        let pick = mix64(k);
        let org = &self.orgs[orgs[(pick % orgs.len() as u64) as usize] as usize];
        self.ip_in_org_inner(org, mix64(k ^ 0x5A5A_5A5A_5A5A_5A5A))
    }

    fn ip_in_org_inner(&self, org: &OrgInfo, pick: u64) -> Option<IpAddr4> {
        let total = org.address_count();
        if total == 0 {
            return None;
        }
        let mut offset = pick % total;
        for (prefix, _) in &org.prefixes {
            if offset < prefix.size() {
                return Some(prefix.nth(offset));
            }
            offset -= prefix.size();
        }
        None
    }

    /// Aggregate statistics of the world.
    pub fn stats(&self) -> GeoDbStats {
        let mut asns = std::collections::HashSet::new();
        let mut allocated = 0u64;
        for org in &self.orgs {
            asns.extend(org.asns.iter().copied());
            allocated += org.address_count();
        }
        GeoDbStats {
            countries: COUNTRIES.len(),
            cities: self.cities.len(),
            organizations: self.orgs.len(),
            asns: asns.len(),
            allocated_addresses: allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country;
    use crate::haversine::distance_km;

    fn small_db() -> GeoDb {
        GeoDb::synthesize(&GeoConfig {
            city_scale: 1.0,
            max_cities_per_country: 5,
            ..GeoConfig::default()
        })
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = small_db();
        let b = small_db();
        assert_eq!(a.cities(), b.cities());
        assert_eq!(a.orgs(), b.orgs());
    }

    #[test]
    fn different_seed_changes_world() {
        let a = small_db();
        let b = GeoDb::synthesize(&GeoConfig {
            seed: 999,
            city_scale: 1.0,
            max_cities_per_country: 5,
            ..GeoConfig::default()
        });
        assert_ne!(a.cities(), b.cities());
    }

    #[test]
    fn every_country_has_cities_and_orgs() {
        let db = small_db();
        for c in COUNTRIES {
            assert!(!db.cities_in(c.code).is_empty(), "{} has no cities", c.code);
            assert!(
                db.orgs_in(c.code).next().is_some(),
                "{} has no orgs",
                c.code
            );
        }
    }

    #[test]
    fn cities_stay_near_their_country() {
        let db = small_db();
        for city in db.cities() {
            let info = country::lookup(city.country).unwrap();
            let d = distance_km(info.centroid, city.coords);
            assert!(
                d <= info.spread_km + 1.0,
                "{} at {d} km from {} centroid (spread {})",
                city.name,
                city.country,
                info.spread_km
            );
        }
    }

    #[test]
    fn lookup_resolves_own_prefixes() {
        let db = small_db();
        for org in db.orgs().iter().take(200) {
            let ip = db.ip_in_org(org.id, 42).unwrap();
            let loc = db.lookup(ip).unwrap();
            assert_eq!(loc.org, org.id);
            assert_eq!(loc.country, org.country);
            assert_eq!(loc.city, org.city);
            assert!(org.asns.contains(&loc.asn));
        }
    }

    #[test]
    fn lookup_is_stable_and_cached() {
        let db = small_db();
        let ip = db.ip_in_country(CountryCode::literal("US"), 7).unwrap();
        let a = db.lookup(ip).unwrap();
        let b = db.lookup(ip).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_misses_unallocated_space() {
        let db = small_db();
        // 0.0.0.0/24 and the top of the space are never allocated.
        assert!(db.lookup(IpAddr4(0)).is_none());
        assert!(db.lookup(IpAddr4(u32::MAX)).is_none());
    }

    #[test]
    fn ip_in_country_lands_in_country() {
        let db = small_db();
        for code in ["US", "RU", "CN", "BW", "UY"] {
            let cc: CountryCode = code.parse().unwrap();
            for k in 0..50 {
                let ip = db.ip_in_country(cc, k).unwrap();
                let loc = db.lookup(ip).unwrap();
                assert_eq!(loc.country, cc, "k={k} ip={ip}");
            }
        }
    }

    #[test]
    fn ip_sampling_spreads_over_orgs() {
        let db = small_db();
        let cc: CountryCode = "US".parse().unwrap();
        let mut orgs = std::collections::HashSet::new();
        for k in 0..300 {
            let ip = db.ip_in_country(cc, k).unwrap();
            orgs.insert(db.lookup(ip).unwrap().org);
        }
        assert!(orgs.len() > 3, "only {} orgs sampled", orgs.len());
    }

    #[test]
    fn jitter_stays_small() {
        let db = small_db();
        let cc: CountryCode = "DE".parse().unwrap();
        for k in 0..50 {
            let ip = db.ip_in_country(cc, k).unwrap();
            let loc = db.lookup(ip).unwrap();
            let city = db.city(loc.city).unwrap();
            let d = distance_km(city.coords, loc.coords);
            assert!(d <= 25.0 + 1e-6, "jitter {d} km");
        }
    }

    #[test]
    fn default_world_is_big_enough_for_the_paper() {
        let db = GeoDb::synthesize(&GeoConfig::default());
        let stats = db.stats();
        // Paper-side requirements: 2,897 attacker cities, 3,498 attacker
        // orgs, 3,973 attacker ASNs must be *reachable* (observed counts
        // are emergent and ≤ these capacities).
        assert!(stats.cities >= 2_897, "cities {}", stats.cities);
        assert!(stats.organizations >= 3_498, "orgs {}", stats.organizations);
        assert!(stats.asns >= 3_973, "asns {}", stats.asns);
        assert!(stats.countries >= 186);
    }

    #[test]
    fn ip_in_city_resolves_back_to_city() {
        let db = small_db();
        let city = db.cities_in(CountryCode::literal("RU"))[0].id;
        for k in 0..40 {
            let ip = db.ip_in_city(city, k).unwrap();
            let loc = db.lookup(ip).unwrap();
            assert_eq!(loc.city, city, "k={k}");
            // City-level resolution: coordinates are exactly the city's.
            assert_eq!(loc.coords, db.city(city).unwrap().coords);
        }
        assert!(db.ip_in_city(CityId(u32::MAX), 0).is_none());
    }

    #[test]
    fn no_allocation_touches_reserved_space() {
        let db = small_db();
        for org in db.orgs() {
            for (prefix, _) in &org.prefixes {
                assert!(
                    !crate::reserved::block_overlaps_reserved(
                        prefix.first().value(),
                        prefix.size()
                    ),
                    "{} of {} overlaps a bogon range",
                    prefix,
                    org.name
                );
            }
        }
    }

    #[test]
    fn ranges_do_not_overlap() {
        let db = small_db();
        for w in db.ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }
}
