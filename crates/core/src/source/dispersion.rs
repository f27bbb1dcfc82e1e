//! Figs. 9–11 — the geolocation dispersion of attack sources.
//!
//! For every attack, the participating bots are geolocated and the
//! paper's signed dispersion metric is computed (`ddos_geo::dispersion`):
//! the absolute sum of signed haversine distances to the population's
//! geographic center. A population whose bots all resolve to one city —
//! or that is otherwise east/west balanced — scores (near) zero and is
//! called **symmetric**; the paper reports 76.7% symmetric snapshots for
//! Pandora and 89.5% for Blackenergy, and Figs. 10–11 histogram the
//! *asymmetric* remainder.

use ddos_geo::dispersion;
use ddos_schema::{Dataset, Family, Timestamp};
use ddos_stats::{descriptive, Ecdf, Histogram};
use serde::{Deserialize, Serialize};

use crate::util::BotIndex;

/// Dispersion values at or below this are *symmetric* (km). At
/// city-level geolocation resolution single-city populations score an
/// exact zero; the tolerance only absorbs floating-point residue.
pub const SYMMETRY_TOL_KM: f64 = 1.0;

/// Fig. 9 reports families "with at least 10 snapshots (with active
/// attacks for more than 10 days)".
pub const MIN_ACTIVE_DAYS: usize = 10;

/// The dispersion series of one family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyDispersion {
    /// The family.
    pub family: Family,
    /// `(attack start, |signed sum| km)` in chronological order.
    pub series: Vec<(Timestamp, f64)>,
    /// Number of days on which the family attacked.
    pub active_days: usize,
}

impl FamilyDispersion {
    /// Computes the per-attack dispersion series of a family.
    pub fn compute(ds: &Dataset, bots: &BotIndex, family: Family) -> FamilyDispersion {
        let mut series = Vec::new();
        let mut days = std::collections::HashSet::new();
        for a in ds.attacks_of(family) {
            let coords = bots.coords_of(&a.sources);
            let Some(d) = dispersion(&coords) else {
                continue;
            };
            if let Some(day) = ds.window().day_index(a.start) {
                days.insert(day);
            }
            series.push((a.start, d.value()));
        }
        FamilyDispersion {
            family,
            series,
            active_days: days.len(),
        }
    }

    /// Whether the family qualifies for Fig. 9 (enough active days).
    pub fn qualifies_for_cdf(&self) -> bool {
        self.active_days >= MIN_ACTIVE_DAYS && !self.series.is_empty()
    }

    /// All dispersion values (km).
    pub fn values(&self) -> Vec<f64> {
        self.series.iter().map(|&(_, v)| v).collect()
    }

    /// The values with symmetric snapshots removed (Figs. 10–11).
    pub fn asymmetric_values(&self) -> Vec<f64> {
        self.series
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| v > SYMMETRY_TOL_KM)
            .collect()
    }

    /// Fraction of symmetric snapshots (the paper: 76.7% for Pandora,
    /// 89.5% for Blackenergy).
    pub fn symmetric_fraction(&self) -> f64 {
        if self.series.is_empty() {
            return 0.0;
        }
        let sym = self
            .series
            .iter()
            .filter(|&&(_, v)| v <= SYMMETRY_TOL_KM)
            .count();
        sym as f64 / self.series.len() as f64
    }

    /// The dispersion ECDF (one curve of Fig. 9), if non-empty.
    pub fn cdf(&self) -> Option<Ecdf> {
        Ecdf::new(&self.values())
    }

    /// Histogram of the asymmetric values (Figs. 10–11), `bins` bins
    /// from just above zero to the observed maximum.
    pub fn asymmetric_histogram(&self, bins: usize) -> Option<Histogram> {
        let values = self.asymmetric_values();
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        Histogram::linear(&values, 0.0, max.max(1.0), bins)
    }

    /// Mean of the asymmetric values (the "stationary state" level the
    /// paper quotes: ≈566 km for Pandora, ≈4,304 km for Blackenergy).
    pub fn asymmetric_mean(&self) -> Option<f64> {
        descriptive::mean(&self.asymmetric_values())
    }
}

/// Fig. 9 — the dispersion series of every qualifying family. The
/// per-family series were already built during context construction
/// (sharing its single geolocation join), so this only filters and
/// clones.
pub fn qualifying_families_ctx(ctx: &crate::context::AnalysisContext) -> Vec<FamilyDispersion> {
    ctx.families()
        .iter()
        .map(|fc| &fc.dispersion)
        .filter(|d| d.qualifies_for_cdf())
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset, window};
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{Asn, BotnetId, CityId, DatasetBuilder, IpAddr4, LatLon, OrgId};

    fn bot(ip: u8, lat: f64, lon: f64) -> BotRecord {
        BotRecord {
            ip: IpAddr4::from_octets(203, 0, 113, ip),
            botnet: BotnetId(1),
            family: Family::Pandora,
            location: Location {
                country: "RU".parse().unwrap(),
                city: CityId(1),
                org: OrgId(1),
                asn: Asn(64_001),
                coords: LatLon::new_unchecked(lat, lon),
            },
            first_seen: Timestamp(0),
            last_seen: Timestamp(100_000),
        }
    }

    fn ip(last: u8) -> IpAddr4 {
        IpAddr4::from_octets(203, 0, 113, last)
    }

    fn build(attack_specs: Vec<(i64, Vec<u8>)>, bots: Vec<BotRecord>) -> Dataset {
        let mut b = DatasetBuilder::new(window());
        for bot in bots {
            b.push_bot(bot).unwrap();
        }
        for (i, (start, sources)) in attack_specs.into_iter().enumerate() {
            let mut a = attack(Family::Pandora, i as u64 + 1, start, 60, 1);
            a.sources = sources.into_iter().map(ip).collect();
            b.push_attack(a).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn single_city_attack_is_symmetric() {
        // Both bots share city-level coordinates → dispersion exactly 0.
        let ds = build(
            vec![(100, vec![1, 2])],
            vec![bot(1, 55.75, 37.61), bot(2, 55.75, 37.61)],
        );
        let idx = BotIndex::build(&ds);
        let fd = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        assert_eq!(fd.series.len(), 1);
        assert!(fd.series[0].1 <= SYMMETRY_TOL_KM);
        assert_eq!(fd.symmetric_fraction(), 1.0);
        assert!(fd.asymmetric_values().is_empty());
        assert_eq!(fd.asymmetric_mean(), None);
    }

    #[test]
    fn lat_lon_mixed_attack_is_asymmetric() {
        // East-west pair straddling the center plus a bot far north: the
        // latitude magnitude rides on the longitude sign (see
        // ddos-geo::center docs).
        let ds = build(
            vec![(100, vec![1, 2, 3])],
            vec![bot(1, 0.0, 0.0), bot(2, 0.0, 10.0), bot(3, 40.0, 5.0)],
        );
        let idx = BotIndex::build(&ds);
        let fd = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        assert_eq!(fd.symmetric_fraction(), 0.0);
        let mean = fd.asymmetric_mean().unwrap();
        assert!(mean > 1_000.0, "mean {mean}");
        let hist = fd.asymmetric_histogram(10).unwrap();
        assert_eq!(hist.total(), 1);
    }

    #[test]
    fn qualification_requires_active_days() {
        // One attack on one day: below the 10-day bar.
        let ds = build(vec![(100, vec![1])], vec![bot(1, 55.0, 37.0)]);
        let idx = BotIndex::build(&ds);
        let fd = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        assert_eq!(fd.active_days, 1);
        assert!(!fd.qualifies_for_cdf());
        let ctx = crate::context::AnalysisContext::new(&ds);
        assert!(qualifying_families_ctx(&ctx).is_empty());
    }

    #[test]
    fn unresolvable_sources_yield_no_value() {
        let ds = dataset(vec![attack(Family::Pandora, 1, 100, 60, 1)]);
        let idx = BotIndex::build(&ds); // empty Botlist
        let fd = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        assert!(fd.series.is_empty());
        assert!(fd.cdf().is_none());
    }

    #[test]
    fn series_is_chronological() {
        let ds = build(
            vec![(500, vec![1]), (100, vec![1]), (300, vec![1])],
            vec![bot(1, 55.0, 37.0)],
        );
        let idx = BotIndex::build(&ds);
        let fd = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        let times: Vec<i64> = fd.series.iter().map(|&(t, _)| t.unix()).collect();
        assert_eq!(times, vec![100, 300, 500]);
    }
}
