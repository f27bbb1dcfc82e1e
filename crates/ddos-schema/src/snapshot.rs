//! Hourly botnet population snapshots.
//!
//! The feed publishes, for every tracked family, one report per hour
//! listing the bots seen active in the trailing 24 hours (§II-B). The
//! paper's source analysis (§IV-A) is driven entirely by these snapshots:
//! weekly country *shift patterns* (Fig. 8) and the per-snapshot
//! geolocation *dispersion* series (Figs. 9–13) both consume them.

use serde::{Deserialize, Serialize};

use crate::error::SchemaError;
use crate::family::Family;
use crate::geo::{CountryCode, LatLon};
use crate::ip::IpAddr4;
use crate::time::{Seconds, Timestamp};

/// Presence of one bot in one snapshot: address plus resolved geolocation.
///
/// The feed geolocates addresses at collection time ("a real-time process,
/// making it resistive to IP dynamics", §II-D), so coordinates are stored
/// per presence rather than re-resolved later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BotPresence {
    /// Bot address.
    pub ip: IpAddr4,
    /// Country the address resolved to at snapshot time.
    pub country: CountryCode,
    /// Coordinates the address resolved to at snapshot time.
    pub coords: LatLon,
}

/// One hourly report for one family: the bots active in the past 24 hours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourlySnapshot {
    /// The family the report covers.
    pub family: Family,
    /// The instant the snapshot was logged (top of an hour).
    pub taken_at: Timestamp,
    /// Bots seen active in the trailing 24-hour span.
    pub bots: Vec<BotPresence>,
}

impl HourlySnapshot {
    /// Number of bots in the snapshot.
    #[inline]
    pub fn population(&self) -> usize {
        self.bots.len()
    }

    /// Distinct countries present in the snapshot, sorted.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut cs: Vec<CountryCode> = self.bots.iter().map(|b| b.country).collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    }

    /// Validates the snapshot timestamp is hour-aligned.
    pub fn validate(&self) -> Result<(), SchemaError> {
        if self.taken_at.unix() % Seconds::HOUR.get() != 0 {
            return Err(SchemaError::InvalidRecord(format!(
                "snapshot for {} at {} is not hour-aligned",
                self.family, self.taken_at
            )));
        }
        Ok(())
    }
}

/// A time-ordered series of snapshots for a single family.
///
/// It has no `Deserialize` of its own: a dataset deserializes each
/// series through [`SnapshotSeries::from_snapshots`], so a series read
/// from JSON is checked like one built in memory.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SnapshotSeries {
    snapshots: Vec<HourlySnapshot>,
}

impl SnapshotSeries {
    /// Creates an empty series.
    pub fn new() -> SnapshotSeries {
        SnapshotSeries::default()
    }

    /// Builds a series from snapshots, sorting by timestamp and rejecting
    /// mixed families or duplicate instants.
    pub fn from_snapshots(
        mut snapshots: Vec<HourlySnapshot>,
    ) -> Result<SnapshotSeries, SchemaError> {
        snapshots.sort_by_key(|s| s.taken_at);
        if let Some(first) = snapshots.first() {
            let family = first.family;
            for pair in snapshots.windows(2) {
                if pair[1].family != family {
                    return Err(SchemaError::InvalidDataset(format!(
                        "snapshot series mixes families {} and {}",
                        family, pair[1].family
                    )));
                }
                if pair[0].taken_at == pair[1].taken_at {
                    return Err(SchemaError::InvalidDataset(format!(
                        "duplicate snapshot instant {} for {}",
                        pair[0].taken_at, family
                    )));
                }
            }
        }
        Ok(SnapshotSeries { snapshots })
    }

    /// Appends a snapshot; it must be later than the current tail and of
    /// the same family.
    pub fn push(&mut self, snapshot: HourlySnapshot) -> Result<(), SchemaError> {
        if let Some(last) = self.snapshots.last() {
            if snapshot.family != last.family {
                return Err(SchemaError::InvalidDataset(format!(
                    "snapshot family {} does not match series family {}",
                    snapshot.family, last.family
                )));
            }
            if snapshot.taken_at <= last.taken_at {
                return Err(SchemaError::InvalidDataset(format!(
                    "snapshot at {} not after series tail {}",
                    snapshot.taken_at, last.taken_at
                )));
            }
        }
        self.snapshots.push(snapshot);
        Ok(())
    }

    /// The family covered, if the series is non-empty.
    pub fn family(&self) -> Option<Family> {
        self.snapshots.first().map(|s| s.family)
    }

    /// Number of snapshots.
    #[inline]
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the series is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The snapshots in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, HourlySnapshot> {
        self.snapshots.iter()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[HourlySnapshot] {
        &self.snapshots
    }

    /// Number of *days* on which the series has at least one snapshot —
    /// the paper reports dispersion only for families "with at least 10
    /// snapshots (with active attacks for more than 10 days)" (§IV-A).
    pub fn active_days(&self) -> usize {
        let mut days: Vec<i64> = self
            .snapshots
            .iter()
            .map(|s| s.taken_at.unix().div_euclid(Seconds::DAY.get()))
            .collect();
        days.sort_unstable();
        days.dedup();
        days.len()
    }
}

impl<'a> IntoIterator for &'a SnapshotSeries {
    type Item = &'a HourlySnapshot;
    type IntoIter = std::slice::Iter<'a, HourlySnapshot>;

    fn into_iter(self) -> Self::IntoIter {
        self.snapshots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn presence(ip: u32, cc: &'static str) -> BotPresence {
        BotPresence {
            ip: IpAddr4(ip),
            country: cc.parse().unwrap(),
            coords: LatLon::new_unchecked(10.0, 20.0),
        }
    }

    fn snap(family: Family, hour: i64, bots: Vec<BotPresence>) -> HourlySnapshot {
        HourlySnapshot {
            family,
            taken_at: Timestamp(hour * 3_600),
            bots,
        }
    }

    #[test]
    fn population_and_countries() {
        let s = snap(
            Family::Pandora,
            5,
            vec![presence(1, "RU"), presence(2, "US"), presence(3, "RU")],
        );
        assert_eq!(s.population(), 3);
        let cs = s.countries();
        assert_eq!(cs.len(), 2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unaligned_timestamp() {
        let mut s = snap(Family::Pandora, 5, vec![]);
        s.taken_at = Timestamp(5 * 3_600 + 17);
        assert!(s.validate().is_err());
    }

    #[test]
    fn series_orders_and_rejects_duplicates() {
        let a = snap(Family::Nitol, 2, vec![]);
        let b = snap(Family::Nitol, 1, vec![]);
        let series = SnapshotSeries::from_snapshots(vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(series.as_slice()[0].taken_at, b.taken_at);
        assert!(SnapshotSeries::from_snapshots(vec![a.clone(), a]).is_err());
    }

    #[test]
    fn series_rejects_mixed_families() {
        let a = snap(Family::Nitol, 1, vec![]);
        let b = snap(Family::Optima, 2, vec![]);
        assert!(SnapshotSeries::from_snapshots(vec![a, b]).is_err());
    }

    #[test]
    fn push_enforces_order_and_family() {
        let mut series = SnapshotSeries::new();
        series.push(snap(Family::Yzf, 1, vec![])).unwrap();
        assert!(series.push(snap(Family::Yzf, 1, vec![])).is_err());
        assert!(series.push(snap(Family::Optima, 2, vec![])).is_err());
        series.push(snap(Family::Yzf, 2, vec![])).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series.family(), Some(Family::Yzf));
    }

    #[test]
    fn active_days_counts_distinct_days() {
        let mut series = SnapshotSeries::new();
        for h in [0, 1, 2, 24, 25, 72] {
            series.push(snap(Family::Ddoser, h, vec![])).unwrap();
        }
        assert_eq!(series.active_days(), 3);
    }
}
