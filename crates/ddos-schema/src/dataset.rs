//! The in-memory dataset joining all three schemas.
//!
//! The paper "associate\[s\] three schemas to create a comprehensive dataset
//! with a focus on the DDoS attacks" (§II-A); [`Dataset`] is that join:
//! the validated records, attacks in global `(start, id)` order, and
//! per-family snapshot series. It builds no index over them; the epoch
//! fold of `ddos-analytics` groups the attacks by family and by target.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::error::SchemaError;
use crate::family::Family;
use crate::geo::CountryCode;
use crate::hashing::FastSet;
use crate::ids::{Asn, BotnetId, CityId, OrgId};
use crate::ip::IpAddr4;
use crate::protocol::Protocol;
use crate::record::{AttackRecord, BotRecord, BotnetRecord, Location};
use crate::snapshot::{HourlySnapshot, SnapshotSeries};
use crate::time::Window;

/// Summary counters for one side (attackers or victims) of the trace,
/// mirroring one column of the paper's Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SideSummary {
    /// Distinct IP addresses.
    pub ips: usize,
    /// Distinct cities.
    pub cities: usize,
    /// Distinct countries.
    pub countries: usize,
    /// Distinct organizations.
    pub organizations: usize,
    /// Distinct autonomous systems.
    pub asns: usize,
}

/// Dataset-level summary mirroring the paper's Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Attacker-side distinct counts.
    pub attackers: SideSummary,
    /// Victim-side distinct counts.
    pub victims: SideSummary,
    /// Number of attacks (`# of ddos_id`).
    pub attacks: usize,
    /// Number of botnet generations (`# of botnet_id`).
    pub botnets: usize,
    /// Number of distinct traffic types seen.
    pub traffic_types: usize,
}

/// The distinct sets behind one [`SideSummary`], all but its IP count:
/// a side's distinct IPs are counted where its records are keyed by IP
/// already (see [`SummarySets`]).
#[derive(Debug, Clone, Default)]
struct SideSets {
    cities: FastSet<CityId>,
    countries: FastSet<CountryCode>,
    orgs: FastSet<OrgId>,
    asns: FastSet<Asn>,
}

impl SideSets {
    /// Counts one location; whether any set grew.
    #[inline]
    fn insert(&mut self, at: &Location) -> bool {
        let mut grew = self.cities.insert(at.city);
        grew |= self.countries.insert(at.country);
        grew |= self.orgs.insert(at.org);
        grew | self.asns.insert(at.asn)
    }

    fn counts(&self, ips: usize) -> SideSummary {
        SideSummary {
            ips,
            cities: self.cities.len(),
            countries: self.countries.len(),
            organizations: self.orgs.len(),
            asns: self.asns.len(),
        }
    }
}

/// Table III's distinct sets but the two IP columns: city, country,
/// organization and AS on the attacker side (over bot records) and on
/// the victim side (over attack targets), plus the victims' traffic
/// types and botnet ids. These stay small (a paper-scale trace has a
/// few thousand cities, organizations and ASes against 304k distinct
/// bot IPs), so a fold inserts into one set per column as records
/// arrive. The IP counts come from the caller, which already keys its
/// records by IP: [`Dataset::summary`] sort-dedups the bot and target
/// IPs, and the epoch fold counts its bot rows and target timelines.
#[derive(Debug, Clone, Default)]
pub struct SummarySets {
    attackers: SideSets,
    victims: SideSets,
    protocols: FastSet<Protocol>,
    botnets: FastSet<BotnetId>,
}

impl SummarySets {
    /// Counts one bot record on the attacker side; whether an attacker
    /// set grew (Table III's attacker column moved, IPs aside).
    #[inline]
    pub fn insert_bot(&mut self, bot: &BotRecord) -> bool {
        self.attackers.insert(&bot.location)
    }

    /// Counts one attack record on the victim side.
    #[inline]
    pub fn insert_attack(&mut self, attack: &AttackRecord) {
        self.victims.insert(&attack.target);
        self.protocols.insert(attack.category);
        self.botnets.insert(attack.botnet);
    }

    /// The distinct counts, with `attacks` as the attack total and the
    /// distinct attacker (bot) and victim (target) IP counts as given.
    pub fn summary(
        &self,
        attacks: usize,
        attacker_ips: usize,
        victim_ips: usize,
    ) -> DatasetSummary {
        DatasetSummary {
            attackers: self.attackers.counts(attacker_ips),
            victims: self.victims.counts(victim_ips),
            attacks,
            botnets: self.botnets.len(),
            traffic_types: self.protocols.len(),
        }
    }
}

/// The joined trace: its validated records.
///
/// Construction goes through [`DatasetBuilder`], which validates every
/// record and sorts the attacks; the dataset itself is immutable and
/// holds nothing but the records. Serde support round-trips the records,
/// and deserialization builds through the same [`DatasetBuilder`] and
/// [`SnapshotSeries::from_snapshots`] as the framed decode, so a JSON
/// trace passes exactly the checks a binary one does.
#[derive(Debug, Clone, Serialize)]
pub struct Dataset {
    window: Window,
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snapshots: BTreeMap<Family, SnapshotSeries>,
}

/// Wire representation of [`Dataset`]: its serialized fields, unchecked,
/// with each snapshot series as its raw list.
#[derive(Deserialize)]
struct DatasetWire {
    window: Window,
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snapshots: BTreeMap<Family, SeriesWire>,
}

/// Wire representation of a [`SnapshotSeries`], which is deserialized
/// only through [`SnapshotSeries::from_snapshots`].
#[derive(Deserialize)]
struct SeriesWire {
    snapshots: Vec<HourlySnapshot>,
}

impl DatasetWire {
    /// Builds the records the way `framed::decode` does, each one
    /// validated on the way in.
    fn build(self) -> Result<Dataset, SchemaError> {
        let mut builder = DatasetBuilder::new(self.window).allow_out_of_window();
        builder.extend_attacks(self.attacks)?;
        for bot in self.bots {
            builder.push_bot(bot)?;
        }
        for botnet in self.botnets {
            builder.push_botnet(botnet)?;
        }
        for (family, series) in self.snapshots {
            builder.set_snapshots(family, SnapshotSeries::from_snapshots(series.snapshots)?)?;
        }
        builder.build()
    }
}

impl<'de> Deserialize<'de> for Dataset {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        // Deserialized data is untrusted: it passes the builder's checks,
        // so a hand-edited JSON file cannot smuggle in records that would
        // break downstream analyses.
        DatasetWire::deserialize(deserializer)?
            .build()
            .map_err(serde::de::Error::custom)
    }
}

impl Dataset {
    /// The observation window of the trace.
    #[inline]
    pub fn window(&self) -> Window {
        self.window
    }

    /// All attacks, sorted by `(start, id)`.
    #[inline]
    pub fn attacks(&self) -> &[AttackRecord] {
        &self.attacks
    }

    /// All bot records.
    #[inline]
    pub fn bots(&self) -> &[BotRecord] {
        &self.bots
    }

    /// All botnet generation records.
    #[inline]
    pub fn botnets(&self) -> &[BotnetRecord] {
        &self.botnets
    }

    /// Snapshot series for one family, if present.
    pub fn snapshots(&self, family: Family) -> Option<&SnapshotSeries> {
        self.snapshots.get(&family)
    }

    /// Families that have at least one snapshot, in enum order.
    pub fn snapshot_families(&self) -> impl Iterator<Item = Family> + '_ {
        self.snapshots.keys().copied()
    }

    /// Attacks launched by one family, in start order: a scan of
    /// [`Dataset::attacks`].
    pub fn attacks_of(&self, family: Family) -> impl Iterator<Item = &AttackRecord> {
        self.attacks.iter().filter(move |a| a.family == family)
    }

    /// Number of attacks.
    #[inline]
    pub fn len(&self) -> usize {
        self.attacks.len()
    }

    /// Whether the dataset holds no attacks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// Computes the Table III style summary over the whole trace.
    ///
    /// Attacker-side counts are taken over the bot records (the `Botlist`
    /// join), victim-side counts over the attack targets. Every call is a
    /// full scan of both record lists, and the distinct attacker and
    /// victim IPs are sort-dedups of the bot and target IPs; the epoch
    /// fold grows the same [`SummarySets`] as epochs arrive and counts
    /// its IPs from its own tables instead.
    pub fn summary(&self) -> DatasetSummary {
        let mut sets = SummarySets::default();
        for bot in &self.bots {
            sets.insert_bot(bot);
        }
        for atk in &self.attacks {
            sets.insert_attack(atk);
        }
        let distinct = |mut ips: Vec<IpAddr4>| {
            ips.sort_unstable();
            ips.dedup();
            ips.len()
        };
        sets.summary(
            self.attacks.len(),
            distinct(self.bots.iter().map(|b| b.ip).collect()),
            distinct(self.attacks.iter().map(|a| a.target_ip).collect()),
        )
    }
}

/// Validating builder for [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    window: Window,
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snapshots: BTreeMap<Family, SnapshotSeries>,
    /// When true (default), attacks outside the window are rejected.
    enforce_window: bool,
}

impl DatasetBuilder {
    /// Starts a builder for a trace covering `window`.
    pub fn new(window: Window) -> DatasetBuilder {
        DatasetBuilder {
            window,
            attacks: Vec::new(),
            bots: Vec::new(),
            botnets: Vec::new(),
            snapshots: BTreeMap::new(),
            enforce_window: true,
        }
    }

    /// Disables the check that every attack starts inside the window.
    pub fn allow_out_of_window(mut self) -> DatasetBuilder {
        self.enforce_window = false;
        self
    }

    /// Adds one attack record (validated).
    pub fn push_attack(&mut self, attack: AttackRecord) -> Result<&mut Self, SchemaError> {
        attack.validate()?;
        if self.enforce_window && !self.window.contains(attack.start) {
            return Err(SchemaError::InvalidDataset(format!(
                "attack {} starts at {} outside window [{}, {})",
                attack.id, attack.start, self.window.start, self.window.end
            )));
        }
        self.attacks.push(attack);
        Ok(self)
    }

    /// Adds many attack records (each validated).
    pub fn extend_attacks<I>(&mut self, attacks: I) -> Result<&mut Self, SchemaError>
    where
        I: IntoIterator<Item = AttackRecord>,
    {
        for a in attacks {
            self.push_attack(a)?;
        }
        Ok(self)
    }

    /// Appends attack records the caller has already validated — the
    /// framed decoder runs per-record validation on its worker threads,
    /// so re-checking here would double the work. Window enforcement is
    /// intentionally skipped too (the decoder builds with
    /// [`DatasetBuilder::allow_out_of_window`]); the whole-dataset
    /// checks in [`DatasetBuilder::build`] still apply.
    pub(crate) fn extend_attacks_prevalidated(&mut self, attacks: Vec<AttackRecord>) {
        if self.attacks.is_empty() {
            self.attacks = attacks;
        } else {
            self.attacks.extend(attacks);
        }
    }

    /// Appends bot records the caller has already validated.
    pub(crate) fn extend_bots_prevalidated(&mut self, bots: Vec<BotRecord>) {
        if self.bots.is_empty() {
            self.bots = bots;
        } else {
            self.bots.extend(bots);
        }
    }

    /// Appends botnet records the caller has already validated.
    pub(crate) fn extend_botnets_prevalidated(&mut self, botnets: Vec<BotnetRecord>) {
        if self.botnets.is_empty() {
            self.botnets = botnets;
        } else {
            self.botnets.extend(botnets);
        }
    }

    /// Adds one bot record (validated).
    pub fn push_bot(&mut self, bot: BotRecord) -> Result<&mut Self, SchemaError> {
        bot.validate()?;
        self.bots.push(bot);
        Ok(self)
    }

    /// Adds one botnet generation record (validated).
    pub fn push_botnet(&mut self, botnet: BotnetRecord) -> Result<&mut Self, SchemaError> {
        botnet.validate()?;
        self.botnets.push(botnet);
        Ok(self)
    }

    /// Installs the snapshot series for a family (replaces any previous).
    pub fn set_snapshots(
        &mut self,
        family: Family,
        series: SnapshotSeries,
    ) -> Result<&mut Self, SchemaError> {
        if let Some(series_family) = series.family() {
            if series_family != family {
                return Err(SchemaError::InvalidDataset(format!(
                    "snapshot series for {series_family} installed under {family}"
                )));
            }
        }
        self.snapshots.insert(family, series);
        Ok(self)
    }

    /// Finishes the build: checks id uniqueness and sorts the attacks.
    pub fn build(self) -> Result<Dataset, SchemaError> {
        let mut seen = HashSet::with_capacity(self.attacks.len());
        for atk in &self.attacks {
            if !seen.insert(atk.id) {
                return Err(SchemaError::InvalidDataset(format!(
                    "duplicate attack id {}",
                    atk.id
                )));
            }
        }
        let mut botnet_seen = HashSet::with_capacity(self.botnets.len());
        for bn in &self.botnets {
            if !botnet_seen.insert(bn.id) {
                return Err(SchemaError::InvalidDataset(format!(
                    "duplicate botnet id {}",
                    bn.id
                )));
            }
        }
        let mut attacks = self.attacks;
        attacks.sort_by_key(|a| (a.start, a.id));
        Ok(Dataset {
            window: self.window,
            attacks,
            bots: self.bots,
            botnets: self.botnets,
            snapshots: self.snapshots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DdosId;
    use crate::record::test_fixtures::attack;
    use crate::time::Timestamp;

    fn window() -> Window {
        Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap()
    }

    #[test]
    fn build_sorts_and_indexes() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(2, 5_000)).unwrap();
        b.push_attack(attack(1, 1_000)).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.attacks()[0].id, DdosId(1));
        assert_eq!(ds.attacks_of(Family::Dirtjumper).count(), 2);
        assert_eq!(ds.attacks_of(Family::Optima).count(), 0);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn duplicate_attack_ids_rejected() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        b.push_attack(attack(1, 2_000)).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn out_of_window_attacks_rejected_unless_allowed() {
        let mut b = DatasetBuilder::new(window());
        assert!(b.push_attack(attack(1, 2_000_000)).is_err());
        let mut b = DatasetBuilder::new(window()).allow_out_of_window();
        assert!(b.push_attack(attack(1, 2_000_000)).is_ok());
    }

    #[test]
    fn invalid_record_rejected_at_push() {
        let mut bad = attack(1, 1_000);
        bad.sources.clear();
        let mut b = DatasetBuilder::new(window());
        assert!(b.push_attack(bad).is_err());
    }

    #[test]
    fn summary_counts_distincts() {
        let mut b = DatasetBuilder::new(window());
        let mut a1 = attack(1, 1_000);
        a1.category = crate::Protocol::Http;
        let mut a2 = attack(2, 2_000);
        a2.category = crate::Protocol::Udp;
        a2.target_ip = IpAddr4::from_octets(198, 51, 100, 2);
        b.push_attack(a1).unwrap();
        b.push_attack(a2).unwrap();
        let ds = b.build().unwrap();
        let s = ds.summary();
        assert_eq!(s.attacks, 2);
        assert_eq!(s.victims.ips, 2);
        assert_eq!(s.traffic_types, 2);
        assert_eq!(s.botnets, 1);
        // No bot records were added, so attacker side is empty.
        assert_eq!(s.attackers.ips, 0);
        // The third bot record repeats the first IP with a new city, the
        // fourth repeats the first record outright: two IPs, three cities.
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        for (last, city) in [(1, 1), (2, 2), (1, 3), (1, 1)] {
            b.push_bot(BotRecord {
                ip: IpAddr4::from_octets(203, 0, 113, last),
                botnet: BotnetId(7),
                family: Family::Dirtjumper,
                location: Location {
                    city: CityId(city),
                    ..crate::record::test_fixtures::location()
                },
                first_seen: Timestamp(0),
                last_seen: Timestamp(10),
            })
            .unwrap();
        }
        let s = b.build().unwrap().summary();
        assert_eq!(s.attackers.ips, 2);
        assert_eq!(s.attackers.cities, 3);
        assert_eq!(s.attackers.countries, 1);
    }

    #[test]
    fn snapshot_family_mismatch_rejected() {
        let series = SnapshotSeries::from_snapshots(vec![HourlySnapshot {
            family: Family::Pandora,
            taken_at: Timestamp(3_600),
            bots: vec![],
        }])
        .unwrap();
        let mut b = DatasetBuilder::new(window());
        assert!(b.set_snapshots(Family::Nitol, series.clone()).is_err());
        assert!(b.set_snapshots(Family::Pandora, series).is_ok());
    }

    #[test]
    fn deserialization_rejects_invalid_records() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        let ds = b.build().unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        // Duplicate the attack (same id) in the raw JSON.
        let dup = json.replacen("\"attacks\":[", "\"attacks\":[DUP,", 1);
        let record = serde_json::to_string(&ds.attacks()[0]).unwrap();
        let dup = dup.replace("DUP", &record);
        let err = serde_json::from_str::<Dataset>(&dup).unwrap_err();
        assert!(err.to_string().contains("duplicate attack id"), "{err}");
        // An end-before-start record is rejected too.
        let bad = json.replace("\"end\":1600", "\"end\":1");
        assert_ne!(bad, json, "fixture layout changed");
        assert!(serde_json::from_str::<Dataset>(&bad).is_err());

        // The other records pass the builder's checks too: a valid bot,
        // botnet and two snapshot series, each edited below into a
        // record the builder rejects.
        let botnet = BotnetRecord {
            id: BotnetId(7),
            family: Family::Dirtjumper,
            binary_hash: [0; 20],
            controller: IpAddr4::from_octets(192, 0, 2, 1),
            enrolled_bots: 1,
            first_seen: Timestamp(0),
            last_seen: Timestamp(10),
        };
        let snapshot = |family, taken_at| HourlySnapshot {
            family,
            taken_at: Timestamp(taken_at),
            bots: vec![],
        };
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        b.push_bot(BotRecord {
            ip: IpAddr4::from_octets(203, 0, 113, 5),
            botnet: BotnetId(7),
            family: Family::Dirtjumper,
            location: crate::record::test_fixtures::location(),
            first_seen: Timestamp(0),
            last_seen: Timestamp(20),
        })
        .unwrap();
        b.push_botnet(botnet.clone()).unwrap();
        for family in [Family::Pandora, Family::Nitol] {
            let series = SnapshotSeries::from_snapshots(vec![snapshot(family, 3_600)]).unwrap();
            b.set_snapshots(family, series).unwrap();
        }
        let valid = serde_json::to_string(&b.build().unwrap()).unwrap();
        serde_json::from_str::<Dataset>(&valid).unwrap();
        let rejects = |from: &str, to: &str, why: &str| {
            assert!(valid.contains(from), "fixture layout changed: {from}");
            let err = serde_json::from_str::<Dataset>(&valid.replacen(from, to, 1)).unwrap_err();
            assert!(err.to_string().contains(why), "{why}: {err}");
        };
        // A bot last seen before it was first seen.
        rejects(
            "\"last_seen\":20",
            "\"last_seen\":-1",
            "bot 203.0.113.5: last_seen precedes first_seen",
        );
        // A botnet record listed twice.
        let listed = serde_json::to_string(&botnet).unwrap();
        rejects(
            "\"botnets\":[",
            &format!("\"botnets\":[{listed},"),
            "duplicate botnet id",
        );
        // A Nitol series filed under the Pandora key.
        let json_of =
            |family, taken_at| serde_json::to_string(&snapshot(family, taken_at)).unwrap();
        let pandora = json_of(Family::Pandora, 3_600);
        let nitol = json_of(Family::Nitol, 3_600);
        rejects(&pandora, &nitol, "series for nitol installed under pandora");
        // A series that mixes Pandora and Nitol snapshots.
        let later = json_of(Family::Nitol, 7_200);
        rejects(
            &pandora,
            &format!("{pandora},{later}"),
            "mixes families pandora and nitol",
        );
    }

    #[test]
    fn serde_round_trip_rebuilds_indexes() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        b.push_attack(attack(2, 500)).unwrap();
        let ds = b.build().unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attacks_of(Family::Dirtjumper).count(), 2);
        assert_eq!(back.attacks()[0].id, DdosId(2));
        assert_eq!(back.window(), ds.window());
    }
}
