//! The epoch-sharded analysis engine: a fold that grows in place.
//!
//! [`EpochContext`] accumulates an [`AnalysisContext`] one epoch at a
//! time: the dictionary-keyed bot columns and source table, per-attack
//! vectors, per-target timelines (with *global* attack indices),
//! per-family contexts in final shape (with each attack's dispersion
//! snapshot kept beside them), and Table III's distinct sets
//! ([`SummarySets`]). [`EpochContext::new`] starts an empty fold and
//! [`EpochContext::append`] adds the next epoch's [`DatasetShard`] at a
//! cost that follows the epoch, not the prefix. Passes read the fold
//! through a borrowed view ([`EpochContext::to_context`]), which the
//! [`crate::pipeline::IncrementalPipeline`] hands them after each
//! append.
//!
//! # Appending
//!
//! The fold reproduces [`AnalysisContext::build`] **bit-identically**,
//! for any partition of the trace into epochs, because:
//!
//! * Attacks are globally sorted by `(start, id)` and epochs are
//!   assigned by start time, so each shard's attacks are the next
//!   contiguous global index range and per-attack vectors extend.
//! * Every IP the fold has seen, as a bot or as a source, gets one
//!   dictionary id in arrival order and keeps it. The bot columns are
//!   indexed by that id, a source-only IP holding a placeholder row, so
//!   an earlier attack's id slice is never rewritten.
//! * An epoch's bot records go in by ascending roster position. A new
//!   IP appends a row, a known IP's row is overwritten only by a greater
//!   position (the monolithic last-wins rule), and a source-only IP is
//!   promoted in place. The survivor's trigonometry comes from the same
//!   coordinates the monolithic build reads, so its cached bits match.
//! * An epoch's attacks resolve against the whole table. When a row that
//!   existed before the append changed attributes or was promoted, one
//!   scan of the id column finds the earlier attacks that reference it,
//!   and each re-computes its snapshot, weekly entries and unresolved
//!   count against the current table — restoring the invariant that the
//!   aggregates equal a fresh build. A family with a re-resolved attack
//!   rebuilds its series from its snapshots.
//! * Table III's sets grow by union. Each bot record lands in the one
//!   shard of its clamped first-seen epoch, so the union over the epochs
//!   below a watermark `w` counts exactly the records of
//!   [`Dataset::epoch_prefix`]`(len, w)`: its attacks, and the bot
//!   records first seen before epoch `w`.
//!
//! The `tests/epochs.rs` property suite proves equivalence over
//! arbitrary partitions (empty epochs and boundary-straddling attacks
//! included) and that no append renumbers an earlier attack's sources,
//! and the golden-report suite pins the epoch engine to the batch
//! digest.

use std::collections::hash_map::Entry;

use ddos_geo::{dispersion_precomp_indexed_counted, KernelCounters, PointTrig};
use ddos_obs::Obs;
use ddos_schema::{
    AttackRecord, BotRecord, CountryCode, Dataset, DatasetShard, Family, IpAddr4, LatLon,
    SummarySets, Timestamp, Window,
};
use ddos_stats::ArimaSpec;

use crate::columnar::{SourceTable, NO_BOT};
use crate::context::{AnalysisContext, FamilyContext, TargetTimeline};
use crate::source::dispersion::FamilyDispersion;
use crate::util::IpMap;

/// Sentinel slot for attacks of families outside [`Family::ACTIVE`].
const NO_SLOT: u8 = u8::MAX;

/// The country of a source-only id's placeholder row (never read: the
/// id's bot row is [`NO_BOT`]).
const NO_COUNTRY: CountryCode = CountryCode::literal("ZZ");

/// What an append added or re-resolved. The incremental pipeline
/// re-runs every pass after an append whose delta is not
/// [empty](AppendDelta::is_empty), and none after one that is.
#[derive(Debug, Clone)]
pub struct AppendDelta {
    /// Attacks the epoch contributed.
    pub appended_attacks: usize,
    /// Bot rows the epoch added: new bot IPs plus promoted sources.
    pub appended_bots: usize,
    /// Whether the epoch's first-seen bot records grew Table III's
    /// attacker-side sets. A record that only repeats a known IP with a
    /// new city appends no bot row but still moves the table.
    pub attackers_grew: bool,
    /// Global indices of earlier attacks re-resolved against the grown
    /// table (a duplicate IP's attributes changed, or a source got
    /// promoted), ascending.
    pub reresolved: Vec<u32>,
}

impl AppendDelta {
    /// Whether the append left the fold's analysis inputs as they were:
    /// no attack or bot row appended, no Table III attacker set grown,
    /// and no attack re-resolved.
    pub fn is_empty(&self) -> bool {
        self.appended_attacks == 0
            && self.appended_bots == 0
            && !self.attackers_grew
            && self.reresolved.is_empty()
    }
}

/// The bot attributes of every dictionary id, indexed by id: a bot row
/// is its id. Source-only ids hold a placeholder with position
/// [`NO_BOT`] until a bot record promotes them.
#[derive(Debug, Clone, Default)]
struct BotColumns {
    /// Ids holding a bot record.
    rows: usize,
    /// Roster position of the surviving record: the last-wins arbiter.
    positions: Vec<u32>,
    countries: Vec<CountryCode>,
    trig: Vec<PointTrig>,
}

impl BotColumns {
    fn push(&mut self, position: u32, bot: Option<&BotRecord>) {
        self.positions.push(position);
        match bot {
            Some(b) => {
                self.countries.push(b.location.country);
                self.trig.push(PointTrig::new(b.location.coords));
            }
            None => {
                self.countries.push(NO_COUNTRY);
                self.trig.push(PointTrig::new(LatLon::default()));
            }
        }
    }

    /// Overwrites row `id` with `bot`; whether its country or
    /// coordinates changed.
    fn set(&mut self, id: u32, position: u32, bot: &BotRecord) -> bool {
        let i = id as usize;
        let coords = bot.location.coords;
        let changed = self.countries[i] != bot.location.country
            || self.trig[i].lat.to_bits() != coords.lat.to_bits()
            || self.trig[i].lon.to_bits() != coords.lon.to_bits();
        self.positions[i] = position;
        if changed {
            self.countries[i] = bot.location.country;
            self.trig[i] = PointTrig::new(coords);
        }
        changed
    }
}

/// The incremental fold: an [`AnalysisContext`]'s inputs over the
/// epochs appended so far.
#[derive(Debug, Clone)]
pub struct EpochContext {
    /// The *global* trace window (week/day bucketing is always global).
    window: Window,
    /// Per covered attack: its family slot ([`NO_SLOT`] for inactive
    /// families) and its position within that slot.
    membership: Vec<(u8, u32)>,
    /// Duration of each covered attack.
    durations: Vec<f64>,
    /// Start of each covered attack.
    starts: Vec<Timestamp>,
    /// Per-target timelines, sorted by target, carrying global indices.
    timelines: Vec<TargetTimeline>,
    /// IP → dictionary id, for every IP seen as a bot or a source.
    index: IpMap<u32>,
    sources: SourceTable,
    bots: BotColumns,
    /// One per [`Family::ACTIVE`] entry, in final shape.
    families: Vec<FamilyContext>,
    /// Beside each family: the dispersion snapshot of each of its
    /// attacks (`None` when the kernel found no center), aligned to its
    /// `starts`, so a re-resolution replaces one value in place.
    snaps: Vec<Vec<Option<f64>>>,
    /// Table III's distinct sets over the covered attacks and the bot
    /// records first seen in the covered epochs.
    summary: SummarySets,
}

/// Dispersion snapshot of one covered attack against the bot columns —
/// the exact kernel call of the monolithic context build.
fn snap_of(
    sources: &SourceTable,
    trigs: &[PointTrig],
    attack: usize,
    scratch: &mut Vec<u32>,
    kernel: &KernelCounters,
) -> Option<f64> {
    let ids = sources.ids_of(attack);
    let row_list: &[u32] = if sources.unresolved_in(attack) == 0 {
        ids
    } else {
        scratch.clear();
        scratch.extend(
            ids.iter()
                .copied()
                .filter(|&id| sources.bot_row(id) != NO_BOT),
        );
        scratch
    };
    dispersion_precomp_indexed_counted(trigs, row_list, kernel).map(|d| d.value())
}

/// Appends one snapshot to a family's series, counting its day when it
/// is the first snapshot on that day. Attacks arrive in start order, so
/// a family's snapshots on one day are contiguous.
fn push_snap(window: Window, dispersion: &mut FamilyDispersion, start: Timestamp, value: f64) {
    let day = window.day_index(start);
    if day.is_some()
        && dispersion
            .series
            .last()
            .and_then(|&(t, _)| window.day_index(t))
            != day
    {
        dispersion.active_days += 1;
    }
    dispersion.series.push((start, value));
}

impl EpochContext {
    /// Starts an empty fold over a trace window.
    pub fn new(window: Window) -> EpochContext {
        EpochContext {
            window,
            membership: Vec::new(),
            durations: Vec::new(),
            starts: Vec::new(),
            timelines: Vec::new(),
            index: IpMap::default(),
            sources: SourceTable::default(),
            bots: BotColumns::default(),
            families: Family::ACTIVE
                .into_iter()
                .map(|family| FamilyContext {
                    family,
                    starts: Vec::new(),
                    dispersion: FamilyDispersion {
                        family,
                        series: Vec::new(),
                        active_days: 0,
                    },
                    weekly_bots: vec![IpMap::default(); window.num_weeks()],
                })
                .collect(),
            snaps: vec![Vec::new(); Family::ACTIVE.len()],
            summary: SummarySets::default(),
        }
    }

    /// Appends the next epoch of a borrowed shard in place.
    ///
    /// # Panics
    ///
    /// If the shard comes from another trace or is not the next epoch.
    pub fn append(&mut self, shard: &DatasetShard<'_>, obs: &Obs) -> AppendDelta {
        assert_eq!(
            shard.dataset().window(),
            self.window,
            "epoch from another trace"
        );
        let attack_base = shard.attack_range().start;
        assert_eq!(attack_base, self.len(), "epochs must arrive in order");
        let attacks = shard.attacks();
        let build = obs.span("epoch/build");
        let window = self.window;
        let known = self.sources.dict_len();
        let mut epoch_sets = SummarySets::default();

        // The epoch's bot records, by ascending roster position.
        let mut appended_bots = 0;
        let mut stale: Vec<u32> = Vec::new();
        for (position, b) in shard.bots() {
            epoch_sets.insert_bot(b);
            let id = match self.index.entry(b.ip) {
                Entry::Vacant(slot) => {
                    slot.insert(self.sources.intern(b.ip, true));
                    self.bots.push(position, Some(b));
                    appended_bots += 1;
                    continue;
                }
                Entry::Occupied(slot) => *slot.get(),
            };
            let current = self.bots.positions[id as usize];
            let changed = if current == NO_BOT {
                self.bots.set(id, position, b);
                self.sources.promote(id);
                appended_bots += 1;
                true
            } else {
                position > current && self.bots.set(id, position, b)
            };
            // Only rows that existed before the append can be referenced
            // by an earlier attack.
            if changed && (id as usize) < known {
                stale.push(id);
            }
        }
        self.bots.rows += appended_bots;

        // The epoch's attacks, resolved against the whole table.
        let kernel = KernelCounters::default();
        let (mut ids, mut rows) = (Vec::new(), Vec::new());
        for a in attacks {
            epoch_sets.insert_attack(a);
            self.durations.push(a.duration().as_f64());
            self.starts.push(a.start);
            ids.clear();
            for &ip in &a.sources {
                ids.push(*self.index.entry(ip).or_insert_with(|| {
                    self.bots.push(NO_BOT, None);
                    self.sources.intern(ip, false)
                }));
            }
            self.sources.push_attack(ids.iter().copied());
            if !a.family.is_active() {
                self.membership.push((NO_SLOT, 0));
                continue;
            }
            let slot = a.family.index();
            let fc = &mut self.families[slot];
            self.membership.push((slot as u8, fc.starts.len() as u32));
            let i = self.starts.len() - 1;
            let snap = snap_of(&self.sources, &self.bots.trig, i, &mut rows, &kernel);
            fc.starts.push(a.start);
            if let Some(v) = snap {
                push_snap(window, &mut fc.dispersion, a.start, v);
            }
            self.snaps[slot].push(snap);
            if let Some(w) = window.week_index(a.start) {
                for (&id, &ip) in self.sources.ids_of(i).iter().zip(&a.sources) {
                    if self.sources.bot_row(id) != NO_BOT {
                        fc.weekly_bots[w].insert(ip, self.bots.countries[id as usize]);
                    }
                }
            }
        }
        let attackers_grew = self.summary.union(epoch_sets);
        drop(build);

        let merge = obs.span("epoch/merge");
        self.splice_timelines(attack_base, attacks);
        let reresolved = if stale.is_empty() {
            Vec::new()
        } else {
            self.reresolve(attack_base, known, &stale, &kernel)
        };
        drop(merge);
        obs.counter("geo/dispersion_snapshots")
            .add(kernel.snapshots());
        obs.counter("geo/dispersion_points").add(kernel.points());
        obs.counter("geo/dispersion_degenerate")
            .add(kernel.degenerate());

        AppendDelta {
            appended_attacks: attacks.len(),
            appended_bots,
            attackers_grew,
            reresolved,
        }
    }

    /// Extends existing targets' timelines in place and merges new
    /// targets in by target IP.
    fn splice_timelines(&mut self, attack_base: usize, attacks: &[AttackRecord]) {
        let mut keyed: Vec<(IpAddr4, usize)> = attacks
            .iter()
            .enumerate()
            .map(|(k, a)| (a.target_ip, attack_base + k))
            .collect();
        keyed.sort_unstable();
        let mut fresh: Vec<TargetTimeline> = Vec::new();
        let mut run = 0;
        while run < keyed.len() {
            let target = keyed[run].0;
            let end = run + keyed[run..].partition_point(|&(t, _)| t == target);
            let indices = keyed[run..end].iter().map(|&(_, i)| i);
            match self.timelines.binary_search_by_key(&target, |t| t.target) {
                Ok(p) => self.timelines[p].attacks.extend(indices),
                Err(_) => fresh.push(TargetTimeline {
                    target,
                    attacks: indices.collect(),
                }),
            }
            run = end;
        }
        if fresh.is_empty() {
            return;
        }
        let old = std::mem::take(&mut self.timelines);
        self.timelines.reserve(old.len() + fresh.len());
        let mut fresh = fresh.into_iter().peekable();
        for t in old {
            while let Some(f) = fresh.next_if(|f| f.target < t.target) {
                self.timelines.push(f);
            }
            self.timelines.push(t);
        }
        self.timelines.extend(fresh);
    }

    /// Re-resolves every attack before `attack_base` that references one
    /// of the `stale` ids (all below `known`, the dictionary size before
    /// the append) against the current table. Returns their indices.
    fn reresolve(
        &mut self,
        attack_base: usize,
        known: usize,
        stale: &[u32],
        kernel: &KernelCounters,
    ) -> Vec<u32> {
        let mut marked = vec![false; known];
        for &id in stale {
            marked[id as usize] = true;
        }
        let affected: Vec<u32> = (0..attack_base)
            .filter(|&i| self.sources.ids_of(i).iter().any(|&id| marked[id as usize]))
            .map(|i| i as u32)
            .collect();
        let mut dirty = [false; Family::ACTIVE.len()];
        let mut rows = Vec::new();
        for &i in &affected {
            let i = i as usize;
            self.sources.recount_unresolved(i);
            let (slot, pos) = self.membership[i];
            if slot == NO_SLOT {
                continue;
            }
            let slot = slot as usize;
            dirty[slot] = true;
            self.snaps[slot][pos as usize] =
                snap_of(&self.sources, &self.bots.trig, i, &mut rows, kernel);
            if let Some(w) = self.window.week_index(self.starts[i]) {
                for &id in self.sources.ids_of(i) {
                    if self.sources.bot_row(id) != NO_BOT {
                        self.families[slot].weekly_bots[w]
                            .insert(self.sources.ip_of(id), self.bots.countries[id as usize]);
                    }
                }
            }
        }
        for slot in (0..dirty.len()).filter(|&s| dirty[s]) {
            let fc = &mut self.families[slot];
            fc.dispersion.series.clear();
            fc.dispersion.active_days = 0;
            for (&t, snap) in fc.starts.iter().zip(&self.snaps[slot]) {
                if let Some(v) = *snap {
                    push_snap(self.window, &mut fc.dispersion, t, v);
                }
            }
        }
        affected
    }

    /// Number of covered attacks.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the fold covers no attacks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Bot rows resident in the fold's table.
    #[inline]
    pub fn bot_rows(&self) -> usize {
        self.bots.rows
    }

    /// Lends the fold to the passes as an analysis context, mid-stream
    /// or complete. The context covers exactly the appended epochs: its
    /// attack slice is borrowed from `dataset` and ends with the last
    /// appended epoch, every column is borrowed from the fold, and Table
    /// III comes from the fold's sets. Passes over it therefore answer
    /// exactly like a fresh build over [`Dataset::epoch_prefix`] of the
    /// same epochs, with nothing copied.
    ///
    /// # Panics
    ///
    /// If the fold comes from another trace.
    pub fn to_context<'a>(&'a self, dataset: &'a Dataset, spec: ArimaSpec) -> AnalysisContext<'a> {
        assert_eq!(self.window, dataset.window(), "fold from another trace");
        AnalysisContext::from_parts(
            dataset,
            self.len(),
            self.summary.summary(self.len()),
            spec,
            &self.sources,
            &self.durations,
            &self.starts,
            &self.timelines,
            &self.families,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, location, window};
    use crate::util::BotIndex;
    use ddos_schema::{BotnetId, DatasetBuilder, Seconds};
    use proptest::prelude::*;

    fn ip(last: u8) -> IpAddr4 {
        IpAddr4::from_octets(203, 0, 113, last)
    }

    proptest! {
        /// Appended tables resolve every source exactly like the
        /// monolithic last-wins join, however a roster's conflicting
        /// duplicates and first sightings fall across epochs: each
        /// attack's id slice round-trips its sources, an id is a bot row
        /// iff its IP has a record, and the row holds the last record's
        /// country and coordinates.
        #[test]
        fn appended_tables_match_monolithic(
            roster in proptest::collection::vec(
                (0u8..24, prop::sample::select(vec!["US", "RU", "DE"]),
                 -89.0f64..89.0, -179.0f64..179.0, 0i64..10),
                0..48,
            ),
            source_lists in proptest::collection::vec(
                (0i64..10, proptest::collection::vec(0u8..40, 1..10)), 0..12,
            ),
            epoch_days in 1i64..5,
        ) {
            let mut b = DatasetBuilder::new(window());
            for &(last, cc, lat, lon, day) in &roster {
                let mut location = location(cc, 1);
                location.coords = LatLon::new_unchecked(lat, lon);
                b.push_bot(BotRecord {
                    ip: ip(last),
                    botnet: BotnetId(1),
                    family: Family::Pandora,
                    location,
                    first_seen: Timestamp(day * 86_400),
                    last_seen: Timestamp(day * 86_400),
                })
                .unwrap();
            }
            for (i, (day, sources)) in source_lists.iter().enumerate() {
                let mut a = attack(Family::Pandora, i as u64 + 1, day * 86_400 + i as i64, 60, 1);
                a.sources = sources.iter().map(|&l| ip(l)).collect();
                b.push_attack(a).unwrap();
            }
            let ds = b.build().unwrap();
            let index = BotIndex::build(&ds);
            let obs = Obs::disabled();
            let mut fold = EpochContext::new(ds.window());
            for shard in ds.shards(Seconds::days(epoch_days)) {
                fold.append(&shard, &obs);
            }
            for (i, a) in ds.attacks().iter().enumerate() {
                let ids = fold.sources.ids_of(i);
                let back: Vec<IpAddr4> = ids.iter().map(|&id| fold.sources.ip_of(id)).collect();
                prop_assert_eq!(&back, &a.sources);
                let mut misses = 0;
                for &id in ids {
                    let row = fold.sources.bot_row(id);
                    match index.lookup(fold.sources.ip_of(id)) {
                        Some((cc, coords)) => {
                            prop_assert_eq!(row, id);
                            prop_assert_eq!(fold.bots.countries[id as usize], cc);
                            let trig = &fold.bots.trig[id as usize];
                            prop_assert_eq!(trig.lat.to_bits(), coords.lat.to_bits());
                            prop_assert_eq!(trig.lon.to_bits(), coords.lon.to_bits());
                        }
                        None => {
                            prop_assert_eq!(row, NO_BOT);
                            misses += 1;
                        }
                    }
                }
                prop_assert_eq!(fold.sources.unresolved_in(i), misses);
            }
            prop_assert_eq!(fold.bot_rows(), index.len());
        }
    }
}
