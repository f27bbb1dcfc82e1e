//! The epoch-sharded analysis engine: a fold that grows in place.
//!
//! [`EpochContext`] accumulates an [`AnalysisContext`] one epoch at a
//! time: the dictionary-keyed bot columns and source table, per-attack
//! vectors, per-target timelines (with *global* attack indices),
//! per-family contexts in final shape, and Table III's small distinct
//! sets ([`SummarySets`]). [`EpochContext::new`] starts an empty fold
//! and [`EpochContext::append`] adds the next epoch's [`DatasetShard`]
//! at a cost that follows the epoch, not the prefix. Passes read the
//! fold through a borrowed view ([`EpochContext::to_context`]), which
//! the [`crate::pipeline::IncrementalPipeline`] hands them after each
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
//! * An epoch's attacks are interned serially, in arrival order, and
//!   then resolved against the whole table by the batch build's own
//!   resolver ([`crate::context`]): each family's slice of the epoch is
//!   cut into jobs that run on the build's worker pool (on the calling
//!   thread alone for a serial fold), and the jobs merge in (family,
//!   job) order. Each family keeps one mark per dictionary id, the week
//!   (+ 1) that last counted it, so its `week × country` bot grid counts
//!   every bot once per week even when an epoch boundary splits a week.
//! * When a row that existed before the append changed attributes or
//!   was promoted, one scan of the id column finds the earlier attacks
//!   that reference it. Each recounts its unresolved sources, and each
//!   family with such an attack is cleared and resolves all of its
//!   covered attacks again — restoring the invariant that the aggregates
//!   equal a fresh build. This path is rare: it never runs on the
//!   paper-scale traces.
//! * Table III's city, country, organization, AS, protocol and botnet
//!   sets grow as records arrive; its attacker IPs are the fold's bot
//!   rows and its victim IPs its target timelines. Each bot record lands
//!   in the one shard of its clamped first-seen epoch, so the fold below
//!   a watermark `w` counts exactly the records of
//!   [`Dataset::epoch_prefix`]`(len, w)`: its attacks, and the bot
//!   records first seen before epoch `w`.
//!
//! The `tests/epochs.rs` property suite proves equivalence over
//! arbitrary partitions (empty epochs and boundary-straddling attacks
//! included) and that no append renumbers an earlier attack's sources,
//! and the golden-report suite pins the epoch engine to the batch
//! digest.

use std::collections::hash_map::Entry;

use ddos_geo::{KernelCounters, PointTrig};
use ddos_obs::Obs;
use ddos_schema::{
    AttackRecord, BotRecord, CountryCode, Dataset, DatasetShard, Family, IpAddr4, LatLon,
    SummarySets, Timestamp, Window,
};
use ddos_stats::ArimaSpec;

use crate::columnar::{chunk_ranges, fan_out, worker_count, SourceTable, NO_BOT};
use crate::context::{AnalysisContext, FamilyContext, Resolver, TargetTimeline, WeekStamp};
use crate::util::IpMap;

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
    /// Whether the epoch's first-seen bot records moved Table III's
    /// attacker column: bot rows were appended or promoted (its IP
    /// count), or a city, country, organization or AS set grew. A record
    /// that only repeats a known IP with a new city appends no bot row
    /// but still moves the table.
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
    /// One week-stamp buffer per family-resolution worker: one per core
    /// for a parallel fold, one for a serial fold. Kept across appends,
    /// so an append stamps into warm buffers instead of zeroing fresh
    /// ones.
    stamps: Vec<WeekStamp>,
    /// Duration of each covered attack.
    durations: Vec<f64>,
    /// Start of each covered attack.
    starts: Vec<Timestamp>,
    /// Per-target timelines, sorted by target, carrying global indices.
    timelines: Vec<TargetTimeline>,
    /// IP → dictionary id, for every IP seen as a bot or as a source.
    index: IpMap<u32>,
    sources: SourceTable,
    bots: BotColumns,
    /// One per [`Family::ACTIVE`] entry, in final shape.
    families: Vec<FamilyContext>,
    /// Beside each family: per dictionary id, the week + 1 in which the
    /// family's grid last counted it (0: never), grown to the dictionary
    /// as the family's jobs merge.
    marks: Vec<Vec<u32>>,
    /// Table III's small distinct sets over the covered attacks and the
    /// bot records first seen in the covered epochs.
    summary: SummarySets,
}

impl EpochContext {
    /// Starts an empty fold over a trace window. With `parallel` set,
    /// each append resolves its families on a pool of scoped workers;
    /// otherwise on the calling thread. The fold is the same either way.
    pub fn new(window: Window, parallel: bool) -> EpochContext {
        let workers = if parallel { worker_count() } else { 1 };
        EpochContext {
            window,
            stamps: (0..workers).map(|_| WeekStamp::default()).collect(),
            durations: Vec::new(),
            starts: Vec::new(),
            timelines: Vec::new(),
            index: IpMap::default(),
            sources: SourceTable::default(),
            bots: BotColumns::default(),
            families: Family::ACTIVE
                .into_iter()
                .map(|family| FamilyContext::empty(family, window.num_weeks()))
                .collect(),
            marks: vec![Vec::new(); Family::ACTIVE.len()],
            summary: SummarySets::default(),
        }
    }

    /// Appends the next epoch of a borrowed shard in place.
    ///
    /// # Panics
    ///
    /// If the shard comes from another trace or is not the next epoch.
    pub fn append(&mut self, shard: &DatasetShard<'_>, obs: &Obs) -> AppendDelta {
        let dataset = shard.dataset();
        assert_eq!(dataset.window(), self.window, "epoch from another trace");
        let attack_base = shard.attack_range().start;
        assert_eq!(attack_base, self.len(), "epochs must arrive in order");
        let attacks = shard.attacks();
        let build = obs.span("epoch/build");
        let known = self.sources.dict_len();

        // The epoch's bot records, by ascending roster position, copied
        // out of the roster first: they are scattered across it, and one
        // loop of independent loads gathers them far faster than the
        // dependent hash work below would fetch them one by one.
        let epoch_bots: Vec<(u32, BotRecord)> = shard.bots().map(|(p, b)| (p, *b)).collect();
        let mut appended_bots = 0;
        let mut attackers_grew = false;
        let mut stale: Vec<u32> = Vec::new();
        for &(position, ref b) in &epoch_bots {
            attackers_grew |= self.summary.insert_bot(b);
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
        attackers_grew |= appended_bots > 0;
        let reresolved = if stale.is_empty() {
            Vec::new()
        } else {
            self.find_stale(attack_base, known, &stale)
        };

        // The epoch's attacks, interned in arrival order.
        let mut ids = Vec::new();
        for a in attacks {
            self.summary.insert_attack(a);
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
        }

        let kernel = KernelCounters::default();
        self.resolve_families(dataset, attack_base, &reresolved, &kernel);
        drop(build);

        let merge = obs.span("epoch/merge");
        self.splice_timelines(attack_base, attacks);
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

    /// Finds every attack before `attack_base` that references one of the
    /// `stale` ids (all below `known`, the dictionary size before the
    /// append) and recounts its unresolved sources against the current
    /// table. Returns their indices.
    fn find_stale(&mut self, attack_base: usize, known: usize, stale: &[u32]) -> Vec<u32> {
        let mut marked = vec![false; known];
        for &id in stale {
            marked[id as usize] = true;
        }
        let affected: Vec<u32> = (0..attack_base)
            .filter(|&i| self.sources.ids_of(i).iter().any(|&id| marked[id as usize]))
            .map(|i| i as u32)
            .collect();
        for &i in &affected {
            self.sources.recount_unresolved(i as usize);
        }
        affected
    }

    /// Resolves the covered attacks past `attack_base` family by family
    /// and merges them into the family slots. A family with a
    /// `reresolved` attack is cleared first and resolves all of its
    /// covered attacks instead.
    fn resolve_families(
        &mut self,
        dataset: &Dataset,
        attack_base: usize,
        reresolved: &[u32],
        kernel: &KernelCounters,
    ) {
        let attack_end = self.len();
        let mut dirty = [false; Family::ACTIVE.len()];
        for &i in reresolved {
            let family = dataset.attacks()[i as usize].family;
            if family.is_active() {
                dirty[family.index()] = true;
            }
        }
        let pieces = self.stamps.len();
        let mut jobs: Vec<(usize, &[u32])> = Vec::new();
        for (slot, family) in Family::ACTIVE.into_iter().enumerate() {
            let all = dataset.attack_indices_of(family);
            let all = &all[..all.partition_point(|&i| (i as usize) < attack_end)];
            let todo = if dirty[slot] {
                self.families[slot].clear();
                self.marks[slot].fill(0);
                all
            } else {
                &all[all.partition_point(|&i| (i as usize) < attack_base)..]
            };
            for r in chunk_ranges(todo.len(), pieces) {
                jobs.push((slot, &todo[r]));
            }
        }
        let resolver = Resolver {
            window: self.window,
            starts: &self.starts,
            sources: &self.sources,
            trigs: &self.bots.trig,
            countries: &self.bots.countries,
        };
        let chunks = fan_out(jobs.len(), &mut self.stamps, |j, stamp| {
            resolver.resolve(jobs[j].1, stamp, kernel)
        });
        let dict_len = self.sources.dict_len();
        for (&(slot, indices), chunk) in jobs.iter().zip(chunks) {
            let marks = &mut self.marks[slot];
            marks.resize(dict_len, 0);
            self.families[slot].absorb(self.window, &self.starts, indices, chunk, marks, 1);
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

    /// Lends the fold to the passes as an analysis context, mid-stream
    /// or complete. The context covers exactly the appended epochs: its
    /// attack slice is borrowed from `dataset` and ends with the last
    /// appended epoch, every column is borrowed from the fold, and Table
    /// III comes from the fold's sets, bot rows and timelines. Passes
    /// over it therefore answer
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
            self.summary
                .summary(self.len(), self.bots.rows, self.timelines.len()),
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

    #[test]
    fn folded_table_iii_matches_the_prefix_scan_at_every_watermark() {
        let day = 86_400;
        let mut b = DatasetBuilder::new(window());
        // (ip, city, first-seen day), in roster order: bot 9 is first a
        // source only, bot 1's third record repeats its IP with a new
        // city, and its last repeats its first record.
        for (last, city, first) in [(1, 1, 0), (2, 2, 0), (9, 4, 4), (1, 3, 6), (1, 1, 8)] {
            b.push_bot(BotRecord {
                ip: ip(last),
                botnet: BotnetId(1),
                family: Family::Pandora,
                location: location("RU", city),
                first_seen: Timestamp(first * day),
                last_seen: Timestamp(first * day),
            })
            .unwrap();
        }
        for (id, (start, target, sources)) in [
            (0, 1, vec![1, 9]),
            (1, 2, vec![2]),
            (3, 1, vec![1]),
            (5, 3, vec![2, 9]),
            (8, 2, vec![1]),
        ]
        .into_iter()
        .enumerate()
        {
            let mut a = attack(Family::Pandora, id as u64 + 1, start * day, 60, target);
            a.sources = sources.into_iter().map(ip).collect();
            b.push_attack(a).unwrap();
        }
        let ds = b.build().unwrap();
        let len = Seconds::days(2);
        let obs = Obs::disabled();
        let mut fold = EpochContext::new(ds.window(), false);
        let mut grew = Vec::new();
        for (k, shard) in ds.shards(len).iter().enumerate() {
            grew.push(fold.append(shard, &obs).attackers_grew);
            let prefix = ds.epoch_prefix(len, k + 1);
            assert_eq!(
                fold.to_context(&ds, ArimaSpec::DEFAULT).summary(),
                prefix.summary(),
                "watermark {}",
                k + 1
            );
        }
        // New rows, nothing, a promoted source, a known IP's new city,
        // and a record that repeats a known one.
        assert_eq!(grew, [true, false, true, true, false]);
        let table = fold.to_context(&ds, ArimaSpec::DEFAULT).summary();
        assert_eq!((table.attackers.ips, table.attackers.cities), (3, 4));
        assert_eq!(table.victims.ips, 3);
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
            let mut fold = EpochContext::new(ds.window(), true);
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
            prop_assert_eq!(fold.bots.rows, index.len());
        }
    }
}
