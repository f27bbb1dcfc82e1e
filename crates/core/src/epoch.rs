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
//! append. It is also the one-shot build: [`AnalysisContext::build_kernels`]
//! is one append of a one-epoch slicing.
//!
//! # Appending
//!
//! The fold reproduces the one-shot build's analysis inputs
//! **bit-identically**, for any partition of the trace into epochs,
//! because:
//!
//! * Attacks are globally sorted by `(start, id)` and epochs are
//!   assigned by start time, so each shard's attacks are the next
//!   contiguous global index range and per-attack vectors extend.
//! * Every IP the fold has seen, as a bot or as a source, gets one
//!   dictionary id and keeps it. Each append numbers its new bot IPs in
//!   IP order, then its new unresolvable sources in IP order, so a
//!   one-epoch fold numbers like a sorted batch join. The bot columns
//!   are indexed by that id, a source-only IP holding a placeholder
//!   row, so an earlier attack's id slice is never rewritten.
//! * An epoch's bot records are radix-sorted as `(ip, roster position)`
//!   keys and collapse to the last record of each IP. A new IP appends
//!   a row, a known IP's row is overwritten only by a greater position
//!   (the roster's last-wins rule), and a source-only IP is promoted in
//!   place. The survivor's trigonometry comes from its own coordinates,
//!   so its cached bits match whatever the partition.
//! * Known IPs are found through a `FastMap` index of the earlier
//!   appends' ids. The second append builds it, and each later append
//!   first indexes the ids of the one before, so a one-epoch fold never
//!   builds it.
//! * The epoch's sources resolve on the fold's worker pool (on the
//!   calling thread alone for a serial fold): each worker looks a
//!   source up in its own direct-mapped cache, which it keeps across
//!   appends because ids never change, then in the index, then among
//!   the epoch's sorted new bots. Each family's slice of the epoch is
//!   then cut into jobs ([`KernelPolicy`]) that the resolver of
//!   [`crate::context`] runs on the same pool, and the jobs merge in
//!   (family, job) order, through one mark buffer under a fresh tag
//!   range per family. Each family keeps the ids it counted in its
//!   latest week and restores their marks before its next merge, so its
//!   `week × country` bot grid counts every bot once per week even when
//!   an epoch boundary splits a week.
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

use std::borrow::Cow;

use ddos_geo::{KernelCounters, PointTrig};
use ddos_obs::Obs;
use ddos_schema::hashing::FastMap;
use ddos_schema::{
    AttackRecord, BotRecord, CountryCode, Dataset, DatasetShard, DatasetSummary, Family, IpAddr4,
    LatLon, SummarySets, Timestamp, Window,
};
use ddos_stats::ArimaSpec;

use crate::columnar::{
    beside, chunk_ranges, fan_out, last_per_ip, radix_sort_by_ip, worker_count, ResolveCache,
    SourceTable, NO_BOT,
};
use crate::context::{
    AnalysisContext, FamilyContext, OpenWeek, Resolver, TargetTimeline, WeekMarks, WeekStamp,
};
use crate::kernels::KernelPolicy;

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
    fn push(&mut self, position: u32, bot: &BotRecord) {
        self.positions.push(position);
        self.countries.push(bot.location.country);
        self.trig.push(PointTrig::new(bot.location.coords));
    }

    /// Appends `n` source-only placeholder rows.
    fn pad(&mut self, n: usize) {
        let len = self.positions.len() + n;
        self.positions.resize(len, NO_BOT);
        self.countries.resize(len, NO_COUNTRY);
        self.trig.resize(len, PointTrig::new(LatLon::default()));
    }

    /// Joins an epoch's bot records in: radix-sorted `(ip, position)`
    /// keys, one per IP (the last wins). The new IPs are interned in IP
    /// order; a known one, found through `index`, is promoted or
    /// overwritten by a later record. Returns the bot rows appended or
    /// promoted and the earlier ids whose row changed.
    fn join(
        &mut self,
        shard: &DatasetShard<'_>,
        index: &FastMap<IpAddr4, u32>,
        sources: &mut SourceTable,
    ) -> (usize, Vec<u32>) {
        let mut keys: Vec<u64> = shard
            .bots()
            .map(|(position, b)| (u64::from(b.ip.value()) << 32) | u64::from(position))
            .collect();
        last_per_ip(&mut keys);
        // At most one new row per key: room for all of them up front, so
        // no column doubles past its size while a one-epoch fold fills it.
        sources.reserve(keys.len());
        self.positions.reserve(keys.len());
        self.countries.reserve(keys.len());
        self.trig.reserve(keys.len());
        let records = shard.dataset().bots();
        let mut appended = 0;
        let mut stale = Vec::new();
        for key in keys {
            let position = key as u32;
            let b = &records[position as usize];
            let Some(&id) = index.get(&b.ip) else {
                sources.intern(b.ip, true);
                self.push(position, b);
                appended += 1;
                continue;
            };
            // Every indexed id predates the append, so an earlier attack
            // may reference it.
            let current = self.positions[id as usize];
            let changed = if current == NO_BOT {
                self.set(id, position, b);
                sources.promote(id);
                appended += 1;
                true
            } else {
                position > current && self.set(id, position, b)
            };
            if changed {
                stale.push(id);
            }
        }
        self.rows += appended;
        (appended, stale)
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
    /// How an append cuts each family's attacks into resolution jobs.
    policy: KernelPolicy,
    /// One week-stamp buffer per pool worker: one per core for a
    /// parallel fold, one for a serial fold. Kept across appends, so an
    /// append stamps into warm buffers instead of zeroing fresh ones.
    stamps: Vec<WeekStamp>,
    /// One source-resolve cache per pool worker, kept across appends
    /// like the stamps.
    caches: Vec<ResolveCache>,
    /// Duration of each covered attack.
    durations: Vec<f64>,
    /// Start of each covered attack.
    starts: Vec<Timestamp>,
    /// Per-target timelines, sorted by target, carrying global indices.
    timelines: Vec<TargetTimeline>,
    /// IP → dictionary id for the ids of the earlier appends: empty
    /// through the first append, then caught up at the start of each.
    index: FastMap<IpAddr4, u32>,
    sources: SourceTable,
    bots: BotColumns,
    /// One per [`Family::ACTIVE`] entry, in final shape.
    families: Vec<FamilyContext>,
    /// The merge's mark buffer: per dictionary id, the tag of the
    /// (append, family, week) that last counted it.
    marks: WeekStamp,
    /// Beside each family: the ids its grid counted in its latest week.
    open: Vec<OpenWeek>,
    /// Table III's small distinct sets over the covered attacks and the
    /// bot records first seen in the covered epochs.
    summary: SummarySets,
}

impl EpochContext {
    /// Starts an empty fold over a trace window. With `parallel` set,
    /// each append sweeps its sources and resolves its families on a
    /// pool of one worker per core; otherwise on the calling thread.
    /// `policy` sets the length of the family jobs. The fold is the same
    /// either way.
    pub fn new(window: Window, parallel: bool, policy: KernelPolicy) -> EpochContext {
        let workers = if parallel { worker_count() } else { 1 };
        EpochContext {
            window,
            policy,
            stamps: vec![WeekStamp::default(); workers],
            caches: vec![ResolveCache::default(); workers],
            durations: Vec::new(),
            starts: Vec::new(),
            timelines: Vec::new(),
            index: FastMap::default(),
            sources: SourceTable::default(),
            bots: BotColumns::default(),
            families: Family::ACTIVE
                .into_iter()
                .map(|family| FamilyContext::empty(family, window.num_weeks()))
                .collect(),
            marks: WeekStamp::default(),
            open: vec![OpenWeek::default(); Family::ACTIVE.len()],
            summary: SummarySets::default(),
        }
    }

    /// Appends the next epoch of a borrowed shard in place.
    ///
    /// The `epoch/build` span holds the `context/bot_table`,
    /// `context/source_table` and `context/family_resolution` phases,
    /// and `epoch/merge` holds `context/timelines`.
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

        let bot_span = obs.span("context/bot_table");
        let known = self.sources.dict_len();
        self.index.reserve(known - self.index.len());
        for id in self.index.len()..known {
            self.index.insert(self.sources.ip_of(id as u32), id as u32);
        }
        // On a pool, Table III's sets and the per-attack columns fill on
        // a second worker while this one joins the bot records.
        let (index, sources, bots) = (&self.index, &mut self.sources, &mut self.bots);
        let (summary, durations, starts) =
            (&mut self.summary, &mut self.durations, &mut self.starts);
        let (sets_grew, (appended_bots, stale)) = beside(
            self.caches.len() > 1,
            || {
                let mut grew = false;
                for (_, b) in shard.bots() {
                    grew |= summary.insert_bot(b);
                }
                for a in attacks {
                    summary.insert_attack(a);
                    durations.push(a.duration().as_f64());
                    starts.push(a.start);
                }
                grew
            },
            || bots.join(shard, index, sources),
        );
        let attackers_grew = sets_grew || appended_bots > 0;
        let reresolved = if stale.is_empty() {
            Vec::new()
        } else {
            self.find_stale(attack_base, known, &stale)
        };
        drop(bot_span);

        let source_span = obs.span("context/source_table");
        let misses = self
            .sources
            .append_attacks(attacks, known, &self.index, &mut self.caches);
        self.bots.pad(misses);
        drop(source_span);

        let family_span = obs.span("context/family_resolution");
        let kernel = KernelCounters::default();
        self.resolve_families(dataset, attack_base, &reresolved, &kernel, obs);
        drop(family_span);
        drop(build);

        let merge = obs.span("epoch/merge");
        let timeline_span = obs.span("context/timelines");
        self.splice_timelines(attack_base, attacks);
        drop(timeline_span);
        drop(merge);
        obs.gauge("context/attacks").set(self.len() as u64);
        obs.gauge("context/bots").set(self.bots.rows as u64);
        obs.gauge("context/source_dict_ips")
            .set(self.sources.dict_len() as u64);
        obs.gauge("context/participations")
            .set(self.sources.participations() as u64);
        obs.gauge("context/unresolved_sources")
            .set(self.sources.unresolved_total());
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
    /// and merges them into the family slots. One pass over the epoch's
    /// attacks cuts each family's slice of it. A family with a
    /// `reresolved` attack is cleared first and resolves all of its
    /// covered attacks instead, so the pass then starts at the first
    /// covered attack.
    fn resolve_families(
        &mut self,
        dataset: &Dataset,
        attack_base: usize,
        reresolved: &[u32],
        kernel: &KernelCounters,
        obs: &Obs,
    ) {
        let attacks = &dataset.attacks()[..self.len()];
        let mut dirty = [false; Family::ACTIVE.len()];
        for &i in reresolved {
            let family = attacks[i as usize].family;
            if family.is_active() {
                dirty[family.index()] = true;
            }
        }
        let first = if dirty.contains(&true) {
            0
        } else {
            attack_base
        };
        let mut todo: Vec<Vec<u32>> = vec![Vec::new(); Family::ACTIVE.len()];
        for (i, a) in (first..).zip(&attacks[first..]) {
            let slot = a.family.index();
            if a.family.is_active() && (i >= attack_base || dirty[slot]) {
                todo[slot].push(i as u32);
            }
        }
        let workers = self.stamps.len();
        let mut jobs: Vec<(usize, &[u32])> = Vec::new();
        for (slot, todo) in todo.iter().enumerate() {
            if dirty[slot] {
                self.families[slot].clear();
                self.open[slot] = OpenWeek::default();
            }
            let pieces = match self.policy {
                KernelPolicy::Auto => workers,
                KernelPolicy::Chunked(len) => todo.len().div_ceil(len.max(1)),
            };
            for r in chunk_ranges(todo.len(), pieces) {
                jobs.push((slot, &todo[r]));
            }
        }
        obs.gauge("context/family_jobs").set(jobs.len() as u64);
        obs.gauge("context/workers")
            .set(workers.min(jobs.len()).max(1) as u64);
        let chunk_hist = obs.histogram("context/chunk_us");
        let resolver = Resolver {
            window: self.window,
            starts: &self.starts,
            sources: &self.sources,
            trigs: &self.bots.trig,
            countries: &self.bots.countries,
        };
        let chunks = fan_out(jobs.len(), &mut self.stamps, |j, stamp| {
            let t0 = obs.now_us();
            let chunk = resolver.resolve(jobs[j].1, stamp, kernel);
            chunk_hist.record(obs.now_us().saturating_sub(t0));
            chunk
        });
        let (dict_len, num_weeks) = (self.sources.dict_len(), self.window.num_weeks());
        let mut merged = jobs.iter().zip(chunks).peekable();
        while let Some(&(&(slot, _), _)) = merged.peek() {
            let mut marks =
                WeekMarks::claim(&mut self.marks, dict_len, num_weeks, &mut self.open[slot]);
            while let Some((&(_, indices), chunk)) = merged.next_if(|job| job.0 .0 == slot) {
                self.families[slot].absorb(self.window, &self.starts, indices, chunk, &mut marks);
            }
        }
    }

    /// Extends existing targets' timelines in place and merges new
    /// targets in by target IP.
    fn splice_timelines(&mut self, attack_base: usize, attacks: &[AttackRecord]) {
        // `(target << 32) | global index`, radix-sorted: each target's
        // run lists its new attacks in ascending order.
        let mut keyed: Vec<u64> = (attack_base..)
            .zip(attacks)
            .map(|(i, a)| (u64::from(a.target_ip.value()) << 32) | i as u64)
            .collect();
        radix_sort_by_ip(&mut keyed);
        let mut fresh: Vec<TargetTimeline> = Vec::new();
        let mut run = 0;
        while run < keyed.len() {
            let target = IpAddr4((keyed[run] >> 32) as u32);
            let end = run + keyed[run..].partition_point(|&k| k >> 32 == u64::from(target.value()));
            let indices = keyed[run..end].iter().map(|&k| k as u32 as usize);
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

    /// Table III over the covered records: the fold's sets, bot rows and
    /// timelines.
    fn table_iii(&self) -> DatasetSummary {
        self.summary
            .summary(self.len(), self.bots.rows, self.timelines.len())
    }

    /// Lends the fold to the passes as an analysis context, mid-stream
    /// or complete. The context covers exactly the appended epochs: its
    /// attack slice is borrowed from `dataset` and ends with the last
    /// appended epoch, every column is borrowed from the fold, and Table
    /// III comes from the fold's sets, bot rows and timelines. Passes
    /// over it therefore answer exactly like a fresh build over
    /// [`Dataset::epoch_prefix`] of the same epochs, with nothing
    /// copied.
    ///
    /// # Panics
    ///
    /// If the fold comes from another trace.
    pub fn to_context<'a>(&'a self, dataset: &'a Dataset, spec: ArimaSpec) -> AnalysisContext<'a> {
        assert_eq!(self.window, dataset.window(), "fold from another trace");
        AnalysisContext {
            dataset,
            attacks: &dataset.attacks()[..self.len()],
            summary: self.table_iii(),
            spec,
            sources: Cow::Borrowed(&self.sources),
            durations: Cow::Borrowed(&self.durations),
            all_starts: Cow::Borrowed(&self.starts),
            target_timelines: Cow::Borrowed(&self.timelines),
            families: Cow::Borrowed(&self.families),
        }
    }

    /// Moves the fold's columns into an owned context, the last step of
    /// the one-shot build ([`AnalysisContext::build_kernels`]).
    pub(crate) fn into_context(self, dataset: &Dataset, spec: ArimaSpec) -> AnalysisContext<'_> {
        assert_eq!(self.window, dataset.window(), "fold from another trace");
        AnalysisContext {
            dataset,
            attacks: &dataset.attacks()[..self.len()],
            summary: self.table_iii(),
            spec,
            sources: Cow::Owned(self.sources),
            durations: Cow::Owned(self.durations),
            all_starts: Cow::Owned(self.starts),
            target_timelines: Cow::Owned(self.timelines),
            families: Cow::Owned(self.families),
        }
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
        let mut fold = EpochContext::new(ds.window(), false, KernelPolicy::Auto);
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

    /// One bot record of `ip(last)` in `cc`, first seen on `day`.
    fn bot(last: u8, cc: &str, day: i64) -> BotRecord {
        BotRecord {
            ip: ip(last),
            botnet: BotnetId(1),
            family: Family::Pandora,
            location: location(cc, 1),
            first_seen: Timestamp(day * 86_400),
            last_seen: Timestamp(day * 86_400),
        }
    }

    /// `ds` appended as a one-epoch slicing, as the one-shot build does.
    fn one_epoch(ds: &Dataset, parallel: bool) -> EpochContext {
        let mut fold = EpochContext::new(ds.window(), parallel, KernelPolicy::Auto);
        for shard in ds.shards(ds.window().length()) {
            fold.append(&shard, &Obs::disabled());
        }
        fold
    }

    #[test]
    fn a_one_epoch_fold_numbers_bots_then_misses_in_ip_order() {
        let mut b = DatasetBuilder::new(window());
        // Out of IP order; IP 4 twice, its last record in DE.
        for (last, cc) in [(9, "RU"), (4, "RU"), (7, "US"), (4, "DE")] {
            b.push_bot(bot(last, cc, 0)).unwrap();
        }
        for (id, sources) in [(1, vec![12, 7, 30, 9]), (2, vec![4, 2, 12])] {
            let mut a = attack(Family::Pandora, id, id as i64 * 100, 60, 1);
            a.sources = sources.into_iter().map(ip).collect();
            b.push_attack(a).unwrap();
        }
        let ds = b.build().unwrap();
        for parallel in [false, true] {
            let fold = one_epoch(&ds, parallel);
            let dict: Vec<IpAddr4> = (0..fold.sources.dict_len() as u32)
                .map(|id| fold.sources.ip_of(id))
                .collect();
            assert_eq!(dict, [4, 7, 9, 2, 12, 30].map(ip), "bots, then misses");
            let rows: Vec<u32> = (0..6).map(|id| fold.sources.bot_row(id)).collect();
            assert_eq!(rows, [0, 1, 2, NO_BOT, NO_BOT, NO_BOT]);
            assert_eq!(fold.sources.ids_of(0), [4, 1, 5, 2]);
            assert_eq!(fold.sources.ids_of(1), [0, 3, 4]);
            assert_eq!(fold.bots.rows, 3);
            assert_eq!(fold.bots.positions[0], 3, "the last record of IP 4");
            assert_eq!(fold.bots.countries[0], CountryCode::literal("DE"));
        }
    }

    #[test]
    fn only_a_second_append_builds_the_index() {
        let mut b = DatasetBuilder::new(window());
        for (last, day) in [(1, 0), (2, 0), (3, 6)] {
            b.push_bot(bot(last, "RU", day)).unwrap();
        }
        for (id, day, sources) in [(1, 0, vec![1, 5]), (2, 6, vec![2, 3, 5, 6])] {
            let mut a = attack(Family::Pandora, id, day * 86_400, 60, 1);
            a.sources = sources.into_iter().map(ip).collect();
            b.push_attack(a).unwrap();
        }
        let ds = b.build().unwrap();
        let obs = Obs::disabled();
        let mut fold = EpochContext::new(ds.window(), false, KernelPolicy::Auto);
        let shards = ds.shards(Seconds::days(5));
        assert_eq!(shards.len(), 2);
        fold.append(&shards[0], &obs);
        assert!(fold.index.is_empty(), "one append builds no index");
        let known = fold.sources.dict_len() as u32;
        assert_eq!(known, 3, "bots 1 and 2, source 5");
        fold.append(&shards[1], &obs);
        let indexed: Vec<(IpAddr4, u32)> = (0..known)
            .map(|id| (fold.sources.ip_of(id), fold.index[&fold.sources.ip_of(id)]))
            .collect();
        assert_eq!(indexed, [(ip(1), 0), (ip(2), 1), (ip(5), 2)]);
        assert_eq!(fold.index.len(), 3, "the second append's own ids wait");
        // The second epoch found its known IPs through the index: bot 2
        // and source 5 kept their ids, bot 3 and source 6 are new.
        assert_eq!(fold.sources.ids_of(1), [1, 3, 2, 4]);
    }

    proptest! {
        /// Appended tables resolve every source exactly like the
        /// last-wins join, however a roster's conflicting duplicates and
        /// first sightings fall across epochs, one epoch included: each
        /// attack's id slice round-trips its sources, an id is a bot row
        /// iff its IP has a record, and the row holds the last record's
        /// country and coordinates. A serial and a pooled fold build the
        /// same dictionary, row and id columns.
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
            for len in [Seconds::days(epoch_days), ds.window().length()] {
                let folds = [false, true].map(|parallel| {
                    let mut fold = EpochContext::new(ds.window(), parallel, KernelPolicy::Auto);
                    for shard in ds.shards(len) {
                        fold.append(&shard, &obs);
                    }
                    fold
                });
                prop_assert_eq!(&folds[0].sources, &folds[1].sources);
                let fold = &folds[1];
                for (i, a) in ds.attacks().iter().enumerate() {
                    let ids = fold.sources.ids_of(i);
                    let back: Vec<IpAddr4> =
                        ids.iter().map(|&id| fold.sources.ip_of(id)).collect();
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
}
