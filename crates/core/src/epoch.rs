//! The epoch-sharded analysis engine: mergeable per-epoch contexts.
//!
//! [`EpochContext`] is one epoch's share of an [`AnalysisContext`]: the
//! epoch's bot and source tables, per-attack vectors, per-target
//! timelines (with stable *global* attack indices), per-family
//! aggregates (dispersion snapshots and weekly bot maps), and Table
//! III's distinct sets ([`SummarySets`]). Epochs build
//! independently — from a borrowed [`DatasetShard`] or an owned
//! [`EpochBatch`] a feed streams in — and [`EpochContext::merge`] folds
//! two adjacent epochs into one.
//!
//! # Merge laws
//!
//! The fold reproduces [`AnalysisContext::build`] **bit-identically**,
//! for any partition of the trace into epochs, because:
//!
//! * Attacks are globally sorted by `(start, id)` and epochs are
//!   assigned by start time, so each shard's attacks are a contiguous
//!   global index range and per-attack vectors simply concatenate.
//! * Duplicate bot IPs across epochs arbitrate by global record
//!   position (see [`crate::columnar::merge_bot_tables`]) — the winner
//!   is exactly the record the monolithic last-wins build keeps, and
//!   its cached trig bits are copied verbatim.
//! * A merged source table is a pure function of the merged bot table
//!   ([`crate::columnar::merge_source_tables`]); sources that resolve
//!   only against the other epoch's bots are *promoted* in the merge.
//! * Every attack touched by an arbitration or promotion is re-resolved
//!   against the merged tables, restoring the invariant that each
//!   context's aggregates equal a fresh build against its own tables —
//!   which is also why the merge is associative.
//! * Table III's sets merge by union. An epoch counts its own attacks
//!   and only the bot records whose clamped first-seen epoch it is. A
//!   valid bot record lands in every epoch its `[first_seen,
//!   last_seen]` span meets, the first of them included, so each record
//!   is counted in exactly one epoch. The union over the epochs below a
//!   watermark `w` therefore counts exactly the records of
//!   [`Dataset::epoch_prefix`]`(len, w)`: its attacks, and the bot
//!   records first seen before epoch `w`.
//!
//! The `tests/epochs.rs` property suite proves equivalence and
//! associativity over arbitrary partitions (empty epochs and
//! boundary-straddling attacks included), and the golden-report suite
//! pins the folded pipeline to the batch digest.

use std::collections::HashSet;

use ddos_geo::{dispersion_precomp_indexed_counted, KernelCounters};
use ddos_obs::Obs;
use ddos_schema::{
    AttackRecord, BotRecord, CountryCode, Dataset, DatasetShard, EpochBatch, Family, SummarySets,
    Timestamp, Window,
};
use ddos_stats::ArimaSpec;

use crate::columnar::{
    merge_bot_tables, merge_source_tables, radix_sort_by_ip_with, BotTable, RadixScratch,
    SourceTable, NO_BOT,
};
use crate::context::{AnalysisContext, FamilyContext, TargetTimeline};
use crate::source::dispersion::FamilyDispersion;
use crate::util::IpMap;

/// Sentinel slot for attacks of families outside [`Family::ACTIVE`].
const NO_SLOT: u8 = u8::MAX;

/// Reusable workspace for epoch builds and merges: the radix-sort
/// scratch (the fold's dominant allocation — ~512 KiB re-allocated per
/// epoch before this) plus the row-filter buffer of the snapshot
/// kernel. One scratch serves any sequence of builds and merges;
/// contents are ignored on entry.
#[derive(Debug, Default)]
pub struct FoldScratch {
    pub(crate) radix: RadixScratch,
    pub(crate) rows: Vec<u32>,
}

/// One active family's share of an epoch.
#[derive(Debug, Clone)]
struct EpochSlot {
    /// Global indices of the family's attacks in this epoch, ascending.
    indices: Vec<u32>,
    /// Dispersion snapshot per attack, aligned to `indices` (`None`
    /// when the kernel found no center), so merge fix-ups can replace
    /// one attack's value in place.
    snaps: Vec<Option<f64>>,
    /// Per *global* window week: the resolvable `(bot, country)`
    /// participants of the family's attacks that week.
    weekly: Vec<IpMap<CountryCode>>,
}

/// What a merge appended or re-resolved — drives the incremental
/// pipeline's pass dirtiness.
#[derive(Debug, Clone)]
pub struct MergeDelta {
    /// Attacks contributed by the right epoch.
    pub appended_attacks: usize,
    /// Bot rows the right epoch added to the merged table.
    pub appended_bots: usize,
    /// Whether the right epoch's first-seen bot records grew Table
    /// III's attacker-side sets. A record that only repeats a known IP
    /// with a new city appends no bot row but still moves the table.
    pub attackers_grew: bool,
    /// Merged-local indices of attacks re-resolved against the merged
    /// tables (duplicate-IP arbitration or extra promotion), ascending.
    pub reresolved: Vec<u32>,
}

/// One epoch's mergeable share of the analysis context.
#[derive(Debug, Clone)]
pub struct EpochContext {
    /// The *global* trace window (week/day bucketing is always global).
    window: Window,
    /// The time span this context covers.
    span: Window,
    /// Global index of the first covered attack.
    attack_base: usize,
    /// Family slot of each covered attack ([`NO_SLOT`] for inactive
    /// families), local order.
    family_slot: Vec<u8>,
    /// Duration of each covered attack, local order.
    durations: Vec<f64>,
    /// Start of each covered attack, local order.
    starts: Vec<Timestamp>,
    /// Per-target timelines over the covered attacks, sorted by target,
    /// carrying global indices.
    timelines: Vec<TargetTimeline>,
    bots: BotTable,
    sources: SourceTable,
    /// One slot per [`Family::ACTIVE`] entry.
    slots: Vec<EpochSlot>,
    /// Table III's distinct sets over the covered attacks and the bot
    /// records first seen in the covered span.
    summary: SummarySets,
}

/// Dispersion snapshot of one covered attack against the given tables —
/// the exact kernel call of the monolithic context build.
fn snap_of(
    sources: &SourceTable,
    bots: &BotTable,
    local: usize,
    scratch: &mut Vec<u32>,
    kernel: &KernelCounters,
) -> Option<f64> {
    let ids = sources.ids_of(local);
    let row_list: &[u32] = if sources.unresolved_in(local) == 0 {
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
    dispersion_precomp_indexed_counted(bots.trigs(), row_list, kernel).map(|d| d.value())
}

impl EpochContext {
    /// Builds one epoch's context from a borrowed shard.
    pub fn build(shard: &DatasetShard<'_>, obs: &Obs) -> EpochContext {
        Self::build_scratch(shard, obs, &mut FoldScratch::default())
    }

    /// [`EpochContext::build`] against a caller-owned workspace, so a
    /// fold over many epochs allocates its radix scratch once.
    pub fn build_scratch(
        shard: &DatasetShard<'_>,
        obs: &Obs,
        ws: &mut FoldScratch,
    ) -> EpochContext {
        Self::build_from(
            shard.dataset().window(),
            shard.span(),
            shard.attack_range().start,
            shard.attacks(),
            shard.bots(),
            obs,
            ws,
        )
    }

    /// Builds one epoch's context from an owned batch (the streaming
    /// path; `window` is the global trace window).
    pub fn build_batch(window: Window, batch: &EpochBatch, obs: &Obs) -> EpochContext {
        Self::build_batch_scratch(window, batch, obs, &mut FoldScratch::default())
    }

    /// [`EpochContext::build_batch`] against a caller-owned workspace.
    pub fn build_batch_scratch(
        window: Window,
        batch: &EpochBatch,
        obs: &Obs,
        ws: &mut FoldScratch,
    ) -> EpochContext {
        Self::build_from(
            window,
            batch.span,
            batch.attack_base,
            &batch.attacks,
            batch.bots.iter().map(|(r, b)| (*r, b)),
            obs,
            ws,
        )
    }

    fn build_from<'r>(
        window: Window,
        span: Window,
        attack_base: usize,
        attacks: &[AttackRecord],
        bot_records: impl IntoIterator<Item = (u32, &'r BotRecord)>,
        obs: &Obs,
        ws: &mut FoldScratch,
    ) -> EpochContext {
        let _span = obs.span("epoch/build");
        let bot_records: Vec<(u32, &BotRecord)> = bot_records.into_iter().collect();
        // A record belongs to the epoch holding its clamped first
        // sighting: this one when first seen inside the span, or any
        // earlier record when this is the first epoch.
        let first_epoch = span.start <= window.start;
        let first_seen_here = |b: &&BotRecord| first_epoch || b.first_seen >= span.start;
        let mut summary = SummarySets::default();
        for b in bot_records.iter().map(|&(_, b)| b).filter(first_seen_here) {
            summary.insert_bot(b);
        }
        for a in attacks {
            summary.insert_attack(a);
        }
        let bots = BotTable::from_records_with(bot_records, &mut ws.radix);
        let sources = SourceTable::build_slice(attacks, &bots, false);

        let mut durations = Vec::with_capacity(attacks.len());
        let mut starts = Vec::with_capacity(attacks.len());
        let mut family_slot = Vec::with_capacity(attacks.len());
        for a in attacks {
            durations.push(a.duration().as_f64());
            starts.push(a.start);
            family_slot.push(if a.family.is_active() {
                a.family.index() as u8
            } else {
                NO_SLOT
            });
        }

        // Per-target timelines, same radix construction as the
        // monolithic build, shifted to global indices.
        let mut keyed: Vec<u64> = attacks
            .iter()
            .enumerate()
            .map(|(i, a)| (u64::from(a.target_ip.value()) << 32) | i as u64)
            .collect();
        radix_sort_by_ip_with(&mut keyed, &mut ws.radix);
        let mut timelines: Vec<TargetTimeline> = Vec::new();
        let mut run = 0;
        while run < keyed.len() {
            let target = (keyed[run] >> 32) as u32;
            let mut end = run;
            while end < keyed.len() && (keyed[end] >> 32) as u32 == target {
                end += 1;
            }
            timelines.push(TargetTimeline {
                target: ddos_schema::IpAddr4(target),
                attacks: keyed[run..end]
                    .iter()
                    .map(|&k| attack_base + k as u32 as usize)
                    .collect(),
            });
            run = end;
        }

        // Per-family aggregates: snapshot per attack plus weekly
        // (bot, country) maps, bucketed against the *global* window.
        let num_weeks = window.num_weeks();
        let kernel = KernelCounters::default();
        let mut slots: Vec<EpochSlot> = (0..Family::ACTIVE.len())
            .map(|_| EpochSlot {
                indices: Vec::new(),
                snaps: Vec::new(),
                weekly: vec![IpMap::default(); num_weeks],
            })
            .collect();
        for (local, a) in attacks.iter().enumerate() {
            let slot_id = family_slot[local];
            if slot_id == NO_SLOT {
                continue;
            }
            let slot = &mut slots[slot_id as usize];
            slot.indices.push((attack_base + local) as u32);
            slot.snaps
                .push(snap_of(&sources, &bots, local, &mut ws.rows, &kernel));
            if let Some(w) = window.week_index(a.start) {
                for (k, &id) in sources.ids_of(local).iter().enumerate() {
                    let row = sources.bot_row(id);
                    if row != NO_BOT {
                        slot.weekly[w].insert(a.sources[k], bots.country(row));
                    }
                }
            }
        }
        obs.counter("geo/dispersion_snapshots")
            .add(kernel.snapshots());
        obs.counter("geo/dispersion_points").add(kernel.points());
        obs.counter("geo/dispersion_degenerate")
            .add(kernel.degenerate());

        EpochContext {
            window,
            span,
            attack_base,
            family_slot,
            durations,
            starts,
            timelines,
            bots,
            sources,
            slots,
            summary,
        }
    }

    /// Global index of the first covered attack.
    #[inline]
    pub fn attack_base(&self) -> usize {
        self.attack_base
    }

    /// Number of covered attacks.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the context covers no attacks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Bot rows resident in this context's table.
    #[inline]
    pub fn bot_rows(&self) -> usize {
        self.bots.len()
    }

    /// The time span covered.
    #[inline]
    pub fn span(&self) -> Window {
        self.span
    }

    /// Merges two adjacent epoch contexts (`self` immediately precedes
    /// `other` in both time and attack index space).
    ///
    /// # Panics
    ///
    /// If the contexts disagree on the global window or are not
    /// adjacent.
    pub fn merge(self, other: EpochContext) -> (EpochContext, MergeDelta) {
        self.merge_scratch(other, &mut FoldScratch::default())
    }

    /// [`EpochContext::merge`] against a caller-owned workspace, so a
    /// long fold reuses one fix-up buffer across every merge.
    ///
    /// # Panics
    ///
    /// As [`EpochContext::merge`].
    pub fn merge_scratch(
        self,
        other: EpochContext,
        ws: &mut FoldScratch,
    ) -> (EpochContext, MergeDelta) {
        let (a, b) = (self, other);
        assert_eq!(a.window, b.window, "epochs from different traces");
        assert_eq!(
            a.span.end, b.span.start,
            "epochs must be time-adjacent (left before right)"
        );
        assert_eq!(
            a.attack_base + a.len(),
            b.attack_base,
            "epochs must cover adjacent attack ranges"
        );

        let appended_attacks = b.len();
        let mut summary = a.summary;
        let attackers_grew = summary.union(b.summary);
        let (bots, ra, rb) = merge_bot_tables(&a.bots, &b.bots);
        let appended_bots = bots.len() - a.bots.len();
        let (sources, affected) = merge_source_tables(&a.sources, &b.sources, &bots, &ra, &rb);

        let mut family_slot = a.family_slot;
        family_slot.extend(b.family_slot);
        let mut durations = a.durations;
        durations.extend(b.durations);
        let mut starts = a.starts;
        starts.extend(b.starts);

        // Timeline splice: both sides are sorted by target and a's
        // global indices all precede b's, so equal targets concatenate.
        let mut timelines = Vec::with_capacity(a.timelines.len() + b.timelines.len());
        let mut ta = a.timelines.into_iter().peekable();
        let mut tb = b.timelines.into_iter().peekable();
        loop {
            match (ta.peek(), tb.peek()) {
                (Some(x), Some(y)) if x.target == y.target => {
                    let mut t = ta.next().unwrap();
                    t.attacks.extend(tb.next().unwrap().attacks);
                    timelines.push(t);
                }
                (Some(x), Some(y)) => {
                    timelines.push(if x.target < y.target {
                        ta.next().unwrap()
                    } else {
                        tb.next().unwrap()
                    });
                }
                (Some(_), None) => timelines.push(ta.next().unwrap()),
                (None, Some(_)) => timelines.push(tb.next().unwrap()),
                (None, None) => break,
            }
        }

        // Per-slot concat: indices stay globally ascending, weekly maps
        // union per week (right side overwrites on collision; every
        // collision that matters is re-resolved below).
        let mut slots = a.slots;
        for (slot, rhs) in slots.iter_mut().zip(b.slots) {
            slot.indices.extend(rhs.indices);
            slot.snaps.extend(rhs.snaps);
            for (w, map) in rhs.weekly.into_iter().enumerate() {
                if slot.weekly[w].is_empty() {
                    slot.weekly[w] = map;
                } else {
                    slot.weekly[w].extend(map);
                }
            }
        }

        // Fix-ups: every attack whose bot attributes changed in the
        // arbitration or whose extras got promoted is re-resolved
        // against the merged tables, restoring the invariant that the
        // aggregates equal a fresh build — the merge's associativity
        // hinges on exactly this.
        let window = a.window;
        let attack_base = a.attack_base;
        let kernel = KernelCounters::default();
        for &local in &affected {
            let local = local as usize;
            let slot_id = family_slot[local];
            if slot_id == NO_SLOT {
                continue;
            }
            let slot = &mut slots[slot_id as usize];
            let global = (attack_base + local) as u32;
            let pos = slot
                .indices
                .binary_search(&global)
                .expect("affected attack indexed in its family slot");
            slot.snaps[pos] = snap_of(&sources, &bots, local, &mut ws.rows, &kernel);
            if let Some(w) = window.week_index(starts[local]) {
                for &id in sources.ids_of(local) {
                    let row = sources.bot_row(id);
                    if row != NO_BOT {
                        slot.weekly[w].insert(sources.ip_of(id), bots.country(row));
                    }
                }
            }
        }

        (
            EpochContext {
                window,
                span: Window {
                    start: a.span.start,
                    end: b.span.end,
                },
                attack_base,
                family_slot,
                durations,
                starts,
                timelines,
                bots,
                sources,
                slots,
                summary,
            },
            MergeDelta {
                appended_attacks,
                appended_bots,
                attackers_grew,
                reresolved: affected,
            },
        )
    }

    /// The per-family contexts a fold has accumulated, in
    /// [`Family::ACTIVE`] order. Takes the slots by value so the
    /// consuming conversion moves each weekly bot map (the fold's
    /// largest per-family payload) instead of cloning it; the
    /// mid-stream clone path pays for its copy explicitly.
    fn families_from_slots(
        window: Window,
        attack_base: usize,
        attack_starts: &[Timestamp],
        slots: Vec<EpochSlot>,
    ) -> Vec<FamilyContext> {
        slots
            .into_iter()
            .zip(Family::ACTIVE)
            .map(|(slot, family)| {
                let mut series = Vec::new();
                let mut days = HashSet::new();
                let starts: Vec<Timestamp> = slot
                    .indices
                    .iter()
                    .map(|&g| attack_starts[g as usize - attack_base])
                    .collect();
                for (&t, snap) in starts.iter().zip(&slot.snaps) {
                    if let Some(v) = *snap {
                        if let Some(day) = window.day_index(t) {
                            days.insert(day);
                        }
                        series.push((t, v));
                    }
                }
                FamilyContext {
                    family,
                    starts,
                    dispersion: FamilyDispersion {
                        family,
                        series,
                        active_days: days.len(),
                    },
                    weekly_bots: slot.weekly,
                }
            })
            .collect()
    }

    /// Converts a *complete* fold (all epochs merged) into the analysis
    /// context, consuming the accumulator.
    ///
    /// # Panics
    ///
    /// If the fold does not cover `dataset` exactly.
    pub fn into_context(self, dataset: &Dataset, spec: ArimaSpec) -> AnalysisContext<'_> {
        assert_eq!(self.attack_base, 0, "fold must start at the first epoch");
        assert_eq!(self.len(), dataset.len(), "fold must cover every attack");
        assert_eq!(self.window, dataset.window(), "fold from another trace");
        let covered = self.len();
        let summary = self.summary.summary(covered);
        let families =
            Self::families_from_slots(self.window, self.attack_base, &self.starts, self.slots);
        AnalysisContext::from_parts(
            dataset,
            covered,
            summary,
            spec,
            self.bots,
            self.sources,
            self.durations,
            self.starts,
            self.timelines,
            families,
        )
    }

    /// Clones a (possibly partial, but prefix-anchored) fold into an
    /// analysis context so passes can run mid-stream. The context covers
    /// exactly the folded prefix: its attack slice is borrowed from
    /// `dataset` and ends with the last appended epoch, and Table III
    /// comes from the fold's merged sets. Passes over it therefore
    /// answer exactly like a fresh build over
    /// [`Dataset::epoch_prefix`] of the same epochs, with no copy of the
    /// prefix's records made.
    ///
    /// # Panics
    ///
    /// If the fold does not start at the first epoch or comes from
    /// another trace.
    pub fn to_context<'a>(&self, dataset: &'a Dataset, spec: ArimaSpec) -> AnalysisContext<'a> {
        assert_eq!(self.attack_base, 0, "fold must start at the first epoch");
        assert_eq!(self.window, dataset.window(), "fold from another trace");
        let families = Self::families_from_slots(
            self.window,
            self.attack_base,
            &self.starts,
            self.slots.clone(),
        );
        AnalysisContext::from_parts(
            dataset,
            self.len(),
            self.summary.summary(self.len()),
            spec,
            self.bots.clone(),
            self.sources.clone(),
            self.durations.clone(),
            self.starts.clone(),
            self.timelines.clone(),
            families,
        )
    }
}

/// Bounded-memory streaming fold over a feed of [`EpochBatch`]es.
///
/// Batches arrive one at a time (e.g. from
/// `ddos_sim::feed::replay_epochs`), build into an [`EpochContext`]
/// each, and merge into the accumulator immediately — the raw records
/// of past epochs are never resident together. The
/// `epoch/resident_rows` gauge tracks the peak raw rows (attacks + bot
/// records) materialized at once.
#[derive(Debug)]
pub struct StreamFold {
    window: Window,
    acc: Option<EpochContext>,
    next_base: usize,
    peak_rows: u64,
    scratch: FoldScratch,
}

impl StreamFold {
    /// Starts an empty fold over a trace window.
    pub fn new(window: Window) -> StreamFold {
        StreamFold {
            window,
            acc: None,
            next_base: 0,
            peak_rows: 0,
            scratch: FoldScratch::default(),
        }
    }

    /// Builds and folds in one epoch batch. Batches must arrive in
    /// epoch order.
    pub fn push(&mut self, batch: &EpochBatch, obs: &Obs) {
        crate::fault::infallible(self.try_push(batch, obs));
    }

    /// Fallible [`push`](StreamFold::push): the `epoch/merge`
    /// failpoint is consulted before any fold state is touched, so an
    /// injected abort returns `Err` with the accumulator intact and
    /// re-pushing the *same* batch resumes the fold cleanly.
    pub fn try_push(
        &mut self,
        batch: &EpochBatch,
        obs: &Obs,
    ) -> Result<(), crate::fault::PipelineError> {
        crate::fault::check(crate::fault::EPOCH_MERGE, obs)?;
        assert_eq!(
            batch.attack_base, self.next_base,
            "batches must arrive in epoch order"
        );
        self.next_base += batch.attacks.len();
        let incoming = (batch.attacks.len() + batch.bots.len()) as u64;
        let resident = incoming
            + self
                .acc
                .as_ref()
                .map_or(0, |acc| (acc.len() + acc.bot_rows()) as u64);
        obs.gauge("epoch/resident_rows").record_max(resident);
        self.peak_rows = self.peak_rows.max(resident);
        let ctx = EpochContext::build_batch_scratch(self.window, batch, obs, &mut self.scratch);
        self.acc = Some(match self.acc.take() {
            None => ctx,
            Some(acc) => {
                let span = obs.span("epoch/merge");
                let (merged, _) = acc.merge_scratch(ctx, &mut self.scratch);
                drop(span);
                merged
            }
        });
        Ok(())
    }

    /// Peak raw rows (attacks + bot records) resident at once.
    pub fn peak_resident_rows(&self) -> u64 {
        self.peak_rows
    }

    /// Finishes the fold, returning the accumulated context (`None` if
    /// no batch was pushed).
    pub fn finish(self) -> Option<EpochContext> {
        self.acc
    }
}
