//! The shared analysis context: everything the passes need, built once.
//!
//! Before the pass-based pipeline, every analysis rescanned the dataset
//! for itself: the dispersion and prediction passes each geolocated every
//! attack source (twice per family in total), the shift analysis resolved
//! them a third time, and four separate analyses rebuilt and re-sorted
//! the same per-target attack index. [`AnalysisContext`] hoists those
//! shared joins into one construction step so each is computed exactly
//! once and borrowed by every pass.
//!
//! Since the columnar substrate ([`crate::columnar`]) the build itself is
//! the hot kernel treated as such: the attack→source join becomes a
//! [`SourceTable`] (every source list as dense `u32` dictionary ids, the
//! bots numbered in IP order from a radix sort), the per-snapshot
//! dispersion runs through the `*_precomp` kernels of `ddos-geo` that
//! read cached `sin`/`cos` instead of recomputing each bot's
//! trigonometry per attack-participation, and the per-family resolution
//! fans out on a worker pool in deterministic jobs whose length
//! [`KernelPolicy`] sets.
//!
//! # One build
//!
//! There is one way to build a context: the epoch fold
//! ([`crate::epoch::EpochContext`]). A one-shot build
//! ([`AnalysisContext::build_kernels`]) is one append of a one-epoch
//! slicing, moved into an owned context; a running fold lends its
//! columns to each mid-stream context as [`Cow::Borrowed`], so that
//! context copies nothing.
//!
//! # The covered records
//!
//! A context covers a *prefix* of the trace: a one-shot build covers
//! all of it, and a running fold the epochs appended so far. Pass
//! bodies read raw records only through [`AnalysisContext::attacks`], a
//! slice borrowed from the dataset's attack list that ends where the
//! covered prefix ends, and Table III only through
//! [`AnalysisContext::summary`]. The dataset itself is a private field,
//! so no pass can reach records past the prefix: a fold at any
//! watermark answers exactly like a fresh build over the same epochs,
//! with no copy of the prefix made.
//!
//! # Invariants
//!
//! The context is *read-only* and derived purely from the covered
//! records (plus the chosen ARIMA order), which is what lets the
//! scheduler run passes against it from multiple threads:
//!
//! * `durations[i]` and `all_starts[i]` describe `attacks[i]`; all three
//!   share the dataset's trace order (sorted by start time).
//! * `target_timelines` is sorted by target IP; each timeline's attack
//!   indices are ascending, hence in start order.
//! * The per-family slots ([`FamilyContext`]) follow [`Family::ACTIVE`]
//!   order (slot `i` holds `Family::ACTIVE[i]`, whose dense
//!   [`Family::index`] is also `i`). Each family's `starts` are
//!   ascending; its `dispersion` is bit-identical to what
//!   [`FamilyDispersion::compute`] produces; its `bot_grid` counts, per
//!   window week and country, exactly the distinct resolvable bots of
//!   its attacks that week.
//! * Serial, parallel, any-job-length and any-partition builds are
//!   **bit-identical** in every analysis input: jobs merge in (family,
//!   job) order, and the precomp kernels evaluate the exact scalar
//!   expressions (see `ddos_geo::trig`). The pipeline-equivalence and
//!   epoch suites enforce this with
//!   [`AnalysisContext::assert_same_analysis`], and the testkit's oracle
//!   tests hold the dispersion series and the shift classification of
//!   the grids to its dataset scans.

use std::borrow::Cow;

use ddos_geo::{
    dispersion_precomp_indexed_counted, dispersion_precomp_indexed_presummed, CenterSum,
    KernelCounters, PointTrig,
};
use ddos_obs::Obs;
use ddos_schema::{
    AttackRecord, CountryCode, Dataset, DatasetSummary, Family, IpAddr4, Timestamp, Window,
};
use ddos_stats::ArimaSpec;

use crate::columnar::{SourceTable, NO_BOT};
use crate::epoch::EpochContext;
use crate::kernels::{cc_slot, KernelPolicy, CC_SLOTS};
use crate::source::dispersion::FamilyDispersion;

/// One target's attack history: indices into the context's
/// [`attacks`](AnalysisContext::attacks), ascending (therefore in start
/// order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetTimeline {
    /// The victim IP.
    pub target: IpAddr4,
    /// Indices of the attacks on this target, ascending.
    pub attacks: Vec<usize>,
}

/// Per-family precomputation, one slot per [`Family::ACTIVE`] entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyContext {
    /// The family.
    pub family: Family,
    /// Start times of the family's attacks, ascending.
    pub starts: Vec<Timestamp>,
    /// The family's dispersion series (identical to
    /// [`FamilyDispersion::compute`], but sharing the context's single
    /// geolocation join).
    pub dispersion: FamilyDispersion,
    /// A `num_weeks × CC_SLOTS` grid, row-major by window week: the
    /// number of distinct resolvable bots from each country (by dense
    /// country slot) that took part in the family's attacks that week.
    /// The shift pass classifies it directly.
    pub bot_grid: Vec<u32>,
}

impl FamilyContext {
    /// An empty slot over a window of `num_weeks` weeks.
    pub(crate) fn empty(family: Family, num_weeks: usize) -> FamilyContext {
        FamilyContext {
            family,
            starts: Vec::new(),
            dispersion: FamilyDispersion {
                family,
                series: Vec::new(),
                active_days: 0,
            },
            bot_grid: vec![0; num_weeks * CC_SLOTS],
        }
    }

    /// Empties the slot, keeping its allocations, for a rebuild.
    pub(crate) fn clear(&mut self) {
        self.starts.clear();
        self.dispersion.series.clear();
        self.dispersion.active_days = 0;
        self.bot_grid.fill(0);
    }

    /// Appends one resolution job over `indices`: each attack's start
    /// and dispersion snapshot in job order, and the job's first
    /// sightings counted into the grid through `marks`. A family's jobs
    /// arrive in attack order and its starts are non-decreasing, so an
    /// id's sightings arrive by non-decreasing week and one mark per id
    /// dedups them exactly, across jobs (any job length) and across
    /// appends (ragged epochs that split a week, see [`WeekMarks`]).
    pub(crate) fn absorb(
        &mut self,
        window: Window,
        starts: &[Timestamp],
        indices: &[u32],
        chunk: FamilyChunk,
        marks: &mut WeekMarks<'_>,
    ) {
        for (&ai, snap) in indices.iter().zip(chunk.snaps) {
            let start = starts[ai as usize];
            self.starts.push(start);
            if let Some(value) = snap {
                push_snap(window, &mut self.dispersion, start, value);
            }
        }
        for (id, cell) in chunk.firsts {
            if marks.count(cell / CC_SLOTS as u32, id) {
                self.bot_grid[cell as usize] += 1;
            }
        }
    }
}

/// The ids a family's grid counted in its latest week.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpenWeek {
    week: u32,
    ids: Vec<u32>,
}

/// The marks one family's jobs of an append count their first
/// sightings through: the fold's one mark buffer, in which this family's
/// week `w` is `tag_base + w` under a tag range of its own, and the ids
/// of its open week. A fresh range leaves the family's marks of earlier
/// appends behind, so claiming one restores its open week's marks: the
/// append may continue that week (an epoch boundary that splits it).
pub(crate) struct WeekMarks<'m> {
    tags: &'m mut [u32],
    tag_base: u32,
    open: &'m mut OpenWeek,
}

impl<'m> WeekMarks<'m> {
    /// Claims a fresh tag range of `stamp` for a family whose latest
    /// week is `open`, and restores that week's marks.
    pub(crate) fn claim(
        stamp: &'m mut WeekStamp,
        dict_len: usize,
        num_weeks: usize,
        open: &'m mut OpenWeek,
    ) -> WeekMarks<'m> {
        let (tag_base, tags) = stamp.begin(dict_len, num_weeks);
        for &id in &open.ids {
            tags[id as usize] = tag_base + open.week;
        }
        WeekMarks {
            tags,
            tag_base,
            open,
        }
    }

    /// Marks `id` as counted in `week`, the family's latest week so
    /// far; whether it was not yet.
    fn count(&mut self, week: u32, id: u32) -> bool {
        let tag = self.tag_base + week;
        let mark = &mut self.tags[id as usize];
        if *mark == tag {
            return false;
        }
        *mark = tag;
        if week != self.open.week {
            self.open.week = week;
            self.open.ids.clear();
        }
        self.open.ids.push(id);
        true
    }
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

/// Everything the analysis passes share, built once per covered prefix:
/// owned by a one-shot build, borrowed from a running epoch fold.
#[derive(Debug)]
pub struct AnalysisContext<'a> {
    /// The dataset the covered records are borrowed from. Private: a
    /// fold's dataset holds records past the covered prefix.
    pub(crate) dataset: &'a Dataset,
    /// The covered attacks, in trace order: all of `dataset.attacks()`
    /// for a one-shot build, the appended epochs' prefix of it for a
    /// running fold.
    pub attacks: &'a [AttackRecord],
    /// Table III's counts over the covered records, which the fold
    /// grows per epoch.
    pub(crate) summary: DatasetSummary,
    /// ARIMA order for the prediction pass.
    pub spec: ArimaSpec,
    /// The trace-wide attack→source join: every attack's source list as
    /// dense dictionary ids, with an id → bot-row column.
    pub sources: Cow<'a, SourceTable>,
    /// Duration in seconds of each attack, in trace order.
    pub durations: Cow<'a, [f64]>,
    /// Start time of each attack, in trace order.
    pub all_starts: Cow<'a, [Timestamp]>,
    /// Per-target attack histories, sorted by target IP.
    pub target_timelines: Cow<'a, [TargetTimeline]>,
    /// Per-family precomputation in [`Family::ACTIVE`] order.
    pub(crate) families: Cow<'a, [FamilyContext]>,
}

/// A reusable last-seen-week stamp buffer, one slot per dictionary id:
/// each resolution worker's, and the fold's merge marks.
///
/// Each job gets a fresh, disjoint tag range (`tag_base + week`), so
/// the buffer is valid across jobs without re-zeroing — a worker
/// allocates it once instead of clearing `dict_len` slots per family.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeekStamp {
    tags: Vec<u32>,
    next_base: u32,
}

impl WeekStamp {
    /// Starts a new job: sizes the buffer to the dictionary, claims an
    /// unused tag range and lends the buffer. Tag 0 is reserved as
    /// "never stamped".
    pub(crate) fn begin(&mut self, dict_len: usize, num_weeks: usize) -> (u32, &mut [u32]) {
        if self.tags.len() < dict_len {
            self.tags.resize(dict_len, 0);
        }
        let span = num_weeks.max(1) as u32;
        if self.next_base == 0 {
            // First use: the buffer is already zeroed.
            self.next_base = 1;
        } else if self.next_base > u32::MAX - span {
            // Theoretical tag exhaustion: start over.
            self.tags.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base += span;
        (base, &mut self.tags)
    }
}

/// One job's share of a family's resolution, in the job's attack order.
pub(crate) struct FamilyChunk {
    /// Each attack's dispersion snapshot (`None` when the kernel found
    /// no center).
    snaps: Vec<Option<f64>>,
    /// The job's first sighting of each (bot, week), as its dictionary
    /// id and its grid cell (`week * CC_SLOTS + country slot`); the
    /// merge dedups them across jobs ([`FamilyContext::absorb`]).
    firsts: Vec<(u32, u32)>,
}

/// The id-indexed columns a family resolution job reads: the epoch
/// fold's bot columns, indexed by dictionary id (a resolved id is its
/// own bot row).
#[derive(Clone, Copy)]
pub(crate) struct Resolver<'c> {
    /// The trace window: weeks and days are always global.
    pub(crate) window: Window,
    /// Start of each covered attack.
    pub(crate) starts: &'c [Timestamp],
    /// The attack→source join.
    pub(crate) sources: &'c SourceTable,
    /// Trigonometry of each id; read only for ids with a bot row.
    pub(crate) trigs: &'c [PointTrig],
    /// Country of each id; read only for ids with a bot row.
    pub(crate) countries: &'c [CountryCode],
}

impl Resolver<'_> {
    /// Resolves one job of a family's attacks (ascending indices) in a
    /// single sweep over each attack's id slice, which both stamps each
    /// week's first sighting of a bot and feeds the dispersion snapshot.
    /// For the common fully-resolved attack one loop both stamps and
    /// folds the dispersion center sum (a resolved id *is* its trig
    /// row). The center fold pushes in id order and
    /// [`dispersion_precomp_indexed_presummed`] finishes with the
    /// one-call kernel's exact expressions, so every snapshot is
    /// bit-identical to the scalar dispersion of the dataset scan
    /// ([`FamilyDispersion::compute`]). At paper scale this is the
    /// context build's hottest loop.
    pub(crate) fn resolve(
        &self,
        attack_indices: &[u32],
        stamp: &mut WeekStamp,
        kernel: &KernelCounters,
    ) -> FamilyChunk {
        let (sources, trigs, countries) = (self.sources, self.trigs, self.countries);
        let mut out = FamilyChunk {
            snaps: Vec::with_capacity(attack_indices.len()),
            firsts: Vec::new(),
        };
        let (tag_base, tags) = stamp.begin(sources.dict_len(), self.window.num_weeks());
        let mut rows: Vec<u32> = Vec::new();
        for &ai in attack_indices {
            let ai = ai as usize;
            let ids = sources.ids_of(ai);
            let week = self.window.week_index(self.starts[ai]);
            let d = if sources.unresolved_in(ai) == 0 {
                // Fully resolved: ids are the kernel's row list, so one
                // loop stamps the weekly dedup and folds the center sum
                // together, with no `bot_row(id) != NO_BOT` check.
                let mut sum = CenterSum::default();
                if let Some(w) = week {
                    let tag = tag_base + w as u32;
                    let row = (w * CC_SLOTS) as u32;
                    for &id in ids {
                        sum.push(&trigs[id as usize]);
                        if tags[id as usize] != tag {
                            tags[id as usize] = tag;
                            let cell = row + cc_slot(countries[id as usize]) as u32;
                            out.firsts.push((id, cell));
                        }
                    }
                } else {
                    for &id in ids {
                        sum.push(&trigs[id as usize]);
                    }
                }
                dispersion_precomp_indexed_presummed(trigs, ids, sum, kernel)
            } else {
                // Unresolvable sources present: stamp only the resolvable
                // ids, and filter the rows the kernel reads.
                if let Some(w) = week {
                    let tag = tag_base + w as u32;
                    let row = (w * CC_SLOTS) as u32;
                    for &id in ids {
                        if tags[id as usize] == tag {
                            continue;
                        }
                        tags[id as usize] = tag;
                        if sources.bot_row(id) != NO_BOT {
                            let cell = row + cc_slot(countries[id as usize]) as u32;
                            out.firsts.push((id, cell));
                        }
                    }
                }
                rows.clear();
                rows.extend(
                    ids.iter()
                        .copied()
                        .filter(|&id| sources.bot_row(id) != NO_BOT),
                );
                dispersion_precomp_indexed_counted(trigs, &rows, kernel)
            };
            out.snaps.push(d.map(|d| d.value()));
        }
        out
    }
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context with the default ARIMA order, the family jobs
    /// on a worker pool.
    pub fn new(dataset: &'a Dataset) -> AnalysisContext<'a> {
        Self::build_kernels(
            dataset,
            ArimaSpec::DEFAULT,
            true,
            KernelPolicy::Auto,
            &Obs::disabled(),
        )
    }

    /// Builds the context in one append of a one-epoch fold
    /// ([`EpochContext::append`]), recording the build phases into
    /// `obs`, and moves the fold's columns into the context. With
    /// `parallel` set, the source sweep and the family jobs run on a
    /// pool of one worker per core; `policy` sets the family jobs'
    /// length. Every setting builds a bit-identical context.
    pub fn build_kernels(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
        policy: KernelPolicy,
        obs: &Obs,
    ) -> AnalysisContext<'a> {
        let mut fold = EpochContext::new(dataset.window(), parallel, policy);
        for epoch in dataset.shards(dataset.window().length()) {
            fold.append(&epoch, obs);
        }
        fold.into_context(dataset, spec)
    }

    /// The trace window. Day and week bucketing is always against the
    /// whole trace's window, whatever prefix the context covers.
    pub fn window(&self) -> Window {
        self.dataset.window()
    }

    /// Table III's distinct counts over the covered records.
    pub fn summary(&self) -> DatasetSummary {
        self.summary
    }

    /// The per-family slots, in [`Family::ACTIVE`] order.
    pub fn families(&self) -> &[FamilyContext] {
        &self.families
    }

    /// One active family's slot (`None` for inactive families).
    ///
    /// `Family::ACTIVE` is a prefix of `Family::ALL`, so an active
    /// family's dense [`Family::index`] *is* its slot position; inactive
    /// families index past the end of the slot vector.
    pub fn family(&self, family: Family) -> Option<&FamilyContext> {
        let fc = self.families.get(family.index())?;
        debug_assert_eq!(fc.family, family);
        Some(fc)
    }

    /// One active family's dispersion series.
    pub fn dispersion_of(&self, family: Family) -> Option<&FamilyDispersion> {
        self.family(family).map(|fc| &fc.dispersion)
    }

    /// Asserts that `self` and `other` carry the same analysis inputs,
    /// with the dispersion series compared **bit-for-bit**. Used by the
    /// equivalence suites to hold the parallel, forced-job-length, and
    /// many-epoch builds to the serial one-shot build.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first divergence.
    pub fn assert_same_analysis(&self, other: &AnalysisContext<'_>) {
        assert_eq!(self.attacks, other.attacks, "covered attacks diverged");
        assert_eq!(self.summary(), other.summary(), "Table III diverged");
        assert_eq!(self.durations, other.durations, "durations diverged");
        assert_eq!(self.all_starts, other.all_starts, "all_starts diverged");
        assert_eq!(
            self.target_timelines, other.target_timelines,
            "target timelines diverged"
        );
        assert_eq!(self.families.len(), other.families.len());
        for (a, b) in self.families.iter().zip(other.families.iter()) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.starts, b.starts, "{:?}: starts diverged", a.family);
            assert_eq!(
                a.dispersion.active_days, b.dispersion.active_days,
                "{:?}: active days diverged",
                a.family
            );
            assert_eq!(
                a.dispersion.series.len(),
                b.dispersion.series.len(),
                "{:?}: series length diverged",
                a.family
            );
            for (x, y) in a.dispersion.series.iter().zip(&b.dispersion.series) {
                assert_eq!(x.0, y.0, "{:?}: series timestamps diverged", a.family);
                assert_eq!(
                    x.1.to_bits(),
                    y.1.to_bits(),
                    "{:?}: dispersion bits diverged ({} vs {})",
                    a.family,
                    x.1,
                    y.1
                );
            }
            assert_eq!(
                a.bot_grid, b.bot_grid,
                "{:?}: weekly bot grids diverged",
                a.family
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn vectors_follow_trace_order() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
            attack(Family::Dirtjumper, 3, 5_000, 900, 2),
        ]);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(ctx.durations, vec![600.0, 700.0, 900.0]);
        assert_eq!(
            ctx.all_starts,
            ds.attacks().iter().map(|a| a.start).collect::<Vec<_>>()
        );
        // Two targets, sorted by IP, indices ascending.
        assert_eq!(ctx.target_timelines.len(), 2);
        assert!(ctx.target_timelines[0].target < ctx.target_timelines[1].target);
        assert_eq!(ctx.target_timelines[0].attacks, vec![0, 1]);
        assert_eq!(ctx.target_timelines[1].attacks, vec![2]);
        // The CSR join covers every participation.
        assert_eq!(
            ctx.sources.participations(),
            ds.attacks().iter().map(|a| a.sources.len()).sum::<usize>()
        );
    }

    #[test]
    fn family_slots_cover_active_families() {
        let ds = dataset(vec![attack(Family::Pandora, 1, 100, 60, 1)]);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(ctx.families().len(), Family::ACTIVE.len());
        let fc = ctx.family(Family::Pandora).unwrap();
        assert_eq!(fc.starts, vec![Timestamp(100)]);
        assert!(ctx.dispersion_of(Family::Pandora).is_some());
        // The slot lookup is a direct index: every active family's slot
        // holds that family, inactive families have none.
        for family in Family::ACTIVE {
            assert_eq!(ctx.family(family).unwrap().family, family);
        }
        for family in &Family::ALL[Family::ACTIVE.len()..] {
            assert!(ctx.family(*family).is_none());
        }
    }

    #[test]
    fn parallel_serial_and_chunked_builds_agree() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Dirtjumper, 2, 150, 600, 1),
            attack(Family::Pandora, 3, 120, 700, 1),
            attack(Family::Pandora, 4, 900, 700, 2),
            attack(Family::Optima, 5, 1_500, 300, 2),
        ]);
        let build = |parallel, policy| {
            AnalysisContext::build_kernels(
                &ds,
                ArimaSpec::DEFAULT,
                parallel,
                policy,
                &Obs::disabled(),
            )
        };
        let serial = build(false, KernelPolicy::Auto);
        serial.assert_same_analysis(&build(true, KernelPolicy::Auto));
        // One job per attack, and one job per family.
        for policy in [KernelPolicy::Chunked(1), KernelPolicy::Chunked(100)] {
            serial.assert_same_analysis(&build(true, policy));
        }
    }

    #[test]
    fn instrumented_build_is_identical_and_records_stages() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
            attack(Family::Pandora, 3, 900, 700, 2),
        ]);
        let obs = Obs::enabled();
        let instrumented =
            AnalysisContext::build_kernels(&ds, ArimaSpec::DEFAULT, true, KernelPolicy::Auto, &obs);
        instrumented.assert_same_analysis(&AnalysisContext::new(&ds));
        let t = obs.finish(true);
        for stage in [
            "context/bot_table",
            "context/source_table",
            "context/timelines",
            "context/family_resolution",
        ] {
            assert!(t.span(stage).is_some(), "missing build stage span {stage}");
        }
        assert_eq!(
            t.metrics.gauge("context/attacks"),
            Some(ds.attacks().len() as u64)
        );
        assert_eq!(
            t.metrics.gauge("context/participations"),
            Some(instrumented.sources.participations() as u64)
        );
        // Every job landed in the histogram, and the kernel tallied
        // one snapshot per series point (plus any degenerate ones).
        let jobs = t.metrics.gauge("context/family_jobs").unwrap();
        let hist = t
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == "context/chunk_us")
            .unwrap();
        assert_eq!(hist.histogram.count, jobs);
        let series: u64 = instrumented
            .families()
            .iter()
            .map(|fc| fc.dispersion.series.len() as u64)
            .sum();
        let snaps = t.metrics.counter("geo/dispersion_snapshots").unwrap();
        let degen = t.metrics.counter("geo/dispersion_degenerate").unwrap();
        assert_eq!(snaps - degen, series);
    }

    #[test]
    fn empty_dataset_builds() {
        let ds = dataset(vec![]);
        let ctx = AnalysisContext::new(&ds);
        assert!(ctx.durations.is_empty());
        assert!(ctx.target_timelines.is_empty());
        assert_eq!(ctx.families().len(), Family::ACTIVE.len());
        assert_eq!(ctx.sources.dict_len(), 0);
        assert_eq!(ctx.sources.participations(), 0);
    }
}
