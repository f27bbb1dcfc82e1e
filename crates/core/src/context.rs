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
//! the hot kernel treated as such: the `Botlist` becomes a [`BotTable`]
//! (sorted IP column + precomputed trig), the attack→source join becomes
//! a [`SourceTable`] (every source list as dense `u32` dictionary ids),
//! the per-snapshot dispersion runs through the `*_precomp` kernels of
//! `ddos-geo` that read cached `sin`/`cos` instead of recomputing each
//! bot's trigonometry per attack-participation, and the per-family
//! resolution fans out on scoped threads in deterministic jobs whose
//! length [`KernelPolicy`] sets.
//!
//! # The covered records
//!
//! A context covers a *prefix* of the trace: the monolithic build covers
//! all of it, and an epoch fold ([`crate::epoch::EpochContext`]) covers
//! the epochs appended so far. The monolithic build owns its columns;
//! the fold lends its own as [`Cow::Borrowed`], so a mid-stream context
//! copies nothing. Pass bodies read raw records only through
//! [`AnalysisContext::attacks`], a slice borrowed from the dataset's
//! attack list that ends where the covered prefix ends, and Table III
//! only through [`AnalysisContext::summary`]. The dataset itself is a
//! private field, so no pass can reach records past the prefix: a fold
//! at any watermark answers exactly like a fresh build over the same
//! epochs, with no copy of the prefix made.
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
//!   [`FamilyDispersion::compute`] produces; its `weekly_bots` maps hold
//!   exactly the resolvable `(bot, country)` participations per window
//!   week.
//! * Serial, parallel, and any-job-length builds are **bit-identical**:
//!   jobs merge in (family, job) order, and the precomp kernels evaluate
//!   the exact scalar expressions (see `ddos_geo::trig`). The
//!   pipeline-equivalence suite enforces this with
//!   [`AnalysisContext::assert_same_analysis`]; the unit tests below hold
//!   the dispersion series and the weekly bot maps to the dataset scans.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use ddos_geo::{
    dispersion_precomp_indexed_counted, dispersion_precomp_indexed_presummed, CenterSum,
    KernelCounters,
};
use ddos_obs::Obs;
use ddos_schema::{
    AttackRecord, CountryCode, Dataset, DatasetSummary, Family, IpAddr4, Timestamp, Window,
};
use ddos_stats::ArimaSpec;

use crate::columnar::{
    chunk_ranges, radix_sort_by_ip, worker_count, BotTable, SourceTable, NO_BOT,
};
use crate::kernels::KernelPolicy;
use crate::source::dispersion::FamilyDispersion;
use crate::util::IpMap;

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
    /// Per window week: the distinct resolvable bots participating in
    /// the family's attacks that week, with their countries.
    pub weekly_bots: Vec<IpMap<CountryCode>>,
}

/// Everything the analysis passes share, built once per covered prefix:
/// owned by a monolithic build, borrowed from an epoch fold.
#[derive(Debug)]
pub struct AnalysisContext<'a> {
    /// The dataset the covered records are borrowed from. Private: a
    /// fold's dataset holds records past the covered prefix.
    dataset: &'a Dataset,
    /// The covered attacks, in trace order: all of `dataset.attacks()`
    /// for a monolithic build, the appended epochs' prefix of it for a
    /// fold.
    pub attacks: &'a [AttackRecord],
    /// Table III's counts when the builder already has them (an epoch
    /// fold grows them per epoch); `None` has [`AnalysisContext::summary`]
    /// scan the dataset instead.
    summary: Option<DatasetSummary>,
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
    families: Cow<'a, [FamilyContext]>,
}

/// A reusable last-seen-week stamp buffer, one slot per dictionary id.
///
/// Each job gets a fresh, disjoint tag range (`tag_base + week`), so
/// the buffer is valid across jobs without re-zeroing — a worker
/// allocates it once instead of clearing `dict_len` slots per family.
#[derive(Default)]
struct WeekStamp {
    tags: Vec<u32>,
    next_base: u32,
}

impl WeekStamp {
    /// Starts a new job: sizes the buffer on first use and claims an
    /// unused tag range. Tag 0 is reserved as "never stamped".
    fn begin(&mut self, dict_len: usize, num_weeks: usize) -> u32 {
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
        base
    }
}

/// One job's share of a family's resolution: everything the merge
/// needs, accumulated in the job's attack order.
struct FamilyChunk {
    starts: Vec<Timestamp>,
    series: Vec<(Timestamp, f64)>,
    /// Day indices of snapshots that produced a dispersion value (may
    /// repeat; deduplicated at merge).
    days: Vec<usize>,
    weekly: Vec<IpMap<CountryCode>>,
}

/// Resolves one job of a family's attacks through the columnar
/// substrate in a single sweep: dictionary ids → bot rows, with the
/// weekly stamp dedup and the dispersion snapshot fed from the same walk
/// over each attack's id slice. For the common fully-resolved attack
/// one loop both stamps the weekly dedup and folds the dispersion
/// center sum (a resolved id *is* its trig row). The center fold pushes
/// in id order and [`dispersion_precomp_indexed_presummed`] finishes
/// with the one-call kernel's exact expressions, so every series value
/// is bit-identical to the scalar dispersion of the dataset scan
/// ([`FamilyDispersion::compute`]). At paper scale this is the context
/// build's hottest loop.
///
/// The weekly stamp sweep records each week's first sighting of a bot
/// flat, and the maps then build in one tight pass reserved at exactly
/// their final size. `ids_of(i)` mirrors `attacks[i].sources`
/// one-to-one, so a first-of-the-week record reads its IP from the
/// attack's own list rather than through the dictionary column.
fn resolve_family_chunk(
    dataset: &Dataset,
    bots: &BotTable,
    sources: &SourceTable,
    attack_indices: &[u32],
    num_weeks: usize,
    stamp: &mut WeekStamp,
    kernel: &KernelCounters,
) -> FamilyChunk {
    let window = dataset.window();
    let attacks = dataset.attacks();
    let trigs = bots.trigs();
    let mut out = FamilyChunk {
        starts: Vec::with_capacity(attack_indices.len()),
        series: Vec::with_capacity(attack_indices.len()),
        days: Vec::new(),
        weekly: vec![IpMap::default(); num_weeks],
    };
    let tag_base = stamp.begin(sources.dict_len(), num_weeks);
    let tags = &mut stamp.tags[..];
    let mut per_week = vec![0usize; num_weeks];
    let mut firsts: Vec<(IpAddr4, CountryCode, u32)> = Vec::new();
    let mut rows: Vec<u32> = Vec::new();
    for &ai in attack_indices {
        let a = &attacks[ai as usize];
        let ids = sources.ids_of(ai as usize);
        out.starts.push(a.start);
        let d = if sources.unresolved_in(ai as usize) == 0 {
            // Fully resolved: ids are the kernel's row list, so one
            // loop stamps the weekly dedup and folds the center sum
            // together, with no `bot_row(id) != NO_BOT` check.
            let mut sum = CenterSum::default();
            if let Some(w) = window.week_index(a.start) {
                let tag = tag_base + w as u32;
                for (k, &id) in ids.iter().enumerate() {
                    sum.push(&trigs[id as usize]);
                    if tags[id as usize] != tag {
                        tags[id as usize] = tag;
                        per_week[w] += 1;
                        firsts.push((a.sources[k], bots.country(id), w as u32));
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
            if let Some(w) = window.week_index(a.start) {
                let tag = tag_base + w as u32;
                for (k, &id) in ids.iter().enumerate() {
                    if tags[id as usize] == tag {
                        continue;
                    }
                    tags[id as usize] = tag;
                    let row = sources.bot_row(id);
                    if row != NO_BOT {
                        per_week[w] += 1;
                        firsts.push((a.sources[k], bots.country(row), w as u32));
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
        let Some(d) = d else {
            continue;
        };
        if let Some(day) = window.day_index(a.start) {
            // Attacks arrive in start order, so days are nondecreasing:
            // dedup against the last push (the merge treats `days` as a
            // set, so only the distinct values matter).
            if out.days.last() != Some(&day) {
                out.days.push(day);
            }
        }
        out.series.push((a.start, d.value()));
    }
    for (w, &n) in per_week.iter().enumerate() {
        out.weekly[w].reserve(n);
    }
    for &(ip, country, w) in &firsts {
        out.weekly[w as usize].insert(ip, country);
    }
    out
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context with the default ARIMA order.
    pub fn new(dataset: &'a Dataset) -> AnalysisContext<'a> {
        Self::build(dataset, ArimaSpec::DEFAULT)
    }

    /// Builds the context on the columnar substrate with the build
    /// phases parallelized (see [`AnalysisContext::build_opts`]).
    pub fn build(dataset: &'a Dataset, spec: ArimaSpec) -> AnalysisContext<'a> {
        Self::build_opts(dataset, spec, true)
    }

    /// Builds the context on the columnar substrate.
    ///
    /// Phases: (1) the [`BotTable`] (sort + one trig precompute per
    /// distinct bot), (2) the [`SourceTable`] CSR join (data-parallel
    /// over disjoint output slices when `parallel`), (3) the global
    /// per-attack vectors and target timelines, (4) per-family source
    /// resolution — each family's attack list is cut into jobs that
    /// scoped worker threads drain from a shared queue, and the job
    /// results merge in (family, job) order, so the output is
    /// bit-identical to the serial build.
    pub fn build_opts(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
    ) -> AnalysisContext<'a> {
        Self::build_obs(dataset, spec, parallel, &Obs::disabled())
    }

    /// [`AnalysisContext::build_opts`] with the build stages telemetered
    /// into `obs`: one `context/<stage>` span per phase, gauges for the
    /// table sizes, a `context/chunk_us` histogram of per-job
    /// resolution time, and `geo/dispersion_*` counters of kernel work.
    /// Recording is relaxed-atomic handles on the worker paths, so the
    /// built context is bit-identical with telemetry on, off, serial,
    /// or parallel.
    pub fn build_obs(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
        obs: &Obs,
    ) -> AnalysisContext<'a> {
        Self::build_kernels(dataset, spec, parallel, KernelPolicy::Auto, obs)
    }

    /// [`AnalysisContext::build_obs`] with an explicit [`KernelPolicy`]:
    /// the length of the per-family resolution jobs. Every policy builds
    /// a bit-identical context. This is the only reader of the policy.
    pub fn build_kernels(
        dataset: &'a Dataset,
        spec: ArimaSpec,
        parallel: bool,
        policy: KernelPolicy,
        obs: &Obs,
    ) -> AnalysisContext<'a> {
        let bot_span = obs.span("context/bot_table");
        let bot_table = BotTable::build(dataset);
        drop(bot_span);
        let src_span = obs.span("context/source_table");
        let sources = SourceTable::build(dataset, &bot_table, parallel);
        drop(src_span);
        let window = dataset.window();
        let attacks = dataset.attacks();
        obs.gauge("context/attacks").set(attacks.len() as u64);
        obs.gauge("context/bots").set(bot_table.len() as u64);
        obs.gauge("context/source_dict_ips")
            .set(sources.dict_len() as u64);
        obs.gauge("context/participations")
            .set(sources.participations() as u64);
        obs.gauge("context/unresolved_sources")
            .set(sources.unresolved_total());

        let timeline_span = obs.span("context/timelines");
        let mut durations = Vec::with_capacity(attacks.len());
        let mut all_starts = Vec::with_capacity(attacks.len());
        for a in attacks {
            durations.push(a.duration().as_f64());
            all_starts.push(a.start);
        }
        // Target timelines columnar-style: radix-sort packed
        // `(target, index)` keys and slice the runs, instead of a hash
        // map of growing vectors. The stable sort keeps each target's
        // attack indices ascending — the same order the hash-map build
        // produces after its final sort by target.
        let mut keyed: Vec<u64> = attacks
            .iter()
            .enumerate()
            .map(|(i, a)| (u64::from(a.target_ip.value()) << 32) | i as u64)
            .collect();
        radix_sort_by_ip(&mut keyed);
        let mut target_timelines: Vec<TargetTimeline> = Vec::new();
        let mut run = 0;
        while run < keyed.len() {
            let target = (keyed[run] >> 32) as u32;
            let mut end = run;
            while end < keyed.len() && (keyed[end] >> 32) as u32 == target {
                end += 1;
            }
            target_timelines.push(TargetTimeline {
                target: IpAddr4(target),
                attacks: keyed[run..end].iter().map(|&k| k as u32 as usize).collect(),
            });
            run = end;
        }
        drop(timeline_span);

        let num_weeks = window.num_weeks();

        // Per-family fan-out: the big families split into enough jobs to
        // keep every worker busy; a shared counter hands them out.
        let family_span = obs.span("context/family_resolution");
        let kernel = KernelCounters::default();
        let chunk_hist = obs.histogram("context/chunk_us");
        let mut jobs: Vec<(usize, &[u32])> = Vec::new();
        for (slot, family) in Family::ACTIVE.into_iter().enumerate() {
            let indices = dataset.attack_indices_of(family);
            let pieces = match policy {
                KernelPolicy::Auto if parallel => worker_count(),
                KernelPolicy::Auto => 1,
                KernelPolicy::Chunked(len) => indices.len().div_ceil(len.max(1)),
            };
            for r in chunk_ranges(indices.len(), pieces) {
                jobs.push((slot, &indices[r]));
            }
        }
        // Each worker owns one reusable week-stamp buffer across all the
        // jobs it drains ([`WeekStamp`] hands every job a fresh tag
        // range, so no re-zeroing between jobs).
        let run_job = |&(slot, indices): &(usize, &[u32]), stamp: &mut WeekStamp| {
            let t0 = obs.now_us();
            let chunk = resolve_family_chunk(
                dataset, &bot_table, &sources, indices, num_weeks, stamp, &kernel,
            );
            chunk_hist.record(obs.now_us().saturating_sub(t0));
            (slot, chunk)
        };
        let workers = worker_count().min(jobs.len());
        obs.gauge("context/family_jobs").set(jobs.len() as u64);
        obs.gauge("context/workers")
            .set(if parallel && workers > 1 {
                workers as u64
            } else {
                1
            });
        let mut outs: Vec<(usize, usize, FamilyChunk)> = if parallel && workers > 1 {
            let next = AtomicUsize::new(0);
            let mut collected: Vec<(usize, usize, FamilyChunk)> =
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            scope.spawn(|_| {
                                let mut local = Vec::new();
                                let mut stamp = WeekStamp::default();
                                loop {
                                    let j = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(job) = jobs.get(j) else {
                                        break;
                                    };
                                    let (slot, chunk) = run_job(job, &mut stamp);
                                    local.push((j, slot, chunk));
                                }
                                local
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("family resolution panicked"))
                        .collect()
                })
                .expect("family resolution scope panicked");
            collected.sort_unstable_by_key(|&(j, _, _)| j);
            collected
        } else {
            let mut stamp = WeekStamp::default();
            jobs.iter()
                .enumerate()
                .map(|(j, job)| {
                    let (slot, chunk) = run_job(job, &mut stamp);
                    (j, slot, chunk)
                })
                .collect()
        };

        // Deterministic merge: jobs are slot-major and sorted by job id,
        // so each family's jobs concatenate in its trace order.
        let mut families: Vec<FamilyContext> = Family::ACTIVE
            .into_iter()
            .map(|family| FamilyContext {
                family,
                starts: Vec::new(),
                dispersion: FamilyDispersion {
                    family,
                    series: Vec::new(),
                    active_days: 0,
                },
                weekly_bots: vec![IpMap::default(); num_weeks],
            })
            .collect();
        let mut day_sets: Vec<HashSet<usize>> = vec![HashSet::new(); families.len()];
        for (_, slot, chunk) in outs.drain(..) {
            let fc = &mut families[slot];
            fc.starts.extend(chunk.starts);
            fc.dispersion.series.extend(chunk.series);
            day_sets[slot].extend(chunk.days);
            for (w, map) in chunk.weekly.into_iter().enumerate() {
                if fc.weekly_bots[w].is_empty() {
                    fc.weekly_bots[w] = map;
                } else {
                    fc.weekly_bots[w].extend(map);
                }
            }
        }
        for (fc, days) in families.iter_mut().zip(day_sets) {
            fc.dispersion.active_days = days.len();
        }
        drop(family_span);
        obs.counter("geo/dispersion_snapshots")
            .add(kernel.snapshots());
        obs.counter("geo/dispersion_points").add(kernel.points());
        obs.counter("geo/dispersion_degenerate")
            .add(kernel.degenerate());

        AnalysisContext {
            dataset,
            attacks,
            summary: None,
            spec,
            sources: Cow::Owned(sources),
            durations: Cow::Owned(durations),
            all_starts: Cow::Owned(all_starts),
            target_timelines: Cow::Owned(target_timelines),
            families: Cow::Owned(families),
        }
    }

    /// Assembles a context from precomputed parts — the exit point of
    /// the epoch fold ([`crate::epoch::EpochContext`]), covering the
    /// first `attacks` records of `dataset` with Table III's counts
    /// already counted. Callers are responsible for upholding the module
    /// invariants; the epoch equivalence suite pins the fold's output
    /// bit-equal to [`AnalysisContext::build`] over the same records.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        dataset: &'a Dataset,
        attacks: usize,
        summary: DatasetSummary,
        spec: ArimaSpec,
        sources: Cow<'a, SourceTable>,
        durations: Cow<'a, [f64]>,
        all_starts: Cow<'a, [Timestamp]>,
        target_timelines: Cow<'a, [TargetTimeline]>,
        families: Cow<'a, [FamilyContext]>,
    ) -> AnalysisContext<'a> {
        AnalysisContext {
            dataset,
            attacks: &dataset.attacks()[..attacks],
            summary: Some(summary),
            spec,
            sources,
            durations,
            all_starts,
            target_timelines,
            families,
        }
    }

    /// The trace window. Day and week bucketing is always against the
    /// whole trace's window, whatever prefix the context covers.
    pub fn window(&self) -> Window {
        self.dataset.window()
    }

    /// Table III's distinct counts over the covered records: the fold's
    /// counts, or for a monolithic build a scan of the dataset
    /// ([`Dataset::summary`]) run when the `summary` pass asks.
    pub fn summary(&self) -> DatasetSummary {
        self.summary.unwrap_or_else(|| self.dataset.summary())
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
    /// epoch-folded builds to the serial build.
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
                a.weekly_bots, b.weekly_bots,
                "{:?}: weekly bot maps diverged",
                a.family
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use crate::source::dispersion::qualifying_families;
    use crate::source::shift::{ShiftAnalysis, ShiftState};
    use crate::util::BotIndex;

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
    fn dispersion_matches_standalone_compute() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
        ]);
        let ctx = AnalysisContext::new(&ds);
        let bots = BotIndex::build(&ds);
        for family in Family::ACTIVE {
            let standalone = FamilyDispersion::compute(&ds, &bots, family);
            assert_eq!(ctx.dispersion_of(family), Some(&standalone));
        }
        // And the shared join agrees with the standalone shift analysis.
        assert_eq!(
            ShiftAnalysis::resume(&ctx, &mut ShiftState::default()),
            ShiftAnalysis::compute(&ds, &bots)
        );
        assert_eq!(
            crate::source::dispersion::qualifying_families_ctx(&ctx),
            qualifying_families(&ds, &bots)
        );
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
        let serial = AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, false);
        let parallel = AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, true);
        serial.assert_same_analysis(&parallel);
        // One job per attack, and one job per family.
        for policy in [KernelPolicy::Chunked(1), KernelPolicy::Chunked(100)] {
            let chunked = AnalysisContext::build_kernels(
                &ds,
                ArimaSpec::DEFAULT,
                true,
                policy,
                &Obs::disabled(),
            );
            serial.assert_same_analysis(&chunked);
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
        let instrumented = AnalysisContext::build_obs(&ds, ArimaSpec::DEFAULT, true, &obs);
        let quiet = AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, true);
        instrumented.assert_same_analysis(&quiet);
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
