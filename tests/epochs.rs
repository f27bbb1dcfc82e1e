//! Epoch-sharded engine equivalence suite.
//!
//! The epoch fold must reproduce the monolithic context build
//! **bit-identically** for any partition of the trace — empty epochs,
//! boundary-straddling attacks, duplicate bot records arbitrated across
//! epochs, and sources that only resolve against a later epoch's bots.
//! An append must never renumber an earlier attack's sources. And every
//! intermediate watermark of the incremental engine must answer exactly
//! like a fresh run over the same epoch prefix (`Dataset::epoch_prefix`,
//! the oracle), re-running every pass after an append that changed the
//! fold and none after one that did not. The folded bot grids must be
//! recounted on a re-resolution, and the pass states carried across
//! appends must stay consistent through a pass fault.

use ddos_analytics::passes::REGISTRY;
use ddos_analytics::{
    Analysis, AnalysisContext, AnalysisReport, AppendDelta, EpochContext, IncrementalPipeline,
    KernelPolicy, PipelineOptions,
};
use ddos_obs::Obs;
use ddos_schema::record::Location;
use ddos_schema::{
    Asn, AttackRecord, BotRecord, BotnetId, CityId, Dataset, DatasetBuilder, DdosId, Family,
    IpAddr4, LatLon, OrgId, Protocol, Seconds, Timestamp, Window,
};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use ddos_testkit::failpoints::{self, names, FailPlan};
use ddos_testkit::report_digest;
use proptest::prelude::*;

/// Appends the trace's epochs in order, resolving families on a worker
/// pool when `parallel`. Returns the fold and the delta of each append:
/// `deltas[i]` is epoch `i`'s.
fn fold_shards(
    ds: &Dataset,
    epoch_len: Seconds,
    parallel: bool,
) -> (EpochContext, Vec<AppendDelta>) {
    let obs = Obs::disabled();
    let mut fold = EpochContext::new(ds.window(), parallel, KernelPolicy::Auto);
    let deltas = ds
        .shards(epoch_len)
        .iter()
        .map(|s| fold.append(s, &obs))
        .collect();
    (fold, deltas)
}

/// A serial one-shot build: one append of a one-epoch fold.
fn one_shot(ds: &Dataset) -> AnalysisContext<'_> {
    AnalysisContext::build_kernels(
        ds,
        ArimaSpec::DEFAULT,
        false,
        KernelPolicy::Auto,
        &Obs::disabled(),
    )
}

/// Folding the trace epoch by epoch, serially and on a worker pool,
/// matches the one-shot build on every analysis input, and the report
/// serializes byte-identically.
fn assert_fold_equals_build(ds: &Dataset, epoch_len: Seconds) {
    let built = one_shot(ds);
    let json = |ctx: &AnalysisContext| {
        serde_json::to_string(&Analysis::over(ctx).parallel(false).run())
            .expect("report serializes")
    };
    for parallel in [false, true] {
        let fold = fold_shards(ds, epoch_len, parallel).0;
        let folded = fold.to_context(ds, ArimaSpec::DEFAULT);
        built.assert_same_analysis(&folded);
        assert_eq!(json(&built), json(&folded), "report bytes diverged");
    }
}

/// Appends every epoch of `ds` through a plain incremental pipeline and
/// asserts each watermark's snapshot digests equal to a fresh run over
/// the same epoch prefix. Returns the per-append stats.
fn assert_every_watermark_is_a_prefix_report(
    ds: &Dataset,
    epoch_len: Seconds,
) -> Vec<ddos_analytics::AppendStats> {
    let opts = PipelineOptions::new().telemetry(false);
    let mut inc = IncrementalPipeline::new(ds, opts, epoch_len);
    assert!(
        inc.snapshot_report().is_none(),
        "snapshot before any append"
    );
    let mut stats = Vec::new();
    while let Some(s) = inc.append_epoch() {
        let w = inc.watermark();
        let got = report_digest(&inc.snapshot_report().expect("clean append"));
        let fresh = report_digest(
            &Analysis::new(&ds.epoch_prefix(epoch_len, w))
                .options(opts)
                .run(),
        );
        assert_eq!(got, fresh, "watermark {w} of {} diverged", inc.epochs());
        stats.push(s);
    }
    stats
}

fn location(cc: &str, city: u32, lat: f64) -> Location {
    Location {
        country: cc.parse().unwrap(),
        city: CityId(city),
        org: OrgId(city),
        asn: Asn(64_000 + city),
        coords: LatLon::new_unchecked(lat, 20.0),
    }
}

fn src(last: u8) -> IpAddr4 {
    IpAddr4::from_octets(203, 0, 113, last)
}

fn bot(last: u8, cc: &str, lat: f64, first_day: i64, last_day: i64) -> BotRecord {
    BotRecord {
        ip: src(last),
        botnet: BotnetId(1),
        family: Family::Pandora,
        location: location(cc, 5, lat),
        first_seen: Timestamp(first_day * 86_400),
        last_seen: Timestamp(last_day * 86_400),
    }
}

fn attack(family: Family, id: u64, start: i64, duration: i64, sources: Vec<u8>) -> AttackRecord {
    AttackRecord {
        id: DdosId(id),
        botnet: BotnetId(family.index() as u32 * 10 + 1),
        family,
        category: Protocol::Http,
        target_ip: IpAddr4::from_octets(198, 51, 100, (id % 7) as u8 + 1),
        target: location("US", 1, 38.0),
        start: Timestamp(start),
        end: Timestamp(start + duration),
        sources: sources.into_iter().map(src).collect(),
    }
}

/// A 10-day handcrafted trace exercising every merge edge at once:
///
/// * days 4–5 have no attacks at all (zero-attack epochs);
/// * attack 2 starts late on day 1 and runs into day 2 (an epoch
///   boundary straddle under daily epochs);
/// * bot 1 is recorded twice with different countries/coords, the
///   records observable in different epochs — the merge must arbitrate
///   last-wins and re-resolve every attack that used the stale record;
/// * attack 1's source 9 has no bot record until day 6, so the early
///   epoch leaves it unresolved and the merge must promote it.
fn edge_case_dataset() -> Dataset {
    let day = 86_400;
    let window = Window::new(Timestamp(0), Timestamp(10 * day)).unwrap();
    let mut b = DatasetBuilder::new(window);
    b.push_bot(bot(1, "RU", 55.0, 0, 1)).unwrap();
    b.push_bot(bot(2, "US", 40.0, 0, 9)).unwrap();
    b.push_bot(bot(1, "DE", 52.0, 6, 7)).unwrap();
    b.push_bot(bot(9, "BR", -10.0, 6, 9)).unwrap();
    // Never sourced by an attack; observable only on days 4–5, so
    // under two-day epochs the third epoch appends a bot row without
    // contributing a single attack.
    b.push_bot(bot(7, "CN", 30.0, 4, 5)).unwrap();
    b.push_attack(attack(Family::Pandora, 1, 1_000, 600, vec![1, 9, 2]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 2, 2 * day - 300, 3_000, vec![1, 2]))
        .unwrap();
    b.push_attack(attack(Family::Dirtjumper, 3, 3 * day, 900, vec![2]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 4, 6 * day + 50, 700, vec![1, 9]))
        .unwrap();
    b.push_attack(attack(Family::Optima, 5, 9 * day, 400, vec![2, 1]))
        .unwrap();
    b.build().unwrap()
}

/// A 10-day trace in which the only new bot record of days 6–7 repeats
/// a known IP with a different city: under two-day epochs the fourth
/// epoch appends no attack and no bot row, re-resolves nothing, and
/// still moves Table III's attacker column.
fn repeated_ip_dataset() -> Dataset {
    let day = 86_400;
    let window = Window::new(Timestamp(0), Timestamp(10 * day)).unwrap();
    let mut b = DatasetBuilder::new(window);
    b.push_bot(bot(1, "US", 40.0, 0, 9)).unwrap();
    b.push_bot(bot(2, "RU", 55.0, 0, 1)).unwrap();
    // IP 2 again, never sourced by an attack, with another city.
    let mut moved = bot(2, "RU", 55.0, 6, 7);
    moved.location.city = CityId(6);
    b.push_bot(moved).unwrap();
    b.push_attack(attack(Family::Pandora, 1, 1_000, 600, vec![1]))
        .unwrap();
    b.push_attack(attack(Family::Dirtjumper, 2, 3 * day, 900, vec![1]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 3, 9 * day, 400, vec![1]))
        .unwrap();
    b.build().unwrap()
}

/// A 10-day trace in which the only new bot record of days 6–7 repeats
/// a sourced IP with other coordinates and the same city, country, org
/// and AS: under two-day epochs the fourth epoch appends no attack and
/// no bot row and leaves Table III as it was, yet re-resolves the
/// attacks that used the IP.
fn moved_coords_dataset() -> Dataset {
    let day = 86_400;
    let window = Window::new(Timestamp(0), Timestamp(10 * day)).unwrap();
    let mut b = DatasetBuilder::new(window);
    b.push_bot(bot(1, "RU", 55.0, 0, 9)).unwrap();
    b.push_bot(bot(2, "US", 40.0, 0, 9)).unwrap();
    b.push_bot(bot(1, "RU", 57.0, 6, 7)).unwrap();
    b.push_attack(attack(Family::Pandora, 1, 1_000, 600, vec![1, 2]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 2, 3 * day, 600, vec![1, 2]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 3, 9 * day, 600, vec![1, 2]))
        .unwrap();
    b.build().unwrap()
}

/// A 10-day trace in which bot 1 is recorded again on day 6 in another
/// country (UA, was RU). Under two-day epochs the fourth epoch appends
/// no attack, yet it re-resolves the week-0 attacks that used bot 1: a
/// fold that counted only the new attacks' sightings would still count
/// bot 1 in RU for week 0, and week 1's UA bot would then count as a new
/// country.
fn moved_country_dataset() -> Dataset {
    let day = 86_400;
    let window = Window::new(Timestamp(0), Timestamp(10 * day)).unwrap();
    let mut b = DatasetBuilder::new(window);
    b.push_bot(bot(1, "RU", 55.0, 0, 9)).unwrap();
    b.push_bot(bot(2, "US", 40.0, 0, 9)).unwrap();
    b.push_bot(bot(1, "UA", 55.0, 6, 7)).unwrap();
    b.push_attack(attack(Family::Pandora, 1, 1_000, 600, vec![1, 2]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 2, 3 * day, 600, vec![1, 2]))
        .unwrap();
    b.push_attack(attack(Family::Pandora, 3, 9 * day, 600, vec![1, 2]))
        .unwrap();
    b.build().unwrap()
}

#[test]
fn a_reresolved_country_recounts_the_folded_grids() {
    let ds = moved_country_dataset();
    let len = Seconds::days(2);
    let (_, deltas) = fold_shards(&ds, len, true);
    assert_eq!(deltas[3].reresolved, vec![0, 1], "week-0 attacks use bot 1");
    assert_eq!(deltas[3].appended_attacks, 0);
    let stats = assert_every_watermark_is_a_prefix_report(&ds, len);
    assert_eq!(stats.len(), 5);
    // The full trace counts bot 1 in UA in both weeks.
    let shifts = Analysis::new(&ds).run().shifts;
    assert_eq!(shifts.weeks[1].new_country_bots, 0);
    assert_eq!(shifts.weeks[1].existing_country_bots, 2);
}

#[test]
fn a_pass_fault_after_the_first_stage_keeps_the_carries_consistent() {
    if !failpoints::ACTIVE {
        return;
    }
    let cfg = SimConfig {
        scale: 0.004,
        snapshots: false,
        ..SimConfig::small()
    };
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let len = Seconds::WEEK;
    let opts = PipelineOptions::new().telemetry(false);
    // Every pass but `flagship_pair` runs in the first stage.
    let first_stage = REGISTRY.iter().filter(|p| p.deps.is_empty()).count();
    assert_eq!(first_stage, 19);
    let prefix_digest =
        |w: usize| report_digest(&Analysis::new(&ds.epoch_prefix(len, w)).options(opts).run());
    for parallel in [false, true] {
        let opts = opts.parallel(parallel);
        let mut inc = IncrementalPipeline::new(ds, opts, len);
        inc.append_epoch().expect("the first epoch appends");
        {
            // Hits 0–18 pass the first stage, which advances every
            // carry over the second epoch; hit 19 faults the second.
            let _scope = FailPlan::new()
                .fail_nth(names::SCHEDULER_PASS, first_stage as u64)
                .install();
            inc.try_append_epoch()
                .expect_err("the flagship_pair stage must hit the fault");
        }
        assert!(inc.snapshot_report().is_none());
        inc.append_epoch().expect("the third epoch appends");
        assert_eq!(
            report_digest(&inc.snapshot_report().expect("a clean append")),
            prefix_digest(3),
            "parallel={parallel}"
        );
        // And the last epoch faulted the same way: the flush finds
        // nothing new for the carries and emits the same sections.
        while inc.watermark() + 1 < inc.epochs() {
            inc.append_epoch();
        }
        {
            let _scope = FailPlan::new()
                .fail_nth(names::SCHEDULER_PASS, first_stage as u64)
                .install();
            inc.try_append_epoch()
                .expect_err("the flagship_pair stage must hit the fault");
        }
        assert!(inc.is_complete());
        let report = inc.into_report();
        assert_eq!(report_digest(&report), prefix_digest(ds.shards(len).len()));
        assert_eq!(
            report_digest(&report),
            report_digest(&Analysis::new(ds).options(opts).run())
        );
    }
}

#[test]
fn a_first_seen_record_of_a_known_ip_reruns_every_pass() {
    let ds = repeated_ip_dataset();
    let stats = assert_every_watermark_is_a_prefix_report(&ds, Seconds::days(2));
    assert_eq!(stats.len(), 5);
    assert_eq!(stats[3].attacks, 0);
    assert_eq!(
        stats[3].reran.len(),
        REGISTRY.len(),
        "a new city went unnoticed"
    );
    // Days 4–5 carry no attack and no first-seen record: nothing moves.
    assert!(stats[2].reran.is_empty(), "an idle epoch re-ran passes");
}

#[test]
fn an_epoch_that_only_reresolves_reruns_every_pass() {
    let ds = moved_coords_dataset();
    let len = Seconds::days(2);
    let (_, deltas) = fold_shards(&ds, len, true);
    let moved = &deltas[3];
    assert!(!moved.reresolved.is_empty(), "no attack re-resolved");
    assert_eq!(moved.appended_attacks, 0);
    assert_eq!(moved.appended_bots, 0);
    assert!(!moved.attackers_grew, "Table III's attacker side moved");
    let stats = assert_every_watermark_is_a_prefix_report(&ds, len);
    assert_eq!(
        stats[3].reran.len(),
        REGISTRY.len(),
        "a re-resolution went unnoticed"
    );
}

#[test]
fn a_pass_fault_leaves_no_report_until_the_next_append_reruns_every_pass() {
    if !failpoints::ACTIVE {
        return;
    }
    let ds = repeated_ip_dataset();
    let len = Seconds::days(2);
    let opts = PipelineOptions::new().telemetry(false);
    let mut inc = IncrementalPipeline::new(&ds, opts, len);
    inc.append_epoch().expect("the first epoch appends");
    {
        let _scope = FailPlan::new().fail_nth(names::SCHEDULER_PASS, 0).install();
        inc.try_append_epoch()
            .expect_err("the second append must hit the pass fault");
    }
    assert!(
        inc.snapshot_report().is_none(),
        "a faulted pass run left a report"
    );
    // Days 4–5 are idle, but no report stands for the fold.
    let idle = inc.append_epoch().expect("the third epoch appends");
    assert_eq!(idle.attacks, 0);
    assert_eq!(idle.reran.len(), REGISTRY.len());
    let fresh = Analysis::new(&ds.epoch_prefix(len, 3)).options(opts).run();
    assert_eq!(
        report_digest(
            &inc.snapshot_report()
                .expect("the idle append ran the registry")
        ),
        report_digest(&fresh)
    );
}

#[test]
fn edge_cases_fold_to_the_monolithic_build() {
    let ds = edge_case_dataset();
    for days in [1i64, 2, 3, 7, 30] {
        assert_fold_equals_build(&ds, Seconds::days(days));
    }
    // An odd epoch length that divides nothing cleanly.
    assert_fold_equals_build(&ds, Seconds(100_000));
}

#[test]
fn append_promotes_cross_epoch_sources_and_arbitrates_duplicates() {
    let ds = edge_case_dataset();
    let (folded, deltas) = fold_shards(&ds, Seconds::days(2), true);
    assert!(
        deltas.iter().any(|d| d.appended_attacks == 0),
        "no empty epoch covered"
    );
    // The day-6 bots (the DE duplicate of bot 1 and the new bot 9)
    // arrive in the fourth epoch: that append arbitrates the duplicate,
    // promotes the source and re-resolves the early attacks that used
    // the stale/unresolved IPs.
    assert!(
        deltas[1..].iter().any(|d| d.appended_bots > 0),
        "no later append added bot rows"
    );
    assert_eq!(
        deltas[3].reresolved,
        vec![0, 1],
        "attacks 1 and 2 use bot 1"
    );
    assert!(deltas[3].appended_bots > 0, "bot 9 was not promoted");
    let folded = folded.to_context(&ds, ArimaSpec::DEFAULT);
    one_shot(&ds).assert_same_analysis(&folded);
}

/// An earlier attack's dictionary ids survive every later append, on a
/// sim trace and through the edge cases' promotion and arbitration.
#[test]
fn appends_never_renumber_an_earlier_attacks_sources() {
    let cfg = SimConfig {
        scale: 0.004,
        snapshots: false,
        ..SimConfig::small()
    };
    let trace = generate(&cfg);
    let obs = Obs::disabled();
    for (ds, len) in [
        (&trace.dataset, Seconds::WEEK),
        (&edge_case_dataset(), Seconds::days(1)),
    ] {
        let mut fold = EpochContext::new(ds.window(), true, KernelPolicy::Auto);
        let mut seen: Vec<Vec<u32>> = Vec::new();
        for shard in ds.shards(len) {
            fold.append(&shard, &obs);
            let ctx = fold.to_context(ds, ArimaSpec::DEFAULT);
            for (i, ids) in seen.iter().enumerate() {
                assert_eq!(
                    ctx.sources.ids_of(i),
                    &ids[..],
                    "epoch {} renumbered attack {i}",
                    shard.epoch()
                );
            }
            seen.extend((seen.len()..fold.len()).map(|i| ctx.sources.ids_of(i).to_vec()));
        }
        assert_eq!(seen.len(), ds.len());
    }
}

#[test]
fn epoch_engine_report_matches_the_batch_pipeline() {
    let cfg = SimConfig {
        scale: 0.004,
        ..SimConfig::small()
    };
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
    let batch = json(&Analysis::new(ds).run());
    for parallel in [false, true] {
        let r = Analysis::new(ds)
            .parallel(parallel)
            .epochs(Seconds::WEEK)
            .run();
        assert_eq!(json(&r), batch, "epoch fold (parallel={parallel}) diverged");
        assert!(r.telemetry.span("epoch/build").is_some());
        assert!(r.telemetry.span("epoch/merge").is_some());
    }
}

#[test]
fn incremental_pipeline_matches_batch_and_reruns_every_pass() {
    let ds = edge_case_dataset();
    let opts = PipelineOptions::new().parallel(false).telemetry(false);
    let mut inc = IncrementalPipeline::new(&ds, opts, Seconds::days(2));
    assert_eq!(inc.epochs(), 5);
    let mut stats = Vec::new();
    while let Some(s) = inc.append_epoch() {
        stats.push(s);
    }
    assert!(inc.is_complete());
    assert_eq!(inc.watermark(), 5);
    assert_eq!(stats.len(), 5);
    // The first append must fill every slot.
    assert_eq!(stats[0].reran.len(), REGISTRY.len());
    // The third epoch (days 4–5) holds no attacks, only the never-
    // sourced CN bot: its bot row changes the fold, so every pass
    // re-runs.
    assert_eq!(stats[2].attacks, 0);
    assert_eq!(
        stats[2].reran.len(),
        REGISTRY.len(),
        "bot-only epoch skipped"
    );
    // Epochs contributing attacks re-run every pass too.
    assert_eq!(stats[1].reran.len(), REGISTRY.len());
    let final_report = inc.into_report();
    let batch = Analysis::new(&ds).options(opts).run();
    let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
    assert_eq!(json(&final_report), json(&batch));
    // And the one-call builder spelling agrees.
    let wrapped = Analysis::new(&ds)
        .options(opts)
        .epochs(Seconds::days(2))
        .run();
    assert_eq!(json(&wrapped), json(&batch));
}

proptest! {
    // Trace generation dominates the cost; a handful of random
    // partitions across seeds and scales covers the merge paths.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every watermark of a plain incremental pipeline over an arbitrary
    /// sim trace is byte-identical to a fresh run over the same epochs.
    #[test]
    fn every_incremental_watermark_is_an_exact_prefix_report(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.004,
        epoch_days in 3i64..=40,
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots: false,
            ..SimConfig::small()
        };
        let trace = generate(&cfg);
        assert_every_watermark_is_a_prefix_report(&trace.dataset, Seconds::days(epoch_days));
    }

    /// An arbitrary epoch partition of an arbitrary sim trace folds to
    /// a context bit-identical to the monolithic build.
    #[test]
    fn arbitrary_partition_folds_bit_identically(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.008,
        epoch_secs in 3_600i64..(40 * 86_400),
        spike in any::<bool>(),
        collaborations in any::<bool>(),
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots: false,
            spike,
            collaborations,
            ..SimConfig::small()
        };
        let trace = generate(&cfg);
        assert_fold_equals_build(&trace.dataset, Seconds(epoch_secs));
    }
}
