//! Epoch-sharded engine equivalence suite.
//!
//! The epoch fold must reproduce the monolithic context build
//! **bit-identically** for any partition of the trace — empty epochs,
//! boundary-straddling attacks, duplicate bot records arbitrated across
//! epochs, and sources that only resolve against another epoch's bots.
//! `EpochContext::merge` must also be associative, so a streaming fold,
//! a balanced tree fold, and an incremental append all agree. And every
//! intermediate watermark of the incremental engine must answer exactly
//! like a fresh run over the same epoch prefix (`Dataset::epoch_prefix`,
//! the oracle).

use ddos_analytics::{
    Analysis, AnalysisContext, AnalysisReport, EpochContext, IncrementalPipeline, PipelineOptions,
    StreamFold,
};
use ddos_obs::Obs;
use ddos_schema::record::Location;
use ddos_schema::{
    Asn, AttackRecord, BotRecord, BotnetId, CityId, Dataset, DatasetBuilder, DdosId, Family,
    IpAddr4, LatLon, OrgId, Protocol, Seconds, Timestamp, Window,
};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use ddos_testkit::report_digest;
use proptest::prelude::*;

fn fold_shards(ds: &Dataset, epoch_len: Seconds) -> EpochContext {
    let obs = Obs::disabled();
    ds.shards(epoch_len)
        .iter()
        .map(|s| EpochContext::build(s, &obs))
        .reduce(|a, b| a.merge(b).0)
        .expect("a dataset always has at least one shard")
}

/// Folding the trace epoch by epoch matches the monolithic build on
/// every analysis input, and the report serializes byte-identically.
fn assert_fold_equals_build(ds: &Dataset, epoch_len: Seconds) {
    let built = AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, false);
    let folded = fold_shards(ds, epoch_len).into_context(ds, ArimaSpec::DEFAULT);
    built.assert_same_analysis(&folded);
    let json = |ctx: &AnalysisContext| {
        serde_json::to_string(&Analysis::over(ctx).parallel(false).run())
            .expect("report serializes")
    };
    assert_eq!(json(&built), json(&folded), "report bytes diverged");
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

#[test]
fn a_first_seen_record_of_a_known_ip_reruns_summary() {
    let ds = repeated_ip_dataset();
    let stats = assert_every_watermark_is_a_prefix_report(&ds, Seconds::days(2));
    assert_eq!(stats.len(), 5);
    assert_eq!(stats[3].attacks, 0);
    assert_eq!(stats[3].reran, vec!["summary"], "a new city went unnoticed");
    // Days 4–5 carry no attack and no first-seen record: nothing moves.
    assert!(stats[2].reran.is_empty(), "an idle epoch re-ran passes");
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
fn merge_promotes_cross_epoch_sources_and_arbitrates_duplicates() {
    let ds = edge_case_dataset();
    let obs = Obs::disabled();
    let shards = ds.shards(Seconds::days(2));
    let ctxs: Vec<EpochContext> = shards
        .iter()
        .map(|s| EpochContext::build(s, &obs))
        .collect();
    assert!(ctxs.iter().any(|c| c.is_empty()), "no empty epoch covered");
    let mut it = ctxs.into_iter();
    let first = it.next().unwrap();
    let (folded, deltas) = it.fold((first, Vec::new()), |(acc, mut deltas), next| {
        let (merged, delta) = acc.merge(next);
        deltas.push(delta);
        (merged, deltas)
    });
    // The day-6 bots (the DE duplicate of bot 1 and the new bot 9)
    // arrive in the fourth epoch: that merge appends rows and
    // re-resolves the early attacks that used the stale/unresolved IPs.
    assert!(
        deltas.iter().any(|d| d.appended_bots > 0),
        "no merge appended bot rows"
    );
    assert!(
        deltas.iter().any(|d| !d.reresolved.is_empty()),
        "no merge re-resolved an attack"
    );
    let folded = folded.into_context(&ds, ArimaSpec::DEFAULT);
    AnalysisContext::build_opts(&ds, ArimaSpec::DEFAULT, false).assert_same_analysis(&folded);
}

#[test]
fn merge_is_associative_over_sim_epochs() {
    let cfg = SimConfig {
        scale: 0.004,
        snapshots: false,
        ..SimConfig::small()
    };
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let obs = Obs::disabled();
    let ctxs: Vec<EpochContext> = ds
        .shards(Seconds::WEEK)
        .iter()
        .map(|s| EpochContext::build(s, &obs))
        .collect();
    assert!(ctxs.len() > 3, "need several epochs to vary fold shape");

    let left = ctxs
        .iter()
        .cloned()
        .reduce(|a, b| a.merge(b).0)
        .unwrap()
        .into_context(ds, ArimaSpec::DEFAULT);
    let right = ctxs
        .iter()
        .cloned()
        .rev()
        .reduce(|b, a| a.merge(b).0)
        .unwrap()
        .into_context(ds, ArimaSpec::DEFAULT);
    fn balanced(mut ctxs: Vec<EpochContext>) -> EpochContext {
        while ctxs.len() > 1 {
            ctxs = ctxs
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => a.clone().merge(b.clone()).0,
                    [a] => a.clone(),
                    _ => unreachable!(),
                })
                .collect();
        }
        ctxs.pop().unwrap()
    }
    let tree = balanced(ctxs).into_context(ds, ArimaSpec::DEFAULT);

    left.assert_same_analysis(&right);
    left.assert_same_analysis(&tree);
    AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, false).assert_same_analysis(&left);
}

#[test]
fn streamed_fold_matches_batch() {
    let cfg = SimConfig {
        scale: 0.004,
        ..SimConfig::small()
    };
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let obs = Obs::enabled();
    let mut fold = StreamFold::new(ds.window());
    for batch in ddos_sim::feed::replay_epochs(ds, Seconds::WEEK) {
        fold.push(&batch, &obs);
    }
    assert!(fold.peak_resident_rows() > 0);
    assert!(
        (fold.peak_resident_rows() as usize) < ds.len() + ds.bots().len() + ds.bots().len() / 2,
        "streaming never held the whole raw trace at once"
    );
    let t = obs.finish(false);
    assert!(t.span("epoch/build").is_some(), "missing epoch/build span");
    assert!(t.span("epoch/merge").is_some(), "missing epoch/merge span");
    assert!(t.metrics.gauge("epoch/resident_rows").is_some());
    let folded = fold
        .finish()
        .expect("batches were pushed")
        .into_context(ds, ArimaSpec::DEFAULT);
    AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, false).assert_same_analysis(&folded);
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
fn incremental_pipeline_matches_batch_and_skips_clean_passes() {
    let ds = edge_case_dataset();
    let opts = PipelineOptions::new().parallel(false).telemetry(false);
    let mut inc = IncrementalPipeline::new(&ds, opts, Seconds::days(2));
    assert_eq!(inc.epochs(), 5);
    let mut stats = Vec::new();
    while let Some(s) = inc.append_epoch() {
        stats.push(s);
    }
    assert!(inc.is_complete());
    assert_eq!(inc.appended(), 5);
    assert_eq!(stats.len(), 5);
    // The first append must fill every slot.
    assert_eq!(stats[0].reran.len(), ddos_analytics::passes::REGISTRY.len());
    // The third epoch (days 4–5) holds no attacks, only the never-
    // sourced CN bot: just the roster readers re-run.
    assert_eq!(stats[2].attacks, 0);
    assert_eq!(stats[2].reran, vec!["summary"], "bot-only epoch over-ran");
    // Epochs contributing attacks re-run the attack readers.
    assert!(stats[1].reran.len() > 1);
    let final_report = inc.into_report();
    let batch = Analysis::new(&ds).options(opts).run();
    let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
    assert_eq!(json(&final_report), json(&batch));
    // And the one-call builder spelling agrees.
    let wrapped = Analysis::new(&ds)
        .options(opts)
        .epochs(Seconds::days(2))
        .incremental()
        .run();
    assert_eq!(json(&wrapped), json(&batch));
}

#[test]
fn incremental_pipeline_on_sim_trace_matches_batch() {
    let cfg = SimConfig {
        scale: 0.004,
        ..SimConfig::small()
    };
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
    let incremental = Analysis::new(ds).epochs(Seconds::WEEK).incremental().run();
    assert_eq!(json(&incremental), json(&Analysis::new(ds).run()));
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
