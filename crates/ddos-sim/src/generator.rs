//! The trace generator: assembles a full [`Dataset`] from the calibrated
//! family models.
//!
//! Pipeline (all deterministic from [`SimConfig::seed`]):
//!
//! 1. synthesize the world ([`GeoDb`]);
//! 2. resolve per-family profiles and plan inter-family collaboration
//!    events (serial pre-pass, so both participants agree on target and
//!    timing);
//! 3. generate each family's attacks in parallel (`crossbeam` scope, one
//!    forked RNG stream per family): regular schedule, intra-family
//!    groups, consecutive chains, the Dirtjumper spike day, sources,
//!    per-family hourly snapshots;
//! 4. merge, assign global attack ids in time order, derive `Botlist`
//!    and `Botnetlist` records, and build the indexed dataset.

use std::collections::HashMap;

use ddos_geo::GeoDb;
use ddos_schema::record::Location;
use ddos_schema::snapshot::{BotPresence, HourlySnapshot};
use ddos_schema::{
    AttackRecord, BotRecord, BotnetId, BotnetRecord, Dataset, DatasetBuilder, DdosId, Family,
    IpAddr4, Protocol, Seconds, SnapshotSeries, Timestamp,
};
use ddos_stats::dist::Zipf;
use ddos_stats::Rng;

use crate::calibration::{
    FamilyCalibration, ACTIVE_FAMILIES, CONSECUTIVE_CHAINS, DDOSER_CHAIN_LEN,
    INACTIVE_BOTNETS_PER_FAMILY, INACTIVE_BOT_POOL, INTER_COLLAB_MATCHED, INTER_COLLAB_UNMATCHED,
    INTRA_COLLAB_GROUPS, SPIKE_DAY, SPIKE_EXTRA_ATTACKS,
};
use crate::collab;
use crate::config::SimConfig;
use crate::profile::FamilyProfile;
use crate::roster::{Roster, SourceSampler};
use crate::schedule::{
    allocate_daily_counts, day_start_times, sample_duration, IntervalSampler, MagnitudeProcess,
};

/// A generated trace: the dataset plus the world it was geolocated
/// against (needed to resolve org/city names in reports).
pub struct GeneratedTrace {
    /// The joined, indexed dataset.
    pub dataset: Dataset,
    /// The synthetic world used for geolocation.
    pub geo: GeoDb,
}

/// An attack planned by the inter-family pre-pass, to be materialized by
/// the owning family's worker.
#[derive(Debug, Clone)]
struct PreAttack {
    start: Timestamp,
    duration: Seconds,
    magnitude: usize,
    target_ip: IpAddr4,
    target: Location,
}

/// One victim in a family's pool.
#[derive(Debug, Clone, Copy)]
struct Target {
    ip: IpAddr4,
    loc: Location,
}

/// Everything a family worker produces.
struct FamilyOutput {
    family: Family,
    attacks: Vec<AttackRecord>,
    bots: HashMap<IpAddr4, (Timestamp, Timestamp)>,
    snapshots: Option<SnapshotSeries>,
}

/// Generates a full trace from the configuration.
pub fn generate(config: &SimConfig) -> GeneratedTrace {
    let geo = GeoDb::synthesize(&config.geo);
    let root = Rng::new(config.seed);

    // Resolve profiles with per-family forked streams.
    let profiles: Vec<FamilyProfile> = ACTIVE_FAMILIES
        .iter()
        .map(|cal| {
            let mut rng = root.fork(cal.family.index() as u64);
            FamilyProfile::resolve(cal, config, &mut rng)
        })
        .collect();

    // Global botnet-id ranges, stable across runs: actives first.
    let mut botnet_base = HashMap::new();
    let mut next_id: u32 = 1;
    for p in &profiles {
        botnet_base.insert(p.family(), next_id);
        next_id += p.botnets;
    }
    let inactive_base = next_id;

    // Serial pre-pass: plan inter-family collaboration events.
    let mut pre: HashMap<Family, Vec<PreAttack>> = HashMap::new();
    if config.collaborations {
        let mut rng = root.fork(0xC0_11AB);
        plan_inter_family(config, &profiles, &geo, &mut rng, &mut pre);
    }

    // Parallel per-family generation.
    let mut outputs: Vec<FamilyOutput> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = profiles
            .iter()
            .map(|profile| {
                let geo = &geo;
                let pre = pre.remove(&profile.family()).unwrap_or_default();
                let base = botnet_base[&profile.family()];
                let rng = root.fork(0x0F00_0000 | profile.family().index() as u64);
                scope.spawn(move |_| run_family(profile, geo, config, pre, base, rng))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("family worker panicked"))
            .collect()
    })
    .expect("generation scope");
    outputs.sort_by_key(|o| o.family.index());

    assemble(config, &geo, &profiles, outputs, inactive_base, &root)
        .map(|dataset| GeneratedTrace { dataset, geo })
        .expect("generated trace must be valid")
}

/// Plans the inter-family events of §III-B / §V-A.
fn plan_inter_family(
    config: &SimConfig,
    profiles: &[FamilyProfile],
    geo: &GeoDb,
    rng: &mut Rng,
    pre: &mut HashMap<Family, Vec<PreAttack>>,
) {
    let profile_of = |f: Family| profiles.iter().find(|p| p.family() == f).expect("active");

    // Dirtjumper×Pandora targets: "96 unique targets ... in 16 countries";
    // build a bounded shared pool so targets repeat across the 118 events.
    let mut shared_pools: HashMap<(Family, Family), Vec<Target>> = HashMap::new();

    let mut plan = |a: Family, b: Family, events: u32, matched: bool, rng: &mut Rng| {
        let pa = profile_of(a);
        let pb = profile_of(b);
        // Days both families are active; the flagship Dirtjumper×Pandora
        // collaboration is confined to Oct–Dec 2012 (§V-A), days 33..=124.
        let mut days: Vec<usize> = pa
            .active_days
            .iter()
            .copied()
            .filter(|d| pb.active_days.contains(d))
            .collect();
        if matched && a == Family::Dirtjumper && b == Family::Pandora {
            let confined: Vec<usize> = days
                .iter()
                .copied()
                .filter(|d| (33..=124).contains(d))
                .collect();
            if !confined.is_empty() {
                days = confined;
            }
        }
        if days.is_empty() {
            return; // no overlap at this scale; the event count is reported as measured
        }
        let pool = shared_pools.entry((a, b)).or_insert_with(|| {
            let n = if matched {
                config.scaled(96).max(4)
            } else {
                64
            } as usize;
            // §V-A: the 96 Dirtjumper×Pandora targets spread over 58
            // organizations in 16 countries — much thinner per org than
            // a family's regular victim pool.
            build_target_pool_with(pb, geo, n, (n * 3 / 5).max(3), rng)
        });
        if pool.is_empty() {
            return;
        }
        for _ in 0..config.scaled(events) {
            let day = *rng.choose(&days);
            let t0 = config.window.day_start(day) + Seconds(rng.below(80_000) as i64);
            let target = *rng.choose(&pool[..]);
            // Durations floored at 150 s: a sub-minute partner attack
            // would read as a consecutive *chain* across families, which
            // the paper never observes (§V-B).
            let dur_a = sample_duration(pa, rng).get().max(150);
            let dur_b = if matched {
                collab::matched_duration(dur_a, rng).max(150)
            } else {
                collab::unmatched_duration(dur_a, rng).max(150)
            };
            let mag = 4 + rng.below(60) as usize;
            let offset = collab::partner_start_offset(rng);
            pre.entry(a).or_default().push(PreAttack {
                start: t0,
                duration: Seconds(dur_a),
                magnitude: mag,
                target_ip: target.ip,
                target: target.loc,
            });
            pre.entry(b).or_default().push(PreAttack {
                start: t0 + Seconds(offset),
                duration: Seconds(dur_b),
                // Fig. 16: magnitudes of the two families "almost equal".
                magnitude: (mag as i64 + rng.below(7) as i64 - 3).max(4) as usize,
                target_ip: target.ip,
                target: target.loc,
            });
        }
    };

    for &(a, b, n) in INTER_COLLAB_MATCHED {
        plan(a, b, n, true, rng);
    }
    for &(a, b, n) in INTER_COLLAB_UNMATCHED {
        plan(a, b, n, false, rng);
    }
}

/// Builds a family's victim pool: organizations in its preferred
/// countries, biased toward infrastructure (§IV-B: hosting, cloud, data
/// centers, registrars, backbones).
///
/// Targets cluster inside a bounded set of organizations — the paper's
/// victims are "narrowly distributed within several organizations"
/// (§IV-B): 9,026 IPs over only 1,074 organizations.
fn build_target_pool(profile: &FamilyProfile, geo: &GeoDb, n: usize, rng: &mut Rng) -> Vec<Target> {
    // ~8 victim IPs per organization on average (9,026 IPs over 1,074
    // orgs, Table III).
    build_target_pool_with(profile, geo, n, (n / 8).max(3), rng)
}

fn build_target_pool_with(
    profile: &FamilyProfile,
    geo: &GeoDb,
    n: usize,
    org_budget: usize,
    rng: &mut Rng,
) -> Vec<Target> {
    let mut victim_orgs: Vec<ddos_schema::OrgId> = Vec::with_capacity(org_budget);
    let mut attempts = 0;
    while victim_orgs.len() < org_budget && attempts < org_budget * 10 {
        attempts += 1;
        let country = profile.sample_target_country(rng);
        let orgs: Vec<&ddos_geo::OrgInfo> = geo.orgs_in(country).collect();
        if orgs.is_empty() {
            continue;
        }
        let infra: Vec<&&ddos_geo::OrgInfo> =
            orgs.iter().filter(|o| o.kind.is_infrastructure()).collect();
        let org = if !infra.is_empty() && rng.chance(0.8) {
            **rng.choose(&infra)
        } else {
            *rng.choose(&orgs)
        };
        if !victim_orgs.contains(&org.id) {
            victim_orgs.push(org.id);
        }
    }
    // Then draw the victim addresses from those organizations.
    let mut pool = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut attempts = 0;
    while pool.len() < n && attempts < n * 8 && !victim_orgs.is_empty() {
        attempts += 1;
        let org = *rng.choose(&victim_orgs);
        let ip = match geo.ip_in_org(org, rng.next_u64()) {
            Some(ip) => ip,
            None => continue,
        };
        if !seen.insert(ip) {
            continue;
        }
        let loc = geo.lookup(ip).expect("allocated address resolves");
        pool.push(Target { ip, loc });
    }
    // Zipf selection concentrates a few percent of all attacks on the
    // top-ranked pool entries, so those ranks must sit in the family's
    // *preferred* countries (the paper's hottest targets live in the
    // Table V leaders). Sort by country preference with a little jitter
    // so the hot set is not a single country.
    let weight_of = |cc: ddos_schema::CountryCode| {
        profile
            .target_countries
            .iter()
            .find(|&&(code, _)| code == cc)
            .map_or(0.0, |&(_, w)| w)
    };
    // The pool's *composition* is already preference-proportional (the
    // org set was sampled from the country distribution); what matters
    // is the *order*, because Zipf selection concentrates attacks on the
    // first ranks. Stride-interleave by country weight (the i-th entry
    // of country c gets key (i + jitter)/w_c) so every prefix of the
    // pool is proportional to the preferences — the hot target set then
    // mirrors Table V instead of one lucky country.
    let mut seen_per_country: HashMap<ddos_schema::CountryCode, u32> = HashMap::new();
    let mut keyed: Vec<(f64, Target)> = pool
        .into_iter()
        .map(|t| {
            let w = weight_of(t.loc.country).max(1e-6);
            let k = seen_per_country.entry(t.loc.country).or_insert(0);
            let key = (f64::from(*k) + rng.f64()) / w;
            *k += 1;
            (key, t)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
    keyed.into_iter().map(|(_, t)| t).collect()
}

/// Per-family generation worker.
fn run_family(
    profile: &FamilyProfile,
    geo: &GeoDb,
    config: &SimConfig,
    pre: Vec<PreAttack>,
    botnet_base: u32,
    mut rng: Rng,
) -> FamilyOutput {
    let family = profile.family();
    let total = profile.total_attacks as usize;
    let num_weeks = config.window.num_weeks();
    let roster = Roster::build(profile, geo, num_weeks, &mut rng);
    let mut sampler = SourceSampler::new(profile, &roster, geo, &mut rng);
    let mut magnitude_process = MagnitudeProcess::new(profile, &mut rng);
    let targets = build_target_pool(profile, geo, profile.target_pool as usize, &mut rng);
    assert!(!targets.is_empty(), "{family}: empty target pool");
    let target_zipf = Zipf::new(targets.len(), 0.75);

    // --- plan injections within the budget --------------------------------
    let mut pre = pre;
    pre.truncate(total); // inter-family events never exceed the budget
    let mut budget = total - pre.len();

    // Consecutive chains (§V-B).
    let mut chain_plan: Vec<usize> = Vec::new();
    if config.chains {
        if let Some(&(_, chains, lo, hi)) = CONSECUTIVE_CHAINS.iter().find(|&&(f, ..)| f == family)
        {
            if family == Family::Ddoser && budget >= DDOSER_CHAIN_LEN {
                chain_plan.push(DDOSER_CHAIN_LEN); // the 22-attack chain
                budget -= DDOSER_CHAIN_LEN;
            }
            for _ in 0..config.scaled(chains) {
                let len = rng.range_inclusive(lo as u64, hi as u64) as usize;
                if budget < len + 1 {
                    break;
                }
                chain_plan.push(len);
                budget -= len;
            }
        }
    }

    // Intra-family concurrent groups (§V-A).
    let mut group_plan: Vec<usize> = Vec::new();
    if config.collaborations && profile.botnets >= 2 {
        if let Some(&(_, groups)) = INTRA_COLLAB_GROUPS.iter().find(|&&(f, _)| f == family) {
            for _ in 0..config.scaled(groups) {
                let size = collab::group_size(&mut rng);
                if budget < size + 1 {
                    break;
                }
                group_plan.push(size);
                budget -= size;
            }
        }
    }

    let regular = budget;

    // --- regular schedule ---------------------------------------------------
    let spike = (config.spike && family == Family::Dirtjumper)
        .then(|| (SPIKE_DAY, config.scaled(SPIKE_EXTRA_ATTACKS + 170)));
    let interval_sampler = IntervalSampler::new(profile);
    let daily = allocate_daily_counts(&profile.active_days, regular as u32, spike, &mut rng);

    // Spike targets: one Russian /24 (§III-A: "targets were located in
    // the same subnet in Russia").
    let spike_targets: Vec<Target> = if spike.is_some() {
        spike_subnet_targets(geo, &mut rng)
    } else {
        Vec::new()
    };

    let mut attacks: Vec<AttackRecord> = Vec::with_capacity(total);
    let mut bots: HashMap<IpAddr4, (Timestamp, Timestamp)> = HashMap::new();

    let emit = |start: Timestamp,
                duration: Seconds,
                magnitude: usize,
                target: Target,
                botnet: BotnetId,
                attacks: &mut Vec<AttackRecord>,
                bots: &mut HashMap<IpAddr4, (Timestamp, Timestamp)>,
                sampler: &mut SourceSampler,
                rng: &mut Rng| {
        let week = config.window.week_index(start).unwrap_or(num_weeks - 1);
        let sources = sampler.sources(profile, &roster, geo, week, magnitude, rng);
        for &ip in &sources {
            let e = bots.entry(ip).or_insert((start, start));
            e.0 = e.0.min(start);
            e.1 = e.1.max(start);
        }
        attacks.push(AttackRecord {
            id: DdosId(0), // assigned during assembly
            botnet,
            family,
            category: Protocol::Http, // patched from the exact multiset below
            target_ip: target.ip,
            target: target.loc,
            start,
            end: start + duration,
            sources,
        });
    };

    for (day, count) in daily {
        let times = day_start_times(config.window, day, count, &interval_sampler, &mut rng);
        let use_spike_targets =
            spike.is_some_and(|(sday, _)| day == sday) && !spike_targets.is_empty();
        for (i, &t) in times.iter().enumerate() {
            let target = if use_spike_targets && (i as u32) < config.scaled(SPIKE_EXTRA_ATTACKS) {
                spike_targets[i % spike_targets.len()]
            } else {
                targets[target_zipf.sample_index(&mut rng)]
            };
            let duration = sample_duration(profile, &mut rng);
            let magnitude = magnitude_process.next(&mut rng);
            let botnet = pick_botnet(profile, botnet_base, config, day, &mut rng);
            emit(
                t,
                duration,
                magnitude,
                target,
                botnet,
                &mut attacks,
                &mut bots,
                &mut sampler,
                &mut rng,
            );
        }
    }

    // --- intra-family concurrent groups -------------------------------------
    for size in group_plan {
        let day = *rng.choose(&profile.active_days);
        let t0 = config.window.day_start(day) + Seconds(rng.below(80_000) as i64);
        let target = targets[target_zipf.sample_index(&mut rng)];
        let duration = sample_duration(profile, &mut rng);
        let magnitude = magnitude_process.next(&mut rng); // equal across the group
        let mut used = Vec::new();
        for _ in 0..size {
            let botnet = pick_distinct_botnet(profile, botnet_base, config, day, &used, &mut rng);
            used.push(botnet);
            // Floor families (no sub-minute intervals, Fig. 5) stagger
            // their collaborations inside the 60 s window instead of
            // striking at the exact same instant.
            let offset = if profile.cal.min_interval_60s {
                1 + rng.below(59) as i64
            } else {
                collab::partner_start_offset(&mut rng)
            };
            let start = t0 + Seconds(offset);
            let dur = Seconds(collab::matched_duration(duration.get(), &mut rng));
            emit(
                start,
                dur,
                magnitude,
                target,
                botnet,
                &mut attacks,
                &mut bots,
                &mut sampler,
                &mut rng,
            );
        }
    }

    // --- consecutive chains ---------------------------------------------------
    for len in chain_plan {
        let day = if family == Family::Ddoser && len == DDOSER_CHAIN_LEN {
            // The famous chain happened on 2012-08-30 (§V-B).
            SPIKE_DAY
        } else {
            *rng.choose(&profile.active_days)
        };
        let t0 = config.window.day_start(day) + Seconds(rng.below(80_000) as i64);
        let target = targets[target_zipf.sample_index(&mut rng)];
        let magnitude = magnitude_process.next(&mut rng);
        let mut t = t0;
        let mut used = Vec::new();
        for _ in 0..len {
            let duration = Seconds(collab::chain_link_duration(&mut rng));
            let botnet = pick_distinct_botnet(profile, botnet_base, config, day, &used, &mut rng);
            used.push(botnet);
            emit(
                t,
                duration,
                magnitude,
                target,
                botnet,
                &mut attacks,
                &mut bots,
                &mut sampler,
                &mut rng,
            );
            t = t + duration + Seconds(collab::chain_gap(&mut rng));
            if t >= config.window.end {
                break;
            }
        }
    }

    // --- pre-planned inter-family events ---------------------------------------
    for p in pre {
        let day = config.window.day_index(p.start).unwrap_or(0);
        let botnet = pick_botnet(profile, botnet_base, config, day, &mut rng);
        let target = Target {
            ip: p.target_ip,
            loc: p.target,
        };
        emit(
            p.start,
            p.duration,
            p.magnitude,
            target,
            botnet,
            &mut attacks,
            &mut bots,
            &mut sampler,
            &mut rng,
        );
    }

    // --- exact protocol multiset (Table II) -------------------------------------
    let mut multiset = profile.protocol_multiset();
    // The plans above may have fallen short of the exact budget at tiny
    // scales; truncate or pad the multiset to the realized attack count.
    rng.shuffle(&mut multiset);
    while multiset.len() < attacks.len() {
        multiset.push(profile.protocol_counts[0].0);
    }
    for (a, p) in attacks.iter_mut().zip(multiset) {
        a.category = p;
    }

    // --- enrollment bots ---------------------------------------------------------
    // The Botlist is the feed's *enumeration* of the botnet (via C&C
    // monitoring, §II-B), which is much wider than the bots caught
    // attacking: Table III counts 310,950 bot IPs over 2,897 cities and
    // 186 countries. Fill the family's pool with enrolled-but-idle bots
    // spread across all home-country cities plus a worldwide straggler
    // fringe.
    {
        let home_cities = profile.home_cities(geo);
        let pool_total = profile.bot_pool as usize;
        let extra = pool_total.saturating_sub(bots.len());
        let first_day = *profile.active_days.first().expect("non-empty");
        let last_day = *profile.active_days.last().expect("non-empty");
        for _ in 0..extra {
            let ip = if rng.chance(0.90) {
                let city = *rng.choose(&home_cities);
                geo.ip_in_city(city, rng.next_u64())
            } else {
                // Worldwide stragglers: any registry country, weighted by
                // internet population.
                let info =
                    &ddos_geo::COUNTRIES[rng.below(ddos_geo::COUNTRIES.len() as u64) as usize];
                geo.ip_in_country(info.code, rng.next_u64())
            };
            let Some(ip) = ip else { continue };
            let d0 = rng.range_inclusive(first_day as u64, last_day as u64) as usize;
            let first = config.window.day_start(d0);
            let last = first + Seconds::days(rng.below(30) as i64 + 1);
            bots.entry(ip)
                .or_insert((first, last.min(config.window.end - Seconds(1))));
        }
    }

    // --- population snapshots -----------------------------------------------------
    let snapshots = config.snapshots.then(|| {
        let mut snaps = Vec::new();
        for &day in &profile.active_days {
            for hour in [0usize, 6, 12, 18] {
                let at = config.window.day_start(day) + Seconds::hours(hour as i64);
                if at >= config.window.end {
                    continue;
                }
                let week = config.window.week_index(at).unwrap_or(0);
                let n = 10 + rng.below(20) as usize;
                let ips = sampler.snapshot_sample(&roster, geo, week, n, &mut rng);
                let presences: Vec<BotPresence> = ips
                    .into_iter()
                    .filter_map(|ip| {
                        geo.lookup(ip).map(|loc| BotPresence {
                            ip,
                            country: loc.country,
                            coords: loc.coords,
                        })
                    })
                    .collect();
                snaps.push(HourlySnapshot {
                    family,
                    taken_at: at,
                    bots: presences,
                });
            }
        }
        SnapshotSeries::from_snapshots(snaps).expect("distinct aligned instants")
    });

    FamilyOutput {
        family,
        attacks,
        bots,
        snapshots,
    }
}

/// Targets in one Russian /24 for the 2012-08-30 spike.
fn spike_subnet_targets(geo: &GeoDb, rng: &mut Rng) -> Vec<Target> {
    let ru = ddos_schema::CountryCode::literal("RU");
    let orgs: Vec<&ddos_geo::OrgInfo> = geo.orgs_in(ru).collect();
    let Some(org) = orgs.first() else {
        return Vec::new();
    };
    let (prefix, _) = org.prefixes[0];
    let base = prefix.first().value() & 0xFFFF_FF00;
    (0..16)
        .filter_map(|i| {
            let ip = IpAddr4(base + 1 + rng.below(200) as u32 + i);
            geo.lookup(ip).map(|loc| Target { ip, loc })
        })
        .collect()
}

/// The botnet generations of a family alive on a given day: a sliding
/// window of three consecutive generation indices, rolling over the
/// family's *own* activity span so every generation launches attacks
/// (the feed attributes all 674 generations as attackers, Table III).
fn active_generations(profile: &FamilyProfile, _config: &SimConfig, day: usize) -> (u32, u32) {
    let days = &profile.active_days;
    let pos = days.partition_point(|&d| d < day).min(days.len() - 1);
    let b = profile.botnets;
    let concurrent = b.min(3);
    let g0 = ((pos as f64 / days.len() as f64) * (b - concurrent + 1) as f64).floor() as u32;
    (g0.min(b - concurrent), concurrent)
}

fn pick_botnet(
    profile: &FamilyProfile,
    base: u32,
    config: &SimConfig,
    day: usize,
    rng: &mut Rng,
) -> BotnetId {
    // Occasionally an older generation resurfaces — this is what lets
    // every one of the 674 generations appear as an attacker (Table III).
    if rng.chance(0.05) {
        return BotnetId(base + rng.below(u64::from(profile.botnets)) as u32);
    }
    let (g0, k) = active_generations(profile, config, day);
    BotnetId(base + g0 + rng.below(u64::from(k)) as u32)
}

fn pick_distinct_botnet(
    profile: &FamilyProfile,
    base: u32,
    config: &SimConfig,
    day: usize,
    used: &[BotnetId],
    rng: &mut Rng,
) -> BotnetId {
    for _ in 0..8 {
        let b = pick_botnet(profile, base, config, day, rng);
        if !used.contains(&b) {
            return b;
        }
    }
    pick_botnet(profile, base, config, day, rng)
}

/// Merges family outputs into the final dataset.
fn assemble(
    config: &SimConfig,
    geo: &GeoDb,
    profiles: &[FamilyProfile],
    outputs: Vec<FamilyOutput>,
    inactive_base: u32,
    root: &Rng,
) -> Result<Dataset, ddos_schema::SchemaError> {
    let mut builder = DatasetBuilder::new(config.window);

    // Attacks: merge, order by time, assign global ids.
    let mut all_attacks: Vec<AttackRecord> = Vec::new();
    for o in &outputs {
        all_attacks.extend(o.attacks.iter().cloned());
    }
    all_attacks.sort_by_key(|a| (a.start, a.family.index(), a.target_ip));
    for (i, a) in all_attacks.iter_mut().enumerate() {
        a.id = DdosId(i as u64 + 1);
    }
    builder.extend_attacks(all_attacks)?;

    // Botnet records.
    let mut rng = root.fork(0xB07_11E7);
    let mut botnet_cursor = 1u32;
    for p in profiles {
        let cal = p.cal;
        for g in 0..p.botnets {
            builder.push_botnet(make_botnet_record(
                BotnetId(botnet_cursor + g),
                cal.family,
                cal,
                geo,
                config,
                p.botnets,
                g,
                &mut rng,
            ))?;
        }
        botnet_cursor += p.botnets;
    }
    debug_assert_eq!(botnet_cursor, inactive_base);
    // Dormant families: botnet records and a token bot population, no
    // attacks (Table III counts them among the 674 generations).
    let mut cursor = inactive_base;
    for family in Family::ALL.iter().skip(10) {
        for g in 0..INACTIVE_BOTNETS_PER_FAMILY {
            let id = BotnetId(cursor + g);
            let country = ddos_schema::CountryCode::literal("US");
            let controller = geo
                .ip_in_country(country, rng.next_u64())
                .expect("US allocated");
            let first = config.window.start;
            let last = config.window.start + Seconds::days(30);
            builder.push_botnet(BotnetRecord {
                id,
                family: *family,
                binary_hash: hash_for(*family, g),
                controller,
                enrolled_bots: config.scaled(INACTIVE_BOT_POOL),
                first_seen: first,
                last_seen: last,
            })?;
        }
        cursor += INACTIVE_BOTNETS_PER_FAMILY;
        for k in 0..config.scaled(INACTIVE_BOT_POOL) {
            let ip = geo
                .ip_in_country(
                    ddos_schema::CountryCode::literal("US"),
                    rng.next_u64() ^ u64::from(k),
                )
                .expect("US allocated");
            if let Some(loc) = geo.lookup(ip) {
                builder.push_bot(BotRecord {
                    ip,
                    botnet: BotnetId(cursor - 1),
                    family: *family,
                    location: loc,
                    first_seen: config.window.start,
                    last_seen: config.window.start + Seconds::days(30),
                })?;
            }
        }
    }

    // Bot records from observations.
    let mut base = HashMap::new();
    let mut next = 1u32;
    for p in profiles {
        base.insert(p.family(), next);
        next += p.botnets;
    }
    for o in &outputs {
        let profile = profiles
            .iter()
            .find(|p| p.family() == o.family)
            .expect("output family is active");
        let fam_base = base[&o.family];
        // Deterministic order for reproducibility.
        let mut entries: Vec<(&IpAddr4, &(Timestamp, Timestamp))> = o.bots.iter().collect();
        entries.sort_by_key(|(ip, _)| **ip);
        for (&ip, &(first, last)) in entries {
            let Some(loc) = geo.lookup(ip) else { continue };
            let day = config.window.day_index(first).unwrap_or(0);
            let (g0, _) = active_generations(profile, config, day);
            builder.push_bot(BotRecord {
                ip,
                botnet: BotnetId(fam_base + g0),
                family: o.family,
                location: loc,
                first_seen: first,
                last_seen: last,
            })?;
        }
    }

    // Snapshots.
    for o in outputs {
        if let Some(series) = o.snapshots {
            builder.set_snapshots(o.family, series)?;
        }
    }

    builder.build()
}

#[allow(clippy::too_many_arguments)]
fn make_botnet_record(
    id: BotnetId,
    family: Family,
    cal: &FamilyCalibration,
    geo: &GeoDb,
    config: &SimConfig,
    botnets: u32,
    generation: u32,
    rng: &mut Rng,
) -> BotnetRecord {
    let (first_day, last_day, _) = cal.active;
    let span = (last_day - first_day).max(1);
    // Generations roll over the family's activity window.
    let gen_start = first_day + (span * generation as usize) / botnets.max(1) as usize;
    let gen_end = (gen_start + span / botnets.max(1) as usize + 14).min(206);
    let home = cal.home_countries[0].0.parse().expect("calibrated code");
    let controller = geo
        .ip_in_country(home, rng.next_u64())
        .or_else(|| geo.ip_in_country(ddos_schema::CountryCode::literal("US"), rng.next_u64()))
        .expect("home country allocated");
    BotnetRecord {
        id,
        family,
        binary_hash: hash_for(family, id.0),
        controller,
        enrolled_bots: config.scaled(cal.bot_pool / botnets.max(1)),
        first_seen: config.window.day_start(gen_start),
        last_seen: config.window.day_start(gen_end),
    }
}

/// Deterministic fake SHA-1 marking a generation's binary.
fn hash_for(family: Family, generation: u32) -> [u8; 20] {
    let mut h = [0u8; 20];
    let mut state = (family.index() as u64) << 32 | u64::from(generation);
    for chunk in h.chunks_mut(8) {
        state = state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_add(0xBF58_476D_1CE4_E5B9);
        let bytes = state.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> GeneratedTrace {
        generate(&SimConfig::small())
    }

    #[test]
    fn generates_scaled_attack_volume() {
        let t = small_trace();
        let n = t.dataset.len();
        // 5% of 50,704 ≈ 2,535; injections may trim slightly.
        assert!((2_200..=2_700).contains(&n), "attacks {n}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&SimConfig::small());
        let b = generate(&SimConfig::small());
        assert_eq!(a.dataset.attacks(), b.dataset.attacks());
        let c = generate(&SimConfig::small().with_seed(99));
        assert_ne!(a.dataset.attacks(), c.dataset.attacks());
    }

    #[test]
    fn all_active_families_present() {
        let t = small_trace();
        for f in Family::ACTIVE {
            assert!(
                t.dataset.attacks_of(f).next().is_some(),
                "{f} generated no attacks"
            );
        }
        for f in Family::ALL.iter().skip(10) {
            assert_eq!(t.dataset.attacks_of(*f).count(), 0, "{f} must be dormant");
        }
    }

    #[test]
    fn attack_ids_unique_and_ordered() {
        let t = small_trace();
        let attacks = t.dataset.attacks();
        for pair in attacks.windows(2) {
            assert!(pair[0].start <= pair[1].start);
            assert_ne!(pair[0].id, pair[1].id);
        }
    }

    #[test]
    fn attacks_validate_and_stay_in_window() {
        let t = small_trace();
        for a in t.dataset.attacks() {
            a.validate().unwrap();
            assert!(t.dataset.window().contains(a.start));
            assert!(!a.sources.is_empty());
        }
    }

    #[test]
    fn botnet_count_matches_small_scale() {
        let t = small_trace();
        let n = t.dataset.botnets().len();
        // At 5% scale actives are max(3, round(0.05*b)) each: 3+4+3+3+3+14+3+3+5+3 = 44
        // plus 13 dormant families × 2 = 26.
        assert!((60..=80).contains(&n), "botnets {n}");
    }

    #[test]
    fn bot_records_cover_sources() {
        let t = small_trace();
        let bots: std::collections::HashSet<IpAddr4> =
            t.dataset.bots().iter().map(|b| b.ip).collect();
        // Every attack source must be in the Botlist.
        for a in t.dataset.attacks().iter().take(200) {
            for ip in &a.sources {
                assert!(bots.contains(ip), "source {ip} missing from Botlist");
            }
        }
    }

    #[test]
    fn snapshots_exist_for_active_families() {
        let t = small_trace();
        assert!(t.dataset.snapshots(Family::Dirtjumper).is_some());
        let series = t.dataset.snapshots(Family::Dirtjumper).unwrap();
        assert!(series.len() > 100, "{} snapshots", series.len());
    }

    #[test]
    fn snapshots_can_be_disabled() {
        let mut config = SimConfig::small();
        config.snapshots = false;
        let t = generate(&config);
        assert!(t.dataset.snapshot_families().next().is_none());
    }

    #[test]
    fn protocol_mix_tracks_table_ii_at_scale() {
        let t = small_trace();
        let http = t
            .dataset
            .attacks()
            .iter()
            .filter(|a| a.category == Protocol::Http)
            .count();
        let frac = http as f64 / t.dataset.len() as f64;
        // Table II: HTTP is 47,734 / 50,704 ≈ 94%.
        assert!(frac > 0.85, "HTTP fraction {frac}");
    }

    #[test]
    fn spike_day_attacks_share_a_russian_subnet() {
        let t = small_trace();
        let window = t.dataset.window();
        // Dirtjumper attacks on day 1 that hit the spike subnet: all
        // spike targets share one /24 and resolve to Russia (§III-A).
        let day1: Vec<_> = t
            .dataset
            .attacks_of(Family::Dirtjumper)
            .filter(|a| window.day_index(a.start) == Some(1))
            .collect();
        assert!(!day1.is_empty());
        let mut subnets = std::collections::HashMap::new();
        for a in &day1 {
            *subnets.entry(a.target_ip.network(24)).or_insert(0usize) += 1;
        }
        let (&subnet, &count) = subnets.iter().max_by_key(|&(_, &c)| c).unwrap();
        assert!(
            count * 2 > day1.len(),
            "no dominant subnet on the spike day: {count}/{}",
            day1.len()
        );
        let sample = day1
            .iter()
            .find(|a| a.target_ip.network(24) == subnet)
            .unwrap();
        assert_eq!(
            sample.target.country,
            ddos_schema::CountryCode::literal("RU")
        );
    }

    #[test]
    fn flagship_pair_confined_to_autumn() {
        // §V-A: the Dirtjumper×Pandora duration-matched events run from
        // October to December 2012 (window days 33..=124).
        let t = small_trace();
        let window = t.dataset.window();
        let mut shared = 0;
        for a in t.dataset.attacks_of(Family::Dirtjumper) {
            let partnered = t.dataset.attacks_of(Family::Pandora).any(|b| {
                b.target_ip == a.target_ip
                    && (b.start - a.start).get().abs() <= 60
                    && (a.duration().get() - b.duration().get()).abs() <= 1_800
            });
            if partnered {
                shared += 1;
                let day = window.day_index(a.start).unwrap();
                assert!(
                    (33..=124).contains(&day),
                    "matched dj x pandora event on day {day}"
                );
            }
        }
        assert!(shared > 0, "no matched dj x pandora events at small scale");
    }

    #[test]
    fn magnitudes_follow_a_persistent_level() {
        // Consecutive dirtjumper attacks should have correlated
        // magnitudes (the log-AR(1) level), unlike i.i.d. draws.
        let t = small_trace();
        let mags: Vec<f64> = t
            .dataset
            .attacks_of(Family::Dirtjumper)
            .map(|a| (a.magnitude() as f64).ln())
            .collect();
        let r = ddos_stats::pearson_correlation(&mags[..mags.len() - 1], &mags[1..]).unwrap();
        assert!(r > 0.3, "lag-1 magnitude correlation {r}");
    }

    #[test]
    fn sources_resolve_in_geo() {
        let t = small_trace();
        for a in t.dataset.attacks().iter().take(100) {
            for &ip in &a.sources {
                assert!(t.geo.lookup(ip).is_some());
            }
        }
    }
}
