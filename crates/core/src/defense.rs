//! Defense-insight simulations.
//!
//! The paper closes every analysis section with an "Insight into
//! defenses" paragraph; this module turns the two actionable ones into
//! measurable simulations over a trace:
//!
//! * **Blacklist warm-up (§V summary)** — *"if we could model the
//!   consecutive patterns of DDoS attacks, then the defender could
//!   leverage this information to prepare for the next rounds of
//!   attacks, e.g., by utilizing a blacklist."* [`BlacklistSim`] measures
//!   how much of a repeat attack's source population was already seen in
//!   earlier attacks on the same target — the upper bound on what a
//!   per-victim source blacklist can pre-block.
//! * **Detection-latency window (§III-D)** — *"80% of the attacks have a
//!   duration less than four hours ... Only [automatic detection] can
//!   effectively respond in such a short time frame."*
//!   [`latency_sweep_from_durations`] computes, for a grid of detection
//!   latencies, the fraction of total attack-time that a defense
//!   activating after that latency can still mitigate.

use std::collections::{HashMap, HashSet};

use ddos_schema::{CountryCode, Dataset, Family, IpAddr4};
use ddos_stats::descriptive;
use serde::{Deserialize, Serialize};

use crate::util::BotIndex;

/// Coverage of one repeat attack by the victim's source blacklist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlacklistHit {
    /// The repeatedly attacked target.
    pub target: IpAddr4,
    /// Which repeat this was (1 = second attack on the target).
    pub round: usize,
    /// Fraction of this attack's sources already on the blacklist.
    pub coverage: f64,
    /// Family that launched the repeat attack.
    pub family: Family,
}

/// The blacklist warm-up simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlacklistSim {
    /// One entry per repeat attack (second and later attacks on any
    /// target), in trace order.
    pub hits: Vec<BlacklistHit>,
}

/// The state the blacklist pass carries across appends
/// ([`BlacklistSim::resume`]): the replay over the first `covered`
/// attacks.
#[derive(Debug, Clone, Default)]
pub struct BlacklistState {
    covered: usize,
    /// Per dictionary id, the tag of the target that last stamped it
    /// (0: never).
    stamp: Vec<u32>,
    /// The last tag handed out.
    tag: u32,
    /// The hits of the covered attacks, in trace order.
    hits: Vec<BlacklistHit>,
}

impl BlacklistState {
    /// A tag no stamp holds yet. When the tags run out, every stamp is
    /// cleared and they start over.
    fn next_tag(&mut self) -> u32 {
        if self.tag == u32::MAX {
            self.stamp.fill(0);
            self.tag = 0;
        }
        self.tag += 1;
        self.tag
    }
}

impl BlacklistSim {
    /// The blacklist pass: replays the trace, extending the replay
    /// `state` carried across appends. Every target accumulates the
    /// sources of the attacks it has already suffered; each later
    /// attack is scored by how much of it the accumulated blacklist
    /// would pre-block.
    ///
    /// Each target's timeline replays independently (the blacklist of
    /// one target never influences another), and trace order is
    /// restored by sorting on the attack index. The replay runs on the
    /// context's [`SourceTable`] dictionary ids: a per-id stamp (the tag
    /// of the target that last blacklisted the id) replaces the
    /// per-target hash set, so it does no hashing and no per-target
    /// allocation. Each attack takes two passes over its ids — count
    /// the ones already stamped with the target's tag, then stamp them
    /// all — so duplicates within one attack never score against
    /// themselves. Coverage is identical to the IP-based replay because
    /// each attack's id slice mirrors its source list one-to-one,
    /// duplicates included.
    ///
    /// A hit reads only earlier attacks on its target, so the hits of
    /// the attacks `state` covers never change. The pass visits only
    /// the targets with an attack past them: a fresh tag re-stamps the
    /// ids of the target's covered attacks, and its new attacks are
    /// scored as above. The new hits, sorted by attack index, extend
    /// the covered ones. Dictionary ids never change across appends, so
    /// the stamps stay valid. From an empty state this is the whole
    /// replay.
    ///
    /// [`SourceTable`]: crate::columnar::SourceTable
    pub fn resume(
        ctx: &crate::context::AnalysisContext,
        state: &mut BlacklistState,
    ) -> BlacklistSim {
        if state.covered > ctx.attacks.len() {
            *state = BlacklistState::default();
        }
        let covered = state.covered;
        let sources = &ctx.sources;
        if state.stamp.len() < sources.dict_len() {
            state.stamp.resize(sources.dict_len(), 0);
        }
        let mut fresh: Vec<(usize, BlacklistHit)> = Vec::new();
        for tl in ctx.target_timelines.iter() {
            let first_new = tl.attacks.partition_point(|&i| i < covered);
            if first_new == tl.attacks.len() {
                continue;
            }
            let tag = state.next_tag();
            let stamp = &mut state.stamp;
            for &i in &tl.attacks[..first_new] {
                for &id in sources.ids_of(i) {
                    stamp[id as usize] = tag;
                }
            }
            for (round, &i) in tl.attacks.iter().enumerate().skip(first_new) {
                let ids = sources.ids_of(i);
                if round > 0 && !ids.is_empty() {
                    let known = ids.iter().filter(|&&id| stamp[id as usize] == tag).count();
                    fresh.push((
                        i,
                        BlacklistHit {
                            target: tl.target,
                            round,
                            coverage: known as f64 / ids.len() as f64,
                            family: ctx.attacks[i].family,
                        },
                    ));
                }
                for &id in ids {
                    stamp[id as usize] = tag;
                }
            }
        }
        fresh.sort_unstable_by_key(|&(i, _)| i);
        state.hits.extend(fresh.into_iter().map(|(_, h)| h));
        state.covered = ctx.attacks.len();
        BlacklistSim {
            hits: state.hits.clone(),
        }
    }

    /// Mean coverage over all repeat attacks.
    pub fn mean_coverage(&self) -> Option<f64> {
        let xs: Vec<f64> = self.hits.iter().map(|h| h.coverage).collect();
        descriptive::mean(&xs)
    }

    /// Mean coverage restricted to one family's repeat attacks.
    pub fn mean_coverage_for(&self, family: Family) -> Option<f64> {
        let xs: Vec<f64> = self
            .hits
            .iter()
            .filter(|h| h.family == family)
            .map(|h| h.coverage)
            .collect();
        descriptive::mean(&xs)
    }

    /// Mean coverage by repeat round (does the blacklist get better with
    /// every round?). Returns `(round, mean_coverage, samples)`.
    pub fn coverage_by_round(&self, max_round: usize) -> Vec<(usize, f64, usize)> {
        let mut out = Vec::new();
        for round in 1..=max_round {
            let xs: Vec<f64> = self
                .hits
                .iter()
                .filter(|h| h.round == round)
                .map(|h| h.coverage)
                .collect();
            if let Some(mean) = descriptive::mean(&xs) {
                out.push((round, mean, xs.len()));
            }
        }
        out
    }
}

/// One point of the detection-latency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Detection + reaction latency in seconds.
    pub latency_s: f64,
    /// Fraction of total attack-seconds still mitigable after the
    /// latency has elapsed.
    pub mitigable_fraction: f64,
    /// Fraction of attacks that end before the defense reacts at all.
    pub missed_attacks: f64,
}

/// Sweeps detection latencies over a sample of attack durations (the
/// latency pass reads the duration vector precomputed in the analysis
/// context).
///
/// A latency grid like `[60, 600, 3600, 4*3600, 24*3600]` contrasts an
/// automatic responder (≈1 minute) with semi-automatic (≈1 hour) and
/// manual (≈4 hours — the paper's detection-window discussion) handling.
pub fn latency_sweep_from_durations(durations: &[f64], latencies_s: &[f64]) -> Vec<LatencyPoint> {
    let total: f64 = durations.iter().sum();
    latencies_s
        .iter()
        .map(|&latency_s| {
            if durations.is_empty() || total <= 0.0 {
                return LatencyPoint {
                    latency_s,
                    mitigable_fraction: 0.0,
                    missed_attacks: 0.0,
                };
            }
            let mitigable: f64 = durations.iter().map(|&d| (d - latency_s).max(0.0)).sum();
            let missed = durations.iter().filter(|&&d| d <= latency_s).count();
            LatencyPoint {
                latency_s,
                mitigable_fraction: mitigable / total,
                missed_attacks: missed as f64 / durations.len() as f64,
            }
        })
        .collect()
}

/// One step of the country-prioritized takedown simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TakedownStep {
    /// Country disinfected at this step.
    pub country: CountryCode,
    /// Bots removed by disinfecting it.
    pub bots_removed: usize,
    /// Cumulative fraction of all attack *participations* (attack ×
    /// source pairs) eliminated after this step.
    pub cumulative_participation_removed: f64,
}

/// §IV-B insight: *"findings concerning the country-level
/// characterization can set some guidelines on country-level
/// prioritization of disinfection and botnet takedowns."*
///
/// Simulates disinfecting countries in descending order of resident bot
/// count and reports how quickly attack participation collapses — the
/// regionalization of Fig. 8 is what makes the curve steep.
pub fn takedown_priority(ds: &Dataset, bots: &BotIndex, max_steps: usize) -> Vec<TakedownStep> {
    // Participation weight per country: how many (attack, source) pairs
    // each country contributes.
    let mut participation: HashMap<CountryCode, usize> = HashMap::new();
    let mut bots_per_country: HashMap<CountryCode, HashSet<IpAddr4>> = HashMap::new();
    let mut total = 0usize;
    for a in ds.attacks() {
        for &ip in &a.sources {
            let Some((cc, _)) = bots.lookup(ip) else {
                continue;
            };
            *participation.entry(cc).or_default() += 1;
            bots_per_country.entry(cc).or_default().insert(ip);
            total += 1;
        }
    }
    let mut order: Vec<(CountryCode, usize)> = bots_per_country
        .iter()
        .map(|(&cc, ips)| (cc, ips.len()))
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut removed = 0usize;
    let mut out = Vec::new();
    for (country, bot_count) in order.into_iter().take(max_steps) {
        removed += participation.get(&country).copied().unwrap_or(0);
        out.push(TakedownStep {
            country,
            bots_removed: bot_count,
            cumulative_participation_removed: if total > 0 {
                removed as f64 / total as f64
            } else {
                0.0
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::overview::test_support::{attack, dataset};

    fn ip(last: u8) -> IpAddr4 {
        IpAddr4::from_octets(203, 0, 113, last)
    }

    fn blacklist(ds: &Dataset) -> BlacklistSim {
        BlacklistSim::resume(&AnalysisContext::new(ds), &mut BlacklistState::default())
    }

    fn latency_sweep(ds: &Dataset, latencies_s: &[f64]) -> Vec<LatencyPoint> {
        latency_sweep_from_durations(&AnalysisContext::new(ds).durations, latencies_s)
    }

    #[test]
    fn blacklist_coverage_accumulates() {
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 10, 1);
        a1.sources = vec![ip(1), ip(2)];
        let mut a2 = attack(Family::Dirtjumper, 2, 500, 10, 1);
        a2.sources = vec![ip(1), ip(3)]; // half known
        let mut a3 = attack(Family::Pandora, 3, 900, 10, 1);
        a3.sources = vec![ip(1), ip(2), ip(3), ip(4)]; // 3/4 known
        let ds = dataset(vec![a1, a2, a3]);
        let sim = blacklist(&ds);
        assert_eq!(sim.hits.len(), 2);
        assert_eq!(sim.hits[0].round, 1);
        assert!((sim.hits[0].coverage - 0.5).abs() < 1e-12);
        assert!((sim.hits[1].coverage - 0.75).abs() < 1e-12);
        assert!((sim.mean_coverage().unwrap() - 0.625).abs() < 1e-12);
        assert_eq!(sim.mean_coverage_for(Family::Pandora), Some(0.75));
        assert_eq!(sim.mean_coverage_for(Family::Nitol), None);
        let by_round = sim.coverage_by_round(3);
        assert_eq!(by_round.len(), 2);
        assert_eq!(by_round[0], (1, 0.5, 1));
    }

    #[test]
    fn exhausted_tags_clear_the_stamps() {
        let mut state = BlacklistState {
            stamp: vec![7, u32::MAX],
            tag: u32::MAX,
            ..BlacklistState::default()
        };
        assert_eq!(state.next_tag(), 1);
        assert_eq!(state.stamp, vec![0, 0]);
    }

    #[test]
    fn first_attacks_never_score() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 10, 1),
            attack(Family::Dirtjumper, 2, 500, 10, 2), // different target
        ]);
        let sim = blacklist(&ds);
        assert!(sim.hits.is_empty());
        assert_eq!(sim.mean_coverage(), None);
    }

    #[test]
    fn latency_sweep_monotone() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 100, 1),
            attack(Family::Dirtjumper, 2, 500, 10_000, 2),
        ]);
        let sweep = latency_sweep(&ds, &[0.0, 60.0, 1_000.0, 20_000.0]);
        assert_eq!(sweep[0].mitigable_fraction, 1.0);
        assert_eq!(sweep[0].missed_attacks, 0.0);
        // Monotone decreasing mitigation with latency.
        for w in sweep.windows(2) {
            assert!(w[0].mitigable_fraction >= w[1].mitigable_fraction);
            assert!(w[0].missed_attacks <= w[1].missed_attacks);
        }
        // At 1,000 s the 100 s attack is entirely missed.
        assert_eq!(sweep[2].missed_attacks, 0.5);
        // Beyond every duration nothing is mitigable.
        assert_eq!(sweep[3].mitigable_fraction, 0.0);
        assert_eq!(sweep[3].missed_attacks, 1.0);
    }

    #[test]
    fn takedown_curve_is_monotone_and_ordered() {
        use ddos_schema::record::{BotRecord, Location};
        use ddos_schema::{Asn, BotnetId, CityId, DatasetBuilder, LatLon, OrgId, Timestamp};
        let mut b = DatasetBuilder::new(crate::overview::test_support::window());
        let bot = |last: u8, cc: &str| BotRecord {
            ip: ip(last),
            botnet: BotnetId(1),
            family: Family::Dirtjumper,
            location: Location {
                country: cc.parse().unwrap(),
                city: CityId(1),
                org: OrgId(1),
                asn: Asn(64_000),
                coords: LatLon::new_unchecked(50.0, 30.0),
            },
            first_seen: Timestamp(0),
            last_seen: Timestamp(1_000),
        };
        // Three RU bots, one US bot.
        for (last, cc) in [(1, "RU"), (2, "RU"), (3, "RU"), (4, "US")] {
            b.push_bot(bot(last, cc)).unwrap();
        }
        let mut a = attack(Family::Dirtjumper, 1, 100, 10, 1);
        a.sources = vec![ip(1), ip(2), ip(4)];
        let mut a2 = attack(Family::Dirtjumper, 2, 500, 10, 2);
        a2.sources = vec![ip(3), ip(4)];
        b.push_attack(a).unwrap();
        b.push_attack(a2).unwrap();
        let ds = b.build().unwrap();
        let idx = crate::util::BotIndex::build(&ds);
        let steps = takedown_priority(&ds, &idx, 5);
        assert_eq!(steps.len(), 2);
        // RU hosts the most bots → first takedown target.
        assert_eq!(steps[0].country, "RU".parse().unwrap());
        assert_eq!(steps[0].bots_removed, 3);
        assert!((steps[0].cumulative_participation_removed - 0.6).abs() < 1e-12);
        assert_eq!(steps[1].cumulative_participation_removed, 1.0);
    }

    #[test]
    fn takedown_with_no_resolvable_bots() {
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 10, 1)]);
        let idx = crate::util::BotIndex::build(&ds);
        assert!(takedown_priority(&ds, &idx, 5).is_empty());
    }

    #[test]
    fn empty_trace_is_harmless() {
        let ds = dataset(vec![]);
        let sim = blacklist(&ds);
        assert!(sim.hits.is_empty());
        let sweep = latency_sweep(&ds, &[60.0]);
        assert_eq!(sweep[0].mitigable_fraction, 0.0);
    }
}
