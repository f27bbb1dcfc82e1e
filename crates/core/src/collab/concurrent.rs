//! Table VI / Figs. 15–16 — concurrent collaborations.
//!
//! The detection rule (§V): two attacks collaborate when they hit the
//! same target, start within 60 seconds of each other, have durations
//! within half an hour of each other, and come from *different botnets*
//! (different generations of one family → intra-family; different
//! families → inter-family). Counts are qualifying **pairs**; pairs are
//! additionally clustered into **events** (connected components per
//! target) to reproduce Fig. 15's "average 2.19 botnets per
//! collaboration".

use std::collections::{BTreeMap, HashMap, HashSet};

use ddos_schema::{AttackRecord, CountryCode, Dataset, Family, IpAddr4, Timestamp};
use serde::{Deserialize, Serialize};

/// Start-time window of the rule (seconds).
pub const START_WINDOW_S: i64 = 60;
/// Duration window of the rule (seconds).
pub const DURATION_WINDOW_S: i64 = 1_800;

/// One qualifying pair (indices into `Dataset::attacks()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollabPair {
    /// First attack (earlier start).
    pub a: usize,
    /// Second attack.
    pub b: usize,
}

/// One collaboration event: a connected component of qualifying pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollabEvent {
    /// Attack indices, sorted.
    pub attacks: Vec<usize>,
    /// Distinct botnet generations involved.
    pub botnets: usize,
    /// Distinct families involved (sorted).
    pub families: Vec<Family>,
}

/// The full §V-A concurrent-collaboration analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollabAnalysis {
    /// All qualifying pairs.
    pub pairs: Vec<CollabPair>,
    /// Pair clusters.
    pub events: Vec<CollabEvent>,
    /// Table VI row 1: intra-family pair counts per family.
    pub intra_pairs: BTreeMap<Family, usize>,
    /// Table VI row 2: inter-family pair counts per family (a pair
    /// increments both participants).
    pub inter_pairs: BTreeMap<Family, usize>,
}

impl CollabAnalysis {
    /// Detects all collaborations in the trace.
    pub fn compute(ds: &Dataset) -> CollabAnalysis {
        let attacks = ds.attacks();
        // Group by target; windows are tiny relative to per-target lists.
        let mut by_target: HashMap<IpAddr4, Vec<usize>> = HashMap::new();
        for (i, a) in attacks.iter().enumerate() {
            by_target.entry(a.target_ip).or_default().push(i);
        }
        let mut targets: Vec<_> = by_target.into_iter().collect();
        targets.sort_by_key(|&(ip, _)| ip);
        Self::detect(attacks, targets.iter().map(|(_, idxs)| idxs.as_slice()))
    }

    /// Context-based variant of [`CollabAnalysis::compute`]: runs the
    /// sort-sweep detector (`CollabAnalysis::detect_sweep`) over the
    /// per-target timelines already grouped and sorted in the analysis
    /// context. `tests/kernels.rs` holds it byte-identical to the
    /// pairwise scan on arbitrary traces.
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> CollabAnalysis {
        let lists: Vec<&[usize]> = ctx
            .target_timelines
            .iter()
            .map(|t| t.attacks.as_slice())
            .collect();
        Self::detect_sweep(ctx.attacks, &lists)
    }

    /// The pairwise detection rule over per-target attack-index lists.
    /// The lists must arrive sorted by target IP with indices ascending,
    /// as the sweep's timelines are — which is what keeps the two
    /// detectors byte-identical.
    fn detect<'t>(
        attacks: &[AttackRecord],
        per_target: impl Iterator<Item = &'t [usize]>,
    ) -> CollabAnalysis {
        let mut pairs = Vec::new();

        let mut parent: HashMap<usize, usize> = HashMap::new();
        fn find(parent: &mut HashMap<usize, usize>, x: usize) -> usize {
            let p = *parent.get(&x).unwrap_or(&x);
            if p == x {
                return x;
            }
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }

        for idxs in per_target {
            // idxs are in start order already (attacks() is sorted).
            for (k, &i) in idxs.iter().enumerate() {
                for &j in &idxs[k + 1..] {
                    let (ai, aj) = (&attacks[i], &attacks[j]);
                    if (aj.start - ai.start).get() > START_WINDOW_S {
                        break;
                    }
                    if ai.botnet == aj.botnet {
                        continue;
                    }
                    let ddur = (ai.duration().get() - aj.duration().get()).abs();
                    if ddur > DURATION_WINDOW_S {
                        continue;
                    }
                    pairs.push(CollabPair { a: i, b: j });
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent.insert(ri, rj);
                    }
                }
            }
        }

        // Events: connected components.
        let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
        let members: HashSet<usize> = pairs.iter().flat_map(|p| [p.a, p.b]).collect();
        for &m in &members {
            components.entry(find(&mut parent, m)).or_default().push(m);
        }
        let mut events: Vec<CollabEvent> = components
            .into_values()
            .map(|mut attacks_in| {
                attacks_in.sort_unstable();
                let botnets: HashSet<_> = attacks_in.iter().map(|&i| attacks[i].botnet).collect();
                let mut families: Vec<Family> =
                    attacks_in.iter().map(|&i| attacks[i].family).collect();
                families.sort_unstable();
                families.dedup();
                CollabEvent {
                    botnets: botnets.len(),
                    families,
                    attacks: attacks_in,
                }
            })
            .collect();
        events.sort_by_key(|e| e.attacks[0]);

        // Table VI counts.
        let mut intra_pairs: BTreeMap<Family, usize> = BTreeMap::new();
        let mut inter_pairs: BTreeMap<Family, usize> = BTreeMap::new();
        for p in &pairs {
            let (fa, fb) = (attacks[p.a].family, attacks[p.b].family);
            if fa == fb {
                *intra_pairs.entry(fa).or_default() += 1;
            } else {
                *inter_pairs.entry(fa).or_default() += 1;
                *inter_pairs.entry(fb).or_default() += 1;
            }
        }

        CollabAnalysis {
            pairs,
            events,
            intra_pairs,
            inter_pairs,
        }
    }

    /// The sort-sweep detector. Per target the attack list is already
    /// sorted by start (global trace order), so a sliding window
    /// frontier `hi` — monotone because start gaps grow with the left
    /// endpoint — enumerates exactly the pairs the pairwise scan's
    /// `break` kept, in the same order. Components use an arena
    /// union-find over local positions (no hashing, no recursion), and
    /// members are gathered by one ascending position sweep, so each
    /// event's attack list comes out sorted without the pairwise scan's
    /// per-component re-sort. Events get one final sort on their least
    /// attack index — the same sort [`CollabAnalysis::detect`] ends
    /// with — so the output is byte-identical.
    fn detect_sweep(attacks: &[AttackRecord], per_target: &[&[usize]]) -> CollabAnalysis {
        let mut pairs = Vec::new();
        let mut events: Vec<CollabEvent> = Vec::new();
        let mut intra_pairs: BTreeMap<Family, usize> = BTreeMap::new();
        let mut inter_pairs: BTreeMap<Family, usize> = BTreeMap::new();

        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let grand = parent[parent[x as usize] as usize];
                parent[x as usize] = grand;
                x = grand;
            }
            x
        }

        // Reusable per-target arenas.
        let mut parent: Vec<u32> = Vec::new();
        let mut in_pair: Vec<bool> = Vec::new();
        let mut comp_of: Vec<u32> = Vec::new();

        for &idxs in per_target {
            let m = idxs.len();
            if m < 2 {
                continue;
            }
            parent.clear();
            parent.extend(0..m as u32);
            in_pair.clear();
            in_pair.resize(m, false);
            let mut target_has_pairs = false;

            let mut hi = 1usize;
            for k in 0..m {
                let ai = &attacks[idxs[k]];
                if hi <= k {
                    hi = k + 1;
                }
                while hi < m && (attacks[idxs[hi]].start - ai.start).get() <= START_WINDOW_S {
                    hi += 1;
                }
                for p in k + 1..hi {
                    let aj = &attacks[idxs[p]];
                    if ai.botnet == aj.botnet {
                        continue;
                    }
                    let ddur = (ai.duration().get() - aj.duration().get()).abs();
                    if ddur > DURATION_WINDOW_S {
                        continue;
                    }
                    pairs.push(CollabPair {
                        a: idxs[k],
                        b: idxs[p],
                    });
                    let (fa, fb) = (ai.family, aj.family);
                    if fa == fb {
                        *intra_pairs.entry(fa).or_default() += 1;
                    } else {
                        *inter_pairs.entry(fa).or_default() += 1;
                        *inter_pairs.entry(fb).or_default() += 1;
                    }
                    in_pair[k] = true;
                    in_pair[p] = true;
                    target_has_pairs = true;
                    let (rk, rp) = (find(&mut parent, k as u32), find(&mut parent, p as u32));
                    if rk != rp {
                        parent[rk as usize] = rp;
                    }
                }
            }

            if !target_has_pairs {
                continue;
            }
            // One ascending sweep assigns component ids in first-member
            // order and gathers members pre-sorted.
            const UNASSIGNED: u32 = u32::MAX;
            comp_of.clear();
            comp_of.resize(m, UNASSIGNED);
            let first_event = events.len();
            for p in 0..m {
                if !in_pair[p] {
                    continue;
                }
                let root = find(&mut parent, p as u32) as usize;
                let event = if comp_of[root] == UNASSIGNED {
                    comp_of[root] = (events.len() - first_event) as u32;
                    events.push(CollabEvent {
                        attacks: Vec::new(),
                        botnets: 0,
                        families: Vec::new(),
                    });
                    events.last_mut().unwrap()
                } else {
                    &mut events[first_event + comp_of[root] as usize]
                };
                event.attacks.push(idxs[p]);
            }
            for event in &mut events[first_event..] {
                let mut botnets: Vec<_> =
                    event.attacks.iter().map(|&i| attacks[i].botnet).collect();
                botnets.sort_unstable();
                botnets.dedup();
                event.botnets = botnets.len();
                let mut families: Vec<Family> =
                    event.attacks.iter().map(|&i| attacks[i].family).collect();
                families.sort_unstable();
                families.dedup();
                event.families = families;
            }
        }
        events.sort_by_key(|e| e.attacks[0]);

        CollabAnalysis {
            pairs,
            events,
            intra_pairs,
            inter_pairs,
        }
    }

    /// Mean number of botnets per event for one family's intra-family
    /// events (the paper: 2.19 for Dirtjumper).
    pub fn mean_botnets_per_event(&self, family: Family) -> Option<f64> {
        let counts: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.families == [family])
            .map(|e| e.botnets)
            .collect();
        if counts.is_empty() {
            return None;
        }
        Some(counts.iter().sum::<usize>() as f64 / counts.len() as f64)
    }

    /// Fig. 15 data: one family's intra-family collaborating attacks as
    /// `(botnet, date, magnitude)`.
    pub fn intra_family_points(
        &self,
        ds: &Dataset,
        family: Family,
    ) -> Vec<(ddos_schema::BotnetId, Timestamp, usize)> {
        let attacks = ds.attacks();
        self.events
            .iter()
            .filter(|e| e.families == [family])
            .flat_map(|e| e.attacks.iter())
            .map(|&i| {
                let a = &attacks[i];
                (a.botnet, a.start, a.magnitude())
            })
            .collect()
    }
}

/// The §V-A deep dive into one inter-family pairing (the paper studies
/// Dirtjumper × Pandora).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairFocus {
    /// The two families.
    pub families: (Family, Family),
    /// Per-event series: `(start, duration_a, duration_b, magnitude_a,
    /// magnitude_b)` — Fig. 16.
    pub series: Vec<(Timestamp, f64, f64, usize, usize)>,
    /// Unique targets hit by the pairing (paper: 96).
    pub unique_targets: usize,
    /// Countries those targets live in (paper: 16).
    pub countries: Vec<CountryCode>,
    /// Distinct victim organizations (paper: 58).
    pub organizations: usize,
    /// Distinct victim ASes (paper: 61).
    pub asns: usize,
    /// Mean duration of family `a`'s attacks in the pairing (paper:
    /// 5,083 s for Dirtjumper).
    pub mean_duration_a: f64,
    /// Mean duration of family `b`'s attacks (paper: 6,420 s for
    /// Pandora).
    pub mean_duration_b: f64,
}

impl PairFocus {
    /// Analyzes the collaborations between two specific families.
    pub fn compute(
        ds: &Dataset,
        analysis: &CollabAnalysis,
        a: Family,
        b: Family,
    ) -> Option<PairFocus> {
        Self::of_attacks(ds.attacks(), analysis, a, b)
    }

    /// [`PairFocus::compute`] over the attack slice `analysis` indexes.
    pub fn of_attacks(
        attacks: &[AttackRecord],
        analysis: &CollabAnalysis,
        a: Family,
        b: Family,
    ) -> Option<PairFocus> {
        let mut series = Vec::new();
        let mut targets = HashSet::new();
        let mut countries = HashSet::new();
        let mut orgs = HashSet::new();
        let mut asns = HashSet::new();
        let mut dur_a = Vec::new();
        let mut dur_b = Vec::new();
        for p in &analysis.pairs {
            let (ai, aj) = (&attacks[p.a], &attacks[p.b]);
            let (fa, fb) = (ai.family, aj.family);
            let (at, bt) = if fa == a && fb == b {
                (ai, aj)
            } else if fa == b && fb == a {
                (aj, ai)
            } else {
                continue;
            };
            targets.insert(at.target_ip);
            countries.insert(at.target.country);
            orgs.insert(at.target.org);
            asns.insert(at.target.asn);
            dur_a.push(at.duration().as_f64());
            dur_b.push(bt.duration().as_f64());
            series.push((
                at.start.min(bt.start),
                at.duration().as_f64(),
                bt.duration().as_f64(),
                at.magnitude(),
                bt.magnitude(),
            ));
        }
        if series.is_empty() {
            return None;
        }
        series.sort_by_key(|&(t, ..)| t);
        let mut countries: Vec<CountryCode> = countries.into_iter().collect();
        countries.sort_unstable();
        Some(PairFocus {
            families: (a, b),
            unique_targets: targets.len(),
            countries,
            organizations: orgs.len(),
            asns: asns.len(),
            mean_duration_a: dur_a.iter().sum::<f64>() / dur_a.len() as f64,
            mean_duration_b: dur_b.iter().sum::<f64>() / dur_b.len() as f64,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, chunked_contexts, dataset};
    use ddos_schema::BotnetId;

    #[test]
    fn detects_intra_family_pairs() {
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 600, 1);
        let mut a2 = attack(Family::Dirtjumper, 2, 130, 900, 1);
        a1.botnet = BotnetId(10);
        a2.botnet = BotnetId(11);
        let ds = dataset(vec![a1, a2]);
        let c = CollabAnalysis::compute(&ds);
        assert_eq!(c.pairs.len(), 1);
        assert_eq!(c.intra_pairs.get(&Family::Dirtjumper), Some(&1));
        assert!(c.inter_pairs.is_empty());
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.events[0].botnets, 2);
        assert_eq!(c.mean_botnets_per_event(Family::Dirtjumper), Some(2.0));
        assert_eq!(c.intra_family_points(&ds, Family::Dirtjumper).len(), 2);
    }

    #[test]
    fn same_botnet_never_collaborates_with_itself() {
        let a1 = attack(Family::Dirtjumper, 1, 100, 600, 1);
        let a2 = attack(Family::Dirtjumper, 2, 130, 600, 1); // same botnet id
        let ds = dataset(vec![a1, a2]);
        let c = CollabAnalysis::compute(&ds);
        assert!(c.pairs.is_empty());
    }

    #[test]
    fn windows_are_enforced() {
        // Start 61 s apart: fails the start window.
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 600, 1);
        let mut a2 = attack(Family::Dirtjumper, 2, 161, 600, 1);
        a1.botnet = BotnetId(10);
        a2.botnet = BotnetId(11);
        let ds = dataset(vec![a1.clone(), a2]);
        assert!(CollabAnalysis::compute(&ds).pairs.is_empty());
        // Durations 1,801 s apart: fails the duration window.
        let mut a3 = attack(Family::Dirtjumper, 3, 120, 600 + 1_801, 1);
        a3.botnet = BotnetId(12);
        let ds = dataset(vec![a1, a3]);
        assert!(CollabAnalysis::compute(&ds).pairs.is_empty());
    }

    #[test]
    fn different_targets_never_pair() {
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 600, 1);
        let mut a2 = attack(Family::Dirtjumper, 2, 100, 600, 2);
        a1.botnet = BotnetId(10);
        a2.botnet = BotnetId(11);
        let ds = dataset(vec![a1, a2]);
        assert!(CollabAnalysis::compute(&ds).pairs.is_empty());
    }

    #[test]
    fn inter_family_pairs_count_both_sides() {
        let a1 = attack(Family::Dirtjumper, 1, 100, 600, 1);
        let a2 = attack(Family::Pandora, 2, 110, 700, 1);
        let ds = dataset(vec![a1, a2]);
        let c = CollabAnalysis::compute(&ds);
        assert_eq!(c.inter_pairs.get(&Family::Dirtjumper), Some(&1));
        assert_eq!(c.inter_pairs.get(&Family::Pandora), Some(&1));
        assert_eq!(c.events[0].families.len(), 2);
    }

    #[test]
    fn chains_of_pairs_merge_into_one_event() {
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 600, 1);
        let mut a2 = attack(Family::Dirtjumper, 2, 140, 600, 1);
        let mut a3 = attack(Family::Dirtjumper, 3, 180, 600, 1);
        a1.botnet = BotnetId(10);
        a2.botnet = BotnetId(11);
        a3.botnet = BotnetId(12);
        let ds = dataset(vec![a1, a2, a3]);
        let c = CollabAnalysis::compute(&ds);
        // (1,2) and (2,3) qualify; (1,3) start 80 s apart does not — but
        // the union-find still merges all three into one event.
        assert_eq!(c.pairs.len(), 2);
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.events[0].botnets, 3);
    }

    #[test]
    fn sweep_matches_pairwise_for_every_chunking() {
        // Chains, shared starts, duration-window rejections, and
        // several interleaved targets.
        let mut attacks_v = Vec::new();
        let fams = [
            Family::Dirtjumper,
            Family::Pandora,
            Family::Blackenergy,
            Family::Nitol,
        ];
        for n in 0..28u8 {
            let mut a = attack(
                fams[(n % 4) as usize],
                u64::from(n) + 1,
                i64::from(n / 2) * 40,
                600 + i64::from(n % 5) * 700,
                n % 3,
            );
            a.botnet = BotnetId(u32::from(n % 7));
            attacks_v.push(a);
        }
        let ds = dataset(attacks_v);
        let expect = CollabAnalysis::compute(&ds);
        assert!(!expect.pairs.is_empty(), "fixture must exercise pairs");
        for (policy, ctx) in chunked_contexts(&ds) {
            assert_eq!(CollabAnalysis::compute_ctx(&ctx), expect, "{policy:?}");
        }
    }

    #[test]
    fn pair_focus_extracts_the_flagship_stats() {
        let a1 = attack(Family::Dirtjumper, 1, 100, 5_000, 1);
        let a2 = attack(Family::Pandora, 2, 120, 6_400, 1);
        let a3 = attack(Family::Dirtjumper, 3, 9_000, 5_200, 2);
        let a4 = attack(Family::Pandora, 4, 9_030, 6_500, 2);
        let ds = dataset(vec![a1, a2, a3, a4]);
        let c = CollabAnalysis::compute(&ds);
        let focus = PairFocus::compute(&ds, &c, Family::Dirtjumper, Family::Pandora).unwrap();
        assert_eq!(focus.unique_targets, 2);
        assert_eq!(focus.series.len(), 2);
        assert!((focus.mean_duration_a - 5_100.0).abs() < 1.0);
        assert!((focus.mean_duration_b - 6_450.0).abs() < 1.0);
        assert!(PairFocus::compute(&ds, &c, Family::Nitol, Family::Yzf).is_none());
    }
}
