//! §V-B / Figs. 17–18 — multistage (consecutive) attacks.
//!
//! A chain is a run of attacks on one target where each attack starts at
//! the end of the previous one "or within 60 second margin over overlap"
//! — i.e. the gap `next.start − prev.end` lies in `[-60, 60]`. The paper
//! finds only intra-family chains, in four families, the longest being
//! Ddoser's 22-attack chain.

use ddos_schema::{AttackRecord, Dataset, Family, IpAddr4, Timestamp};
use ddos_stats::{descriptive, Ecdf};
use serde::{Deserialize, Serialize};

/// Allowed margin around the previous attack's end (seconds).
pub const CHAIN_MARGIN_S: i64 = 60;

/// One consecutive-attack chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chain {
    /// The target under sustained attack.
    pub target: IpAddr4,
    /// Attack indices in start order.
    pub attacks: Vec<usize>,
    /// Distinct families involved (paper: always exactly one).
    pub families: Vec<Family>,
}

impl Chain {
    /// Number of links.
    pub fn len(&self) -> usize {
        self.attacks.len()
    }

    /// Chains always have at least two links.
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// Whether one family ran the whole chain.
    pub fn is_intra_family(&self) -> bool {
        self.families.len() == 1
    }
}

/// The full multistage analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultistageAnalysis {
    /// All chains (length ≥ 2), longest first.
    pub chains: Vec<Chain>,
    /// Gaps between consecutive links, seconds (Fig. 17's sample).
    pub gaps: Vec<i64>,
}

impl MultistageAnalysis {
    /// The multistage pass: the chaining rule over the per-target
    /// timelines already grouped and sorted in the analysis context.
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> MultistageAnalysis {
        Self::detect(
            ctx.attacks,
            ctx.target_timelines
                .iter()
                .map(|t| (t.target, t.attacks.as_slice())),
        )
    }

    /// The chaining rule over per-target lists of indices into
    /// `attacks`. The lists must arrive sorted by target IP with
    /// indices ascending, as the context's timelines are.
    pub fn detect<'t>(
        attacks: &[AttackRecord],
        per_target: impl Iterator<Item = (IpAddr4, &'t [usize])>,
    ) -> MultistageAnalysis {
        let mut chains = Vec::new();
        let mut gaps = Vec::new();
        for (target, idxs) in per_target {
            let mut current: Vec<usize> = Vec::new();
            for &i in idxs {
                match current.last() {
                    Some(&prev) => {
                        let gap = (attacks[i].start - attacks[prev].end).get();
                        if gap.abs() <= CHAIN_MARGIN_S {
                            current.push(i);
                        } else {
                            Self::flush(&mut chains, &mut gaps, attacks, target, &mut current);
                            current.push(i);
                        }
                    }
                    None => current.push(i),
                }
            }
            Self::flush(&mut chains, &mut gaps, attacks, target, &mut current);
        }
        chains.sort_by(|a, b| b.len().cmp(&a.len()).then(a.target.cmp(&b.target)));
        MultistageAnalysis { chains, gaps }
    }

    fn flush(
        chains: &mut Vec<Chain>,
        gaps: &mut Vec<i64>,
        attacks: &[AttackRecord],
        target: IpAddr4,
        current: &mut Vec<usize>,
    ) {
        if current.len() >= 2 {
            for w in current.windows(2) {
                gaps.push((attacks[w[1]].start - attacks[w[0]].end).get());
            }
            let mut families: Vec<Family> = current.iter().map(|&i| attacks[i].family).collect();
            families.sort_unstable();
            families.dedup();
            chains.push(Chain {
                target,
                attacks: std::mem::take(current),
                families,
            });
        } else {
            current.clear();
        }
    }

    /// The longest chain (paper: 22 links, Ddoser, 2012-08-30).
    pub fn longest(&self) -> Option<&Chain> {
        self.chains.first()
    }

    /// Families that run chains (paper: Darkshell, Ddoser, Dirtjumper,
    /// Nitol — and only intra-family).
    pub fn chain_families(&self) -> Vec<Family> {
        let mut fams: Vec<Family> = self
            .chains
            .iter()
            .flat_map(|c| c.families.iter().copied())
            .collect();
        fams.sort_unstable();
        fams.dedup();
        fams
    }

    /// Fig. 17 — the CDF of consecutive-attack gaps.
    pub fn gap_cdf(&self) -> Option<Ecdf> {
        let xs: Vec<f64> = self.gaps.iter().map(|&g| g as f64).collect();
        Ecdf::new(&xs)
    }

    /// Gap summary (the paper quotes mean, median, std).
    pub fn gap_stats(&self) -> Option<(f64, f64, f64)> {
        let xs: Vec<f64> = self.gaps.iter().map(|&g| g as f64).collect();
        Some((
            descriptive::mean(&xs)?,
            descriptive::median(&xs)?,
            descriptive::std_dev_population(&xs)?,
        ))
    }

    /// Fig. 18 data: every chained attack as `(start, target, family,
    /// magnitude)`.
    pub fn timeline(&self, ds: &Dataset) -> Vec<(Timestamp, IpAddr4, Family, usize)> {
        let attacks = ds.attacks();
        let mut pts: Vec<_> = self
            .chains
            .iter()
            .flat_map(|c| c.attacks.iter())
            .map(|&i| {
                let a = &attacks[i];
                (a.start, a.target_ip, a.family, a.magnitude())
            })
            .collect();
        pts.sort_by_key(|&(t, ip, ..)| (t, ip));
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::overview::test_support::{attack, dataset};

    fn chains(ds: &Dataset) -> MultistageAnalysis {
        MultistageAnalysis::compute_ctx(&AnalysisContext::new(ds))
    }

    #[test]
    fn back_to_back_attacks_form_a_chain() {
        // end of 1 at t=160; next starts at 165 (gap 5), then 230 (gap 5).
        let ds = dataset(vec![
            attack(Family::Ddoser, 1, 100, 60, 1),
            attack(Family::Ddoser, 2, 165, 60, 1),
            attack(Family::Ddoser, 3, 230, 60, 1),
        ]);
        let m = chains(&ds);
        assert_eq!(m.chains.len(), 1);
        assert_eq!(m.longest().unwrap().len(), 3);
        assert!(m.longest().unwrap().is_intra_family());
        assert_eq!(m.gaps, vec![5, 5]);
        assert_eq!(m.chain_families(), vec![Family::Ddoser]);
        assert_eq!(m.timeline(&ds).len(), 3);
    }

    #[test]
    fn overlap_within_margin_still_chains() {
        // Second attack starts 30 s *before* the first ends.
        let ds = dataset(vec![
            attack(Family::Darkshell, 1, 100, 60, 1),
            attack(Family::Darkshell, 2, 130, 60, 1),
        ]);
        let m = chains(&ds);
        assert_eq!(m.chains.len(), 1);
        assert_eq!(m.gaps, vec![-30]);
    }

    #[test]
    fn large_gap_breaks_the_chain() {
        let ds = dataset(vec![
            attack(Family::Ddoser, 1, 100, 60, 1),
            attack(Family::Ddoser, 2, 300, 60, 1), // gap 140 > 60
        ]);
        let m = chains(&ds);
        assert!(m.chains.is_empty());
        assert!(m.gaps.is_empty());
        assert!(m.gap_cdf().is_none());
        assert!(m.longest().is_none());
    }

    #[test]
    fn different_targets_never_chain() {
        let ds = dataset(vec![
            attack(Family::Ddoser, 1, 100, 60, 1),
            attack(Family::Ddoser, 2, 165, 60, 2),
        ]);
        let m = chains(&ds);
        assert!(m.chains.is_empty());
    }

    #[test]
    fn cross_family_runs_are_detected_but_flagged() {
        let ds = dataset(vec![
            attack(Family::Ddoser, 1, 100, 60, 1),
            attack(Family::Nitol, 2, 165, 60, 1),
        ]);
        let m = chains(&ds);
        assert_eq!(m.chains.len(), 1);
        assert!(!m.chains[0].is_intra_family());
    }

    #[test]
    fn gap_stats_and_cdf() {
        let ds = dataset(vec![
            attack(Family::Ddoser, 1, 100, 60, 1),
            attack(Family::Ddoser, 2, 163, 60, 1), // gap 3
            attack(Family::Ddoser, 3, 232, 60, 1), // gap 9
        ]);
        let m = chains(&ds);
        let (mean, median, _) = m.gap_stats().unwrap();
        assert_eq!(mean, 6.0);
        assert_eq!(median, 6.0);
        let cdf = m.gap_cdf().unwrap();
        assert_eq!(cdf.eval(3.0), 0.5);
    }

    #[test]
    fn chains_sorted_longest_first() {
        let ds = dataset(vec![
            attack(Family::Ddoser, 1, 100, 60, 1),
            attack(Family::Ddoser, 2, 165, 60, 1),
            attack(Family::Ddoser, 3, 230, 60, 1),
            attack(Family::Nitol, 4, 100, 60, 2),
            attack(Family::Nitol, 5, 165, 60, 2),
        ]);
        let m = chains(&ds);
        assert_eq!(m.chains.len(), 2);
        assert_eq!(m.chains[0].len(), 3);
        assert_eq!(m.chains[1].len(), 2);
    }
}
