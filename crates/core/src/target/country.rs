//! Table V — country-level victim preferences per family.
//!
//! The paper observes that each botnet family concentrates on a small
//! set of countries (Dirtjumper on the US, Nitol and Darkshell on
//! China, ...). A profile counts attacks by the target's country and
//! ranks the result.

use ddos_schema::{CountryCode, Family};
use serde::{Deserialize, Serialize};

use crate::kernels::{cc_of_slot, cc_slot, CC_SLOTS};

/// One family's victim-country ranking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyCountryProfile {
    /// The attacking family.
    pub family: Family,
    /// `(country, attacks)` sorted by attacks descending (ties broken by
    /// country code so the ranking is deterministic).
    pub by_country: Vec<(CountryCode, usize)>,
    /// Number of distinct victim countries.
    pub countries: usize,
}

impl FamilyCountryProfile {
    /// The family's most-attacked country, if it attacked at all.
    pub fn favourite(&self) -> Option<CountryCode> {
        self.by_country.first().map(|&(cc, _)| cc)
    }

    /// The top `k` countries (fewer if the family hit fewer).
    pub fn top(&self, k: usize) -> &[(CountryCode, usize)] {
        &self.by_country[..k.min(self.by_country.len())]
    }
}

/// Table V for every active family, in `Family::ACTIVE` order: one
/// scan over the context's attacks accumulates a dense
/// `(family, country)` count grid, and ranking then runs on the grid
/// alone.
pub fn all_profiles_ctx(ctx: &crate::context::AnalysisContext) -> Vec<FamilyCountryProfile> {
    // `Family::ACTIVE` lists the variants in discriminant order, so the
    // discriminant doubles as the row index.
    let mut grid = vec![0u32; Family::ACTIVE.len() * CC_SLOTS];
    for a in ctx.attacks {
        if a.family.is_active() {
            grid[(a.family as usize) * CC_SLOTS + cc_slot(a.target.country)] += 1;
        }
    }
    Family::ACTIVE
        .into_iter()
        .enumerate()
        .map(|(row, family)| {
            let by_country = rank_dense(&grid[row * CC_SLOTS..(row + 1) * CC_SLOTS]);
            FamilyCountryProfile {
                family,
                countries: by_country.len(),
                by_country,
            }
        })
        .collect()
}

/// The overall top `k` victim countries across every family: the same
/// dense count grid over a single country row.
pub fn overall_top_countries_ctx(
    ctx: &crate::context::AnalysisContext,
    k: usize,
) -> Vec<(CountryCode, usize)> {
    let mut row = vec![0u32; CC_SLOTS];
    for a in ctx.attacks {
        row[cc_slot(a.target.country)] += 1;
    }
    let mut ranked = rank_dense(&row);
    ranked.truncate(k);
    ranked
}

/// Ranks the non-zero cells of a dense country row: by count
/// descending, ties broken by country code, so the order is total.
fn rank_dense(row: &[u32]) -> Vec<(CountryCode, usize)> {
    let mut ranked: Vec<(CountryCode, usize)> = row
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(slot, &n)| (cc_of_slot(slot), n as usize))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn profile_counts_and_ranks() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 200, 60, 2),
            attack(Family::Pandora, 3, 300, 60, 3),
        ]);
        let profiles = all_profiles_ctx(&AnalysisContext::new(&ds));
        let profile = |f: Family| profiles.iter().find(|p| p.family == f).unwrap();
        let p = profile(Family::Dirtjumper);
        assert_eq!(p.by_country.iter().map(|&(_, n)| n).sum::<usize>(), 2);
        assert_eq!(p.countries, p.by_country.len());
        assert!(p.favourite().is_some());
        assert!(p.top(1).len() == 1);

        let empty = profile(Family::Nitol);
        assert!(empty.favourite().is_none());
        assert!(empty.top(5).is_empty());
    }

    #[test]
    fn overall_counts_every_attack() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Pandora, 2, 200, 60, 1),
        ]);
        let top = overall_top_countries_ctx(&AnalysisContext::new(&ds), 5);
        assert_eq!(top.iter().map(|&(_, n)| n).sum::<usize>(), 2);
    }

    #[test]
    fn profiles_cover_active_families() {
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 60, 1)]);
        let profiles = all_profiles_ctx(&AnalysisContext::new(&ds));
        assert_eq!(profiles.len(), Family::ACTIVE.len());
    }
}
