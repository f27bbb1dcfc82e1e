//! Family activity levels (§III-A).
//!
//! *"botnet activity patterns are defined by both active time and the
//! attack volumes. For example, Dirtjumper presents most aggressiveness
//! due to its constant activities and major contributions to the DDoS
//! attacks. Blackenergy, on the other hand, only stays active for about
//! 1/3 of the period."* This module quantifies exactly that.

use ddos_schema::{Family, Timestamp, Window};
use serde::{Deserialize, Serialize};

use crate::context::AnalysisContext;

/// Activity profile of one family over the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FamilyActivity {
    /// The family.
    pub family: Family,
    /// Total attacks launched.
    pub attacks: usize,
    /// Days with at least one attack.
    pub active_days: usize,
    /// First attack day index, if any.
    pub first_day: Option<usize>,
    /// Last attack day index, if any.
    pub last_day: Option<usize>,
    /// Attacks per active day.
    pub attacks_per_active_day: f64,
    /// Active days over the whole window length (Blackenergy ≈ 1/3).
    pub duty_cycle: f64,
}

/// The activity pass: [`activity_levels_of`] over the context's
/// per-family start columns.
pub fn activity_levels_ctx(ctx: &AnalysisContext) -> Vec<FamilyActivity> {
    activity_levels_of(
        ctx.window(),
        ctx.families()
            .iter()
            .map(|fc| (fc.family, fc.starts.as_slice())),
    )
}

/// Activity profiles of the given families from their ascending attack
/// start times, most aggressive (attack volume) first.
pub fn activity_levels_of<'s>(
    window: Window,
    per_family: impl Iterator<Item = (Family, &'s [Timestamp])>,
) -> Vec<FamilyActivity> {
    let mut out: Vec<FamilyActivity> = per_family
        .map(|(family, starts)| profile(window, family, starts))
        .collect();
    out.sort_by(|a, b| b.attacks.cmp(&a.attacks).then(a.family.cmp(&b.family)));
    out
}

/// One family's profile from its attack start times.
fn profile(window: Window, family: Family, starts: &[Timestamp]) -> FamilyActivity {
    let mut days = std::collections::HashSet::new();
    let mut attacks = 0usize;
    let mut first = None;
    let mut last = None;
    for &start in starts {
        attacks += 1;
        if let Some(d) = window.day_index(start) {
            days.insert(d);
            first = Some(first.map_or(d, |f: usize| f.min(d)));
            last = Some(last.map_or(d, |l: usize| l.max(d)));
        }
    }
    let active_days = days.len();
    FamilyActivity {
        family,
        attacks,
        active_days,
        first_day: first,
        last_day: last,
        attacks_per_active_day: if active_days > 0 {
            attacks as f64 / active_days as f64
        } else {
            0.0
        },
        duty_cycle: active_days as f64 / window.num_days().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::Dataset;

    fn activity_levels(ds: &Dataset) -> Vec<FamilyActivity> {
        activity_levels_ctx(&AnalysisContext::new(ds))
    }

    #[test]
    fn volumes_and_days_counted() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 10, 1),
            attack(Family::Dirtjumper, 2, 200, 10, 1),
            attack(Family::Dirtjumper, 3, 86_400 + 100, 10, 1),
            attack(Family::Nitol, 4, 100, 10, 2),
        ]);
        let levels = activity_levels(&ds);
        // Sorted by volume: dirtjumper first.
        assert_eq!(levels[0].family, Family::Dirtjumper);
        assert_eq!(levels[0].attacks, 3);
        assert_eq!(levels[0].active_days, 2);
        assert_eq!(levels[0].first_day, Some(0));
        assert_eq!(levels[0].last_day, Some(1));
        assert!((levels[0].attacks_per_active_day - 1.5).abs() < 1e-12);
        assert!((levels[0].duty_cycle - 0.2).abs() < 1e-12); // 2 of 10 days
    }

    #[test]
    fn idle_families_report_zeroes() {
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 10, 1)]);
        let levels = activity_levels(&ds);
        let optima = levels.iter().find(|l| l.family == Family::Optima).unwrap();
        assert_eq!(optima.attacks, 0);
        assert_eq!(optima.active_days, 0);
        assert_eq!(optima.first_day, None);
        assert_eq!(optima.attacks_per_active_day, 0.0);
    }

    #[test]
    fn all_active_families_present() {
        let ds = dataset(vec![]);
        assert_eq!(activity_levels(&ds).len(), Family::ACTIVE.len());
    }
}
