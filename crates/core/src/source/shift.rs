//! Fig. 8 — weekly shift patterns of attack sources.
//!
//! The paper: *"we extract all the bots involved in DDoS attacks for each
//! family and aggregate the number of these bots per week ... Shifts are
//! categorized into two clusters based on their destination locations,
//! existing countries or new countries."* The headline observation is the
//! two-orders-of-magnitude gap: shifts overwhelmingly stay inside the
//! family's existing country footprint.

use serde::{Deserialize, Serialize};

use crate::context::AnalysisContext;
use crate::kernels::CC_SLOTS;

/// One week's aggregated shift counts (Fig. 8's stacked bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeekShift {
    /// Week index within the window.
    pub week: usize,
    /// Distinct bots attacking from countries the family had already
    /// used (the left, 10⁴-scale cluster).
    pub existing_country_bots: usize,
    /// Distinct bots attacking from countries first seen this week (the
    /// right, 10³-scale cluster).
    pub new_country_bots: usize,
}

/// The full shift-pattern analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftAnalysis {
    /// Per-week aggregate over all active families.
    pub weeks: Vec<WeekShift>,
}

impl ShiftAnalysis {
    /// The shift pass: classifies the context's per-family
    /// `week × country` grids of distinct bots
    /// ([`crate::context::FamilyContext::bot_grid`]), which the context
    /// build counts from its single geolocation join.
    pub fn compute_ctx(ctx: &AnalysisContext) -> ShiftAnalysis {
        let mut weeks = Self::empty_weeks(ctx.window().num_weeks());
        for fc in ctx.families() {
            Self::classify_grid(&mut weeks, &fc.bot_grid);
        }
        ShiftAnalysis { weeks }
    }

    fn empty_weeks(num_weeks: usize) -> Vec<WeekShift> {
        (0..num_weeks)
            .map(|week| WeekShift {
                week,
                existing_country_bots: 0,
                new_country_bots: 0,
            })
            .collect()
    }

    /// Classifies one family's dense per-(week, country) count grid
    /// into existing- vs new-country shifts and accumulates the counts
    /// into `weeks`: a country's bots count as "new" exactly in its
    /// first active week, and as "existing" in every later one.
    pub fn classify_grid(weeks: &mut [WeekShift], counts: &[u32]) {
        const UNSEEN: usize = usize::MAX;
        let mut first = [UNSEEN; CC_SLOTS];
        for (w, row) in counts.chunks_exact(CC_SLOTS).enumerate() {
            for (first_week, &c) in first.iter_mut().zip(row) {
                if c > 0 && *first_week == UNSEEN {
                    *first_week = w;
                }
            }
        }
        for (w, row) in counts.chunks_exact(CC_SLOTS).enumerate() {
            for (&first_week, &c) in first.iter().zip(row) {
                if c == 0 {
                    continue;
                }
                if first_week == w {
                    weeks[w].new_country_bots += c as usize;
                } else {
                    weeks[w].existing_country_bots += c as usize;
                }
            }
        }
    }

    /// Total bots that shifted within existing countries across the
    /// window.
    pub fn total_existing(&self) -> usize {
        self.weeks.iter().map(|w| w.existing_country_bots).sum()
    }

    /// Total bots recruited in new countries across the window.
    pub fn total_new(&self) -> usize {
        self.weeks.iter().map(|w| w.new_country_bots).sum()
    }

    /// Ratio of existing- to new-country shifts — the paper's
    /// regionalization claim holds when this is roughly an order of
    /// magnitude or more (Fig. 8 plots the clusters on 10⁴ vs 10³ axes).
    pub fn regionalization_ratio(&self) -> Option<f64> {
        let new = self.total_new();
        if new == 0 {
            return None;
        }
        Some(self.total_existing() as f64 / new as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{
        Asn, BotnetId, CityId, Dataset, DatasetBuilder, Family, IpAddr4, LatLon, OrgId, Timestamp,
    };

    fn shifts(ds: &Dataset) -> ShiftAnalysis {
        ShiftAnalysis::compute_ctx(&AnalysisContext::new(ds))
    }

    /// Builds a dataset where family attacks reference bots in known
    /// countries across weeks.
    fn shift_dataset() -> Dataset {
        let mut b = DatasetBuilder::new(crate::overview::test_support::window());
        let bot = |ip: u8, cc: &str| BotRecord {
            ip: IpAddr4::from_octets(203, 0, 113, ip),
            botnet: BotnetId(1),
            family: Family::Dirtjumper,
            location: Location {
                country: cc.parse().unwrap(),
                city: CityId(1),
                org: OrgId(1),
                asn: Asn(64_001),
                coords: LatLon::new_unchecked(50.0, 30.0),
            },
            first_seen: Timestamp(0),
            last_seen: Timestamp(100_000),
        };
        b.push_bot(bot(1, "RU")).unwrap();
        b.push_bot(bot(2, "RU")).unwrap();
        b.push_bot(bot(3, "UA")).unwrap();
        // Week 0: two RU bots. Week 1: an RU bot (existing) and a UA bot
        // (new country).
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 10, 1);
        a1.sources = vec![
            IpAddr4::from_octets(203, 0, 113, 1),
            IpAddr4::from_octets(203, 0, 113, 2),
        ];
        let mut a2 = attack(Family::Dirtjumper, 2, 7 * 86_400 + 100, 10, 1);
        a2.sources = vec![
            IpAddr4::from_octets(203, 0, 113, 1),
            IpAddr4::from_octets(203, 0, 113, 3),
        ];
        b.push_attack(a1).unwrap();
        b.push_attack(a2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn classifies_existing_vs_new_countries() {
        let ds = shift_dataset();
        let s = shifts(&ds);
        // Week 0: RU first appears → both bots count as new-country.
        assert_eq!(s.weeks[0].new_country_bots, 2);
        assert_eq!(s.weeks[0].existing_country_bots, 0);
        // Week 1: RU is existing, UA is new.
        assert_eq!(s.weeks[1].existing_country_bots, 1);
        assert_eq!(s.weeks[1].new_country_bots, 1);
        assert_eq!(s.total_existing(), 1);
        assert_eq!(s.total_new(), 3);
    }

    #[test]
    fn ratio_none_when_no_new_countries() {
        let ds = dataset(vec![]);
        let s = shifts(&ds);
        assert_eq!(s.regionalization_ratio(), None);
        assert_eq!(s.total_existing() + s.total_new(), 0);
    }

    #[test]
    fn unresolvable_sources_are_skipped() {
        // Attack sources missing from the Botlist are ignored, not
        // fabricated.
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 10, 1)]);
        let s = shifts(&ds); // empty Botlist
        assert_eq!(s.total_existing() + s.total_new(), 0);
    }
}
