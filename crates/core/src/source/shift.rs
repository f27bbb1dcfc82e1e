//! Fig. 8 — weekly shift patterns of attack sources.
//!
//! The paper: *"we extract all the bots involved in DDoS attacks for each
//! family and aggregate the number of these bots per week ... Shifts are
//! categorized into two clusters based on their destination locations,
//! existing countries or new countries."* The headline observation is the
//! two-orders-of-magnitude gap: shifts overwhelmingly stay inside the
//! family's existing country footprint.

use std::collections::{HashMap, HashSet};

use ddos_schema::{CountryCode, Dataset, Family, IpAddr4};
use serde::{Deserialize, Serialize};

use crate::kernels::{cc_slot, CC_SLOTS};
use crate::util::BotIndex;

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

/// The state the shift pass carries across appends
/// ([`ShiftAnalysis::resume`]): one `week × country` count grid per
/// active family, over the first `covered` attacks.
#[derive(Debug, Clone, Default)]
pub struct ShiftState {
    covered: usize,
    grids: Vec<Vec<u32>>,
}

impl ShiftAnalysis {
    /// Computes weekly shifts from attack participation.
    pub fn compute(ds: &Dataset, bots: &BotIndex) -> ShiftAnalysis {
        let window = ds.window();
        let num_weeks = window.num_weeks();
        let mut weeks = Self::empty_weeks(num_weeks);

        for family in Family::ACTIVE {
            // Distinct bots per week, with their countries.
            let mut weekly: Vec<HashMap<IpAddr4, CountryCode>> = vec![HashMap::new(); num_weeks];
            for a in ds.attacks_of(family) {
                let Some(w) = window.week_index(a.start) else {
                    continue;
                };
                for &ip in &a.sources {
                    if let Some((cc, _)) = bots.lookup(ip) {
                        weekly[w].insert(ip, cc);
                    }
                }
            }
            Self::classify_family(&mut weeks, &weekly);
        }
        ShiftAnalysis { weeks }
    }

    /// The shift pass: [`ShiftAnalysis::compute`] over the context's
    /// weekly bot maps (built from its single geolocation join), through
    /// the count grids `state` carries across appends.
    ///
    /// A family's grid holds, per week and country, the number of
    /// distinct bots its attacks drew from that country that week. A
    /// week's map moves only when an attack starting in it is appended
    /// (or an earlier attack re-resolves, which resets every carry), so
    /// the pass recounts from the maps only the weeks in which the new
    /// attacks start, then classifies each grid: a country's bots count
    /// as "new" exactly in its first active week, the set rule of
    /// [`ShiftAnalysis::compute`] restated. From an empty state it
    /// counts every week.
    pub fn resume(ctx: &crate::context::AnalysisContext, state: &mut ShiftState) -> ShiftAnalysis {
        let window = ctx.window();
        let num_weeks = window.num_weeks();
        let families = ctx.families();
        if state.covered > ctx.attacks.len() || state.grids.len() != families.len() {
            *state = ShiftState {
                covered: 0,
                grids: vec![vec![0; num_weeks * CC_SLOTS]; families.len()],
            };
        }
        let mut touched = vec![false; families.len() * num_weeks];
        for a in &ctx.attacks[state.covered..] {
            let Some(w) = window.week_index(a.start) else {
                continue;
            };
            if a.family.is_active() {
                touched[a.family.index() * num_weeks + w] = true;
            }
        }
        let mut weeks = Self::empty_weeks(num_weeks);
        for (slot, (fc, grid)) in families.iter().zip(&mut state.grids).enumerate() {
            for (w, bots) in fc.weekly_bots.iter().enumerate() {
                if touched[slot * num_weeks + w] {
                    Self::count_week(&mut grid[w * CC_SLOTS..(w + 1) * CC_SLOTS], bots);
                }
            }
            Self::classify_grid(&mut weeks, grid);
        }
        state.covered = ctx.attacks.len();
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

    /// Classifies one family's weekly bot populations into existing- vs
    /// new-country shifts and accumulates the counts. Per-bot counts
    /// depend only on the *set* of countries seen so far, so map
    /// iteration order (and therefore the caller's choice of hasher)
    /// cannot affect the result.
    fn classify_family<S: std::hash::BuildHasher>(
        weeks: &mut [WeekShift],
        weekly: &[HashMap<IpAddr4, CountryCode, S>],
    ) {
        let mut seen: HashSet<CountryCode> = HashSet::new();
        for (w, bots_this_week) in weekly.iter().enumerate() {
            let fresh: HashSet<CountryCode> = bots_this_week
                .values()
                .copied()
                .filter(|cc| !seen.contains(cc))
                .collect();
            for cc in bots_this_week.values() {
                if fresh.contains(cc) {
                    weeks[w].new_country_bots += 1;
                } else {
                    weeks[w].existing_country_bots += 1;
                }
            }
            seen.extend(bots_this_week.values().copied());
        }
    }

    /// Recounts one week's row of a family's count grid from the week's
    /// bot map.
    fn count_week<S: std::hash::BuildHasher>(
        row: &mut [u32],
        bots_this_week: &HashMap<IpAddr4, CountryCode, S>,
    ) {
        row.fill(0);
        for &cc in bots_this_week.values() {
            row[cc_slot(cc)] += 1;
        }
    }

    /// The same classification as [`ShiftAnalysis::classify_family`],
    /// restated over a family's dense per-(week, country) count grid: a
    /// country's bots count as "new" exactly in its first active week,
    /// which is the set-based rule restated.
    fn classify_grid(weeks: &mut [WeekShift], counts: &[u32]) {
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
    use crate::overview::test_support::{attack, chunked_contexts, dataset};
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{Asn, BotnetId, CityId, DatasetBuilder, LatLon, OrgId, Timestamp};

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
        let idx = BotIndex::build(&ds);
        let s = ShiftAnalysis::compute(&ds, &idx);
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
        let idx = BotIndex::build(&ds);
        let s = ShiftAnalysis::compute(&ds, &idx);
        assert_eq!(s.regionalization_ratio(), None);
        assert_eq!(s.total_existing() + s.total_new(), 0);
    }

    #[test]
    fn dense_kernel_matches_set_classifier_for_every_chunking() {
        // Weeks with repeats, gaps, and same-week multi-country mixes.
        let cc = |s: &str| -> CountryCode { s.parse().unwrap() };
        let ip = |n: u8| IpAddr4::from_octets(10, 0, 0, n);
        let weekly: Vec<HashMap<IpAddr4, CountryCode>> = vec![
            [(ip(1), cc("RU")), (ip(2), cc("RU")), (ip(3), cc("UA"))]
                .into_iter()
                .collect(),
            HashMap::new(),
            [(ip(1), cc("RU")), (ip(4), cc("DE")), (ip(5), cc("DE"))]
                .into_iter()
                .collect(),
            [(ip(3), cc("UA")), (ip(6), cc("BR"))].into_iter().collect(),
        ];
        let mut expect = ShiftAnalysis::empty_weeks(weekly.len());
        ShiftAnalysis::classify_family(&mut expect, &weekly);
        let mut grid = vec![0; weekly.len() * CC_SLOTS];
        for (row, bots) in grid.chunks_exact_mut(CC_SLOTS).zip(&weekly) {
            ShiftAnalysis::count_week(row, bots);
        }
        let mut got = ShiftAnalysis::empty_weeks(weekly.len());
        ShiftAnalysis::classify_grid(&mut got, &grid);
        assert_eq!(got, expect);
        // End to end: the weekly maps every job length builds classify
        // exactly like the dataset scan.
        let ds = shift_dataset();
        let expect = ShiftAnalysis::compute(&ds, &BotIndex::build(&ds));
        for (policy, ctx) in chunked_contexts(&ds) {
            let got = ShiftAnalysis::resume(&ctx, &mut ShiftState::default());
            assert_eq!(got, expect, "{policy:?}");
        }
    }

    #[test]
    fn carried_grids_match_a_fresh_count_at_every_watermark() {
        use crate::context::AnalysisContext;
        use crate::overview::test_support::{carry_fixture, for_each_watermark, CARRY_EPOCH};
        let ds = carry_fixture();
        let mut state = ShiftState::default();
        let mut watermarks = 0;
        for_each_watermark(&ds, CARRY_EPOCH, |w, prefix, folded| {
            let got = ShiftAnalysis::resume(folded, &mut state);
            let fresh = AnalysisContext::new(prefix);
            let expect = ShiftAnalysis::resume(&fresh, &mut ShiftState::default());
            assert_eq!(got, expect, "watermark {w}");
            assert_eq!(
                got,
                ShiftAnalysis::compute(prefix, &BotIndex::build(prefix)),
                "watermark {w}"
            );
            assert_eq!(ShiftAnalysis::resume(folded, &mut state), got);
            watermarks += 1;
        });
        assert_eq!(watermarks, 3);
        // Epoch 2 grew Dirtjumper's week-0 map (the DE bot) after week 0
        // had been counted, and epoch 3 brought BR in week 1.
        let s = ShiftAnalysis::resume(&AnalysisContext::new(&ds), &mut ShiftState::default());
        assert_eq!(s.weeks[0].new_country_bots, 4 + 3);
        assert_eq!(s.weeks[1].new_country_bots, 1);
        assert_eq!(s.weeks[1].existing_country_bots, 2 + 1);
    }

    #[test]
    fn unresolvable_sources_are_skipped() {
        // Attack sources missing from the Botlist are ignored, not
        // fabricated.
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 10, 1)]);
        let idx = BotIndex::build(&ds); // empty Botlist
        let s = ShiftAnalysis::compute(&ds, &idx);
        assert_eq!(s.total_existing() + s.total_new(), 0);
    }
}
