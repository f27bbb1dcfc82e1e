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

use crate::context::AnalysisContext;
use crate::kernels::CC_SLOTS;
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
    /// per-family `week × country` grids of distinct bots
    /// ([`crate::context::FamilyContext::bot_grid`]), which both context
    /// builds count from their single geolocation join. A country's bots
    /// count as "new" exactly in its first active week, the set rule of
    /// [`ShiftAnalysis::compute`] restated.
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

    /// Classifies one family's weekly bot populations into existing- vs
    /// new-country shifts and accumulates the counts. Per-bot counts
    /// depend only on the *set* of countries seen so far, so map
    /// iteration order (and therefore the caller's choice of hasher)
    /// cannot affect the result.
    fn classify_family(weeks: &mut [WeekShift], weekly: &[HashMap<IpAddr4, CountryCode>]) {
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
        // Weeks with repeats, gaps, and same-week multi-country mixes,
        // spread over several attacks a week so one-attack jobs must
        // dedup a bot across jobs, and a second family sighting the same
        // bots in the same weeks.
        let cc = |s: &str| -> CountryCode { s.parse().unwrap() };
        let ip = |n: u8| IpAddr4::from_octets(10, 0, 0, n);
        let countries = [
            (1, "RU"),
            (2, "RU"),
            (3, "UA"),
            (4, "DE"),
            (5, "DE"),
            (6, "BR"),
        ];
        let week = 7 * 86_400;
        let window = ddos_schema::Window::new(Timestamp(0), Timestamp(5 * week)).unwrap();
        let mut b = DatasetBuilder::new(window);
        for (n, country) in countries {
            b.push_bot(BotRecord {
                ip: ip(n),
                botnet: BotnetId(1),
                family: Family::Dirtjumper,
                location: Location {
                    country: cc(country),
                    city: CityId(u32::from(n)),
                    org: OrgId(1),
                    asn: Asn(64_001),
                    coords: LatLon::new_unchecked(50.0, f64::from(n)),
                },
                first_seen: Timestamp(0),
                last_seen: Timestamp(5 * week),
            })
            .unwrap();
        }
        let attacks = [
            (Family::Dirtjumper, 100, vec![1, 2]),
            (Family::Pandora, 200, vec![1]),
            (Family::Dirtjumper, 300, vec![2, 3]),
            (Family::Dirtjumper, 2 * week, vec![1, 4]),
            (Family::Pandora, 2 * week + 10, vec![6, 1]),
            (Family::Dirtjumper, 2 * week + 20, vec![5, 4]),
            (Family::Dirtjumper, 3 * week, vec![3, 6]),
        ];
        for (k, (family, start, sources)) in attacks.iter().enumerate() {
            let mut a = attack(*family, k as u64 + 1, *start, 60, 1);
            a.sources = sources.iter().map(|&n| ip(n)).collect();
            b.push_attack(a).unwrap();
        }
        let ds = b.build().unwrap();
        let dirtjumper: Vec<HashMap<IpAddr4, CountryCode>> = vec![
            [(ip(1), cc("RU")), (ip(2), cc("RU")), (ip(3), cc("UA"))]
                .into_iter()
                .collect(),
            HashMap::new(),
            [(ip(1), cc("RU")), (ip(4), cc("DE")), (ip(5), cc("DE"))]
                .into_iter()
                .collect(),
            [(ip(3), cc("UA")), (ip(6), cc("BR"))].into_iter().collect(),
            HashMap::new(),
        ];
        let mut set_rule = ShiftAnalysis::empty_weeks(dirtjumper.len());
        ShiftAnalysis::classify_family(&mut set_rule, &dirtjumper);
        let scan = ShiftAnalysis::compute(&ds, &BotIndex::build(&ds));
        // Every job length counts Dirtjumper's grid as the maps hold it,
        // and the grids classify like the dataset scan.
        for (policy, ctx) in chunked_contexts(&ds) {
            let fc = ctx.family(Family::Dirtjumper).unwrap();
            for (w, (row, bots)) in fc
                .bot_grid
                .chunks_exact(CC_SLOTS)
                .zip(&dirtjumper)
                .enumerate()
            {
                let mut expect = vec![0u32; CC_SLOTS];
                for &country in bots.values() {
                    expect[crate::kernels::cc_slot(country)] += 1;
                }
                assert_eq!(row, &expect[..], "{policy:?}: week {w}");
            }
            let mut got = ShiftAnalysis::empty_weeks(dirtjumper.len());
            ShiftAnalysis::classify_grid(&mut got, &fc.bot_grid);
            assert_eq!(got, set_rule, "{policy:?}");
            assert_eq!(ShiftAnalysis::compute_ctx(&ctx), scan, "{policy:?}");
        }
    }

    #[test]
    fn folded_grids_classify_like_a_fresh_build_at_every_watermark() {
        use crate::overview::test_support::{carry_fixture, for_each_watermark, CARRY_EPOCH};
        // The carry fixture's second epoch opens inside week 0 and adds
        // a DE bot to Dirtjumper's week 0, so the fold's marks must keep
        // week 0's bots counted across the ragged epoch boundary. The
        // second trace also re-records bot 2 in UA (it was RU) on day 5,
        // mid-week, so that append re-resolves the week-0 attacks that
        // used bot 2 and recounts their families' grids.
        let plain = carry_fixture();
        let mut b = DatasetBuilder::new(plain.window());
        for bot in plain.bots() {
            b.push_bot(*bot).unwrap();
        }
        let mut moved = plain.bots()[1];
        moved.location.country = "UA".parse().unwrap();
        moved.first_seen = Timestamp(5 * 86_400);
        b.push_bot(moved).unwrap();
        b.extend_attacks(plain.attacks().iter().cloned()).unwrap();
        let moved = b.build().unwrap();
        for ds in [&plain, &moved] {
            let mut watermarks = 0;
            for_each_watermark(ds, CARRY_EPOCH, |w, prefix, folded| {
                let fresh = AnalysisContext::new(prefix);
                for (a, b) in folded.families().iter().zip(fresh.families()) {
                    assert_eq!(a.bot_grid, b.bot_grid, "watermark {w}: {:?}", a.family);
                }
                let got = ShiftAnalysis::compute_ctx(folded);
                assert_eq!(got, ShiftAnalysis::compute_ctx(&fresh), "watermark {w}");
                assert_eq!(
                    got,
                    ShiftAnalysis::compute(prefix, &BotIndex::build(prefix)),
                    "watermark {w}"
                );
                watermarks += 1;
            });
            assert_eq!(watermarks, 3);
        }
        // Week 0 of Dirtjumper counts bot 1 in RU, bot 4 in DE, and bot 3
        // in UA, joined by bot 2 once it moved there.
        for (ds, ru, ua) in [(&plain, 2, 1), (&moved, 1, 2)] {
            let ctx = AnalysisContext::new(ds);
            let week0 = &ctx.family(Family::Dirtjumper).unwrap().bot_grid[..CC_SLOTS];
            let count = |c: &str| week0[crate::kernels::cc_slot(c.parse().unwrap())];
            assert_eq!((count("RU"), count("UA"), count("DE")), (ru, ua, 1));
        }
        let s = ShiftAnalysis::compute_ctx(&AnalysisContext::new(&plain));
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
