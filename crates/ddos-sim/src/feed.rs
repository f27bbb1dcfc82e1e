//! The monitoring feed's hourly-report mechanism (§II-B).
//!
//! The vendor publishes, per family, *"a snapshot ... every hour ...
//! There are 24 hourly reports per day for each botnet family. The set
//! of bots or controllers listed in each report are cumulative over the
//! past 24 hours. The 24-hour time span is measured using the timestamp
//! of the last known bot activity and the time of logged snapshot."*
//!
//! This module reconstructs that report stream from a trace: a bot is
//! listed in the report at hour `t` when it participated in an attack in
//! `(t − 24h, t]`. [`ActivityLog::report_population`] computes the whole
//! population curve with a sliding window; [`ActivityLog::report_at`]
//! materializes one report (full-scale streams would hold hundreds of
//! millions of entries, so whole-stream materialization is deliberately
//! not offered).

use std::collections::HashMap;

use ddos_schema::{Dataset, Family, IpAddr4, Seconds, Timestamp};

/// One hourly report: the bots active in the trailing 24 hours, with
/// their last-activity timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct HourlyReport {
    /// The family reported on.
    pub family: Family,
    /// The report instant (top of an hour).
    pub taken_at: Timestamp,
    /// `(bot, last activity ≤ taken_at)` for every bot active in the
    /// trailing 24 hours, sorted by address.
    pub bots: Vec<(IpAddr4, Timestamp)>,
}

/// Per-bot activity instants of one family, time-sorted.
///
/// Build once, query many reports.
#[derive(Debug, Clone)]
pub struct ActivityLog {
    family: Family,
    /// `(instant, bot)` sorted by instant.
    events: Vec<(Timestamp, IpAddr4)>,
}

impl ActivityLog {
    /// Extracts the activity log from a trace (every attack start is an
    /// activity instant for each participating bot).
    pub fn build(ds: &Dataset, family: Family) -> ActivityLog {
        let mut events = Vec::new();
        for a in ds.attacks_of(family) {
            for &ip in &a.sources {
                events.push((a.start, ip));
            }
        }
        events.sort_unstable_by_key(|&(t, ip)| (t, ip));
        ActivityLog { family, events }
    }

    /// Number of activity events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The population count of every hourly report across the window:
    /// `(report instant, distinct bots in the trailing 24 h)`. One
    /// sliding-window pass over the activity log.
    pub fn report_population(&self, ds: &Dataset) -> Vec<(Timestamp, usize)> {
        let window = ds.window();
        let mut out = Vec::new();
        let mut lo = 0usize; // first event inside the trailing window
        let mut hi = 0usize; // first event after the report instant
        let mut counts: HashMap<IpAddr4, u32> = HashMap::new();
        for t in window.hours() {
            let cutoff = t - Seconds::DAY;
            while hi < self.events.len() && self.events[hi].0 <= t {
                *counts.entry(self.events[hi].1).or_insert(0) += 1;
                hi += 1;
            }
            while lo < hi && self.events[lo].0 <= cutoff {
                let ip = self.events[lo].1;
                let c = counts.get_mut(&ip).expect("entered before leaving");
                *c -= 1;
                if *c == 0 {
                    counts.remove(&ip);
                }
                lo += 1;
            }
            out.push((t, counts.len()));
        }
        out
    }

    /// Materializes the report at one instant (rounded down to the
    /// hour): the bots active in the trailing 24 hours with their last
    /// activity time.
    pub fn report_at(&self, at: Timestamp) -> HourlyReport {
        let taken_at = at.floor_hour();
        let cutoff = taken_at - Seconds::DAY;
        let mut last: HashMap<IpAddr4, Timestamp> = HashMap::new();
        // Events are time-sorted: binary search the window bounds.
        let start = self.events.partition_point(|&(t, _)| t <= cutoff);
        let end = self.events.partition_point(|&(t, _)| t <= taken_at);
        for &(t, ip) in &self.events[start..end] {
            let e = last.entry(ip).or_insert(t);
            *e = (*e).max(t);
        }
        let mut bots: Vec<(IpAddr4, Timestamp)> = last.into_iter().collect();
        bots.sort_unstable_by_key(|&(ip, _)| ip);
        HourlyReport {
            family: self.family,
            taken_at,
            bots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, SimConfig};

    fn small() -> crate::GeneratedTrace {
        let mut config = SimConfig::small();
        config.snapshots = false;
        generate(&config)
    }

    #[test]
    fn report_lists_exactly_the_trailing_day() {
        let trace = small();
        let ds = &trace.dataset;
        let log = ActivityLog::build(ds, Family::Dirtjumper);
        assert!(!log.is_empty());
        // Pick an instant in the middle of dirtjumper's activity.
        let mid = ds
            .attacks_of(Family::Dirtjumper)
            .nth(log.len() / 40)
            .unwrap()
            .start;
        let report = log.report_at(mid);
        assert_eq!(report.taken_at, mid.floor_hour());
        assert!(!report.bots.is_empty());
        let cutoff = report.taken_at - Seconds::DAY;
        for &(ip, last) in &report.bots {
            assert!(last > cutoff && last <= report.taken_at);
            // The listed bot really participated at that instant.
            let participated = ds
                .attacks_of(Family::Dirtjumper)
                .any(|a| a.start == last && a.sources.contains(&ip));
            assert!(participated, "bot {ip} last activity {last} not found");
        }
    }

    #[test]
    fn population_curve_matches_materialized_reports() {
        let trace = small();
        let ds = &trace.dataset;
        let log = ActivityLog::build(ds, Family::Pandora);
        let curve = log.report_population(ds);
        assert_eq!(curve.len(), ds.window().hours().count());
        // Cross-check a scatter of hours against report_at.
        for &(t, count) in curve.iter().step_by(curve.len() / 24 + 1) {
            let report = log.report_at(t);
            assert_eq!(report.bots.len(), count, "at {t}");
        }
    }

    #[test]
    fn population_is_zero_outside_activity() {
        let trace = small();
        let ds = &trace.dataset;
        // Darkshell is only active days 5..=17: before that, reports are
        // empty; during the burst they are not.
        let log = ActivityLog::build(ds, Family::Darkshell);
        let curve = log.report_population(ds);
        assert_eq!(curve[24].1, 0, "day 1 should be quiet");
        let peak = curve.iter().map(|&(_, c)| c).max().unwrap();
        assert!(peak > 0, "darkshell burst invisible");
    }

    #[test]
    fn idle_family_produces_empty_log() {
        let trace = small();
        // Dormant families never attack.
        let log = ActivityLog::build(&trace.dataset, Family::Zemra);
        assert!(log.is_empty());
        let report = log.report_at(trace.dataset.window().start + Seconds::days(3));
        assert!(report.bots.is_empty());
    }

    #[test]
    fn reports_are_cumulative_within_a_day() {
        // A bot active at hour h appears in every report up to h+24.
        let trace = small();
        let ds = &trace.dataset;
        let log = ActivityLog::build(ds, Family::Dirtjumper);
        let attack = ds.attacks_of(Family::Dirtjumper).nth(10).unwrap();
        let bot = attack.sources[0];
        let t0 = attack.start;
        for hours_later in [1i64, 6, 23] {
            let report = log.report_at(t0 + Seconds::hours(hours_later));
            assert!(
                report.bots.iter().any(|&(ip, _)| ip == bot),
                "bot missing {hours_later}h later"
            );
        }
        // 25 hours later the bot is gone unless it re-participated.
        let later = log.report_at(t0 + Seconds::hours(25));
        let reappeared = ds.attacks_of(Family::Dirtjumper).any(|a| {
            a.start > t0 && a.start <= t0 + Seconds::hours(25) && a.sources.contains(&bot)
        });
        if !reappeared {
            assert!(!later.bots.iter().any(|&(ip, _)| ip == bot));
        }
    }
}
