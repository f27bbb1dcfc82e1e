//! Table III — the workload summary.
//!
//! The distinct-count machinery lives in [`ddos_schema::SummarySets`]:
//! [`ddos_schema::Dataset::summary`] fills one set per column in a scan,
//! and the epoch fold fills one set per epoch and unions it into its own.
//! This module wraps the counts with the paper's reference values so
//! reports and tests can show paper-vs-measured side by side.

use ddos_schema::{Dataset, DatasetSummary};
use serde::{Deserialize, Serialize};

/// The paper's Table III values, for comparison columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperSummary {
    /// Attacker-side `(ips, cities, countries, organizations, asns)`.
    pub attackers: (usize, usize, usize, usize, usize),
    /// Victim-side `(ips, cities, countries, organizations, asns)`.
    pub victims: (usize, usize, usize, usize, usize),
    /// Total attacks.
    pub attacks: usize,
    /// Total botnet generations.
    pub botnets: usize,
    /// Distinct traffic types.
    pub traffic_types: usize,
}

/// Table III as printed in the paper.
pub const PAPER_TABLE_III: PaperSummary = PaperSummary {
    attackers: (310_950, 2_897, 186, 3_498, 3_973),
    victims: (9_026, 616, 84, 1_074, 1_260),
    attacks: 50_704,
    botnets: 674,
    traffic_types: 7,
};

/// A measured summary next to the paper's reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryComparison {
    /// Distinct counts measured on the dataset at hand.
    pub measured: DatasetSummary,
    /// The paper's Table III.
    pub paper: PaperSummary,
}

impl SummaryComparison {
    /// Computes the measured summary and pairs it with the reference.
    pub fn compute(ds: &Dataset) -> SummaryComparison {
        Self::of(ds.summary())
    }

    /// Pairs an already-counted summary with the reference.
    pub fn of(measured: DatasetSummary) -> SummaryComparison {
        SummaryComparison {
            measured,
            paper: PAPER_TABLE_III,
        }
    }

    /// Relative error of a measured count against the paper value
    /// (`|measured − paper| / paper`).
    pub fn relative_error(measured: usize, paper: usize) -> f64 {
        if paper == 0 {
            return if measured == 0 { 0.0 } else { f64::INFINITY };
        }
        (measured as f64 - paper as f64).abs() / paper as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_the_table() {
        assert_eq!(PAPER_TABLE_III.attacks, 50_704);
        assert_eq!(PAPER_TABLE_III.botnets, 674);
        assert_eq!(PAPER_TABLE_III.attackers.0, 310_950);
        assert_eq!(PAPER_TABLE_III.victims.2, 84);
    }

    #[test]
    fn relative_error_behaviour() {
        assert_eq!(SummaryComparison::relative_error(100, 100), 0.0);
        assert!((SummaryComparison::relative_error(110, 100) - 0.1).abs() < 1e-12);
        assert_eq!(SummaryComparison::relative_error(0, 0), 0.0);
        assert!(SummaryComparison::relative_error(5, 0).is_infinite());
    }

    #[test]
    fn compute_wraps_dataset_summary() {
        use crate::overview::test_support::{attack, dataset};
        use ddos_schema::Family;
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 0, 10, 1)]);
        let cmp = SummaryComparison::compute(&ds);
        assert_eq!(cmp.measured.attacks, 1);
        assert_eq!(cmp.paper.attacks, 50_704);
    }
}
