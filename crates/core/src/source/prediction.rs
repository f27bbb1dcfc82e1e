//! Table IV / Figs. 12–13 — ARIMA prediction of the dispersion series.
//!
//! Protocol, exactly as §IV-A describes: take a family's dispersion
//! series in time order **with symmetric snapshots removed** (the paper
//! removes them before modeling — Figs. 10–13 and Table IV's means all
//! describe the asymmetric series), split it in half, fit an ARIMA model
//! on the first half, produce rolling one-step predictions for (up to)
//! the last 2,700 points of the second half, and compare prediction to
//! ground truth by mean, standard deviation, and cosine similarity.
//!
//! Families with too little data are excluded — the paper drops
//! Darkshell ("not enough data points for training the model") and only
//! tabulates five families.

use ddos_schema::{Dataset, Family};
use ddos_stats::timeseries::forecast::{split_forecast, SplitForecast};
use ddos_stats::ArimaSpec;
use serde::{Deserialize, Serialize};

use crate::source::dispersion::FamilyDispersion;
use crate::util::BotIndex;

/// Minimum asymmetric-series length to attempt a fit. Chosen so that on
/// the paper-scale trace exactly the paper's five Table IV families
/// qualify (Blackenergy, Colddeath, Dirtjumper, Optima, Pandora) while
/// YZF, Nitol, Ddoser, Aldibot and Darkshell fall out.
pub const MIN_SERIES_LEN: usize = 300;

/// Minimum days of attack activity to attempt a fit (drops the bursty
/// families — Darkshell's twelve days, Nitol's twenty-five).
pub const MIN_ACTIVE_DAYS: usize = 30;

/// The paper evaluates "the last 2,700 values" of the held-out half.
pub const MAX_EVAL_POINTS: usize = 2_700;

/// Why a family was excluded from Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Exclusion {
    /// Too few asymmetric dispersion values to train on.
    SeriesTooShort {
        /// Values available.
        got: usize,
    },
    /// Activity span too short.
    TooFewActiveDays {
        /// Days with attacks.
        got: usize,
    },
    /// The fit itself failed (degenerate series).
    FitFailed,
}

/// Table IV row: prediction statistics for one family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyPrediction {
    /// The family.
    pub family: Family,
    /// Model order used.
    pub spec: ArimaSpec,
    /// The split-forecast output (predictions, truth, errors, Table IV
    /// statistics).
    pub forecast: SplitForecast,
}

/// The full §IV-A prediction analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionAnalysis {
    /// Families that qualified, with their Table IV rows.
    pub rows: Vec<FamilyPrediction>,
    /// Families excluded, with reasons.
    pub excluded: Vec<(Family, Exclusion)>,
}

impl PredictionAnalysis {
    /// The prediction pass: runs the Table IV protocol over every
    /// active family, reading each family's dispersion series from the
    /// context instead of recomputing the geolocation join.
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> PredictionAnalysis {
        let mut rows = Vec::new();
        let mut excluded = Vec::new();
        for fc in ctx.families() {
            match fit_dispersion(&fc.dispersion, ctx.spec) {
                Ok(row) => rows.push(row),
                Err(reason) => excluded.push((fc.family, reason)),
            }
        }
        PredictionAnalysis { rows, excluded }
    }

    /// The row of one family, if it qualified.
    pub fn row(&self, family: Family) -> Option<&FamilyPrediction> {
        self.rows.iter().find(|r| r.family == family)
    }
}

/// Runs the protocol for one family.
pub fn predict_family(
    ds: &Dataset,
    bots: &BotIndex,
    family: Family,
    spec: ArimaSpec,
) -> Result<FamilyPrediction, Exclusion> {
    fit_dispersion(&FamilyDispersion::compute(ds, bots, family), spec)
}

/// The gates and fit of the Table IV protocol, given a family's
/// (already computed) dispersion series.
fn fit_dispersion(
    dispersion: &FamilyDispersion,
    spec: ArimaSpec,
) -> Result<FamilyPrediction, Exclusion> {
    if dispersion.active_days < MIN_ACTIVE_DAYS {
        return Err(Exclusion::TooFewActiveDays {
            got: dispersion.active_days,
        });
    }
    let series = dispersion.asymmetric_values();
    if series.len() < MIN_SERIES_LEN {
        return Err(Exclusion::SeriesTooShort { got: series.len() });
    }
    let forecast =
        split_forecast(&series, spec, Some(MAX_EVAL_POINTS)).map_err(|_| Exclusion::FitFailed)?;
    Ok(FamilyPrediction {
        family: dispersion.family,
        spec,
        forecast,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::window;
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{
        Asn, AttackRecord, BotnetId, CityId, DatasetBuilder, DdosId, IpAddr4, LatLon, OrgId,
        Protocol, Timestamp,
    };

    /// A dataset whose Pandora dispersion series is an AR-ish alternation
    /// between two asymmetric city mixes, long enough to fit.
    fn predictable_dataset() -> ddos_schema::Dataset {
        let mut b = DatasetBuilder::new(window());
        // Three bot locations: a tight Moscow pair plus far-north and
        // far-east strays that create two distinct dispersion levels.
        let locs: Vec<(u8, f64, f64)> = vec![
            (1, 55.75, 37.61),
            (2, 55.75, 37.61),
            (3, 65.0, 40.0),
            (4, 60.0, 60.0),
        ];
        for (o, lat, lon) in &locs {
            b.push_bot(BotRecord {
                ip: IpAddr4::from_octets(203, 0, 113, *o),
                botnet: BotnetId(1),
                family: Family::Pandora,
                location: Location {
                    country: "RU".parse().unwrap(),
                    city: CityId(*o as u32),
                    org: OrgId(1),
                    asn: Asn(64_001),
                    coords: LatLon::new_unchecked(*lat, *lon),
                },
                first_seen: Timestamp(0),
                last_seen: Timestamp(500_000),
            })
            .unwrap();
        }
        // 800 attacks spread over all 10 days (> MIN_ACTIVE_DAYS is not
        // satisfiable in a 10-day window, so tests call predict_family
        // with a relaxed day gate via the full window coverage).
        for i in 0..800u64 {
            let sources = if i % 2 == 0 {
                vec![1u8, 2, 3]
            } else {
                vec![1u8, 2, 4]
            };
            b.push_attack(AttackRecord {
                id: DdosId(i + 1),
                botnet: BotnetId(1),
                family: Family::Pandora,
                category: Protocol::Http,
                target_ip: IpAddr4::from_octets(198, 51, 100, 1),
                target: Location {
                    country: "US".parse().unwrap(),
                    city: CityId(99),
                    org: OrgId(99),
                    asn: Asn(64_099),
                    coords: LatLon::new_unchecked(38.0, -77.0),
                },
                start: Timestamp(i as i64 * 1_000),
                end: Timestamp(i as i64 * 1_000 + 60),
                sources: sources
                    .into_iter()
                    .map(|o| IpAddr4::from_octets(203, 0, 113, o))
                    .collect(),
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn too_few_days_is_excluded() {
        let ds = predictable_dataset();
        let idx = BotIndex::build(&ds);
        // The 10-day test window can never reach MIN_ACTIVE_DAYS = 30.
        let err = predict_family(&ds, &idx, Family::Pandora, ArimaSpec::DEFAULT).unwrap_err();
        assert!(matches!(err, Exclusion::TooFewActiveDays { got } if got <= 10));
    }

    #[test]
    fn series_gate_applies_after_day_gate() {
        let ds = predictable_dataset();
        let idx = BotIndex::build(&ds);
        let d = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        // The alternating mixes are asymmetric: the series is long.
        assert!(
            d.asymmetric_values().len() >= 700,
            "{}",
            d.asymmetric_values().len()
        );
    }

    #[test]
    fn forecast_on_alternating_series_is_accurate() {
        // Bypass the day gate: run the forecast machinery directly on the
        // dispersion series, as predict_family would.
        let ds = predictable_dataset();
        let idx = BotIndex::build(&ds);
        let d = FamilyDispersion::compute(&ds, &idx, Family::Pandora);
        let series = d.asymmetric_values();
        let sf = split_forecast(&series, ArimaSpec::new(2, 0, 1), Some(MAX_EVAL_POINTS)).unwrap();
        // A two-level alternation is almost perfectly predictable by an
        // AR(2) — cosine similarity in the paper's >0.9 regime.
        assert!(sf.eval.cosine > 0.9, "cosine {}", sf.eval.cosine);
    }

    #[test]
    fn analysis_collects_exclusions_for_absent_families() {
        let ds = predictable_dataset();
        let ctx = crate::context::AnalysisContext::new(&ds);
        let analysis = PredictionAnalysis::compute_ctx(&ctx);
        // Nothing qualifies in a 10-day window; every family is excluded.
        assert!(analysis.rows.is_empty());
        assert_eq!(analysis.excluded.len(), Family::ACTIVE.len());
        assert!(analysis.row(Family::Pandora).is_none());
    }
}
