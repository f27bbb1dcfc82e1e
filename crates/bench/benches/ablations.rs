//! Ablation studies for the design choices DESIGN.md §6 calls out.
//!
//! This is a reporting harness, not a criterion bench: each ablation
//! swaps one design choice and prints the quality/performance impact, so
//! the numbers land in `bench_output.txt` next to the timing benches.
//!
//! Run directly: `cargo bench -p bench --bench ablations`

use std::time::Instant;

use bench::bench_trace;
use ddos_analytics::util::BotIndex;
use ddos_analytics::AnalysisReport;
use ddos_geo::{dispersion, mean_distance_km};
use ddos_schema::Family;
use ddos_stats::timeseries::forecast::split_forecast;
use ddos_stats::ArimaSpec;

fn main() {
    println!("=== ablations (DESIGN.md §6) ===\n");
    let report = AnalysisReport::run(&bench_trace().dataset);
    ablation_dispersion_metric();
    ablation_arima_order(&report);
    ablation_collab_window(&report);
    println!("=== ablations done ===");
}

/// Signed-sum (paper) vs conventional mean-distance dispersion.
///
/// At city-level geolocation resolution both metrics score exactly zero
/// for a single-city population, so the contrast needs the *jitter
/// ablation*: with street-level (25 km) per-address jitter, symmetric
/// populations still cancel under the signed metric (Fig. 9's zero mode
/// survives, slightly blurred) while the conventional mean distance
/// jumps to the jitter scale and the zero mode disappears entirely.
fn ablation_dispersion_metric() {
    println!("-- dispersion metric under 25 km street-level jitter --");
    let mut config = ddos_sim::SimConfig::small();
    config.geo.jitter_km = 25.0;
    let trace = ddos_sim::generate(&config);
    let bots = BotIndex::build(&trace.dataset);
    for family in [Family::Pandora, Family::Dirtjumper] {
        let mut signed_small = 0usize;
        let mut mean_small = 0usize;
        let mut n = 0usize;
        for a in trace.dataset.attacks_of(family) {
            let coords = bots.coords_of(&a.sources);
            let (Some(d), Some(md)) = (dispersion(&coords), mean_distance_km(&coords)) else {
                continue;
            };
            n += 1;
            // "Near zero" = below twice the jitter radius.
            if d.value() <= 50.0 {
                signed_small += 1;
            }
            if md <= 50.0 {
                mean_small += 1;
            }
        }
        println!(
            "{family}: near-zero share signed {:.3} vs mean-distance {:.3} ({n} snapshots)",
            signed_small as f64 / n.max(1) as f64,
            mean_small as f64 / n.max(1) as f64
        );
    }
    println!(
        "(the signed sum accumulates jitter ~sqrt(n): its zero mode needs city-level resolution)"
    );
}

/// ARIMA order grid on the Dirtjumper dispersion series: (2,1,1) is the
/// default; the grid shows the similarity is not an artifact of one
/// lucky order.
fn ablation_arima_order(report: &AnalysisReport) {
    let series = report
        .dispersion
        .iter()
        .find(|d| d.family == Family::Dirtjumper)
        .expect("dirtjumper qualifies for Fig. 9")
        .asymmetric_values();
    println!(
        "-- ARIMA order grid (dirtjumper, {} points) --",
        series.len()
    );
    for (p, d, q) in [
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
        (2, 1, 1),
        (3, 1, 2),
        (2, 0, 2),
    ] {
        let spec = ArimaSpec::new(p, d, q);
        let t0 = Instant::now();
        match split_forecast(&series, spec, Some(2_700)) {
            Ok(sf) => println!(
                "{spec}: cosine {:.3}, rmse {:.1} km, fit {:?}",
                sf.eval.cosine,
                sf.eval.rmse,
                t0.elapsed()
            ),
            Err(e) => println!("{spec}: failed ({e})"),
        }
    }
    println!();
}

/// Sensitivity of the Table VI rule to its two windows: widening either
/// inflates the pair counts — the paper's 60 s / 30 min choice sits
/// before the false-positive blow-up.
fn ablation_collab_window(report: &AnalysisReport) {
    let ds = &bench_trace().dataset;
    println!("-- collaboration window sensitivity --");
    let base = &report.collaborations;
    println!(
        "rule 60s/30min (paper): {} pairs, {} events",
        base.pairs.len(),
        base.events.len()
    );
    // Count raw same-target co-starts at wider windows (no duration rule)
    // to show how fast candidates grow.
    use std::collections::HashMap;
    let mut by_target: HashMap<ddos_schema::IpAddr4, Vec<&ddos_schema::AttackRecord>> =
        HashMap::new();
    for a in ds.attacks() {
        by_target.entry(a.target_ip).or_default().push(a);
    }
    for window_s in [30i64, 60, 120, 300, 900] {
        let mut candidates = 0usize;
        for list in by_target.values() {
            for (i, a) in list.iter().enumerate() {
                for b in &list[i + 1..] {
                    if (b.start - a.start).get() > window_s {
                        break;
                    }
                    if a.botnet != b.botnet {
                        candidates += 1;
                    }
                }
            }
        }
        println!("start window {window_s:>4}s: {candidates} same-target candidate pairs");
    }
    println!();
}
