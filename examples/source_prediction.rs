//! Source prediction walkthrough (§IV-A, Table IV, Figs. 12–13).
//!
//! Runs the report with the chosen ARIMA order, then prints a family's
//! geolocation dispersion series and its Table IV row: the model fitted
//! on the first half, and rolling one-step predictions for the held-out
//! half next to the ground truth.
//!
//! ```sh
//! cargo run --release --example source_prediction [family] [p d q]
//! ```

use ddos_analytics::source::dispersion::MIN_ACTIVE_DAYS;
use ddos_analytics::Analysis;
use ddos_schema::Family;
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;

fn main() {
    let mut args = std::env::args().skip(1);
    let family: Family = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(Family::Dirtjumper);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let d: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let q: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let spec = ArimaSpec::new(p, d, q);

    eprintln!("generating 20% trace...");
    let trace = generate(&SimConfig {
        scale: 0.2,
        ..SimConfig::default()
    });
    let report = Analysis::new(&trace.dataset).spec(spec).run();

    match report.dispersion.iter().find(|d| d.family == family) {
        Some(dispersion) => println!(
            "{family}: {} dispersion snapshots over {} active days; {:.1}% symmetric",
            dispersion.series.len(),
            dispersion.active_days,
            dispersion.symmetric_fraction() * 100.0
        ),
        None => println!("{family}: active on fewer than {MIN_ACTIVE_DAYS} days (not in Fig. 9)"),
    }

    let excluded = report
        .prediction
        .excluded
        .iter()
        .find(|&&(f, _)| f == family);
    match (report.prediction.row(family), excluded) {
        (Some(row), _) => {
            let e = &row.forecast.eval;
            println!("\nmodel: {spec}");
            println!(
                "cosine similarity {:.3}; prediction mean {:.1} (std {:.1}) vs truth mean {:.1} (std {:.1})",
                e.cosine, e.pred_mean, e.pred_std, e.truth_mean, e.truth_std
            );
            println!(
                "mae {:.1} km, rmse {:.1} km over {} points",
                e.mae, e.rmse, e.n
            );
            println!("\nlast 20 one-step predictions (predicted vs actual, km):");
            let f = &row.forecast;
            let n = f.predictions.len();
            for i in n.saturating_sub(20)..n {
                println!(
                    "  {:>10.1}  {:>10.1}  (err {:+.1})",
                    f.predictions[i], f.truth[i], f.errors[i]
                );
            }
        }
        (None, Some((_, why))) => {
            println!("\n{family} is excluded from prediction: {why:?}");
            println!("(the paper excludes Darkshell for the same reason)");
        }
        (None, None) => println!("\n{family} is not an active family"),
    }
}
