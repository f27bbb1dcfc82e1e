//! Target profiling (§IV-B, Table V, Fig. 14).
//!
//! Prints each family's victim-country profile and the organization-level
//! hotspots, resolving organization names against the synthetic world.
//!
//! ```sh
//! cargo run --release --example target_profiling [family]
//! ```

use ddos_analytics::target::organization::{widest_presence, OrgAnalysis};
use ddos_analytics::AnalysisReport;
use ddos_schema::Family;
use ddos_sim::{generate, SimConfig};

fn main() {
    let focus: Family = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(Family::Pandora);

    eprintln!("generating 20% trace...");
    let trace = generate(&SimConfig {
        scale: 0.2,
        ..SimConfig::default()
    });
    let ds = &trace.dataset;
    let report = AnalysisReport::run(ds);

    println!("== Table V: country-level preferences ==");
    for profile in &report.target_countries {
        if profile.by_country.is_empty() {
            continue;
        }
        let top: Vec<String> = profile
            .top(5)
            .iter()
            .map(|(cc, n)| format!("{cc}={n}"))
            .collect();
        println!(
            "{:<14} {:>3} countries | {}",
            profile.family.name(),
            profile.countries,
            top.join(", ")
        );
    }

    println!("\noverall top victims:");
    for (cc, n) in &report.overall_targets {
        println!("  {cc}: {n}");
    }

    println!("\n== Fig. 14: {focus} organization-level hotspots ==");
    let orgs = OrgAnalysis::compute(ds, focus, None);
    for marker in orgs.markers.iter().take(12) {
        let (name, kind) = trace
            .geo
            .org(marker.org)
            .map(|o| (o.name.clone(), o.kind.label()))
            .unwrap_or_else(|| (marker.org.to_string(), "?"));
        println!(
            "  {name:<22} [{kind:<9}] at ({:>7.2}, {:>8.2}): {} attacks on {} addresses",
            marker.coords.lat, marker.coords.lon, marker.attacks, marker.targets
        );
    }
    println!(
        "{} organizations attacked by {focus} in total",
        orgs.organizations()
    );

    if let Some((family, n)) = widest_presence(ds) {
        println!("\nwidest presence: {family} with {n} organizations (paper: Dirtjumper)");
    }
}
