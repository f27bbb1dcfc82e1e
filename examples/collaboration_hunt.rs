//! Collaboration hunting (§V, Table VI, Figs. 15–18).
//!
//! Reads the report's concurrent collaborations (same target, starts
//! within 60 s, durations within 30 min, different botnets) and
//! multistage chains, then prints the Table VI breakdown and the
//! flagship Dirtjumper×Pandora pairing.
//!
//! ```sh
//! cargo run --release --example collaboration_hunt
//! ```

use ddos_analytics::AnalysisReport;
use ddos_schema::Family;
use ddos_sim::{generate, SimConfig};

fn main() {
    eprintln!("generating 20% trace...");
    let trace = generate(&SimConfig {
        scale: 0.2,
        ..SimConfig::default()
    });
    let report = AnalysisReport::run(&trace.dataset);

    let collab = &report.collaborations;
    println!("== concurrent collaborations (Table VI) ==");
    println!(
        "{} qualifying pairs clustered into {} events\n",
        collab.pairs.len(),
        collab.events.len()
    );
    println!(
        "{:<14} {:>12} {:>12}",
        "family", "intra pairs", "inter pairs"
    );
    for family in Family::ACTIVE {
        let intra = collab.intra_pairs.get(&family).copied().unwrap_or(0);
        let inter = collab.inter_pairs.get(&family).copied().unwrap_or(0);
        if intra + inter > 0 {
            println!("{:<14} {intra:>12} {inter:>12}", family.name());
        }
    }
    if let Some(avg) = collab.mean_botnets_per_event(Family::Dirtjumper) {
        println!("\ndirtjumper: {avg:.2} botnets per event on average (paper 2.19)");
    }

    if let Some(focus) = &report.flagship_pair {
        println!("\n== dirtjumper x pandora (Fig. 16) ==");
        println!(
            "{} events | {} unique targets | {} countries | {} orgs | {} ASes",
            focus.series.len(),
            focus.unique_targets,
            focus.countries.len(),
            focus.organizations,
            focus.asns
        );
        println!(
            "mean durations: dirtjumper {:.0}s, pandora {:.0}s (paper: 5083s / 6420s)",
            focus.mean_duration_a, focus.mean_duration_b
        );
    }

    let chains = &report.multistage;
    println!("\n== multistage chains (§V-B) ==");
    println!(
        "{} chains over {} chained attacks; families: {:?}",
        chains.chains.len(),
        chains.chains.iter().map(|c| c.len()).sum::<usize>(),
        chains
            .chain_families()
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
    );
    if let Some(longest) = chains.longest() {
        println!(
            "longest chain: {} links by {} against {}",
            longest.len(),
            longest.families[0],
            longest.target
        );
    }
    if let Some(cdf) = chains.gap_cdf() {
        println!(
            "gaps: {:.0}% within 10s, {:.0}% within 30s (paper ~65% / ~80%)",
            cdf.eval(10.0) * 100.0,
            cdf.eval(30.0) * 100.0
        );
    }
}
