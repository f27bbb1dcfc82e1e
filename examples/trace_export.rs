//! Trace persistence round trip (the framed `DDTL` container and JSON).
//!
//! Generates a trace, writes it in both formats, reloads the binary, and
//! verifies the round trip — the workflow for sharing generated
//! workloads between machines.
//!
//! ```sh
//! cargo run --release --example trace_export [dir]
//! ```

use ddos_schema::{codec, framed};
use ddos_sim::{generate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("ddos-trace")
            .display()
            .to_string()
    });
    std::fs::create_dir_all(&dir)?;

    eprintln!("generating small trace...");
    let trace = generate(&SimConfig::small());
    let ds = &trace.dataset;
    println!(
        "generated {} attacks, {} bots, {} snapshot families",
        ds.len(),
        ds.bots().len(),
        ds.snapshot_families().count()
    );

    // Binary trace.
    let bin_path = format!("{dir}/trace.ddtl");
    let bytes = framed::encode(ds);
    std::fs::write(&bin_path, &bytes)?;
    println!("wrote {} ({} KiB)", bin_path, bytes.len() / 1024);

    // JSON interchange.
    let json_path = format!("{dir}/trace.json");
    let json = codec::to_json(ds);
    std::fs::write(&json_path, &json)?;
    println!("wrote {} ({} KiB)", json_path, json.len() / 1024);
    println!(
        "binary is {:.1}x denser than JSON",
        json.len() as f64 / bytes.len() as f64
    );

    // Reload and verify.
    let reloaded = framed::decode(&std::fs::read(&bin_path)?)?;
    assert_eq!(reloaded.attacks(), ds.attacks(), "binary round trip");
    assert_eq!(reloaded.bots(), ds.bots(), "bot records round trip");
    println!(
        "binary round trip verified: {} attacks identical",
        reloaded.len()
    );

    let from_json = codec::from_json(&std::fs::read_to_string(&json_path)?)?;
    assert_eq!(from_json.attacks(), ds.attacks(), "json round trip");
    println!("json round trip verified");
    Ok(())
}
