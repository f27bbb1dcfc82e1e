//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                 # full-scale trace, all experiments
//! repro t4 f12 f13      # only the listed experiments
//! repro --scale 0.1 f7  # scaled-down trace
//! repro --md            # emit EXPERIMENTS.md content (paper vs measured)
//! repro --out DIR       # write each artifact to DIR/<id>.txt
//! repro --list          # list experiment ids
//! repro --telemetry-json FILE  # write the run's span/metric telemetry
//! repro --report-digest # print the golden-trace report digest
//! repro --soak N        # N seeded differential rounds over the variant
//!                       # matrix; writes SOAK_FAILURE.json on divergence
//! repro --soak N --soak-seed 0xBEEF  # replay a specific seed
//! repro --soak N --soak-full --scale 1.0  # weekly paper-scale soak
//! ```
//!
//! Every argument is checked before a trace is generated: an unknown
//! flag or experiment id, a missing or malformed value, or an argument
//! the chosen mode does not take prints one line naming it to stderr
//! and exits non-zero. `--list` and `--report-digest` take no other
//! argument; `--soak` takes only `--soak-seed`, `--soak-full`, `--scale`
//! and `--telemetry-json`, and the two `--soak-*` flags need it; `--md`
//! takes only `--scale` and `--telemetry-json`. Timing lives in the
//! `perfbench/` workspace, not here.

use std::process::ExitCode;

use ddos_analytics::AnalysisReport;
use ddos_obs::Obs;
use ddos_report::{compare, paper_comparisons, render, EXPERIMENTS};
use ddos_sim::{generate, SimConfig};

/// One invocation's arguments, parsed and checked up front.
#[derive(Default)]
struct Args {
    /// `--scale`, when given; each mode has its own default.
    scale: Option<f64>,
    /// Experiment ids, each one of [`EXPERIMENTS`].
    ids: Vec<String>,
    emit_md: bool,
    list: bool,
    report_digest: bool,
    soak_rounds: Option<u32>,
    soak_seed: Option<u64>,
    soak_full: bool,
    out_dir: Option<String>,
    telemetry_out: Option<String>,
}

/// The value after `flag`; a following flag is no value.
fn value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
) -> Result<&'a str, String> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} takes {what}"))
}

/// Parses a decimal or `0x`-hex u64.
fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    // Every argument but flag values, as given: what the mode check
    // below names.
    let mut given: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        given.push(arg);
        match arg.as_str() {
            "--scale" => {
                let raw = value(&mut it, "--scale", "a number")?;
                let scale: f64 = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --scale {raw:?}: want a positive number"))?;
                parsed.scale = Some(scale);
            }
            "--out" => parsed.out_dir = Some(value(&mut it, "--out", "a directory")?.into()),
            "--telemetry-json" => {
                parsed.telemetry_out = Some(value(&mut it, "--telemetry-json", "a file")?.into());
            }
            "--md" => parsed.emit_md = true,
            "--list" => parsed.list = true,
            "--report-digest" => parsed.report_digest = true,
            "--soak" => {
                let raw = value(&mut it, "--soak", "a round count")?;
                let rounds = raw
                    .parse()
                    .map_err(|_| format!("bad --soak {raw:?}: want a round count"))?;
                parsed.soak_rounds = Some(rounds);
            }
            "--soak-seed" => {
                let raw = value(&mut it, "--soak-seed", "a seed")?;
                let seed = parse_seed(raw).ok_or_else(|| {
                    format!("bad --soak-seed {raw:?}: want a decimal or 0x-hex u64")
                })?;
                parsed.soak_seed = Some(seed);
            }
            "--soak-full" => parsed.soak_full = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id if EXPERIMENTS.iter().any(|e| e.id == id) => parsed.ids.push(id.to_string()),
            id => return Err(format!("unknown experiment id {id:?} (try --list)")),
        }
    }
    check_mode(&parsed, &given)?;
    Ok(parsed)
}

/// Rejects an argument the chosen mode would ignore.
fn check_mode(parsed: &Args, given: &[&str]) -> Result<(), String> {
    if parsed.soak_rounds.is_none() {
        if let Some(flag) = given
            .iter()
            .find(|&&a| a == "--soak-seed" || a == "--soak-full")
        {
            return Err(format!("{flag} requires --soak"));
        }
    }
    let (mode, takes): (&str, &[&str]) = if parsed.list {
        ("--list", &[])
    } else if parsed.report_digest {
        ("--report-digest", &[])
    } else if parsed.soak_rounds.is_some() {
        (
            "--soak",
            &["--soak-seed", "--soak-full", "--scale", "--telemetry-json"],
        )
    } else if parsed.emit_md {
        ("--md", &["--scale", "--telemetry-json"])
    } else {
        return Ok(());
    };
    match given.iter().find(|&&a| a != mode && !takes.contains(&a)) {
        Some(arg) => Err(format!("{mode} does not take {arg:?}")),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(args) => {
            run(args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) {
    if args.list {
        for e in EXPERIMENTS {
            println!("{:<4} {} — {}", e.id, e.title, e.description);
        }
        return;
    }
    if args.report_digest {
        run_report_digest();
        return;
    }
    if let Some(rounds) = args.soak_rounds {
        // Soak defaults to the CI smoke scale unless --scale overrides
        // it (weekly paper-scale runs pass --scale 1.0 explicitly).
        let soak_scale = args.scale.unwrap_or(0.05);
        run_soak_mode(
            rounds,
            args.soak_seed,
            soak_scale,
            args.soak_full,
            args.telemetry_out,
        );
        return;
    }

    let scale = args.scale.unwrap_or(1.0);
    eprintln!("generating trace at scale {scale}...");
    let t0 = std::time::Instant::now();
    let trace = generate(&SimConfig {
        scale,
        ..SimConfig::default()
    });
    eprintln!(
        "generated {} attacks in {:?}; running analyses...",
        trace.dataset.len(),
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();
    let report = AnalysisReport::run(&trace.dataset);
    eprintln!("analysis pipeline finished in {:?}\n", t1.elapsed());

    if let Some(path) = &args.telemetry_out {
        let json = serde_json::to_string_pretty(&report.telemetry).expect("telemetry serializes");
        std::fs::write(path, json).expect("writing telemetry json");
        eprintln!("wrote {path}");
        // Telemetry-only invocation: done once the artifact is written.
        if args.ids.is_empty() && !args.emit_md && args.out_dir.is_none() {
            return;
        }
    }

    if args.emit_md {
        print!("{}", experiments_markdown(scale, &trace, &report));
        return;
    }

    let selected: Vec<&str> = if args.ids.is_empty() {
        EXPERIMENTS.iter().map(|e| e.id).collect()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("creating --out directory");
    }
    for id in selected {
        let out = render(id, &trace, &report).expect("ids are checked against EXPERIMENTS");
        if let Some(dir) = &args.out_dir {
            let path = format!("{dir}/{id}.txt");
            std::fs::write(&path, &out).expect("writing artifact");
            eprintln!("wrote {path}");
        } else {
            println!("======================================================");
            println!("=== {id}");
            println!("======================================================");
            println!("{out}");
        }
    }
    if let Some(dir) = &args.out_dir {
        // The comparison summary rides along for free.
        let md = experiments_markdown(scale, &trace, &report);
        let path = format!("{dir}/EXPERIMENTS.md");
        std::fs::write(&path, md).expect("writing comparison");
        eprintln!("wrote {path}");
    }
}

/// Prints the FNV-1a 64 digest of the golden trace's full report — the
/// value `tests/golden/report_small.digest` pins. Regenerate the file
/// with `repro --report-digest > tests/golden/report_small.digest`
/// after an intentional report change.
fn run_report_digest() {
    let cfg = SimConfig::small();
    let trace = generate(&cfg);
    let report = AnalysisReport::run(&trace.dataset);
    let json = serde_json::to_string(&report).expect("report serializes");
    println!("{}", ddos_obs::fnv1a_64_hex(json.as_bytes()));
    eprintln!(
        "golden trace: scale {}, seed {:#x}, {} attacks, {} report bytes",
        cfg.scale,
        cfg.seed,
        trace.dataset.len(),
        json.len()
    );
}

/// `--soak N`: seeded differential soak over the variant matrix (see
/// `ddos-testkit`). Green rounds print a table row each; the first
/// divergence writes `SOAK_FAILURE.json` (the CI artifact), prints the
/// one-line repro command, and exits non-zero.
fn run_soak_mode(
    rounds: u32,
    base_seed: Option<u64>,
    scale: f64,
    full_matrix: bool,
    telemetry_out: Option<String>,
) {
    let opts = ddos_testkit::SoakOptions {
        rounds,
        base_seed: base_seed.unwrap_or(ddos_testkit::SoakOptions::default().base_seed),
        scale,
        full_matrix,
        faults: true,
    };
    eprintln!(
        "soak: {} rounds, base seed {:#x}, scale {}, {} matrix, faults {}",
        opts.rounds,
        opts.base_seed,
        opts.scale,
        if opts.full_matrix { "full" } else { "curated" },
        if ddos_testkit::failpoints::ACTIVE {
            "on"
        } else {
            "off (release build)"
        },
    );
    let obs = Obs::enabled();
    println!("round  seed                cells  serve  probe                  digest");
    let result = ddos_testkit::run_soak(&opts, &obs, |r| {
        println!(
            "{:<5}  {:#018x}  {:<5}  {:<5}  {:<21}  {}",
            r.round,
            r.seed,
            r.cells,
            r.serve_epochs,
            r.probed.as_deref().unwrap_or("-"),
            r.digest
        );
    });
    if let Some(path) = &telemetry_out {
        let telemetry = obs.finish(false);
        let json = serde_json::to_string_pretty(&telemetry).expect("telemetry serializes");
        std::fs::write(path, json).expect("writing telemetry json");
        eprintln!("wrote {path}");
    }
    match result {
        Ok(summary) => {
            eprintln!(
                "soak green: {} rounds, all cells agreed",
                summary.rounds.len()
            );
        }
        Err(failure) => {
            failure
                .write_bundle("SOAK_FAILURE.json")
                .expect("writing SOAK_FAILURE.json");
            eprintln!(
                "soak FAILED at round {} (cell `{}`): {}",
                failure.round, failure.cell, failure.detail
            );
            eprintln!("  expected: {}", failure.expected);
            eprintln!("  got:      {}", failure.got);
            eprintln!("  bundle:   SOAK_FAILURE.json");
            eprintln!("  {}", failure.repro_hint());
            std::process::exit(1);
        }
    }
}

/// Renders the EXPERIMENTS.md body from the comparison rows.
fn experiments_markdown(
    scale: f64,
    trace: &ddos_sim::GeneratedTrace,
    report: &AnalysisReport,
) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs measured\n\n");
    out.push_str(&format!(
        "Generated by `cargo run --release -p bench --bin repro -- --md` \
         on a scale-{scale} trace (seed {:#x}, {} attacks).\n\n",
        SimConfig::default().seed,
        trace.dataset.len()
    ));
    out.push_str(
        "The dataset is synthetic (see DESIGN.md §1): quantities marked as \
         *calibrated* in DESIGN.md §5 match by construction; everything else \
         is emergent from the generative model and the analysis pipeline. \
         The `verdict` column applies the tolerance listed per quantity — \
         tight for calibrated inputs, loose for emergent results where only \
         the *shape* (who wins, rough factor) is claimed.\n\n",
    );
    let sections = paper_comparisons(trace, report);
    let mut ok = 0usize;
    let mut total = 0usize;
    for (title, rows) in &sections {
        out.push_str(&compare::render_markdown(title, rows));
        out.push('\n');
        ok += rows.iter().filter(|r| r.holds()).count();
        total += rows.len();
    }
    out.push_str(&format!(
        "## Overall\n\n{ok} of {total} compared quantities within tolerance.\n\n\
         Known deviations and paper inconsistencies are discussed in \
         DESIGN.md (calibration rules) and the module docs of \
         `ddos-sim::calibration`.\n",
    ));
    out
}
