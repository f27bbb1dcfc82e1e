//! `ddoslab` — the workbench CLI.
//!
//! ```text
//! ddoslab generate --scale 1.0 --seed 0xDD05EED --out trace.ddtl
//! ddoslab analyze trace.ddtl            # full report to stdout
//! ddoslab analyze trace.ddtl --json     # AnalysisReport as JSON
//! ddoslab analyze trace.ddtl --timings  # also print the span breakdown
//! ddoslab analyze trace.ddtl --telemetry-json t.json  # write RunTelemetry
//! ddoslab analyze trace.ddtl --epochs 8 # epoch-sharded engine, 8 epochs
//! ddoslab serve trace.ddtl --epochs 8   # snapshot service: append + query
//! ddoslab export-csv trace.ddtl out.csv # attack records as CSV
//! ddoslab import-csv raw.csv out.ddtl   # CSV (optionally unmerged) -> trace
//! ddoslab info trace.ddtl               # summary only
//! ```

use std::process::ExitCode;

use ddos_analytics::{Analysis, PipelineOptions};
use ddos_obs::{names, Obs};
use ddos_schema::{codec, csv, framed, Dataset, DatasetBuilder, IngestStats, Seconds, Window};
use ddos_serve::AnalysisService;
use ddos_sim::{generate, SimConfig};

/// On-disk encoding for trace output (`--format`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    V1,
    V2,
}

impl TraceFormat {
    fn parse(s: &str) -> Result<TraceFormat, String> {
        match s {
            "v1" => Ok(TraceFormat::V1),
            "v2" => Ok(TraceFormat::V2),
            other => Err(format!("bad --format {other:?} (expected v1 or v2)")),
        }
    }

    fn encode(self, ds: &Dataset) -> Vec<u8> {
        match self {
            TraceFormat::V1 => codec::encode(ds).to_vec(),
            TraceFormat::V2 => framed::encode(ds).to_vec(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("export-csv") => cmd_export_csv(&args[1..]),
        Some("import-csv") => cmd_import_csv(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try `ddoslab help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ddoslab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "ddoslab — botnet DDoS trace workbench\n\n\
         USAGE:\n\
         \x20 ddoslab generate [--scale F] [--seed N] [--no-snapshots]\n\
         \x20                 [--format v1|v2] --out FILE\n\
         \x20 ddoslab analyze FILE [--json] [--timings] [--telemetry-json FILE]\n\
         \x20                 [--epochs N]\n\
         \x20 ddoslab serve FILE [--epochs N] [--timings]\n\
         \x20 ddoslab export-csv FILE OUT.csv\n\
         \x20 ddoslab import-csv IN.csv OUT.ddtl [--merge-gap=SECONDS]\n\
         \x20                 [--format=v1|v2] [--timings]\n\
         \x20 ddoslab info FILE\n\n\
         Traces use the binary DDTL format: v1 (ddos_schema::codec) or the\n\
         framed v2 container (ddos_schema::framed — checksummed frames,\n\
         parallel decode). Readers accept both; writers default to v2.\n\
         `import-csv` applies the paper's §II-D record merging (default gap 60 s;\n\
         pass --merge-gap=0 to disable).\n\
         `analyze --epochs N` slices the trace into N epochs and appends\n\
         them one by one to a fold — byte-identical output.\n\
         `serve` replays the trace through the snapshot service: each epoch\n\
         append publishes an immutable prefix-exact snapshot, and every\n\
         query answer is stamped with its epoch watermark."
    );
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad seed {s:?}: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad seed {s:?}: {e}"))
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut config = SimConfig::default();
    let mut out: Option<String> = None;
    let mut format = TraceFormat::V2;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                config.scale = it
                    .next()
                    .ok_or("--scale takes a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
            }
            "--seed" => config.seed = parse_seed(it.next().ok_or("--seed takes a value")?)?,
            "--no-snapshots" => config.snapshots = false,
            "--out" => out = Some(it.next().ok_or("--out takes a value")?.clone()),
            "--format" => format = TraceFormat::parse(it.next().ok_or("--format takes a value")?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let out = out.ok_or("generate requires --out FILE")?;
    eprintln!(
        "generating trace (scale {}, seed {:#x})...",
        config.scale, config.seed
    );
    let trace = generate(&config);
    let bytes = format.encode(&trace.dataset);
    std::fs::write(&out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} attacks, {} bots, {} KiB",
        trace.dataset.len(),
        trace.dataset.bots().len(),
        bytes.len() / 1024
    );
    Ok(())
}

/// Memory-maps and decodes a trace (v1 serial or framed v2 parallel),
/// recording the ingest span and metrics into `obs`.
fn load_obs(path: &str, obs: &Obs) -> Result<(Dataset, IngestStats), String> {
    let _span = obs.span(names::INGEST_FRAME_DECODE);
    let (ds, stats) = Dataset::open_with_stats(path).map_err(|e| format!("loading {path}: {e}"))?;
    obs.gauge(names::INGEST_BYTES).set(stats.bytes as u64);
    obs.gauge(names::INGEST_WORKERS).set(stats.workers as u64);
    obs.histogram(names::INGEST_FRAMES)
        .record(stats.frames as u64);
    Ok((ds, stats))
}

fn load(path: &str) -> Result<Dataset, String> {
    load_obs(path, &Obs::disabled()).map(|(ds, _)| ds)
}

/// Parses the count after `--epochs`; a following flag is no count.
fn epoch_count(value: Option<&String>) -> Result<usize, String> {
    value
        .filter(|v| !v.starts_with("--"))
        .ok_or("--epochs takes a count")?
        .parse()
        .map_err(|e| format!("bad epoch count: {e}"))
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let path = it.next().ok_or("analyze requires a trace file")?;
    let mut json = false;
    let mut timings = false;
    let mut telemetry_out: Option<String> = None;
    let mut epochs: Option<usize> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--timings" => timings = true,
            "--telemetry-json" => {
                let out = it.next().filter(|v| !v.starts_with("--"));
                telemetry_out = Some(out.ok_or("--telemetry-json takes a file")?.clone());
            }
            "--epochs" => epochs = Some(epoch_count(it.next())?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let epochs = epochs.filter(|&n| n > 0);
    let obs = Obs::enabled();
    let (ds, _) = load_obs(path, &obs)?;
    // Both paths share the recorder with the load above, so the
    // telemetry artifact carries the ingest span alongside the
    // analysis spans.
    let report = match epochs {
        // Ceiling-divide the window so N epochs tile it exactly.
        Some(n) => {
            let len = Seconds((ds.window().length().get() + n as i64 - 1) / n as i64);
            let len = Seconds(len.get().max(1));
            eprintln!("epoch engine: {n} epochs of {} s", len.get());
            Analysis::new(&ds).obs(&obs).epochs(len).run()
        }
        None => Analysis::new(&ds).obs(&obs).run(),
    };
    if timings {
        eprintln!("{}", report.telemetry.render());
    }
    if let Some(out) = &telemetry_out {
        let body = serde_json::to_string_pretty(&report.telemetry)
            .map_err(|e| format!("serializing telemetry: {e}"))?;
        std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    if json {
        let body = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serializing report: {e}"))?;
        println!("{body}");
        return Ok(());
    }
    let m = report.summary.measured;
    println!("== {path} ==");
    println!(
        "{} attacks | {} bot IPs in {} countries | {} victims in {} countries",
        m.attacks, m.attackers.ips, m.attackers.countries, m.victims.ips, m.victims.countries
    );
    if let Some(d) = &report.durations {
        println!(
            "durations: mean {:.0}s median {:.0}s p80 {:.0}s",
            d.mean, d.median, d.p80
        );
    }
    if let Some((day, peak)) = report.daily.peak() {
        println!(
            "daily: mean {:.1}, peak {} on {}",
            report.daily.mean_per_day(),
            peak,
            report.daily.date_of(day)
        );
    }
    println!("top victim countries:");
    for (cc, n) in &report.overall_targets {
        println!("  {cc}: {n}");
    }
    println!("prediction (Table IV):");
    for row in &report.prediction.rows {
        println!("  {}: cosine {:.3}", row.family, row.forecast.eval.cosine);
    }
    println!(
        "collaborations: {} pairs, {} events; {} chains (longest {})",
        report.collaborations.pairs.len(),
        report.collaborations.events.len(),
        report.multistage.chains.len(),
        report.multistage.longest().map_or(0, |c| c.len())
    );
    if let Some(mean) = report.blacklist.mean_coverage() {
        println!("blacklist warm-up coverage: {mean:.3}");
    }
    Ok(())
}

/// Replays a trace through the snapshot service: one epoch append at a
/// time, answering a query after each publish so the output shows the
/// watermark advancing, then a final snapshot summary.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let path = it.next().ok_or("serve requires a trace file")?;
    let mut timings = false;
    let mut epochs: Option<usize> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timings" => timings = true,
            "--epochs" => epochs = Some(epoch_count(it.next())?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let epochs = epochs.filter(|&n| n > 0).unwrap_or(8);
    let obs = Obs::enabled();
    let (ds, _) = load_obs(path, &obs)?;
    // Ceiling-divide the window so N epochs tile it exactly.
    let len = Seconds(((ds.window().length().get() + epochs as i64 - 1) / epochs as i64).max(1));
    let service = AnalysisService::new(&ds, PipelineOptions::default(), len, &obs);
    println!(
        "== serving {path}: {} epochs of {} s ==",
        service.epochs(),
        len.get()
    );
    while let Some(stats) = service.try_append().map_err(|e| e.to_string())? {
        let top = service
            .top_targets(3)
            .map(|a| {
                a.value
                    .iter()
                    .map(|(cc, n)| format!("{cc}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "  watermark {}/{} | epoch {}: +{} attacks, {} passes re-ran | top {top}",
            service.watermark(),
            service.epochs(),
            stats.epoch,
            stats.attacks,
            stats.reran.len()
        );
    }
    let snap = service
        .snapshot()
        .ok_or("service published no snapshot (empty trace?)")?;
    let report = &snap.report;
    println!(
        "== final snapshot (watermark {}/{}) ==",
        snap.watermark, snap.epochs
    );
    let m = report.summary.measured;
    println!(
        "{} attacks | {} bot IPs in {} countries | {} victims in {} countries",
        m.attacks, m.attackers.ips, m.attackers.countries, m.victims.ips, m.victims.countries
    );
    println!(
        "collaborations: {} pairs, {} events",
        report.collaborations.pairs.len(),
        report.collaborations.events.len()
    );
    if let Some(mean) = report.blacklist.mean_coverage() {
        println!("blacklist warm-up coverage: {mean:.3}");
    }
    if timings {
        eprintln!("{}", obs.finish(false).render());
    }
    Ok(())
}

fn cmd_export_csv(args: &[String]) -> Result<(), String> {
    let [path, out] = args else {
        return Err("export-csv requires IN.ddtl OUT.csv".into());
    };
    let ds = load(path)?;
    let body = csv::attacks_to_csv(ds.attacks());
    std::fs::write(out, &body).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}: {} attack rows", ds.len());
    Ok(())
}

fn cmd_import_csv(args: &[String]) -> Result<(), String> {
    let (paths, flags): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| !a.starts_with("--"));
    let [input, output] = paths[..] else {
        return Err("import-csv requires IN.csv OUT.ddtl".into());
    };
    let mut merge_gap = Seconds(ddos_analytics::preprocess::MERGE_GAP_S);
    let mut format = TraceFormat::V2;
    let mut timings = false;
    for flag in flags.iter() {
        match flag.as_str() {
            "--merge-gap" => {
                return Err("--merge-gap takes a value: use --merge-gap=SECONDS".into());
            }
            other if other.starts_with("--merge-gap=") => {
                let v = other.trim_start_matches("--merge-gap=");
                merge_gap = Seconds(v.parse().map_err(|e| format!("bad gap: {e}"))?);
            }
            other if other.starts_with("--format=") => {
                format = TraceFormat::parse(other.trim_start_matches("--format="))?;
            }
            "--timings" => timings = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let obs = Obs::enabled();
    let mut records = {
        let _span = obs.span(names::INGEST_CSV_PARSE);
        csv::attacks_from_csv_chunked(&text).map_err(|e| e.to_string())?
    };
    obs.histogram(names::INGEST_CSV_ROWS)
        .record(records.len() as u64);
    let raw = records.len();
    if merge_gap.get() > 0 {
        records = ddos_analytics::preprocess::merge_attack_records(records, merge_gap);
    }
    let (start, end) = records.iter().fold((i64::MAX, i64::MIN), |(s, e), a| {
        (s.min(a.start.unix()), e.max(a.end.unix() + 1))
    });
    let window = if records.is_empty() {
        Window::PAPER
    } else {
        Window::new(ddos_schema::Timestamp(start), ddos_schema::Timestamp(end))
            .map_err(|e| e.to_string())?
    };
    let mut builder = DatasetBuilder::new(window);
    let merged = records.len();
    builder.extend_attacks(records).map_err(|e| e.to_string())?;
    let ds = builder.build().map_err(|e| e.to_string())?;
    let bytes = format.encode(&ds);
    std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
    if timings {
        eprintln!("{}", obs.finish(false).render());
    }
    println!(
        "imported {raw} rows -> {merged} attacks (merge gap {}s); wrote {output}",
        merge_gap.get()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info requires a trace file")?;
    let (ds, stats) = load_obs(path, &Obs::disabled())?;
    let s = ds.summary();
    println!("{path}:");
    println!(
        "  format     v{} ({} frames, {} KiB)",
        stats.version,
        stats.frames,
        stats.bytes / 1024
    );
    println!("  window     {} -> {}", ds.window().start, ds.window().end);
    println!("  attacks    {}", s.attacks);
    println!(
        "  botnets    {} attacking / {} recorded",
        s.botnets,
        ds.botnets().len()
    );
    println!(
        "  attackers  {} IPs, {} cities, {} countries, {} orgs, {} ASNs",
        s.attackers.ips,
        s.attackers.cities,
        s.attackers.countries,
        s.attackers.organizations,
        s.attackers.asns
    );
    println!(
        "  victims    {} IPs, {} cities, {} countries, {} orgs, {} ASNs",
        s.victims.ips,
        s.victims.cities,
        s.victims.countries,
        s.victims.organizations,
        s.victims.asns
    );
    println!("  snapshots  {} families", ds.snapshot_families().count());
    Ok(())
}
