//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                 # full-scale trace, all experiments
//! repro t4 f12 f13      # only the listed experiments
//! repro --scale 0.1 f7  # scaled-down trace
//! repro --md            # emit EXPERIMENTS.md content (paper vs measured)
//! repro --out DIR       # write each artifact to DIR/<id>.txt
//! repro --list          # list experiment ids
//! repro --pipeline-bench  # time pass pipeline vs pre-refactor baseline
//! repro --epoch-bench   # time monolithic vs epoch-folded vs incremental,
//!                       # emit BENCH_epochs.json
//! repro --epoch-bench --smoke  # same on the small trace (CI mode)
//! repro --ingest-bench  # time v1 serial vs framed v2 decode and serial
//!                       # vs chunked CSV parse, emit BENCH_ingest.json
//! repro --ingest-bench --smoke  # same on the small trace (CI mode)
//! repro --serve-bench   # concurrent query throughput over the snapshot
//!                       # service, snapshot-isolation hard gate,
//!                       # emit BENCH_serve.json
//! repro --serve-bench --smoke  # same on the small trace (CI mode)
//! repro --telemetry-json FILE  # write the run's span/metric telemetry
//! repro --report-digest # print the golden-trace report digest
//! repro --soak N        # N seeded differential rounds over the variant
//!                       # matrix; writes SOAK_FAILURE.json on divergence
//! repro --soak N --soak-seed 0xBEEF  # replay a specific seed
//! repro --soak N --soak-full --scale 1.0  # weekly paper-scale soak
//! ```

use ddos_analytics::{Analysis, AnalysisReport, IncrementalPipeline, PipelineOptions, StreamFold};
use ddos_obs::Obs;
use ddos_report::{compare, paper_comparisons, render, EXPERIMENTS};
use ddos_schema::{codec, csv, framed, Seconds};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;

fn main() {
    let mut scale = 1.0f64;
    let mut ids: Vec<String> = Vec::new();
    let mut emit_md = false;
    let mut pipeline_bench = false;
    let mut epoch_bench = false;
    let mut ingest_bench = false;
    let mut serve_bench = false;
    let mut smoke = false;
    let mut report_digest = false;
    let mut soak_rounds: Option<u32> = None;
    let mut soak_seed: Option<u64> = None;
    let mut soak_full = false;
    let mut scale_set = false;
    let mut out_dir: Option<String> = None;
    let mut telemetry_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale takes a number");
                scale_set = true;
            }
            "--out" => out_dir = Some(args.next().expect("--out takes a directory")),
            "--telemetry-json" => {
                telemetry_out = Some(args.next().expect("--telemetry-json takes a file"));
            }
            "--md" => emit_md = true,
            "--pipeline-bench" => pipeline_bench = true,
            "--epoch-bench" => epoch_bench = true,
            "--ingest-bench" => ingest_bench = true,
            "--serve-bench" => serve_bench = true,
            "--smoke" => smoke = true,
            "--report-digest" => report_digest = true,
            "--soak" => {
                soak_rounds = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--soak takes a round count"),
                );
            }
            "--soak-seed" => {
                let raw = args.next().expect("--soak-seed takes a seed");
                let parsed = raw
                    .strip_prefix("0x")
                    .or_else(|| raw.strip_prefix("0X"))
                    .map(|hex| u64::from_str_radix(hex, 16).ok())
                    .unwrap_or_else(|| raw.parse().ok());
                soak_seed = Some(parsed.expect("--soak-seed takes a decimal or 0x-hex u64"));
            }
            "--soak-full" => soak_full = true,
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{:<4} {} — {}", e.id, e.title, e.description);
                }
                return;
            }
            id => ids.push(id.to_string()),
        }
    }

    if epoch_bench {
        run_epoch_bench(scale, smoke);
        return;
    }
    if ingest_bench {
        run_ingest_bench(scale, smoke);
        return;
    }
    if serve_bench {
        run_serve_bench(scale, smoke);
        return;
    }
    if pipeline_bench {
        run_pipeline_bench(scale);
        return;
    }
    if report_digest {
        run_report_digest();
        return;
    }
    if let Some(rounds) = soak_rounds {
        // Soak defaults to the CI smoke scale unless --scale overrides
        // it (weekly paper-scale runs pass --scale 1.0 explicitly).
        let soak_scale = if scale_set { scale } else { 0.05 };
        run_soak_mode(rounds, soak_seed, soak_scale, soak_full, telemetry_out);
        return;
    }

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

    if let Some(path) = &telemetry_out {
        let json = serde_json::to_string_pretty(&report.telemetry).expect("telemetry serializes");
        std::fs::write(path, json).expect("writing telemetry json");
        eprintln!("wrote {path}");
        // Telemetry-only invocation: done once the artifact is written.
        if ids.is_empty() && !emit_md && out_dir.is_none() {
            return;
        }
    }

    if emit_md {
        print!("{}", experiments_markdown(scale, &trace, &report));
        return;
    }

    let selected: Vec<&str> = if ids.is_empty() {
        EXPERIMENTS.iter().map(|e| e.id).collect()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("creating --out directory");
    }
    for id in selected {
        match render(id, &trace, &report) {
            Some(out) => {
                if let Some(dir) = &out_dir {
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
            None => eprintln!("unknown experiment id {id:?} (try --list)"),
        }
    }
    if let Some(dir) = &out_dir {
        // The comparison summary rides along for free.
        let md = experiments_markdown(scale, &trace, &report);
        let path = format!("{dir}/EXPERIMENTS.md");
        std::fs::write(&path, md).expect("writing comparison");
        eprintln!("wrote {path}");
    }
}

/// Times the pass-based pipeline against the pre-refactor serial path
/// on a freshly generated trace and prints per-pass timings plus the
/// end-to-end speedup.
fn run_pipeline_bench(scale: f64) {
    eprintln!("generating trace at scale {scale}...");
    let trace = generate(&SimConfig {
        scale,
        ..SimConfig::default()
    });
    eprintln!("generated {} attacks", trace.dataset.len());
    let ds = &trace.dataset;

    // Warm-up: touch every path once so page cache / allocator state is
    // comparable, then time each.
    let _ = AnalysisReport::run(ds);
    let _ = Analysis::new(ds).parallel(false).run();
    let _ = Analysis::new(ds).baseline().run();

    let t0 = std::time::Instant::now();
    let baseline = Analysis::new(ds).baseline().run();
    let baseline_elapsed = t0.elapsed();

    let t1 = std::time::Instant::now();
    let serial = Analysis::new(ds).parallel(false).run();
    let serial_elapsed = t1.elapsed();

    let t2 = std::time::Instant::now();
    let report = AnalysisReport::run(ds);
    let pipeline_elapsed = t2.elapsed();

    // The reports must agree before the timing comparison means anything.
    let a = serde_json::to_string(&baseline).expect("baseline serializes");
    let b = serde_json::to_string(&report).expect("report serializes");
    let c = serde_json::to_string(&serial).expect("serial report serializes");
    assert_eq!(a, b, "pipeline and baseline reports diverged");
    assert_eq!(b, c, "parallel and serial reports diverged");

    // The serial schedule's per-pass numbers are exact (no thread
    // interleaving inflates them), so show that table.
    println!("{}", serial.telemetry.render());
    let base_s = baseline_elapsed.as_secs_f64();
    let serial_s = serial_elapsed.as_secs_f64();
    let pipe_s = pipeline_elapsed.as_secs_f64();
    println!("baseline (pre-refactor serial): {base_s:>8.3} s");
    println!("pass pipeline (serial):         {serial_s:>8.3} s");
    println!("pass pipeline (parallel):       {pipe_s:>8.3} s");
    println!(
        "speedup:                        {:>8.2}x",
        base_s / pipe_s.min(serial_s)
    );
}

/// Times the epoch-sharded engine against the monolithic rebuild —
/// batch fold, incremental total, and the marginal cost of appending
/// one more epoch to an already-folded prefix — asserts every variant
/// serializes byte-identically, and writes `BENCH_epochs.json` (in
/// smoke mode too, flagged `"smoke": true`, so CI uploads a real
/// artifact).
///
/// The headline ratio is `append_one_epoch_s / monolithic_s`: what one
/// more week of trace costs with the epoch engine versus re-running the
/// pre-refactor monolithic pipeline from scratch.
fn run_epoch_bench(scale: f64, smoke: bool) {
    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    let epoch_len = Seconds::WEEK;
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let epochs = ds.shards(epoch_len).len();
    eprintln!(
        "generated {} attacks, {} bot records, {} weekly epochs",
        ds.len(),
        ds.bots().len(),
        epochs
    );
    let opts = PipelineOptions::new().telemetry(false);

    // Correctness first: every epoch-engine spelling must serialize
    // byte-identically to the batch pipeline.
    let json = |r: &AnalysisReport| serde_json::to_string(r).expect("report serializes");
    let want = json(&Analysis::new(ds).options(opts).run());
    assert_eq!(
        json(&Analysis::new(ds).options(opts).epochs(epoch_len).run()),
        want,
        "epoch-folded report diverged from batch"
    );
    assert_eq!(
        json(
            &Analysis::new(ds)
                .options(opts)
                .epochs(epoch_len)
                .incremental()
                .run()
        ),
        want,
        "incremental report diverged from batch"
    );
    eprintln!("report equivalence: batch == epoch-folded == incremental");

    // Peak residency of the bounded-memory streaming fold, versus the
    // raw row count a monolithic build holds resident.
    let obs = Obs::enabled();
    let mut fold = StreamFold::new(ds.window());
    for batch in ddos_sim::feed::replay_epochs(ds, epoch_len) {
        fold.push(&batch, &obs);
    }
    let peak_rows = fold.peak_resident_rows();
    let monolithic_rows = (ds.len() + ds.bots().len()) as u64;
    let streamed_ctx = fold
        .finish()
        .expect("trace has at least one epoch")
        .into_context(ds, ArimaSpec::DEFAULT);
    assert_eq!(
        json(&Analysis::over(&streamed_ctx).run()),
        want,
        "streamed report diverged from batch"
    );
    drop(streamed_ctx);
    eprintln!("report equivalence: batch == streamed fold");

    // Warm-up, then interleaved best-of-N rounds: systematic drift hits
    // every variant alike instead of whichever ran last.
    let _ = Analysis::new(ds).baseline().run();
    let rounds = if smoke { 1 } else { 3 };
    let mut monolithic_s = f64::MAX;
    let mut folded_s = f64::MAX;
    let mut incremental_s = f64::MAX;
    let mut append_one_s = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        let r = Analysis::new(ds).baseline().run();
        monolithic_s = monolithic_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = Analysis::new(ds).options(opts).epochs(epoch_len).run();
        folded_s = folded_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = Analysis::new(ds)
            .options(opts)
            .epochs(epoch_len)
            .incremental()
            .run();
        incremental_s = incremental_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        // The marginal epoch: fold everything but the last epoch
        // untimed, then time appending the final one (the append and
        // the re-run of every pass included).
        let mut inc = IncrementalPipeline::new(ds, opts, epoch_len);
        while inc.appended() + 1 < inc.epochs() {
            inc.append_epoch();
        }
        let t = std::time::Instant::now();
        inc.append_epoch();
        append_one_s = append_one_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(inc));
    }

    println!("epoch engine (weekly epochs, best of {rounds}):");
    println!("  monolithic rebuild:        {monolithic_s:>8.3} s");
    println!("  epoch-folded batch:        {folded_s:>8.3} s");
    println!("  incremental (all epochs):  {incremental_s:>8.3} s");
    println!("  append one epoch:          {append_one_s:>8.3} s");
    println!(
        "  append/monolithic ratio:   {:>8.3}  (want < 0.25)",
        append_one_s / monolithic_s
    );
    println!("  peak resident rows:        {peak_rows:>8}  (monolithic holds {monolithic_rows})");
    if !smoke {
        assert!(
            append_one_s < monolithic_s / 4.0,
            "appending one epoch ({append_one_s:.3} s) is not under a quarter \
             of the monolithic rebuild ({monolithic_s:.3} s)"
        );
    }

    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {},\n    \"bot_records\": {},\n    \"epochs\": {}\n  }},\n  \
         \"epoch_len_s\": {},\n  \"rounds\": {},\n  \
         \"monolithic_s\": {:.6},\n  \"epoch_folded_s\": {:.6},\n  \
         \"incremental_total_s\": {:.6},\n  \"append_one_epoch_s\": {:.6},\n  \
         \"append_vs_monolithic\": {:.4},\n  \
         \"peak_resident_rows\": {},\n  \"monolithic_resident_rows\": {}\n}}\n",
        smoke,
        cfg.scale,
        ds.len(),
        ds.bots().len(),
        epochs,
        epoch_len.get(),
        rounds,
        monolithic_s,
        folded_s,
        incremental_s,
        append_one_s,
        append_one_s / monolithic_s,
        peak_rows,
        monolithic_rows,
    );
    std::fs::write("BENCH_epochs.json", &out).expect("writing BENCH_epochs.json");
    eprintln!("wrote BENCH_epochs.json");
}

/// Times trace ingest across the v1 serial codec, the framed v2
/// container, and the CSV importer (serial vs chunked), and writes
/// `BENCH_ingest.json` (in smoke mode too, flagged `"smoke": true`).
///
/// Correctness gates run before any timing, in smoke mode too: the v1
/// decode, the v2 decode (auto and forced multi-worker), and the
/// memory-mapped [`ddos_schema::Dataset::open`] of both on-disk formats
/// must all yield bit-identical datasets (pinned by re-encoding through
/// the v1 codec), and the chunked CSV parse must match the serial parse
/// row for row. In full mode the run additionally hard-asserts the framed
/// v2 decode beats the v1 serial decode by >= 2x.
fn run_ingest_bench(scale: f64, smoke: bool) {
    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    eprintln!("generated {} attacks", ds.len());

    let v1 = codec::encode(ds);
    let v2 = framed::encode(ds);

    // Correctness first: every ingest path must reproduce the dataset
    // bit for bit. Re-encoding through the v1 codec is the canonical
    // fingerprint — identical bytes mean identical records in
    // identical order.
    let fingerprint = |d: &ddos_schema::Dataset| codec::encode(d);
    let d1 = codec::decode(&v1).expect("v1 decode");
    assert_eq!(fingerprint(&d1), v1, "v1 round trip diverged");
    let (d2, stats) = framed::decode_with_stats(&v2).expect("v2 decode");
    assert_eq!(fingerprint(&d2), v1, "framed v2 decode diverged from v1");
    let (d2mt, _) = framed::decode_with_workers(&v2, 4).expect("v2 multi-worker decode");
    assert_eq!(
        fingerprint(&d2mt),
        v1,
        "multi-worker v2 decode diverged from serial"
    );
    let dir = std::env::temp_dir();
    let p1 = dir.join("repro_ingest_v1.ddtl");
    let p2 = dir.join("repro_ingest_v2.ddtl");
    std::fs::write(&p1, &v1).expect("writing v1 temp trace");
    std::fs::write(&p2, &v2).expect("writing v2 temp trace");
    for p in [&p1, &p2] {
        let d = ddos_schema::Dataset::open(p).expect("mmap open");
        assert_eq!(
            fingerprint(&d),
            v1,
            "mmap decode of {} diverged",
            p.display()
        );
    }
    eprintln!("decode equivalence: v1 == v2 == v2(workers=4) == mmap(v1) == mmap(v2)");

    let csv_text = csv::attacks_to_csv(ds.attacks());
    let serial = csv::attacks_from_csv(&csv_text).expect("serial CSV parse");
    let chunked = csv::attacks_from_csv_chunked_with(&csv_text, 4).expect("chunked CSV parse");
    assert_eq!(serial, chunked, "chunked CSV parse diverged from serial");
    assert_eq!(
        serial.as_slice(),
        ds.attacks(),
        "CSV round trip diverged from the original records"
    );
    eprintln!("csv equivalence: serial == chunked == original records");

    // Interleaved best-of-N: one warm-up pass of every path, then each
    // round times every path back to back so cache and allocator state
    // stay comparable.
    let rounds = if smoke { 1 } else { 5 };
    drop(std::hint::black_box(codec::decode(&v1).unwrap()));
    drop(std::hint::black_box(framed::decode(&v2).unwrap()));
    drop(std::hint::black_box(
        ddos_schema::Dataset::open(&p2).unwrap(),
    ));
    drop(std::hint::black_box(
        csv::attacks_from_csv(&csv_text).unwrap(),
    ));
    drop(std::hint::black_box(
        csv::attacks_from_csv_chunked(&csv_text).unwrap(),
    ));
    let mut v1_s = f64::MAX;
    let mut v2_s = f64::MAX;
    let mut mmap_s = f64::MAX;
    let mut csv_serial_s = f64::MAX;
    let mut csv_chunked_s = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        let d = codec::decode(&v1).unwrap();
        v1_s = v1_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(d));

        let t = std::time::Instant::now();
        let d = framed::decode(&v2).unwrap();
        v2_s = v2_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(d));

        let t = std::time::Instant::now();
        let d = ddos_schema::Dataset::open(&p2).unwrap();
        mmap_s = mmap_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(d));

        let t = std::time::Instant::now();
        let r = csv::attacks_from_csv(&csv_text).unwrap();
        csv_serial_s = csv_serial_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));

        let t = std::time::Instant::now();
        let r = csv::attacks_from_csv_chunked(&csv_text).unwrap();
        csv_chunked_s = csv_chunked_s.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));
    }
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);

    let decode_speedup = v1_s / v2_s;
    let csv_speedup = csv_serial_s / csv_chunked_s;
    println!("ingest (best of {rounds}):");
    println!(
        "  trace: {} attacks, v1 {} KiB, v2 {} KiB in {} frames",
        ds.len(),
        v1.len() / 1024,
        v2.len() / 1024,
        stats.frames
    );
    println!("  v1 serial decode:   {:>10.6} s", v1_s);
    println!(
        "  v2 framed decode:   {:>10.6} s  ({decode_speedup:.2}x vs v1, {} workers)",
        v2_s, stats.workers
    );
    println!("  v2 mmap open:       {:>10.6} s", mmap_s);
    println!("  csv serial parse:   {:>10.6} s", csv_serial_s);
    println!(
        "  csv chunked parse:  {:>10.6} s  ({csv_speedup:.2}x vs serial)",
        csv_chunked_s
    );
    if !smoke {
        assert!(
            decode_speedup >= 2.0,
            "framed v2 decode speedup is {decode_speedup:.2}x \
             ({v2_s:.6} s vs {v1_s:.6} s), under the 2x target"
        );
    }

    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {},\n    \"v1_bytes\": {},\n    \"v2_bytes\": {},\n    \
         \"v2_frames\": {}\n  }},\n  \"rounds\": {},\n  \"decode\": {{\n    \
         \"v1_serial_s\": {:.6},\n    \"v2_framed_s\": {:.6},\n    \
         \"v2_mmap_open_s\": {:.6},\n    \"workers\": {},\n    \
         \"speedup\": {:.3}\n  }},\n  \"csv\": {{\n    \
         \"serial_s\": {:.6},\n    \"chunked_s\": {:.6},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        smoke,
        cfg.scale,
        ds.len(),
        v1.len(),
        v2.len(),
        stats.frames,
        rounds,
        v1_s,
        v2_s,
        mmap_s,
        stats.workers,
        decode_speedup,
        csv_serial_s,
        csv_chunked_s,
        csv_speedup,
    );
    std::fs::write("BENCH_ingest.json", &out).expect("writing BENCH_ingest.json");
    eprintln!("wrote BENCH_ingest.json");
}

/// Benchmarks the snapshot service under concurrent load and hard-gates
/// its isolation contract, writing `BENCH_serve.json` (in smoke mode
/// too, flagged `"smoke": true`, so CI uploads a real artifact).
///
/// Correctness gates run before any number is reported, in smoke mode
/// too:
///
/// 1. **Snapshot isolation under concurrency** — reader threads hammer
///    queries while the writer appends every epoch; every watermark any
///    reader observed must digest byte-identically to a fresh
///    monolithic run over the same epoch prefix.
/// 2. **Fault atomicity** (debug builds; the seam is compiled out of
///    release) — an `epoch/merge` fault injected mid-serve leaves the
///    published snapshot byte-identical, and the retry converges to the
///    clean full report.
fn run_serve_bench(scale: f64, smoke: bool) {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    use ddos_serve::AnalysisService;

    let cfg = if smoke {
        SimConfig::small()
    } else {
        SimConfig {
            scale,
            ..SimConfig::default()
        }
    };
    let epoch_len = Seconds::WEEK;
    eprintln!("generating trace (scale {})...", cfg.scale);
    let trace = generate(&cfg);
    let ds = &trace.dataset;
    let epochs = ds.shards(epoch_len).len();
    eprintln!(
        "generated {} attacks, {} bot records, {} weekly epochs",
        ds.len(),
        ds.bots().len(),
        epochs
    );
    let digest = |r: &AnalysisReport| {
        ddos_obs::fnv1a_64_hex(
            serde_json::to_string(r)
                .expect("report serializes")
                .as_bytes(),
        )
    };

    // Phase 1: concurrent append + query. The writer ingests every
    // epoch; readers answer typed queries throughout and record the
    // snapshot digest of each watermark they observe.
    let obs = Obs::enabled();
    let service = AnalysisService::new(ds, PipelineOptions::default(), epoch_len, &obs);
    let reader_threads = 4usize;
    let done = AtomicBool::new(false);
    let t0 = std::time::Instant::now();
    let (append_total_s, reader_results) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let t = std::time::Instant::now();
            service.ingest_all().expect("clean ingest");
            done.store(true, Ordering::Release);
            t.elapsed().as_secs_f64()
        });
        let readers: Vec<_> = (0..reader_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut typed_queries = 0u64;
                    let mut last = 0usize;
                    let mut digests: BTreeMap<usize, String> = BTreeMap::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        // One rotating typed query per spin, answered
                        // from whatever snapshot is published.
                        let answered = match typed_queries % 4 {
                            0 => service.top_targets(5).map(|a| a.watermark),
                            1 => service.family_breakdown().map(|a| a.watermark),
                            2 => service.shift_series().map(|a| a.watermark),
                            _ => service.blacklist_verdicts().map(|a| a.watermark),
                        };
                        if let Some(watermark) = answered {
                            typed_queries += 1;
                            assert!(watermark >= last, "watermark went backwards");
                            last = watermark;
                        }
                        if let Some(snap) = service.snapshot() {
                            digests
                                .entry(snap.watermark)
                                .or_insert_with(|| digest(&snap.report));
                        }
                        if finished {
                            break;
                        }
                    }
                    (typed_queries, digests)
                })
            })
            .collect();
        let append_total_s = writer.join().expect("writer thread");
        let results: Vec<_> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect();
        (append_total_s, results)
    });
    let concurrent_s = t0.elapsed().as_secs_f64();
    let typed_queries: u64 = reader_results.iter().map(|(n, _)| n).sum();
    let mut observed: BTreeMap<usize, String> = BTreeMap::new();
    for (_, digests) in &reader_results {
        for (w, d) in digests {
            match observed.get(w) {
                None => {
                    observed.insert(*w, d.clone());
                }
                Some(seen) => {
                    assert_eq!(seen, d, "two readers saw different bytes at watermark {w}")
                }
            }
        }
    }
    assert!(
        observed.contains_key(&epochs),
        "no reader observed the final watermark"
    );

    // The hard gate: every observed watermark must answer exactly like
    // a fresh monolithic run over the same epoch prefix.
    for (w, got) in &observed {
        let fresh = digest(&Analysis::new(&ds.epoch_prefix(epoch_len, *w)).run());
        assert_eq!(
            got, &fresh,
            "watermark {w} served under concurrent append diverged from a \
             fresh {w}-epoch monolithic run"
        );
    }
    eprintln!(
        "snapshot isolation: {} watermarks observed under concurrent \
         append, all byte-identical to fresh prefix runs",
        observed.len()
    );

    // Phase 2: fault atomicity through the serve path (debug only —
    // the failpoint seam is compiled out of release builds).
    if ddos_failpoints::ACTIVE {
        let fault_obs = Obs::enabled();
        let faulted = AnalysisService::new(ds, PipelineOptions::default(), epoch_len, &fault_obs);
        faulted
            .try_append()
            .expect("clean append")
            .expect("epoch 0");
        faulted
            .try_append()
            .expect("clean append")
            .expect("epoch 1");
        let before = faulted.snapshot().expect("published");
        let before_digest = digest(&before.report);
        {
            let _scope = ddos_failpoints::FailPlan::new()
                .fail_nth(ddos_failpoints::names::EPOCH_MERGE, 0)
                .install();
            faulted
                .try_append()
                .expect_err("injected epoch/merge fault must surface");
        }
        let after = faulted.snapshot().expect("still published");
        assert_eq!(
            after.watermark, before.watermark,
            "fault moved the watermark"
        );
        assert_eq!(
            digest(&after.report),
            before_digest,
            "fault disturbed the published snapshot"
        );
        faulted.ingest_all().expect("clean retry");
        assert_eq!(
            digest(&faulted.snapshot().expect("published").report),
            *observed.get(&epochs).expect("final watermark verified"),
            "post-fault recovery diverged from the clean full report"
        );
        eprintln!("fault atomicity: faulted append left the snapshot untouched, retry converged");
    } else {
        eprintln!("fault atomicity: skipped (release build: fault seam compiled out)");
    }

    let queries_answered = obs.counter(ddos_obs::names::SERVE_QUERIES_ANSWERED).get();
    let queries_per_sec = typed_queries as f64 / concurrent_s;
    let appends_per_sec = epochs as f64 / append_total_s;
    println!("serve bench (weekly epochs, {reader_threads} readers):");
    println!("  append all {epochs} epochs:      {append_total_s:>8.3} s");
    println!("  typed queries answered:    {typed_queries:>8}");
    println!("  query throughput:          {queries_per_sec:>8.0} /s (concurrent with appends)");
    println!("  watermarks verified:       {:>8}", observed.len());
    if !smoke {
        assert!(
            queries_per_sec > 1_000.0,
            "snapshot queries under concurrent append fell below 1k/s \
             ({queries_per_sec:.0}/s) — reads are blocking on the writer"
        );
    }

    let out = format!(
        "{{\n  \"smoke\": {},\n  \"trace\": {{\n    \"scale\": {},\n    \
         \"attacks\": {},\n    \"bot_records\": {},\n    \"epochs\": {}\n  }},\n  \
         \"epoch_len_s\": {},\n  \"reader_threads\": {},\n  \
         \"append_total_s\": {:.6},\n  \"appends_per_sec\": {:.3},\n  \
         \"typed_queries\": {},\n  \"queries_answered\": {},\n  \
         \"queries_per_sec\": {:.1},\n  \"verified_watermarks\": {}\n}}\n",
        smoke,
        cfg.scale,
        ds.len(),
        ds.bots().len(),
        epochs,
        epoch_len.get(),
        reader_threads,
        append_total_s,
        appends_per_sec,
        typed_queries,
        queries_answered,
        queries_per_sec,
        observed.len(),
    );
    std::fs::write("BENCH_serve.json", &out).expect("writing BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");
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
