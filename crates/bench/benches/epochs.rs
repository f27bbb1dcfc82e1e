//! Benches for the epoch-sharded engine: per-shard context builds, the
//! fold, and the marginal cost of appending one epoch incrementally —
//! against the monolithic context build and pipeline they replace.

use bench::bench_trace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddos_analytics::{Analysis, AnalysisContext, EpochContext, PipelineOptions};
use ddos_obs::Obs;
use ddos_schema::Seconds;
use ddos_stats::ArimaSpec;

fn bench_epochs(c: &mut Criterion) {
    let trace = bench_trace();
    let ds = &trace.dataset;
    let epoch_len = Seconds::WEEK;
    let opts = PipelineOptions::new().telemetry(false);

    let mut g = c.benchmark_group("epoch_context");
    g.sample_size(10);
    g.bench_function("monolithic_build", |b| {
        b.iter(|| black_box(AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, false)))
    });
    g.bench_function("shard_build_fold", |b| {
        b.iter(|| {
            let obs = Obs::disabled();
            let folded = ds
                .shards(epoch_len)
                .iter()
                .map(|s| EpochContext::build(s, &obs))
                .reduce(|a, x| a.merge(x).0)
                .unwrap();
            black_box(folded)
        })
    });
    // The merge alone: pre-built halves of the trace, cloned per iter.
    let obs = Obs::disabled();
    let shards = ds.shards(epoch_len);
    let mid = shards.len() / 2;
    let left = shards[..mid.max(1)]
        .iter()
        .map(|s| EpochContext::build(s, &obs))
        .reduce(|a, x| a.merge(x).0)
        .unwrap();
    let right = shards[mid.max(1)..]
        .iter()
        .map(|s| EpochContext::build(s, &obs))
        .reduce(|a, x| a.merge(x).0);
    if let Some(right) = right {
        g.bench_function("merge_halves", |b| {
            b.iter(|| black_box(left.clone().merge(right.clone()).0))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("epoch_pipeline");
    g.sample_size(10);
    g.bench_function("batch", |b| {
        b.iter(|| black_box(Analysis::new(ds).options(opts).run()))
    });
    g.bench_function("epoch_folded", |b| {
        b.iter(|| black_box(Analysis::new(ds).options(opts).epochs(epoch_len).run()))
    });
    g.bench_function("incremental_total", |b| {
        b.iter(|| {
            black_box(
                Analysis::new(ds)
                    .options(opts)
                    .epochs(epoch_len)
                    .incremental()
                    .run(),
            )
        })
    });
    // The marginal epoch: everything-but-the-last pre-folded, so the
    // routine times clone + shard build + merge — the incremental
    // pipeline's steady-state append work (minus the pass re-run,
    // which `incremental_total` above covers in aggregate).
    if shards.len() > 1 {
        let last_shard = shards.last().unwrap();
        let prefix = shards[..shards.len() - 1]
            .iter()
            .map(|s| EpochContext::build(s, &obs))
            .reduce(|a, x| a.merge(x).0)
            .unwrap();
        g.bench_function("append_last_epoch", |b| {
            b.iter(|| {
                let built = EpochContext::build(last_shard, &obs);
                black_box(prefix.clone().merge(built).0)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_epochs);
criterion_main!(benches);
