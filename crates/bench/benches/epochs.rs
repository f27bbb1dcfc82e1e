//! Benches for the epoch engine: appending every weekly epoch to an
//! empty fold against the one-shot build's one-epoch fold, the whole
//! incremental run against the batch pipeline, and the marginal cost of
//! appending one epoch to a grown fold.

use bench::bench_trace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddos_analytics::{Analysis, AnalysisContext, EpochContext, KernelPolicy, PipelineOptions};
use ddos_obs::Obs;
use ddos_schema::Seconds;
use ddos_stats::ArimaSpec;

fn bench_epochs(c: &mut Criterion) {
    let trace = bench_trace();
    let ds = &trace.dataset;
    let epoch_len = Seconds::WEEK;
    let opts = PipelineOptions::new().telemetry(false);
    let obs = Obs::disabled();
    let shards = ds.shards(epoch_len);

    let mut g = c.benchmark_group("epoch_context");
    g.sample_size(10);
    g.bench_function("one_epoch_fold", |b| {
        b.iter(|| {
            black_box(AnalysisContext::build_kernels(
                ds,
                ArimaSpec::DEFAULT,
                false,
                KernelPolicy::Auto,
                &obs,
            ))
        })
    });
    g.bench_function("append_all", |b| {
        b.iter(|| {
            let mut fold = EpochContext::new(ds.window(), false, KernelPolicy::Auto);
            for shard in &shards {
                fold.append(shard, &obs);
            }
            black_box(fold)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("epoch_pipeline");
    g.sample_size(10);
    g.bench_function("batch", |b| {
        b.iter(|| black_box(Analysis::new(ds).options(opts).run()))
    });
    g.bench_function("incremental_total", |b| {
        b.iter(|| black_box(Analysis::new(ds).options(opts).epochs(epoch_len).run()))
    });
    // The marginal epoch: everything but the last pre-appended, so the
    // routine times the incremental pipeline's steady-state append work
    // (minus the pass re-run, which `incremental_total` above covers in
    // aggregate). Each iteration appends to its own copy of the prefix
    // fold, so the time includes that copy; the `epoch/*` spans of a
    // traced perfbench run time the append alone.
    if let Some((last, prefix)) = shards.split_last() {
        let mut fold = EpochContext::new(ds.window(), false, KernelPolicy::Auto);
        for shard in prefix {
            fold.append(shard, &obs);
        }
        g.bench_function("append_last_epoch", |b| {
            b.iter(|| {
                let mut grown = fold.clone();
                black_box(grown.append(last, &obs));
                grown
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_epochs);
criterion_main!(benches);
