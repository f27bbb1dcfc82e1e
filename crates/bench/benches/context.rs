//! Benches for the analysis-context build — the join+distance kernel
//! that dominates pipeline wall time — on the columnar substrate
//! (sorted `BotTable` + CSR `SourceTable` + `dispersion_precomp`),
//! serial and parallel.

use bench::bench_trace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddos_analytics::{AnalysisContext, BotTable, SourceTable};
use ddos_stats::ArimaSpec;

fn bench_context(c: &mut Criterion) {
    let trace = bench_trace();
    let ds = &trace.dataset;
    let mut g = c.benchmark_group("context_build");
    g.sample_size(10);
    g.bench_function("columnar_serial", |b| {
        b.iter(|| black_box(AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, false)))
    });
    g.bench_function("columnar_parallel", |b| {
        b.iter(|| black_box(AnalysisContext::build_opts(ds, ArimaSpec::DEFAULT, true)))
    });
    g.finish();

    let mut g = c.benchmark_group("columnar_substrate");
    g.sample_size(10);
    g.bench_function("bot_table_build", |b| b.iter(|| BotTable::build(ds)));
    let bots = BotTable::build(ds);
    g.bench_function("source_table_serial", |b| {
        b.iter(|| SourceTable::build(ds, &bots, false))
    });
    g.bench_function("source_table_parallel", |b| {
        b.iter(|| SourceTable::build(ds, &bots, true))
    });
    g.finish();
}

criterion_group!(benches, bench_context);
criterion_main!(benches);
