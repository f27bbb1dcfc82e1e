//! Benches for the analysis-context build — the join+distance kernel
//! that dominates pipeline wall time — as one append of a one-epoch
//! fold (radix-sorted bot keys, the CSR `SourceTable` sweep and
//! `dispersion_precomp`), serial and parallel.

use bench::bench_trace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddos_analytics::{AnalysisContext, KernelPolicy};
use ddos_obs::Obs;
use ddos_stats::ArimaSpec;

fn bench_context(c: &mut Criterion) {
    let trace = bench_trace();
    let ds = &trace.dataset;
    let obs = Obs::disabled();
    let mut g = c.benchmark_group("context_build");
    g.sample_size(10);
    for (name, parallel) in [("columnar_serial", false), ("columnar_parallel", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(AnalysisContext::build_kernels(
                    ds,
                    ArimaSpec::DEFAULT,
                    parallel,
                    KernelPolicy::Auto,
                    &obs,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_context);
criterion_main!(benches);
