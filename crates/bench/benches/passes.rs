//! Benches for the report's passes: each `REGISTRY` pass's `run` over
//! one prebuilt context of the 10% bench trace (`bench::bench_trace`),
//! handed a finished report so a pass that reads another's section
//! (`flagship_pair` reads `collaborations`) finds it.
//!
//! Run one pass with a filter: `cargo bench -p bench --bench passes --
//! passes/recurrence`.

use bench::bench_trace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddos_analytics::passes::{execute, REGISTRY};
use ddos_analytics::AnalysisContext;
use ddos_obs::Obs;

fn bench_passes(c: &mut Criterion) {
    let ctx = AnalysisContext::new(&bench_trace().dataset);
    let obs = Obs::disabled();
    let partial = execute(&ctx, false, &obs);
    let mut g = c.benchmark_group("passes");
    g.sample_size(20);
    for pass in REGISTRY {
        g.bench_function(pass.name, |b| {
            b.iter(|| black_box((pass.run)(&ctx, &partial, &obs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_passes);
criterion_main!(benches);
