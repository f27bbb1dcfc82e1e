//! Benches for the substrate itself: world synthesis, trace generation,
//! and the framed binary container.

use bench::bench_trace;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddos_geo::{GeoConfig, GeoDb};
use ddos_schema::framed;
use ddos_sim::{generate, SimConfig};

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.sample_size(10);
    g.bench_function("geodb_synthesize_default", |b| {
        b.iter(|| GeoDb::synthesize(&GeoConfig::default()))
    });
    for scale in [0.02f64, 0.1] {
        g.bench_with_input(
            BenchmarkId::new("generate", format!("scale_{scale}")),
            &scale,
            |b, &scale| {
                b.iter(|| {
                    generate(&SimConfig {
                        scale,
                        ..SimConfig::default()
                    })
                })
            },
        );
    }
    let ds = &bench_trace().dataset;
    g.bench_function("framed_encode", |b| b.iter(|| framed::encode(ds)));
    let bytes = framed::encode(ds);
    g.bench_function("framed_decode", |b| {
        b.iter(|| framed::decode(&bytes).expect("decodes"))
    });
    g.finish();
}

criterion_group!(benches, bench_generator);
criterion_main!(benches);
