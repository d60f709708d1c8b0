//! One bench per scaling figure: regenerates the figure's sweep at smoke
//! scale through the full sim + energy-model stack. Nothing primes the
//! fresh serial lab, so each `run` simulates its points one by one
//! through `Lab::counts` as it reads them.

use bench::bench_suite;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use workloads::Scale;
use xp::{Fig10, Fig2, Fig6, Fig7, Fig8, Fig9, Headline, Lab, PointStudies};

fn bench_figures(c: &mut Criterion) {
    let suite = bench_suite();
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(8));

    group.bench_function("fig2_onboard_energy", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Fig2::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("fig6_edpse_2xbw", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Fig6::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("fig7_step_breakdown", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Fig7::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("fig8_bandwidth_sweep", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Fig8::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("fig9_ring_vs_switch", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Fig9::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("fig10_speedup_energy", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Fig10::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("point_studies", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            PointStudies::run(&lab, &suite).unwrap()
        })
    });
    group.bench_function("headline", |b| {
        b.iter(|| {
            let lab = Lab::new(Scale::Smoke);
            Headline::run(&lab, &suite).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
