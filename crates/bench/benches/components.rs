//! Component performance benches: the hot paths of the simulator and
//! energy model.

use common::units::{Power, Time};
use common::{CtaId, GpmId, WarpId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpujoule::EnergyModel;
use isa::{EventCounts, Opcode, Transaction, WarpInstr, PREDECODE_WINDOW};
use sim::bw::BwResource;
use sim::cache::Cache;
use sim::{BwSetting, GpuConfig, GpuSim, Topology};
use workloads::{by_name, Scale};

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");

    group.bench_function("cache_access_stream", |b| {
        let mut cache = Cache::new(2 * 1024 * 1024, 16, 128);
        let mut addr: u64 = 0;
        b.iter(|| {
            addr = addr.wrapping_add(128) & 0xFF_FFFF;
            black_box(cache.access(addr, false))
        })
    });

    group.bench_function("bw_resource_acquire", |b| {
        let mut r = BwResource::new(256.0);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            black_box(r.acquire(128, now))
        })
    });

    group.bench_function("energy_model_estimate", |b| {
        let model = EnergyModel::k40();
        let mut ev = EventCounts::new();
        ev.instrs.add(Opcode::FFma32, 1_000_000);
        ev.instrs.add(Opcode::FAdd64, 500_000);
        ev.txns.add(Transaction::DramToL2, 40_000);
        ev.txns.add(Transaction::L2ToL1, 80_000);
        ev.stall_cycles = 100_000;
        ev.elapsed = Time::from_micros(50.0);
        b.iter(|| black_box(model.estimate(&ev)))
    });

    group.bench_function("warp_stream_generation", |b| {
        let w = by_name("Stream").unwrap();
        let launches = w.launches(Scale::Smoke);
        let program = &launches[0].program;
        let mut cta = 0u32;
        b.iter(|| {
            cta = (cta + 1) % program.grid().ctas;
            let n = program
                .warp_instructions(CtaId::new(cta), WarpId::new(0))
                .count();
            black_box(n)
        })
    });

    // The engine decodes through `fill` (one virtual call per window);
    // `warp_stream_generation` above drains through `.count()`, the
    // per-instruction path.
    group.bench_function("warp_stream_fill", |b| {
        let w = by_name("Stream").unwrap();
        let launches = w.launches(Scale::Smoke);
        let program = &launches[0].program;
        let mut window = [WarpInstr::Compute(Opcode::FAdd32); PREDECODE_WINDOW];
        let mut cta = 0u32;
        b.iter(|| {
            cta = (cta + 1) % program.grid().ctas;
            let mut stream = program.warp_instructions(CtaId::new(cta), WarpId::new(0));
            let mut n = 0;
            loop {
                let got = stream.fill(&mut window);
                n += got;
                if got < window.len() {
                    break;
                }
            }
            black_box(n)
        })
    });

    group.bench_function("sensor_measurement", |b| {
        let hw = silicon::VirtualK40::new();
        let mut counts = EventCounts::new();
        counts.instrs.add(Opcode::FFma32, 1_000_000_000);
        let kernel = silicon::KernelActivity::new(
            Time::from_millis(200.0),
            counts,
            silicon::HiddenBehavior::regular(),
        );
        let profile = silicon::RunProfile::new("bench").kernel(kernel);
        b.iter(|| black_box(hw.measure(&profile)))
    });

    group.bench_function("noc_ring_transfer", |b| {
        let cfg = GpuConfig::paper(32, BwSetting::X2, Topology::Ring);
        let mut noc = sim::noc::Noc::new(&cfg);
        let mut now = 0u64;
        let mut dst = 0u16;
        b.iter(|| {
            now += 1;
            dst = (dst + 7) % 32;
            black_box(noc.transfer(GpmId::new(0), GpmId::new(dst), 160, now))
        })
    });

    group.finish();

    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(8));
    group.bench_function("smoke_kernel_4gpm", |b| {
        let w = by_name("Hotspot").unwrap();
        b.iter(|| {
            let mut sim = GpuSim::new(&GpuConfig::paper(4, BwSetting::X2, Topology::Ring));
            let launches = w.launches(Scale::Smoke);
            black_box(sim.run_workload(&launches))
        })
    });
    group.finish();

    // Silence unused-import style drift across refactors.
    let _ = Power::ZERO;
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
