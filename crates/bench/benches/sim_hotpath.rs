//! Event-driven vs naive cycle loop on the workloads `xp bench`
//! gates in CI — the interactive view of the same suite.
//!
//! `cargo bench --bench sim_hotpath` prints mean wall time per full
//! simulator run for each (workload kind, GPM count, engine mode)
//! point. The CI gate itself runs through `xp bench` (which records
//! machine-readable JSON); this bench exists for local digging, e.g.
//! `cargo bench --bench sim_hotpath -- memory/8`.

use common::{CtaId, WarpId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use isa::{GridShape, KernelProgram, MemRef, WarpInstr, WarpInstrStream};
use sim::{BwSetting, EngineMode, GpuConfig, GpuSim, Topology};

/// Private streaming loads: every warp stalls on DRAM almost all the
/// time — the fast-forward sweet spot (mirrors `xp bench`'s memory
/// scenario, including the 4x-starved DRAM).
struct Stream {
    ctas: u32,
    warps: u32,
    lines_per_warp: u32,
}

impl KernelProgram for Stream {
    fn name(&self) -> &str {
        "bench-stream"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps)
    }
    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let stride = self.lines_per_warp as u64 * 128;
        let base = (cta.0 as u64 * self.warps as u64 + warp.0 as u64) * stride;
        isa::iter_stream(
            (0..self.lines_per_warp as u64)
                .map(move |i| WarpInstr::Mem(MemRef::global_load(base + i * 128))),
        )
    }
    fn data_regions(&self) -> Vec<(u64, u64)> {
        let total = self.ctas as u64 * self.warps as u64 * self.lines_per_warp as u64 * 128;
        vec![(0, total)]
    }
}

fn run_stream(gpms: usize, mode: EngineMode) -> u64 {
    let mut cfg = GpuConfig::paper(gpms, BwSetting::X2, Topology::Ring);
    cfg.gpm.dram_bw = cfg.gpm.dram_bw * 0.25;
    let k = Stream {
        ctas: gpms as u32 * 32,
        warps: 8,
        lines_per_warp: 8,
    };
    let mut sim = GpuSim::with_mode(&cfg, mode);
    sim.prefault(&k);
    sim.run_kernel(&k).cycles
}

fn bench_sim_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_hotpath");
    for gpms in [1usize, 8] {
        group.bench_function(format!("memory/{gpms}gpm/event"), |b| {
            b.iter(|| black_box(run_stream(gpms, EngineMode::EventDriven)))
        });
        group.bench_function(format!("memory/{gpms}gpm/naive"), |b| {
            b.iter(|| black_box(run_stream(gpms, EngineMode::Naive)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_hotpath);
criterion_main!(benches);
