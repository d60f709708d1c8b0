//! Quick phase-level timing harness for the compute/32gpm bench shape.
//! Run with: cargo run --release -p sim --example prof

use common::{CtaId, WarpId};
use isa::{GridShape, KernelProgram, Opcode, WarpInstr, WarpInstrStream};
use sim::{EngineMode, GpuConfig, GpuSim};
use std::time::Instant;

struct ComputeBound {
    ctas: u32,
    warps: u32,
    len: u32,
}

impl KernelProgram for ComputeBound {
    fn name(&self) -> &str {
        "prof-compute"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps)
    }
    fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
        isa::iter_stream((0..self.len).map(|_| WarpInstr::Compute(Opcode::FFma32)))
    }
    fn uniform_warp_program(&self) -> Option<Vec<WarpInstr>> {
        Some(vec![WarpInstr::Compute(Opcode::FFma32); self.len as usize])
    }
}

fn main() {
    let gpms = 32usize;
    let cfg = GpuConfig::paper(gpms, sim::BwSetting::X2, sim::Topology::Ring);
    let program = ComputeBound {
        ctas: gpms as u32 * 16,
        warps: 8,
        len: 96,
    };

    for mode in [EngineMode::EventDriven, EngineMode::Naive] {
        // Warm up.
        let mut sim = GpuSim::with_mode(&cfg, mode);
        sim.run_kernel(&program);

        let iters = 20;
        let mut t_construct = 0.0;
        let mut t_run = 0.0;
        let mut cycles = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let mut sim = GpuSim::with_mode(&cfg, mode);
            let t1 = Instant::now();
            cycles = sim.run_kernel(&program).cycles;
            t_construct += t1.duration_since(t0).as_secs_f64();
            t_run += t1.elapsed().as_secs_f64();
        }
        println!(
            "{mode:?}: construct {:.3} ms  run {:.3} ms  ({} cycles, {:.0} cyc/s)",
            t_construct / iters as f64 * 1e3,
            t_run / iters as f64 * 1e3,
            cycles,
            cycles as f64 / (t_run / iters as f64)
        );

        // Reused-sim path (scratch warm): construct once, run many.
        let mut sim = GpuSim::with_mode(&cfg, mode);
        sim.run_kernel(&program);
        let t0 = Instant::now();
        for _ in 0..iters {
            sim.run_kernel(&program);
        }
        let warm = t0.elapsed().as_secs_f64() / iters as f64;
        println!(
            "{mode:?}: warm-reuse run {:.3} ms ({:.0} cyc/s)",
            warm * 1e3,
            cycles as f64 / warm
        );
    }
}
