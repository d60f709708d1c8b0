//! Bring your own kernel: implement [`KernelProgram`] directly, simulate
//! it on multi-module configurations, and charge it with the energy
//! model. This is the extension point a downstream user starts from.
//!
//! The kernel here is a tiled matrix-multiply-like sweep: each CTA loads
//! two input tiles (one streamed, one reused) and writes an output tile.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use mmgpu::common::{CtaId, WarpId};
use mmgpu::gpujoule::{EdpScalingEfficiency, EnergyDelay, IntegrationDomain, MultiGpmEnergyConfig};
use mmgpu::isa::{GridShape, KernelProgram, MemRef, Opcode, WarpInstr, WarpInstrStream};
use mmgpu::sim::{BwSetting, GpuConfig, GpuSim, Topology};

/// A GEMM-flavored kernel: stream tiles of A, reuse a tile of B (shared
/// memory), FMA-heavy inner product, write C.
struct TiledGemm {
    /// Tiles along one matrix dimension; the grid is `tiles x tiles` CTAs.
    tiles: u32,
}

impl TiledGemm {
    const WARPS_PER_CTA: u32 = 8;
    const K_STEPS: u32 = 24;
}

impl KernelProgram for TiledGemm {
    fn name(&self) -> &str {
        "tiled-gemm"
    }

    fn grid(&self) -> GridShape {
        GridShape::new(self.tiles * self.tiles, Self::WARPS_PER_CTA)
    }

    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let tiles = self.tiles as u64;
        let (row, col) = (cta.0 as u64 / tiles, cta.0 as u64 % tiles);
        let w = warp.0 as u64;
        let a_base = row << 20;
        let b_base = (1 << 36) + (col << 20);
        let c_base = (1 << 37) + ((row * tiles + col) << 14);
        mmgpu::isa::iter_stream((0..Self::K_STEPS as u64).flat_map(move |k| {
            let a = WarpInstr::Mem(MemRef::global_load(a_base + k * 4096 + w * 128));
            let b = WarpInstr::Mem(MemRef::global_load(b_base + k * 4096 + w * 128));
            let smem = WarpInstr::Mem(MemRef::shared((w * 128) % (48 * 1024), false));
            let fmas = std::iter::repeat_n(WarpInstr::Compute(Opcode::FFma32), 16);
            let store = WarpInstr::Mem(MemRef::global_store(c_base + k * 1024 + w * 128));
            [a, b, smem]
                .into_iter()
                .chain(fmas)
                .chain(std::iter::once(store))
        }))
    }

    fn footprint_bytes(&self) -> u64 {
        (self.tiles as u64 * self.tiles as u64) << 14
    }
}

fn main() {
    let kernel = TiledGemm { tiles: 32 }; // 1024 CTAs

    // Single-module baseline.
    let mut sim1 = GpuSim::new(&GpuConfig::single_gpm());
    sim1.prefault(&kernel);
    let base = sim1.run_kernel(&kernel);
    let base_energy = MultiGpmEnergyConfig::new(1, IntegrationDomain::OnPackage)
        .build_model()
        .estimate(&base.counts);
    println!(
        "1-GPM: {} cycles, {} ({:.1}% idle)",
        base.cycles,
        base_energy.total(),
        base.counts.idle_fraction() * 100.0
    );

    // Scale it across on-package module counts.
    for gpms in [2usize, 4, 8, 16] {
        let cfg = GpuConfig::paper(gpms, BwSetting::X2, Topology::Ring);
        let mut sim = GpuSim::new(&cfg);
        sim.prefault(&kernel);
        let run = sim.run_kernel(&kernel);
        let energy = MultiGpmEnergyConfig::new(gpms, IntegrationDomain::OnPackage)
            .build_model()
            .estimate(&run.counts);

        let edpse = EdpScalingEfficiency::compute(
            EnergyDelay::new(base_energy.total(), base.counts.elapsed),
            EnergyDelay::new(energy.total(), run.counts.elapsed),
            gpms,
        )
        .expect("valid design points");

        println!(
            "{gpms}-GPM: {} cycles ({:.2}x), {}, EDPSE {edpse}",
            run.cycles,
            base.cycles as f64 / run.cycles as f64,
            energy.total(),
        );
    }
}
