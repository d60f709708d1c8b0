//! Microbenchmark kernels (paper §IV-A).
//!
//! Two families, exactly as in the paper:
//!
//! * **Compute microbenchmarks** execute one PTX instruction in a steady
//!   loop with everything else stripped away (Algorithm 1's inline-asm
//!   loop).
//! * **Data-movement microbenchmarks** size and stride their working sets
//!   so that every access is served by one chosen level of the hierarchy:
//!   shared memory, the L1, the L2 (working set over the L1s but under
//!   the L2), or DRAM (working set well over the L2). Accesses are
//!   warp-coalesced by construction.
//!
//! A third family of **mixed validation kernels** combines one compute
//! opcode with one memory level for the Fig. 4a validation step.

use common::{CtaId, WarpId};
use isa::{GridShape, KernelProgram, MemRef, Opcode, WarpInstr, WarpInstrStream};
use sim::GpmConfig;
use std::fmt;

/// Which memory level a data-movement microbenchmark stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Shared memory to register file.
    Shared,
    /// L1 cache (working set fits each SM's L1).
    L1,
    /// L2 cache (working set over the L1s, under the module L2).
    L2,
    /// DRAM (working set well over the L2).
    Dram,
}

impl MemLevel {
    /// All levels, nearest first (the order the derivation pipeline fits
    /// them, subtracting each level's cost from the next).
    pub const ALL: [MemLevel; 4] = [MemLevel::Shared, MemLevel::L1, MemLevel::L2, MemLevel::Dram];
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLevel::Shared => write!(f, "shared"),
            MemLevel::L1 => write!(f, "l1"),
            MemLevel::L2 => write!(f, "l2"),
            MemLevel::Dram => write!(f, "dram"),
        }
    }
}

/// Grid shape that exactly fills one GPM at full occupancy.
fn full_grid(gpm: &GpmConfig, warps_per_cta: u32) -> GridShape {
    let total_warps = (gpm.sms * gpm.max_resident_warps) as u32;
    GridShape::new(total_warps / warps_per_cta, warps_per_cta)
}

/// A compute microbenchmark: every warp executes `iterations` copies of
/// one opcode (Algorithm 1).
///
/// # Examples
///
/// ```
/// use microbench::kernels::ComputeUbench;
/// use sim::GpmConfig;
/// use isa::{KernelProgram, Opcode};
///
/// let k = ComputeUbench::new(Opcode::FFma32, 1000, &GpmConfig::k40_class());
/// assert_eq!(k.grid().total_warps(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct ComputeUbench {
    op: Opcode,
    iterations: u32,
    grid: GridShape,
    name: String,
}

impl ComputeUbench {
    /// Builds the benchmark for one opcode at a given iteration count,
    /// sized to fill `gpm`.
    pub fn new(op: Opcode, iterations: u32, gpm: &GpmConfig) -> Self {
        Self::with_grid(op, iterations, full_grid(gpm, 8))
    }

    /// Like [`ComputeUbench::new`] with an explicit grid — used by the
    /// occupancy sweep that isolates the lane-stall energy.
    pub fn with_grid(op: Opcode, iterations: u32, grid: GridShape) -> Self {
        ComputeUbench {
            op,
            iterations,
            grid,
            name: format!("ubench-{}", op.mnemonic()),
        }
    }

    /// The opcode under test.
    pub fn opcode(&self) -> Opcode {
        self.op
    }
}

impl KernelProgram for ComputeUbench {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> GridShape {
        self.grid
    }

    fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
        let op = self.op;
        isa::iter_stream((0..self.iterations).map(move |_| WarpInstr::Compute(op)))
    }
}

/// A data-movement microbenchmark targeting one hierarchy level.
#[derive(Debug, Clone)]
pub struct MemoryUbench {
    level: MemLevel,
    lines_per_warp: u64,
    passes: u32,
    grid: GridShape,
    region: u64,
    name: String,
}

impl MemoryUbench {
    /// Builds the benchmark for `level`, sized from the GPM geometry so
    /// the working set lands in the right level.
    pub fn new(level: MemLevel, gpm: &GpmConfig) -> Self {
        Self::with_grid(level, gpm, full_grid(gpm, 8))
    }

    /// Like [`MemoryUbench::new`] but with an explicit grid — used by the
    /// occupancy sweep that separates stall energy from transaction
    /// energy.
    pub fn with_grid(level: MemLevel, gpm: &GpmConfig, grid: GridShape) -> Self {
        let warps_per_sm = (grid.total_warps() as f64 / gpm.sms as f64).ceil().max(1.0) as u64;
        let l1_lines = gpm.l1_bytes.count() / 128;
        let l2_lines_per_warp = {
            // Over the L1s (per-SM footprint beyond L1 capacity), under the
            // module L2 across all SMs.
            let per_sm_target = l1_lines * 2;
            let total = gpm.l2_bytes.count() / 128 / 2; // half the L2
            (per_sm_target / warps_per_sm.min(per_sm_target))
                .min(total / grid.total_warps())
                .max(1)
        };
        // High pass counts keep the one-time warm-up fill a negligible
        // share of the traffic (Algorithm 1 loops inside the kernel).
        let (lines_per_warp, passes) = match level {
            MemLevel::Shared => (16, 160),
            // Fit all resident warps' slices in the L1 comfortably.
            MemLevel::L1 => ((l1_lines / (2 * warps_per_sm)).max(1), 640),
            MemLevel::L2 => (l2_lines_per_warp, 80),
            // Well past the L2: stream fresh lines.
            MemLevel::Dram => (96, 4),
        };
        MemoryUbench {
            level,
            lines_per_warp,
            passes,
            grid,
            region: 0x4000_0000_0000,
            name: format!("ubench-mem-{level}"),
        }
    }

    /// The level under test.
    pub fn level(&self) -> MemLevel {
        self.level
    }

    /// Memory references each warp performs.
    pub fn refs_per_warp(&self) -> u64 {
        self.lines_per_warp * self.passes as u64
    }
}

impl KernelProgram for MemoryUbench {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> GridShape {
        self.grid
    }

    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let warp_global = cta.0 as u64 * self.grid.warps_per_cta as u64 + warp.0 as u64;
        let level = self.level;
        let lines = self.lines_per_warp;
        let passes = self.passes as u64;
        let slice = self.region + warp_global * lines * 128;
        let dram_stride = lines * 128;
        isa::iter_stream((0..lines * passes).map(move |i| match level {
            MemLevel::Shared => {
                WarpInstr::Mem(MemRef::shared((i % lines) * 128 % (48 * 1024), false))
            }
            MemLevel::L1 | MemLevel::L2 => {
                WarpInstr::Mem(MemRef::global_load(slice + (i % lines) * 128))
            }
            MemLevel::Dram => {
                // Fresh lines every pass: pass p uses a disjoint slab, so
                // nothing is ever re-served by the L2.
                let pass = i / lines;
                let off = i % lines;
                WarpInstr::Mem(MemRef::global_load(
                    slice + pass * dram_stride * 4096 + off * 128,
                ))
            }
        }))
    }

    fn footprint_bytes(&self) -> u64 {
        match self.level {
            MemLevel::Shared => 48 * 1024,
            _ => self.grid.total_warps() * self.lines_per_warp * 128,
        }
    }
}

/// A mixed validation kernel: `compute_per_mem` copies of one opcode
/// between successive memory references at one level (the Fig. 4a
/// combinations, e.g. "FADD64 + L2 Cache").
#[derive(Debug, Clone)]
pub struct MixedUbench {
    op: Opcode,
    compute_per_mem: u32,
    mem: MemoryUbench,
    /// For the "L2 + DRAM" combination: a second interleaved DRAM-level
    /// reference stream.
    extra_dram: Option<MemoryUbench>,
    name: String,
}

impl MixedUbench {
    /// Builds `op` + one memory level.
    pub fn new(op: Opcode, level: MemLevel, compute_per_mem: u32, gpm: &GpmConfig) -> Self {
        MixedUbench {
            op,
            compute_per_mem,
            mem: MemoryUbench::new(level, gpm),
            extra_dram: None,
            name: format!("mixed-{}-{level}", op.mnemonic()),
        }
    }

    /// Builds the "FADD64 + L2 Cache + DRAM" style combination.
    pub fn with_extra_dram(op: Opcode, compute_per_mem: u32, gpm: &GpmConfig) -> Self {
        MixedUbench {
            op,
            compute_per_mem,
            mem: MemoryUbench::new(MemLevel::L2, gpm),
            extra_dram: Some(MemoryUbench::new(MemLevel::Dram, gpm)),
            name: format!("mixed-{}-l2+dram", op.mnemonic()),
        }
    }
}

impl KernelProgram for MixedUbench {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> GridShape {
        self.mem.grid
    }

    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let op = self.op;
        let k = self.compute_per_mem as usize;
        let mem_stream = self.mem.warp_instructions(cta, warp);
        match &self.extra_dram {
            None => isa::iter_stream(mem_stream.flat_map(move |m| {
                std::iter::repeat_n(WarpInstr::Compute(op), k).chain(std::iter::once(m))
            })),
            Some(extra) => {
                let dram_stream = extra.warp_instructions(cta, warp);
                // Interleave: compute burst, L2 ref, compute burst, DRAM ref.
                let zipped = mem_stream.zip(dram_stream);
                isa::iter_stream(zipped.flat_map(move |(a, b)| {
                    std::iter::repeat_n(WarpInstr::Compute(op), k)
                        .chain(std::iter::once(a))
                        .chain(std::iter::repeat_n(WarpInstr::Compute(op), k))
                        .chain(std::iter::once(b))
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::MemSpace;
    use sim::{GpuConfig, GpuSim};

    #[test]
    fn compute_ubench_is_pure() {
        let gpm = GpmConfig::tiny();
        let k = ComputeUbench::new(Opcode::FRcp32, 100, &gpm);
        let v: Vec<_> = k.warp_instructions(CtaId::new(0), WarpId::new(0)).collect();
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|i| *i == WarpInstr::Compute(Opcode::FRcp32)));
    }

    #[test]
    fn full_grid_fills_all_sms() {
        let gpm = GpmConfig::k40_class();
        let k = ComputeUbench::new(Opcode::FAdd32, 10, &gpm);
        assert_eq!(
            k.grid().total_warps() as usize,
            gpm.sms * gpm.max_resident_warps
        );
    }

    #[test]
    fn l1_ubench_hits_l1_after_warmup() {
        let cfg = GpuConfig::tiny(1);
        let mut sim = GpuSim::new(&cfg);
        let k = MemoryUbench::new(MemLevel::L1, &cfg.gpm);
        sim.run_kernel(&k);
        assert!(
            sim.memory().l1_hit_rate() > 0.9,
            "L1 ubench hit rate {}",
            sim.memory().l1_hit_rate()
        );
    }

    #[test]
    fn l2_ubench_misses_l1_but_hits_l2() {
        let cfg = GpuConfig::tiny(1);
        let mut sim = GpuSim::new(&cfg);
        let k = MemoryUbench::new(MemLevel::L2, &cfg.gpm);
        sim.run_kernel(&k);
        assert!(
            sim.memory().l1_hit_rate() < 0.35,
            "L2 ubench should thrash L1s, hit rate {}",
            sim.memory().l1_hit_rate()
        );
        assert!(
            sim.memory().l2_hit_rate() > 0.7,
            "L2 ubench should hit L2, hit rate {}",
            sim.memory().l2_hit_rate()
        );
    }

    #[test]
    fn dram_ubench_misses_l2() {
        let cfg = GpuConfig::tiny(1);
        let mut sim = GpuSim::new(&cfg);
        let k = MemoryUbench::new(MemLevel::Dram, &cfg.gpm);
        sim.run_kernel(&k);
        assert!(
            sim.memory().l2_hit_rate() < 0.1,
            "DRAM ubench should stream past L2, hit rate {}",
            sim.memory().l2_hit_rate()
        );
    }

    #[test]
    fn shared_ubench_stays_on_chip() {
        let cfg = GpuConfig::tiny(1);
        let mut sim = GpuSim::new(&cfg);
        let k = MemoryUbench::new(MemLevel::Shared, &cfg.gpm);
        let r = sim.run_kernel(&k);
        assert!(r.counts.txns.get(isa::Transaction::SharedToReg) > 0);
        assert_eq!(r.counts.txns.get(isa::Transaction::DramToL2), 0);
    }

    #[test]
    fn mixed_ubench_interleaves() {
        let gpm = GpmConfig::tiny();
        let k = MixedUbench::new(Opcode::FAdd64, MemLevel::L1, 3, &gpm);
        let v: Vec<_> = k.warp_instructions(CtaId::new(0), WarpId::new(0)).collect();
        let computes = v
            .iter()
            .filter(|i| matches!(i, WarpInstr::Compute(_)))
            .count();
        let mems = v
            .iter()
            .filter(|i| matches!(i, WarpInstr::Mem(m) if m.space == MemSpace::Global))
            .count();
        assert_eq!(computes, 3 * mems);
    }

    #[test]
    fn mixed_with_dram_has_both_levels() {
        let cfg = GpuConfig::tiny(1);
        let mut sim = GpuSim::new(&cfg);
        let k = MixedUbench::with_extra_dram(Opcode::FAdd64, 4, &cfg.gpm);
        let r = sim.run_kernel(&k);
        assert!(r.counts.instrs.get(Opcode::FAdd64) > 0);
        assert!(r.counts.txns.get(isa::Transaction::DramToL2) > 0);
        // The L2 component should be visible as a decent hit rate.
        assert!(sim.memory().l2_hit_rate() > 0.2);
    }

    #[test]
    fn occupancy_variants_change_parallelism() {
        let gpm = GpmConfig::k40_class();
        let low = MemoryUbench::with_grid(MemLevel::Dram, &gpm, GridShape::new(16, 1));
        let high = MemoryUbench::new(MemLevel::Dram, &gpm);
        assert!(low.grid().total_warps() < high.grid().total_warps());
    }

    #[test]
    fn display_and_accessors() {
        let gpm = GpmConfig::tiny();
        assert_eq!(MemLevel::Dram.to_string(), "dram");
        let k = MemoryUbench::new(MemLevel::L2, &gpm);
        assert_eq!(k.level(), MemLevel::L2);
        assert!(k.refs_per_warp() > 0);
        assert!(k.name().contains("l2"));
        let c = ComputeUbench::new(Opcode::FSin32, 5, &gpm);
        assert_eq!(c.opcode(), Opcode::FSin32);
    }
}
