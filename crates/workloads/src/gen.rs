//! The surrogate kernel generator.
//!
//! A [`SurrogateKernel`] is a parameterized, deterministic trace generator
//! implementing [`isa::KernelProgram`]. Its parameters — instruction mix,
//! compute-to-memory ratio, access pattern, footprint — are the handles by
//! which each Table II benchmark's character is expressed. Warp streams
//! are generated lazily so that even the largest 32-GPM runs hold only a
//! few counters per resident warp.

use crate::mix::InstMix;
use common::{CtaId, WarpId};
use isa::{GridShape, KernelProgram, MemRef, WarpInstr, WarpInstrStream, WarpStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cacheline size used by address generation.
const LINE: u64 = 128;

/// How a surrogate touches global memory.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// Each warp streams over its own contiguous slice, `reuse` passes
    /// over it, with a `misalign` fraction of references going to a slice
    /// half the array away (first-touch mismatch → inter-GPM traffic).
    PrivateStream {
        /// Passes over the slice (>1 creates L1/L2 temporal reuse).
        reuse: u32,
        /// Fraction of references that go to the far slice.
        misalign: f64,
    },
    /// Warps read tiles of a shared array, mostly tiles near their own
    /// position (`spread` is the fraction of uniformly random tile picks).
    /// Captures blocked/tiled reuse: the hot window shrinks as modules are
    /// added, which is what produces cache-capacity superlinearity.
    TiledShared {
        /// Lines per tile (sequential within a tile).
        tile_lines: u32,
        /// Total shared-array size in lines.
        footprint_lines: u64,
        /// Fraction of tile picks that are uniformly random.
        spread: f64,
    },
    /// Uniformly random lines over a shared footprint (graph-like).
    RandomShared {
        /// Total shared-array size in lines.
        footprint_lines: u64,
    },
    /// Stencil: slice streaming with `halo` of references hitting the
    /// neighboring warp's slice (crosses CTA and GPM boundaries at the
    /// edges).
    Stencil {
        /// Fraction of references going to a neighbor slice.
        halo: f64,
        /// Passes over the slice.
        reuse: u32,
    },
}

/// Full parameterization of one surrogate kernel.
#[derive(Debug, Clone)]
pub struct KernelParams {
    /// Kernel name (for reports).
    pub name: String,
    /// CTAs in the grid.
    pub ctas: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Compute instructions preceding each memory reference.
    pub compute_per_mem: u32,
    /// Global memory references per warp.
    pub mem_refs_per_warp: u32,
    /// Additional compute instructions after the last reference (lets
    /// compute-bound kernels be expressed with few references).
    pub trailing_compute: u32,
    /// Probability a reference is a store (in-place update).
    pub store_fraction: f64,
    /// Shared-memory references accompanying each global reference.
    pub shared_per_mem: u32,
    /// Opcode distribution for compute instructions.
    pub mix: InstMix,
    /// Global-memory access pattern.
    pub pattern: AccessPattern,
    /// Base address of this kernel's data region (distinct per array so
    /// different kernels of one workload can share or separate data).
    pub region: u64,
    /// Seed for the deterministic per-warp RNG.
    pub seed: u64,
}

impl KernelParams {
    /// Total warps in the grid.
    pub fn total_warps(&self) -> u64 {
        self.ctas as u64 * self.warps_per_cta as u64
    }

    /// Lines in one warp's private slice (streaming patterns).
    fn slice_lines(&self) -> u64 {
        match self.pattern {
            AccessPattern::PrivateStream { reuse, .. } | AccessPattern::Stencil { reuse, .. } => {
                (self.mem_refs_per_warp as u64)
                    .div_ceil(reuse.max(1) as u64)
                    .max(1)
            }
            _ => 0,
        }
    }

    /// Approximate global-memory footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        match self.pattern {
            AccessPattern::PrivateStream { .. } | AccessPattern::Stencil { .. } => {
                self.total_warps() * self.slice_lines() * LINE
            }
            AccessPattern::TiledShared {
                footprint_lines, ..
            }
            | AccessPattern::RandomShared { footprint_lines } => footprint_lines * LINE,
        }
    }
}

/// A deterministic surrogate kernel.
///
/// # Examples
///
/// ```
/// use workloads::gen::{AccessPattern, KernelParams, SurrogateKernel};
/// use workloads::mix::InstMix;
/// use isa::KernelProgram;
/// use common::{CtaId, WarpId};
///
/// let k = SurrogateKernel::new(KernelParams {
///     name: "demo".into(),
///     ctas: 4,
///     warps_per_cta: 2,
///     compute_per_mem: 4,
///     mem_refs_per_warp: 8,
///     trailing_compute: 0,
///     store_fraction: 0.25,
///     shared_per_mem: 0,
///     mix: InstMix::fp32_stream(),
///     pattern: AccessPattern::PrivateStream { reuse: 1, misalign: 0.0 },
///     region: 0,
///     seed: 1,
/// });
/// let n = k.warp_instructions(CtaId::new(0), WarpId::new(0)).count();
/// assert_eq!(n, 8 * (4 + 1));
/// ```
#[derive(Debug, Clone)]
pub struct SurrogateKernel {
    params: Arc<KernelParams>,
}

impl SurrogateKernel {
    /// Wraps parameters into a kernel.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate or probabilities are out of range.
    pub fn new(params: KernelParams) -> Self {
        assert!(
            params.ctas > 0 && params.warps_per_cta > 0,
            "degenerate grid"
        );
        assert!(
            (0.0..=1.0).contains(&params.store_fraction),
            "store fraction out of range"
        );
        if let AccessPattern::PrivateStream { misalign, .. } = params.pattern {
            assert!((0.0..=1.0).contains(&misalign), "misalign out of range");
        }
        SurrogateKernel {
            params: Arc::new(params),
        }
    }

    /// The kernel's parameters.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }
}

impl KernelProgram for SurrogateKernel {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn grid(&self) -> GridShape {
        GridShape::new(self.params.ctas, self.params.warps_per_cta)
    }

    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let p = &self.params;
        let warp_global = cta.0 as u64 * p.warps_per_cta as u64 + warp.0 as u64;
        let seed = p
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(warp_global.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Box::new(SurrogateStream {
            rng: SmallRng::seed_from_u64(seed),
            warp_global,
            total_warps: p.total_warps(),
            group_len: p.compute_per_mem + p.shared_per_mem + 1,
            slice: p.slice_lines(),
            p: Arc::clone(p),
            mem_done: 0,
            group_pos: 0,
            trailing_done: 0,
            cursor: 0,
            tile_pos: 0,
            cur_tile: 0,
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.params.footprint_bytes()
    }

    fn data_regions(&self) -> Vec<(u64, u64)> {
        vec![(self.params.region, self.params.footprint_bytes())]
    }
}

/// Lazily generated warp instruction stream.
struct SurrogateStream {
    p: Arc<KernelParams>,
    rng: SmallRng,
    warp_global: u64,
    total_warps: u64,
    /// Instructions per compute/shared/mem group.
    group_len: u32,
    /// Lines in the warp's private slice (streaming patterns).
    slice: u64,
    /// Memory references emitted so far.
    mem_done: u32,
    /// Position inside the current compute/shared/mem group.
    group_pos: u32,
    /// Trailing compute instructions emitted so far.
    trailing_done: u32,
    /// Streaming cursor (line offset within the slice, monotonically
    /// increasing; wrapped at use).
    cursor: u64,
    /// Position within the current tile (TiledShared).
    tile_pos: u32,
    /// Current tile index (TiledShared).
    cur_tile: u64,
}

impl SurrogateStream {
    /// The next global line address for this warp.
    fn next_line(&mut self) -> u64 {
        let p = &self.p;
        match p.pattern {
            AccessPattern::PrivateStream { misalign, .. } => {
                let slice = self.slice;
                let offset = self.cursor % slice;
                self.cursor += 1;
                let owner = if misalign > 0.0 && self.rng.gen::<f64>() < misalign {
                    // A producer/consumer indexing mismatch: the reference
                    // lands in a uniformly random other warp's slice — the
                    // globally scattered sharing that first-touch
                    // placement cannot localize and that pressures the
                    // inter-GPM links at scale.
                    let other = self.rng.gen_range(0..self.total_warps.max(2) - 1);
                    if other >= self.warp_global {
                        other + 1
                    } else {
                        other
                    }
                } else {
                    self.warp_global
                };
                p.region + (owner * slice + offset) * LINE
            }
            AccessPattern::Stencil { halo, .. } => {
                let slice = self.slice;
                let offset = self.cursor % slice;
                self.cursor += 1;
                let owner = if halo > 0.0 && self.rng.gen::<f64>() < halo {
                    let dir = if self.rng.gen::<bool>() {
                        1
                    } else {
                        self.total_warps - 1
                    };
                    (self.warp_global + dir) % self.total_warps
                } else {
                    self.warp_global
                };
                p.region + (owner * slice + offset) * LINE
            }
            AccessPattern::TiledShared {
                tile_lines,
                footprint_lines,
                spread,
            } => {
                let tiles = (footprint_lines / tile_lines.max(1) as u64).max(1);
                if self.tile_pos == 0 {
                    self.cur_tile = if self.rng.gen::<f64>() < spread {
                        self.rng.gen_range(0..tiles)
                    } else {
                        // A tile near the warp's own position, with jitter.
                        let home = self.warp_global * tiles / self.total_warps.max(1);
                        let jitter = self.rng.gen_range(0..3);
                        (home + jitter) % tiles
                    };
                }
                let line = self.cur_tile * tile_lines as u64 + self.tile_pos as u64;
                self.tile_pos = (self.tile_pos + 1) % tile_lines.max(1);
                p.region + (line % footprint_lines.max(1)) * LINE
            }
            AccessPattern::RandomShared { footprint_lines } => {
                p.region + self.rng.gen_range(0..footprint_lines.max(1)) * LINE
            }
        }
    }
}

impl Iterator for SurrogateStream {
    type Item = WarpInstr;

    /// One generation step; forced inline so the provided
    /// [`WarpStream::fill`] loop, monomorphized for this stream, pays no
    /// call per instruction.
    #[inline(always)]
    fn next(&mut self) -> Option<WarpInstr> {
        if self.mem_done < self.p.mem_refs_per_warp {
            let pos = self.group_pos;
            self.group_pos += 1;
            if self.group_pos == self.group_len {
                self.group_pos = 0;
            }
            let compute = self.p.compute_per_mem;
            if pos < compute {
                return Some(WarpInstr::Compute(self.p.mix.sample(&mut self.rng)));
            }
            if pos < compute + self.p.shared_per_mem {
                let addr = (self.cursor * 4 + pos as u64 * 128) % (48 * 1024);
                return Some(WarpInstr::Mem(MemRef::shared(addr, false)));
            }
            // The memory reference that closes the group.
            self.mem_done += 1;
            let addr = self.next_line();
            let is_store = self.rng.gen::<f64>() < self.p.store_fraction;
            return Some(WarpInstr::Mem(MemRef {
                space: isa::MemSpace::Global,
                addr,
                is_store,
            }));
        }
        if self.trailing_done < self.p.trailing_compute {
            self.trailing_done += 1;
            return Some(WarpInstr::Compute(self.p.mix.sample(&mut self.rng)));
        }
        None
    }
}

impl WarpStream for SurrogateStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::MemSpace;

    fn base_params() -> KernelParams {
        KernelParams {
            name: "t".into(),
            ctas: 4,
            warps_per_cta: 2,
            compute_per_mem: 3,
            mem_refs_per_warp: 10,
            trailing_compute: 5,
            store_fraction: 0.0,
            shared_per_mem: 1,
            mix: InstMix::fp32_stream(),
            pattern: AccessPattern::PrivateStream {
                reuse: 2,
                misalign: 0.0,
            },
            region: 0x1000_0000,
            seed: 9,
        }
    }

    fn collect(k: &SurrogateKernel, cta: u32, warp: u32) -> Vec<WarpInstr> {
        k.warp_instructions(CtaId::new(cta), WarpId::new(warp))
            .collect()
    }

    #[test]
    fn stream_length_is_exact() {
        let k = SurrogateKernel::new(base_params());
        let v = collect(&k, 0, 0);
        // 10 groups of (3 compute + 1 shared + 1 mem) + 5 trailing.
        assert_eq!(v.len(), 10 * 5 + 5);
        let mems = v
            .iter()
            .filter(|i| matches!(i, WarpInstr::Mem(m) if m.space == MemSpace::Global))
            .count();
        assert_eq!(mems, 10);
        let shared = v
            .iter()
            .filter(|i| matches!(i, WarpInstr::Mem(m) if m.space == MemSpace::Shared))
            .count();
        assert_eq!(shared, 10);
    }

    #[test]
    fn streams_are_deterministic() {
        let k = SurrogateKernel::new(base_params());
        assert_eq!(collect(&k, 2, 1), collect(&k, 2, 1));
        assert_ne!(collect(&k, 2, 1), collect(&k, 2, 0));
    }

    #[test]
    fn private_stream_stays_in_own_slice() {
        let k = SurrogateKernel::new(base_params());
        let p = k.params();
        let slice_bytes = p.footprint_bytes() / p.total_warps();
        for instr in collect(&k, 1, 1) {
            if let WarpInstr::Mem(m) = instr {
                if m.space == MemSpace::Global {
                    let warp_global = 2 + 1;
                    let lo = p.region + warp_global * slice_bytes;
                    assert!(
                        m.addr >= lo && m.addr < lo + slice_bytes,
                        "addr {:#x}",
                        m.addr
                    );
                }
            }
        }
    }

    #[test]
    fn reuse_revisits_lines() {
        // reuse=2 over 10 refs -> slice of 5 lines, each touched twice.
        let k = SurrogateKernel::new(base_params());
        let mut lines: Vec<u64> = collect(&k, 0, 0)
            .into_iter()
            .filter_map(|i| match i {
                WarpInstr::Mem(m) if m.space == MemSpace::Global => Some(m.addr),
                _ => None,
            })
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn misalign_leaves_own_slice() {
        let mut p = base_params();
        p.pattern = AccessPattern::PrivateStream {
            reuse: 1,
            misalign: 1.0,
        };
        let k = SurrogateKernel::new(p);
        let params = k.params();
        let slice_bytes = params.footprint_bytes() / params.total_warps();
        let own_lo = params.region; // warp_global 0
        for i in collect(&k, 0, 0) {
            if let WarpInstr::Mem(m) = i {
                if m.space == MemSpace::Global {
                    assert!(
                        m.addr >= own_lo + slice_bytes,
                        "misaligned ref landed in own slice: {:#x}",
                        m.addr
                    );
                    assert!(m.addr < params.region + params.footprint_bytes());
                }
            }
        }
    }

    #[test]
    fn random_shared_stays_in_footprint() {
        let mut p = base_params();
        p.pattern = AccessPattern::RandomShared {
            footprint_lines: 64,
        };
        let k = SurrogateKernel::new(p);
        for i in collect(&k, 3, 1) {
            if let WarpInstr::Mem(m) = i {
                if m.space == MemSpace::Global {
                    assert!(m.addr >= 0x1000_0000);
                    assert!(m.addr < 0x1000_0000 + 64 * 128);
                }
            }
        }
        assert_eq!(k.footprint_bytes(), 64 * 128);
    }

    #[test]
    fn tiled_shared_is_mostly_sequential_within_tiles() {
        let mut p = base_params();
        p.mem_refs_per_warp = 32;
        p.pattern = AccessPattern::TiledShared {
            tile_lines: 8,
            footprint_lines: 1024,
            spread: 0.0,
        };
        let k = SurrogateKernel::new(p);
        let addrs: Vec<u64> = collect(&k, 0, 0)
            .into_iter()
            .filter_map(|i| match i {
                WarpInstr::Mem(m) if m.space == MemSpace::Global => Some(m.addr),
                _ => None,
            })
            .collect();
        // Consecutive refs within a tile differ by one line.
        let seq = addrs.windows(2).filter(|w| w[1] == w[0] + 128).count();
        assert!(seq * 2 > addrs.len(), "tiles should be mostly sequential");
    }

    #[test]
    fn stencil_halo_touches_neighbors() {
        let mut p = base_params();
        p.pattern = AccessPattern::Stencil {
            halo: 0.5,
            reuse: 1,
        };
        p.mem_refs_per_warp = 100;
        let k = SurrogateKernel::new(p);
        let params = k.params();
        let slice_bytes = params.footprint_bytes() / params.total_warps();
        let own_lo = params.region + 4 * slice_bytes; // warp_global 4 = cta 2, warp 0
        let outside = collect(&k, 2, 0)
            .into_iter()
            .filter_map(|i| match i {
                WarpInstr::Mem(m) if m.space == MemSpace::Global => Some(m.addr),
                _ => None,
            })
            .filter(|&a| a < own_lo || a >= own_lo + slice_bytes)
            .count();
        assert!(outside > 20, "halo refs expected, got {outside}");
    }

    #[test]
    fn store_fraction_generates_stores() {
        let mut p = base_params();
        p.store_fraction = 0.5;
        p.mem_refs_per_warp = 200;
        let k = SurrogateKernel::new(p);
        let stores = collect(&k, 0, 0)
            .into_iter()
            .filter(|i| matches!(i, WarpInstr::Mem(m) if m.is_store))
            .count();
        assert!((60..140).contains(&stores), "got {stores}");
    }

    #[test]
    fn pure_compute_kernel_has_no_memory() {
        let mut p = base_params();
        p.mem_refs_per_warp = 0;
        p.trailing_compute = 50;
        let k = SurrogateKernel::new(p);
        let v = collect(&k, 0, 0);
        assert_eq!(v.len(), 50);
        assert!(v.iter().all(|i| matches!(i, WarpInstr::Compute(_))));
    }

    #[test]
    #[should_panic(expected = "degenerate grid")]
    fn zero_ctas_panics() {
        let mut p = base_params();
        p.ctas = 0;
        let _ = SurrogateKernel::new(p);
    }

    #[test]
    #[should_panic(expected = "store fraction")]
    fn bad_store_fraction_panics() {
        let mut p = base_params();
        p.store_fraction = 1.5;
        let _ = SurrogateKernel::new(p);
    }
}
