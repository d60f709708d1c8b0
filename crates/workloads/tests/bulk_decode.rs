//! Bulk decode must be invisible: draining a surrogate stream through
//! `WarpStream::fill`, in any window size, yields exactly the sequence
//! `next()` yields.

use common::{CtaId, WarpId};
use isa::{KernelProgram, Opcode, WarpInstr, WarpInstrStream};
use workloads::gen::{AccessPattern, KernelParams, SurrogateKernel};
use workloads::mix::InstMix;
use workloads::{suite, Scale};

/// Drains `stream` through `fill` with a `window`-sized buffer.
fn drain_by_fill(mut stream: WarpInstrStream, window: usize) -> Vec<WarpInstr> {
    let mut buf = vec![WarpInstr::Compute(Opcode::FAdd32); window];
    let mut out = Vec::new();
    loop {
        let n = stream.fill(&mut buf);
        assert!(n <= window);
        out.extend_from_slice(&buf[..n]);
        if n < window {
            assert_eq!(stream.fill(&mut buf), 0, "an exhausted stream refilled");
            assert_eq!(stream.next(), None);
            return out;
        }
    }
}

fn warp(k: &dyn KernelProgram, global: u32) -> (CtaId, WarpId) {
    let wpc = k.grid().warps_per_cta;
    (CtaId::new(global / wpc), WarpId::new(global % wpc))
}

fn assert_fill_matches_next(k: &dyn KernelProgram, warps: u32) {
    for g in 0..warps {
        let (cta, w) = warp(k, g);
        let reference: Vec<WarpInstr> = k.warp_instructions(cta, w).collect();
        for window in [1, 7, 64] {
            assert_eq!(
                drain_by_fill(k.warp_instructions(cta, w), window),
                reference,
                "{} {cta} {w}, window {window}",
                k.name()
            );
        }
    }
}

#[test]
fn fill_matches_next_for_every_suite_surrogate() {
    for spec in suite() {
        for launch in spec.launches(Scale::Smoke) {
            let k = launch.program.as_ref();
            let warps = k.grid().total_warps().min(64) as u32;
            assert_fill_matches_next(k, warps);
        }
    }
}

#[test]
fn fill_matches_next_on_exact_window_multiples() {
    // 16 groups of (3 compute + 1 global) = 64 instructions; 32 = 128.
    for refs in [16, 32] {
        for pattern in [
            AccessPattern::PrivateStream {
                reuse: 2,
                misalign: 0.3,
            },
            AccessPattern::TiledShared {
                tile_lines: 4,
                footprint_lines: 256,
                spread: 0.2,
            },
        ] {
            let k = SurrogateKernel::new(KernelParams {
                name: format!("exact-{refs}"),
                ctas: 2,
                warps_per_cta: 2,
                compute_per_mem: 3,
                mem_refs_per_warp: refs,
                trailing_compute: 0,
                store_fraction: 0.25,
                shared_per_mem: 0,
                mix: InstMix::int_graph(),
                pattern,
                region: 1 << 32,
                seed: 3,
            });
            let len = k.warp_instructions(CtaId::new(0), WarpId::new(0)).count();
            assert_eq!(len, 4 * refs as usize);
            assert_fill_matches_next(&k, 4);
        }
    }
}
