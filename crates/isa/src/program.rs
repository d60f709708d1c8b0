//! Warp instruction streams and kernel program descriptions.
//!
//! The performance simulator is *trace driven*: it executes per-warp
//! instruction streams produced procedurally by a [`KernelProgram`]. Keeping
//! streams procedural (iterators, not materialized vectors) lets a 32-GPM
//! configuration with hundreds of thousands of warps run in constant memory.

use common::{CtaId, WarpId};
use std::fmt;

/// Memory space targeted by a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    /// Global memory, backed by the L1/L2/DRAM hierarchy and subject to
    /// first-touch page placement across GPMs.
    Global,
    /// Per-CTA shared memory (scratchpad); always local, never misses.
    Shared,
}

/// One coalesced warp-level memory reference.
///
/// Addresses are *byte* addresses of the 128-byte cacheline the (coalesced)
/// warp access touches. The generators in the `workloads` crate guarantee
/// coalescing the same way the paper's microbenchmarks do; memory divergence
/// is modeled by issuing several `MemRef`s for one logical instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Target memory space.
    pub space: MemSpace,
    /// Byte address (cacheline aligned by construction in the generators).
    pub addr: u64,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

impl MemRef {
    /// A coalesced global load of the cacheline containing `addr`.
    #[inline]
    pub fn global_load(addr: u64) -> Self {
        MemRef {
            space: MemSpace::Global,
            addr,
            is_store: false,
        }
    }

    /// A coalesced global store to the cacheline containing `addr`.
    #[inline]
    pub fn global_store(addr: u64) -> Self {
        MemRef {
            space: MemSpace::Global,
            addr,
            is_store: true,
        }
    }

    /// A shared-memory access (never leaves the SM).
    #[inline]
    pub fn shared(addr: u64, is_store: bool) -> Self {
        MemRef {
            space: MemSpace::Shared,
            addr,
            is_store,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.is_store { "st" } else { "ld" };
        let sp = match self.space {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
        };
        write!(f, "{op}.{sp} [{:#x}]", self.addr)
    }
}

/// One warp-level instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarpInstr {
    /// A compute instruction executed by all active lanes.
    Compute(crate::Opcode),
    /// A coalesced memory reference.
    Mem(MemRef),
}

impl fmt::Display for WarpInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarpInstr::Compute(op) => write!(f, "{op}"),
            WarpInstr::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// A per-warp instruction stream that can decode in bulk.
///
/// Every stream is an ordinary [`Iterator`] (so `count`, `collect` and
/// `for` loops work unchanged); [`fill`](WarpStream::fill) additionally
/// decodes a whole window per call. Engines hold streams as boxed trait
/// objects, so `fill` costs one virtual call per window where pulling
/// through `next` costs one per instruction — and inside `fill` the
/// concrete stream's `next` is a static call the compiler can inline.
///
/// `Sync` is required (not just `Send`) because engines park partially
/// decoded streams in reusable scratch state that is reachable through
/// `&GpuSim`; in practice streams are pure `map`/`range` iterators over
/// `Copy` captures, which are automatically both.
pub trait WarpStream: Iterator<Item = WarpInstr> + Send + Sync {
    /// Decodes the next instructions into `out`, returning how many were
    /// written. Returns fewer than `out.len()` only once the stream is
    /// exhausted, and always yields exactly the sequence `next` would.
    fn fill(&mut self, out: &mut [WarpInstr]) -> usize {
        for (n, slot) in out.iter_mut().enumerate() {
            match self.next() {
                Some(instr) => *slot = instr,
                None => return n,
            }
        }
        out.len()
    }
}

/// A boxed per-warp instruction stream.
pub type WarpInstrStream = Box<dyn WarpStream>;

/// Adapter giving an iterator-built program the provided
/// [`WarpStream::fill`].
struct IterStream<I>(I);

impl<I: Iterator<Item = WarpInstr>> Iterator for IterStream<I> {
    type Item = WarpInstr;

    #[inline]
    fn next(&mut self) -> Option<WarpInstr> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<I: Iterator<Item = WarpInstr> + Send + Sync> WarpStream for IterStream<I> {}

/// Boxes any instruction iterator as a [`WarpInstrStream`] — the way
/// kernels built from `map`/`range`/`chain` combinators return their
/// per-warp streams.
///
/// # Examples
///
/// ```
/// use isa::{iter_stream, Opcode, WarpInstr, WarpStream};
///
/// let mut s = iter_stream((0..3).map(|_| WarpInstr::Compute(Opcode::FFma32)));
/// let mut buf = [WarpInstr::Compute(Opcode::FAdd32); 2];
/// assert_eq!(s.fill(&mut buf), 2);
/// assert_eq!(s.fill(&mut buf), 1);
/// assert_eq!(s.fill(&mut buf), 0);
/// ```
pub fn iter_stream<I>(iter: I) -> WarpInstrStream
where
    I: IntoIterator<Item = WarpInstr>,
    I::IntoIter: Send + Sync + 'static,
{
    Box::new(IterStream(iter.into_iter()))
}

/// Instructions decoded per [`PredecodedStream`] refill window.
///
/// Large enough that the one virtual [`WarpStream::fill`] call per
/// window is noise in the issue loop, small enough that a live warp's
/// window (256 B) stays cheap to touch after the warp slept and a
/// 32-GPM machine full of resident warps still runs in constant memory
/// (the property the procedural-stream design exists for).
pub const PREDECODE_WINDOW: usize = 16;

/// A pre-decoded, flat view of one warp's [`WarpInstrStream`].
///
/// The cycle engine's issue loop reads the *current* instruction of
/// every resident warp on every visited cycle. Pulling that instruction
/// through the boxed stream's `next()` and caching it in an
/// `Option<WarpInstr>` costs a virtual call per instruction and a
/// 24-byte enum copy per peek. `PredecodedStream` instead decodes the
/// stream into a flat `Vec<WarpInstr>` window indexed by a program
/// counter: peeking is an array load, and the stream is touched once
/// per [`PREDECODE_WINDOW`] instructions, when one
/// [`fill`](WarpStream::fill) call decodes the next window.
///
/// The buffer is reusable: engines keep one `PredecodedStream` per warp
/// slot and [`reset`](PredecodedStream::reset) it when a new warp lands
/// in the slot, so steady-state execution performs no allocation.
#[derive(Default)]
pub struct PredecodedStream {
    /// The tail of the stream not yet decoded (`None` once drained).
    stream: Option<WarpInstrStream>,
    /// The current decode window.
    window: Vec<WarpInstr>,
    /// A whole-kernel program shared by every warp (homogeneous kernels
    /// via [`KernelProgram::uniform_warp_program`]); replaces `stream` +
    /// `window` when present, so the slot holds no per-warp decode
    /// state at all.
    shared: Option<std::sync::Arc<[WarpInstr]>>,
    /// Index of the current instruction within the window or shared
    /// program.
    pos: usize,
}

impl PredecodedStream {
    /// An empty stream holder (no instructions; [`current`] is `None`).
    ///
    /// [`current`]: PredecodedStream::current
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts a fresh warp stream, decoding its first window. Returns
    /// `false` when the stream is empty (a degenerate warp that retires
    /// instantly). The window buffer's capacity is retained across
    /// resets.
    pub fn reset(&mut self, stream: WarpInstrStream) -> bool {
        self.shared = None;
        self.stream = Some(stream);
        self.refill();
        !self.window.is_empty()
    }

    /// Adopts a shared, fully pre-decoded program (every warp of the
    /// kernel runs the same sequence). Returns `false` when the program
    /// is empty. No per-warp decode happens at all: peeks index
    /// straight into the shared array.
    pub fn reset_shared(&mut self, program: std::sync::Arc<[WarpInstr]>) -> bool {
        self.stream = None;
        self.window.clear();
        self.pos = 0;
        let nonempty = !program.is_empty();
        self.shared = Some(program);
        nonempty
    }

    /// Drops the stream and decoded window (used when a warp retires, so
    /// slot reuse never observes a stale instruction).
    pub fn release(&mut self) {
        self.stream = None;
        self.window.clear();
        self.shared = None;
        self.pos = 0;
    }

    /// The instruction at the current program counter, or `None` when
    /// the warp's stream is exhausted. This is the hot peek: one bounds
    /// check and one array load.
    #[inline]
    pub fn current(&self) -> Option<WarpInstr> {
        match &self.shared {
            Some(p) => p.get(self.pos).copied(),
            None => self.window.get(self.pos).copied(),
        }
    }

    /// Advances the program counter past the current instruction,
    /// refilling the decode window from the underlying stream when it
    /// runs dry.
    #[inline]
    pub fn advance(&mut self) {
        self.pos += 1;
        if self.shared.is_none() && self.pos >= self.window.len() && self.stream.is_some() {
            self.refill();
        }
    }

    fn refill(&mut self) {
        self.pos = 0;
        let Some(stream) = &mut self.stream else {
            self.window.clear();
            return;
        };
        // Overwritten by `fill` before any read; only the length matters.
        self.window
            .resize(PREDECODE_WINDOW, WarpInstr::Compute(crate::Opcode::FAdd32));
        let n = stream.fill(&mut self.window);
        self.window.truncate(n);
        if n < PREDECODE_WINDOW {
            self.stream = None;
        }
    }
}

impl fmt::Debug for PredecodedStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredecodedStream")
            .field("window_len", &self.window.len())
            .field("pos", &self.pos)
            .field("drained", &self.stream.is_none())
            .field("shared", &self.shared.is_some())
            .finish()
    }
}

/// Shape of a kernel launch grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridShape {
    /// Number of CTAs (thread blocks) in the grid.
    pub ctas: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
}

impl GridShape {
    /// Creates a grid shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(ctas: u32, warps_per_cta: u32) -> Self {
        assert!(ctas > 0, "grid must have at least one CTA");
        assert!(warps_per_cta > 0, "CTA must have at least one warp");
        GridShape {
            ctas,
            warps_per_cta,
        }
    }

    /// Total warps across the grid.
    #[inline]
    pub fn total_warps(self) -> u64 {
        self.ctas as u64 * self.warps_per_cta as u64
    }
}

impl fmt::Display for GridShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} CTAs x {} warps", self.ctas, self.warps_per_cta)
    }
}

/// A kernel the simulator can launch: a grid shape plus a procedural
/// instruction stream per warp.
///
/// Implementations live in the `workloads` crate (benchmark surrogates) and
/// the `microbench` crate (EPI/EPT microbenchmarks). Implementations must be
/// deterministic: the same `(cta, warp)` always yields the same stream, so
/// that performance and energy runs replay identically.
pub trait KernelProgram: Send + Sync {
    /// Kernel name (for reports).
    fn name(&self) -> &str;

    /// Launch grid shape.
    fn grid(&self) -> GridShape;

    /// The instruction stream for warp `warp` of CTA `cta`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `cta`/`warp` are outside the grid.
    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream;

    /// If — and only if — every warp of every CTA executes exactly the
    /// sequence [`warp_instructions`] would yield for it, that sequence,
    /// decoded once. The default (`None`) means "warps differ, or
    /// unknown".
    ///
    /// Engines use this to decode a homogeneous kernel a single time and
    /// share the flat array across all warp slots, instead of pulling
    /// every warp's instructions through its own boxed iterator. The
    /// returned sequence must match the per-warp streams instruction for
    /// instruction; simulation results are computed from whichever
    /// source the engine picks, so a divergent hint silently changes
    /// results (differential tests against the iterator path catch
    /// this).
    ///
    /// [`warp_instructions`]: KernelProgram::warp_instructions
    fn uniform_warp_program(&self) -> Option<Vec<WarpInstr>> {
        None
    }

    /// Approximate bytes of the global-memory footprint, used by cache and
    /// page-placement sizing heuristics. Zero if unknown.
    fn footprint_bytes(&self) -> u64 {
        0
    }

    /// The contiguous global-memory regions this kernel works on, as
    /// `(base_address, length_bytes)` pairs, laid out so that address
    /// order matches the CTA/warp ownership order (the natural layout an
    /// initialization phase writes them in).
    ///
    /// Used by the simulator's pre-fault pass to model in-order
    /// first-touch placement. The default (empty) makes the simulator
    /// fall back to walking the instruction trace in CTA order.
    fn data_regions(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

/// Renders the first `limit` instructions of one warp's stream as a
/// PTX-flavoured listing — a debugging aid for inspecting generated
/// traces.
///
/// # Examples
///
/// ```
/// # use isa::{GridShape, KernelProgram, WarpInstr, WarpInstrStream, Opcode};
/// # use common::{CtaId, WarpId};
/// # struct K;
/// # impl KernelProgram for K {
/// #     fn name(&self) -> &str { "k" }
/// #     fn grid(&self) -> GridShape { GridShape::new(1, 1) }
/// #     fn warp_instructions(&self, _: CtaId, _: WarpId) -> WarpInstrStream {
/// #         isa::iter_stream([WarpInstr::Compute(Opcode::FFma32)])
/// #     }
/// # }
/// let listing = isa::disassemble(&K, CtaId::new(0), WarpId::new(0), 10);
/// assert!(listing.contains("fma.rn.f32"));
/// ```
pub fn disassemble(program: &dyn KernelProgram, cta: CtaId, warp: WarpId, limit: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "// {} {cta} {warp}", program.name());
    let mut stream = program.warp_instructions(cta, warp);
    for i in 0..limit {
        match stream.next() {
            Some(instr) => {
                let _ = writeln!(out, "{i:>6}:  {instr}");
            }
            None => {
                let _ = writeln!(out, "{i:>6}:  <end of warp>");
                return out;
            }
        }
    }
    if stream.next().is_some() {
        let _ = writeln!(out, "        ... (truncated at {limit})");
    }
    out
}

/// A single kernel launch inside a workload: which program, and how many
/// times the workload invokes it back-to-back.
pub struct LaunchSpec {
    /// The kernel to launch.
    pub program: Box<dyn KernelProgram>,
    /// Number of consecutive invocations (BFS/MiniAMR-style apps launch
    /// hundreds of short kernels; §IV-B2 discusses the sensor implications).
    pub invocations: u32,
}

impl LaunchSpec {
    /// A launch spec for a single invocation.
    pub fn once(program: Box<dyn KernelProgram>) -> Self {
        LaunchSpec {
            program,
            invocations: 1,
        }
    }

    /// A launch spec for `n` back-to-back invocations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn repeated(program: Box<dyn KernelProgram>, n: u32) -> Self {
        assert!(n > 0, "invocation count must be positive");
        LaunchSpec {
            program,
            invocations: n,
        }
    }
}

impl fmt::Debug for LaunchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaunchSpec")
            .field("program", &self.program.name())
            .field("grid", &self.program.grid())
            .field("invocations", &self.invocations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    struct TinyKernel;

    impl KernelProgram for TinyKernel {
        fn name(&self) -> &str {
            "tiny"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(2, 4)
        }
        fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
            let base = (cta.0 as u64 * 4 + warp.0 as u64) * 128;
            iter_stream(vec![
                WarpInstr::Mem(MemRef::global_load(base)),
                WarpInstr::Compute(Opcode::FFma32),
                WarpInstr::Mem(MemRef::global_store(base)),
            ])
        }
    }

    #[test]
    fn grid_shape_totals() {
        let g = GridShape::new(3, 8);
        assert_eq!(g.total_warps(), 24);
    }

    #[test]
    #[should_panic(expected = "at least one CTA")]
    fn zero_ctas_panics() {
        let _ = GridShape::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warps_panics() {
        let _ = GridShape::new(1, 0);
    }

    fn compute_stream(len: usize) -> WarpInstrStream {
        iter_stream((0..len).map(|_| WarpInstr::Compute(Opcode::FFma32)))
    }

    #[test]
    fn predecoded_stream_replays_stream_exactly() {
        // Lengths chosen to land short of, exactly on, and just past the
        // window boundary, plus a multi-window length.
        for len in [
            0,
            1,
            PREDECODE_WINDOW - 1,
            PREDECODE_WINDOW,
            PREDECODE_WINDOW + 1,
            3 * PREDECODE_WINDOW + 7,
        ] {
            let mut pd = PredecodedStream::new();
            let nonempty = pd.reset(compute_stream(len));
            assert_eq!(nonempty, len > 0, "len={len}");
            let mut replay = Vec::new();
            while let Some(instr) = pd.current() {
                replay.push(instr);
                pd.advance();
            }
            assert_eq!(replay.len(), len, "len={len}");
            assert!(pd.current().is_none());
            // Exhaustion is stable: further advances stay None.
            pd.advance();
            assert!(pd.current().is_none());
        }
    }

    #[test]
    fn predecoded_stream_reset_reuses_buffer() {
        let mut pd = PredecodedStream::new();
        assert!(pd.reset(compute_stream(5)));
        for _ in 0..5 {
            assert!(pd.current().is_some());
            pd.advance();
        }
        assert!(pd.current().is_none());
        // Adopt a fresh stream in the same holder; replay restarts cleanly.
        assert!(pd.reset(compute_stream(2)));
        assert!(pd.current().is_some());
        pd.advance();
        assert!(pd.current().is_some());
        pd.advance();
        assert!(pd.current().is_none());
    }

    #[test]
    fn predecoded_stream_release_clears_state() {
        let mut pd = PredecodedStream::new();
        assert!(pd.reset(compute_stream(PREDECODE_WINDOW * 2)));
        pd.advance();
        pd.release();
        assert!(pd.current().is_none());
        pd.advance();
        assert!(pd.current().is_none());
    }

    #[test]
    fn predecoded_stream_preserves_instruction_order() {
        let k = TinyKernel;
        let expected: Vec<WarpInstr> = k.warp_instructions(CtaId::new(0), WarpId::new(1)).collect();
        let mut pd = PredecodedStream::new();
        assert!(pd.reset(k.warp_instructions(CtaId::new(0), WarpId::new(1))));
        let mut got = Vec::new();
        while let Some(instr) = pd.current() {
            got.push(instr);
            pd.advance();
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn kernel_streams_are_deterministic() {
        let k = TinyKernel;
        let a: Vec<WarpInstr> = k.warp_instructions(CtaId::new(1), WarpId::new(2)).collect();
        let b: Vec<WarpInstr> = k.warp_instructions(CtaId::new(1), WarpId::new(2)).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn warps_get_distinct_addresses() {
        let k = TinyKernel;
        let a: Vec<WarpInstr> = k.warp_instructions(CtaId::new(0), WarpId::new(0)).collect();
        let b: Vec<WarpInstr> = k.warp_instructions(CtaId::new(0), WarpId::new(1)).collect();
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn memref_constructors() {
        assert!(!MemRef::global_load(0).is_store);
        assert!(MemRef::global_store(0).is_store);
        assert_eq!(MemRef::shared(4, false).space, MemSpace::Shared);
    }

    #[test]
    fn launch_spec_repeats() {
        let spec = LaunchSpec::repeated(Box::new(TinyKernel), 10);
        assert_eq!(spec.invocations, 10);
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("tiny"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_invocations_panics() {
        let _ = LaunchSpec::repeated(Box::new(TinyKernel), 0);
    }

    #[test]
    fn disassemble_lists_and_truncates() {
        let k = TinyKernel;
        let full = disassemble(&k, CtaId::new(0), WarpId::new(0), 10);
        assert!(full.contains("fma.rn.f32"));
        assert!(full.contains("ld.global"));
        assert!(full.contains("<end of warp>"));
        let cut = disassemble(&k, CtaId::new(0), WarpId::new(0), 2);
        assert!(cut.contains("truncated at 2"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            WarpInstr::Mem(MemRef::global_load(0x80)).to_string(),
            "ld.global [0x80]"
        );
        assert_eq!(WarpInstr::Compute(Opcode::FAdd32).to_string(), "add.f32");
        assert_eq!(GridShape::new(2, 4).to_string(), "2 CTAs x 4 warps");
    }
}
