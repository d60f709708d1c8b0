#![deny(missing_docs)]

//! PTX-level instruction abstraction for the GPUJoule study.
//!
//! GPUJoule (paper §IV) is *top-down*: it reasons about native PTX
//! instructions and macro-level data movement, never about pipeline
//! structures. This crate defines exactly that vocabulary:
//!
//! * [`Opcode`] — the PTX compute instructions of Table Ib (plus a few
//!   cheap control/move instructions real kernels need),
//! * [`Transaction`] — data-movement classes between levels of the memory
//!   hierarchy (shared→RF, L1→RF, L2→L1, DRAM→L2, plus the multi-GPM link
//!   and switch traversals of §V),
//! * [`WarpInstr`]/[`KernelProgram`] — procedurally generated warp
//!   instruction streams that the performance simulator executes,
//! * [`EventCounts`] — the per-run event totals handed to the energy model
//!   (the `IC`/`TC`/`stalls`/`Execution_Time` terms of Eq. 4).

pub mod counts;
pub mod opcode;
pub mod program;
pub mod transaction;

pub use counts::{EventCounts, OpcodeCounts, TxnCounts};
pub use opcode::{OpClass, Opcode};
pub use program::{
    disassemble, iter_stream, GridShape, KernelProgram, LaunchSpec, MemRef, MemSpace,
    PredecodedStream, WarpInstr, WarpInstrStream, WarpStream, PREDECODE_WINDOW,
};
pub use transaction::Transaction;

/// Threads per warp on all simulated architectures (NVIDIA's fixed 32).
pub const WARP_SIZE: u32 = 32;

/// Bytes per memory transaction (one coalesced 128-byte cacheline, the
/// granularity the paper's pointer-chase microbenchmarks are built around).
pub const TRANSACTION_BYTES: u64 = 128;
