//! The parallel (sharded) engine: one simulation spread across GPM
//! shards in lockstep epochs, bit-identical to the serial engines.
//!
//! `run_shards` partitions the GPU's GPMs into contiguous shards, one
//! per worker thread. Every epoch is exactly one visited cycle of the
//! serial event-driven loop, split in two phases:
//!
//! * **Phase A (parallel):** each shard runs the full per-cycle SM walk
//!   (`EventLoopState::visit`) over its own warp pool, with memory
//!   traffic *deferred* — recorded in a shard-local queue in poll order
//!   instead of touching the shared [`MemorySystem`].
//! * **Phase B (serial):** after a barrier, the coordinator drains
//!   every queue in ascending shard order (`merge_deferred`), which
//!   replays the accesses against the memory system in exactly the
//!   order the serial engine would have issued them, patches each
//!   shard's warp state with the real outcomes, and advances the clock.
//!
//! The full determinism argument (why a deferred access can carry a
//! placeholder completion for one phase without perturbing any
//! decision, and why the merge order equals the serial poll order) is
//! DESIGN.md §17. The contract is load-bearing: `EngineMode::Parallel`
//! must stay bit-identical to `EngineMode::EventDriven` forever, and
//! `EngineMode::ShadowPar` plus the equivalence proptests enforce it.
//!
//! Shard workers come from a process-wide [`runtime::ThreadPool`]
//! guarded by a `try_lock`: when several simulations run concurrently
//! (e.g. under the sweep executor, whose own pool must never block on
//! ours — that way lies deadlock), all but the lock holder fall back to
//! the serial event loop, which is bit-identical anyway.

use crate::engine::{
    debug_assert_no_skip, merge_deferred, shard_state, DeferredAccess, EventLoopState,
    FastForwardStats, KernelCtx, KernelState, MemSink, SoaStats, WorkStats,
};
use crate::memory::MemorySystem;
use isa::EventCounts;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding how many worker threads one
/// simulation may shard across under `EngineMode::Parallel` (distinct
/// from `MMGPU_THREADS`, which sizes the *sweep* pool). Read once per
/// process; [`crate::GpuSim::set_sim_threads`] overrides it per
/// simulator.
pub const SIM_THREADS_ENV: &str = "MMGPU_SIM_THREADS";

/// Counters describing the parallel engine's execution, accumulated
/// across every kernel a [`crate::GpuSim`] has run. Exported to the
/// trace layer as `sim.par.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Kernels that ran through the sharded epoch loop.
    pub kernels: u64,
    /// Lockstep epochs executed (one per visited cycle).
    pub epochs: u64,
    /// Deferred memory accesses replayed at epoch merges.
    pub merged_accesses: u64,
    /// Barrier crossings by shard workers (2 per epoch per shard when
    /// the worker pool is engaged; 0 for single-shard runs).
    pub barrier_waits: u64,
    /// Kernels that fell back to the serial event-driven loop because
    /// the shard worker pool was held by another simulation. Results
    /// are bit-identical either way.
    pub serial_fallbacks: u64,
}

/// Resolves the default shard-thread budget: `MMGPU_SIM_THREADS`, then
/// the machine's available parallelism, at least 1.
pub(crate) fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var(SIM_THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
            eprintln!("warning: ignoring unparsable {SIM_THREADS_ENV}={v:?}");
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The process-wide shard-worker pool. `try_lock` (never a blocking
/// lock): a simulation that cannot take it immediately runs serially
/// instead. Blocking here could deadlock — a parallel simulation may
/// itself be running *on* a sweep-executor worker, and barrier-parked
/// shard jobs must never wait behind another simulation's jobs.
static PAR_POOL: Mutex<Option<runtime::ThreadPool>> = Mutex::new(None);

/// Serializes this crate's tests that run a parallel engine mode, so none
/// of them finds [`PAR_POOL`] held by a sibling test and falls back to
/// the serial engine. Every such test holds the guard while it runs.
#[cfg(test)]
pub(crate) fn par_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failing sibling poisons the lock; the next test may still run.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A sense-reversing spin barrier for lockstep epochs.
///
/// Shard epochs are microseconds long, so parking on a condvar per
/// epoch would dominate; spinning with a `yield_now` escape hatch (the
/// barrier must also make progress when threads outnumber cores) is the
/// right trade. The barrier is *poisonable*: a panicking participant
/// releases the others into a panic instead of a permanent spin.
struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all `parties` threads have arrived. The chain of
    /// arrival RMWs plus the release of the generation bump make every
    /// pre-barrier write visible to every post-barrier read.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.count.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("parallel-engine barrier poisoned by a panicking shard");
                }
                spins += 1;
                if spins > 128 {
                    // Essential when shards outnumber cores.
                    std::thread::yield_now();
                }
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            panic!("parallel-engine barrier poisoned by a panicking shard");
        }
    }

    /// Releases every current and future waiter into a panic.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// Poisons the barrier if the holder unwinds, so the remaining shards
/// panic out of their spin loops instead of hanging the process.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One shard: a contiguous GPM range's warp state, event-loop
/// bookkeeping, deferred-traffic queue, and private statistics.
struct Shard {
    st: KernelState,
    els: EventLoopState,
    queue: Vec<DeferredAccess>,
    /// Whether any warp in this shard issued during the last phase A.
    issued_any: bool,
    sm_steps: u64,
    soa: SoaStats,
}

impl Shard {
    fn new(ctx: &KernelCtx<'_>, max_ctas_per_sm: usize, lo: usize, hi: usize, start: u64) -> Self {
        let mut els = EventLoopState::default();
        els.reset((hi - lo) * ctx.sms_per_gpm, start);
        Shard {
            st: shard_state(ctx, max_ctas_per_sm, lo, hi, start),
            els,
            queue: Vec::new(),
            issued_any: false,
            sm_steps: 0,
            soa: SoaStats::default(),
        }
    }
}

/// Interior-mutable shard slot. Safety rests on the phase discipline:
/// during phase A, shard `k` is touched only by its worker (the
/// coordinator doubles as shard 0's worker); between the two barriers,
/// only the coordinator touches any shard. The barriers order the
/// hand-offs.
struct ShardCell(UnsafeCell<Shard>);

// SAFETY: see the phase discipline on `ShardCell` — no two threads ever
// access the same shard concurrently, and barrier crossings establish
// happens-before between owners.
unsafe impl Sync for ShardCell {}

/// Clock values the coordinator publishes to the shard workers each
/// epoch, between the two barriers.
struct EpochClock {
    now: AtomicU64,
    stop: AtomicBool,
}

/// Phase A for one shard: run the standard per-cycle SM walk with all
/// memory traffic deferred into the shard's queue.
fn phase_a(shard: &mut Shard, ctx: &KernelCtx<'_>, now: u64) {
    debug_assert!(shard.queue.is_empty());
    let mut sink = MemSink::Defer(&mut shard.queue);
    shard.issued_any = shard.els.visit(
        ctx,
        &mut shard.st,
        &mut sink,
        &mut shard.soa,
        &mut shard.sm_steps,
        now,
    );
}

/// The epoch loop, run by the coordinator (with `sync` engaged) or
/// inline for a single shard (`sync == None`). Returns the final
/// visited cycle plus the epoch and merged-access totals.
///
/// # Safety contract (not `unsafe fn`, but load-bearing)
/// With `sync` engaged the caller must guarantee that shard workers
/// `1..shards.len()` run the matching barrier pattern: phase A on their
/// own shard, `wait`, idle while this function merges, `wait`, repeat.
fn epoch_loop(
    mem: &mut MemorySystem,
    ff: &mut FastForwardStats,
    ctx: &KernelCtx<'_>,
    shards: &[ShardCell],
    start: u64,
    sync: Option<(&SpinBarrier, &EpochClock)>,
) -> (u64, u64, u64) {
    let mut now = start;
    let mut epochs = 0u64;
    let mut merged = 0u64;
    loop {
        epochs += 1;
        ff.visited_cycles += 1;
        // SAFETY: phase A — the coordinator is shard 0's worker.
        phase_a(unsafe { &mut *shards[0].0.get() }, ctx, now);
        if let Some((barrier, _)) = sync {
            barrier.wait();
        }

        // Phase B: every worker is parked at the barrier, so the
        // coordinator has exclusive access to all shards. Ascending
        // shard order + in-shard poll order == the serial engine's
        // access order (shards are contiguous ascending GPM ranges).
        let mut issued_any = false;
        let mut live = 0usize;
        for cell in shards {
            // SAFETY: phase B exclusivity, above.
            let shard = unsafe { &mut *cell.0.get() };
            issued_any |= shard.issued_any;
            merged += merge_deferred(
                mem,
                ctx,
                &mut shard.st,
                &mut shard.els,
                &mut shard.queue,
                now,
            );
            live += shard.els.live;
        }

        let stop = live == 0;
        let next = if stop {
            now
        } else if issued_any {
            now + 1
        } else {
            let mut min_ready = u64::MAX;
            for cell in shards {
                // SAFETY: phase B exclusivity, above.
                min_ready = min_ready.min(unsafe { &*cell.0.get() }.els.min_wake());
            }
            if min_ready == u64::MAX {
                now + 1
            } else {
                min_ready.max(now + 1)
            }
        };
        if !stop && next > now + 1 {
            for cell in shards {
                // SAFETY: phase B exclusivity, above.
                debug_assert_no_skip(&unsafe { &*cell.0.get() }.st, now, next);
            }
            ff.jumps += 1;
            ff.skipped_cycles += next - now - 1;
        }

        if let Some((barrier, clock)) = sync {
            clock.now.store(next, Ordering::Release);
            clock.stop.store(stop, Ordering::Release);
            barrier.wait();
        }
        if stop {
            break;
        }
        now = next;
    }
    (now, epochs, merged)
}

/// Runs one kernel through the sharded epoch engine.
///
/// Returns `None` when the worker pool is unavailable (held by a
/// concurrent simulation); the caller then runs the serial event loop,
/// which produces bit-identical results. A single-shard run (one GPM,
/// one thread, or `threads >= num_gpms == 1`) executes the full
/// defer/merge machinery inline without touching the pool.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shards(
    mem: &mut MemorySystem,
    par: &mut ParStats,
    ff: &mut FastForwardStats,
    soa: &mut SoaStats,
    work: &mut WorkStats,
    ctx: &KernelCtx<'_>,
    max_ctas_per_sm: usize,
    threads: usize,
    start: u64,
) -> Option<(u64, EventCounts, u32)> {
    let num_gpms = ctx.partition.num_gpms;
    // Shards own whole GPMs; threads beyond the GPM count go unused.
    let shard_count = threads.min(num_gpms).max(1);

    // Contiguous, near-even GPM ranges in ascending order (the merge
    // order contract requires ascending).
    let shards: Vec<ShardCell> = (0..shard_count)
        .map(|k| {
            let lo = k * num_gpms / shard_count;
            let hi = (k + 1) * num_gpms / shard_count;
            ShardCell(UnsafeCell::new(Shard::new(
                ctx,
                max_ctas_per_sm,
                lo,
                hi,
                start,
            )))
        })
        .collect();

    let (now, epochs, merged) = if shard_count == 1 {
        epoch_loop(mem, ff, ctx, &shards, start, None)
    } else {
        // Exclusive, non-blocking claim on the process-wide pool (see
        // `PAR_POOL`); grow it if a bigger simulation needs more
        // workers than any before it.
        let mut guard = PAR_POOL.try_lock().ok()?;
        let workers = shard_count - 1; // the caller thread is shard 0
        if guard.as_ref().is_none_or(|p| p.threads() < workers) {
            *guard = Some(runtime::ThreadPool::new(workers));
        }
        let pool = guard.as_ref().expect("pool just ensured");

        let barrier = SpinBarrier::new(shard_count);
        let clock = EpochClock {
            now: AtomicU64::new(start),
            stop: AtomicBool::new(false),
        };
        let shards_ref = &shards;
        let barrier_ref = &barrier;
        let clock_ref = &clock;
        pool.scope(|scope| {
            for cell in shards_ref.iter().skip(1) {
                scope.spawn(move || {
                    let _guard = PoisonOnPanic(barrier_ref);
                    loop {
                        let now = clock_ref.now.load(Ordering::Acquire);
                        // SAFETY: phase A — this worker owns this shard
                        // exclusively; the reference is re-derived each
                        // epoch so none is live while the coordinator
                        // merges.
                        phase_a(unsafe { &mut *cell.0.get() }, ctx, now);
                        barrier_ref.wait();
                        // The coordinator merges between the barriers.
                        barrier_ref.wait();
                        if clock_ref.stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                });
            }
            let _guard = PoisonOnPanic(barrier_ref);
            epoch_loop(
                mem,
                ff,
                ctx,
                shards_ref,
                start,
                Some((barrier_ref, clock_ref)),
            )
        })
    };

    // Drain: charge every shard's trailing idle cycles, then fold the
    // per-shard counts in ascending shard order.
    let mut counts = EventCounts::new();
    let mut done_ctas = 0u32;
    for cell in &shards {
        let shard = unsafe { &mut *cell.0.get() };
        shard.els.flush_idle(&mut shard.st, now + 1);
        counts.merge_sequential(&shard.st.counts);
        done_ctas += shard.st.done_ctas;
        ff.sm_steps += shard.sm_steps;
        soa.mask_scans += shard.soa.mask_scans;
        soa.retire_scans_skipped += shard.soa.retire_scans_skipped;
        work.add(&shard.st.work);
    }

    par.kernels += 1;
    par.epochs += epochs;
    par.merged_accesses += merged;
    if shard_count > 1 {
        par.barrier_waits += epochs * 2 * shard_count as u64;
    }
    Some((now, counts, done_ctas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::engine::{EngineMode, GpuSim};
    use common::{CtaId, WarpId};
    use isa::{GridShape, KernelProgram, MemRef, WarpInstr, WarpInstrStream};

    struct Mixed;
    impl KernelProgram for Mixed {
        fn name(&self) -> &str {
            "mixed"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(16, 4)
        }
        fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
            let base = (cta.0 as u64 * 4 + warp.0 as u64) * 4096;
            isa::iter_stream((0..24u64).flat_map(move |i| {
                [
                    WarpInstr::Mem(MemRef::global_load(base + i * 128)),
                    WarpInstr::Compute(isa::Opcode::FFma32),
                    WarpInstr::Mem(MemRef::global_store(base + i * 128 + 64)),
                ]
            }))
        }
    }

    #[test]
    fn pooled_shards_engage_and_stay_bit_identical() {
        let _serial = par_test_lock();
        let cfg = GpuConfig::tiny(2);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut par = GpuSim::with_mode(&cfg, EngineMode::Parallel);
        par.set_sim_threads(Some(2));
        assert_eq!(par.run_kernel(&Mixed), event.run_kernel(&Mixed));
        let p = par.par_stats();
        assert_eq!(p.kernels, 1, "the pooled shard path engaged");
        assert_eq!(p.serial_fallbacks, 0);
        assert!(p.epochs > 0);
        assert!(p.merged_accesses > 0);
        assert_eq!(p.barrier_waits, p.epochs * 2 * 2);
    }

    #[test]
    fn barrier_releases_all_parties() {
        let barrier = SpinBarrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..100 {
                        barrier.wait();
                    }
                });
            }
            for _ in 0..100 {
                barrier.wait();
            }
        });
    }

    #[test]
    fn poisoned_barrier_panics_waiters_instead_of_hanging() {
        let barrier = SpinBarrier::new(2);
        let waiter = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    barrier.wait();
                }));
                caught.is_err()
            });
            barrier.poison();
            handle.join().unwrap()
        });
        assert!(waiter, "poisoned barrier must panic its waiters");
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
