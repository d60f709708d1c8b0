//! The cycle-level execution engine.
//!
//! Each SM keeps up to `max_resident_warps` warps from a handful of
//! resident CTAs and issues up to `issue_width` warp instructions per
//! cycle, round-robin among ready warps (a GTO-less but
//! latency-tolerance-faithful scheduler). Warps block on loads; stores
//! retire through the write buffer.
//!
//! CTAs are partitioned contiguously across GPMs (distributed, locality-
//! aware thread-block scheduling per MCM-GPU), then handed to SMs within
//! a module on demand.
//!
//! # The event-driven hot path
//!
//! The paper's §V scaling study reruns this engine across 1–32 GPMs ×
//! 3 bandwidths × topologies, and the bandwidth-bound workloads that
//! drive Figures 2 and 6 spend most of their cycles with every warp
//! stalled on memory. Two clock-advance strategies are implemented,
//! selectable per [`GpuSim`] via [`EngineMode`]:
//!
//! * [`EngineMode::Naive`] — the reference loop: every SM is scanned on
//!   every visited cycle; when no warp anywhere can issue, the clock
//!   jumps to the minimum `WarpPool::next_ready` wake-up, charging
//!   the skipped cycles as memory-wait (stall) time.
//! * [`EngineMode::EventDriven`] (the default) — per-SM wake times: an
//!   SM whose earliest ready warp lies in the future (and which cannot
//!   accept a CTA) *sleeps*, is skipped entirely — no warp scan, no
//!   scheduler sort — and is charged its idle/stall cycles lazily when
//!   it next wakes. Memory and NoC wake-ups need no separate queue scan
//!   because every queue-drain time is already reflected in some warp's
//!   `ready_at`/`outstanding` timestamps when the access is issued.
//!
//! Both strategies visit the *same* cycle sequence, issue the *same*
//! memory accesses in the *same* order, and accumulate the *same*
//! [`EventCounts`] — bit-for-bit. [`EngineMode::Shadow`] enforces this:
//! it runs both loops on cloned machine state and asserts the results
//! (and the memory-side counters) are identical. The equivalence
//! argument is written out in DESIGN.md §12; the `event_equivalence`
//! proptests and the repo-level golden test pin it in CI.

use crate::bits::BitWords;
use crate::config::GpuConfig;
use crate::memory::MemorySystem;
use crate::results::{KernelResult, WorkloadResult};
use common::{CtaId, GpmId, SmId, WarpId};
use isa::{EventCounts, KernelProgram, LaunchSpec, PredecodedStream, WarpInstr, WARP_SIZE};
use std::sync::Arc;

/// Sentinel for "no warp slot" in the intrusive GTO list and the greedy
/// pointer.
const NONE: u32 = u32::MAX;

/// A memory access recorded — not performed — by a shard running under
/// [`MemSink::Defer`]: warp slot `g` of the shard's local pool issued
/// `mref` this cycle. The parallel coordinator replays these against
/// the one true [`MemorySystem`] in canonical order (ascending shard,
/// then the shard's recorded poll order), which is exactly the order
/// the serial engine performs them — so every memory-side state
/// transition is bit-identical (DESIGN.md §17).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferredAccess {
    /// Warp-slot index into the *shard-local* pool (`flat * stride + s`).
    pub(crate) g: u32,
    /// The access itself.
    pub(crate) mref: isa::MemRef,
}

/// Placeholder ring entry for a deferred load: real completion times
/// are always strictly greater than `now` and far below `u64::MAX`, so
/// the placeholder keeps the ring occupancy (the MLP limit, the
/// cannot-retire-with-loads-in-flight rule) exact while being
/// recognizable for replacement during the merge.
pub(crate) const DEFER_PLACEHOLDER: u64 = u64::MAX;

/// Where the issue path sends memory accesses: straight into the memory
/// system (the serial engines), or into a per-shard queue the parallel
/// coordinator replays in canonical order at the end of the epoch's
/// compute phase.
pub(crate) enum MemSink<'a> {
    /// Perform each access immediately (serial loops).
    Direct(&'a mut MemorySystem),
    /// Record each access for the end-of-epoch ordered replay (parallel
    /// shards). The warp state written alongside is provisional; the
    /// replay ([`merge_deferred`]) fixes it up before anything can
    /// observe it.
    Defer(&'a mut Vec<DeferredAccess>),
}

/// CTA-to-module partition under a scheduling policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtaPartition {
    schedule: crate::config::CtaSchedule,
    ctas: usize,
    pub(crate) num_gpms: usize,
    per_gpm: usize,
}

impl CtaPartition {
    fn new(schedule: crate::config::CtaSchedule, ctas: usize, num_gpms: usize) -> Self {
        CtaPartition {
            schedule,
            ctas,
            num_gpms,
            per_gpm: ctas.div_ceil(num_gpms),
        }
    }

    /// The module CTA `cta` runs on.
    fn gpm_of(&self, cta: usize) -> usize {
        match self.schedule {
            crate::config::CtaSchedule::Contiguous => (cta / self.per_gpm).min(self.num_gpms - 1),
            crate::config::CtaSchedule::RoundRobin => cta % self.num_gpms,
        }
    }

    /// The `k`-th CTA assigned to module `gpm`, if any remain.
    fn nth_for(&self, gpm: usize, k: usize) -> Option<usize> {
        let cta = match self.schedule {
            crate::config::CtaSchedule::Contiguous => {
                let cta = gpm * self.per_gpm + k;
                if cta >= ((gpm + 1) * self.per_gpm).min(self.ctas) {
                    return None;
                }
                cta
            }
            crate::config::CtaSchedule::RoundRobin => gpm + k * self.num_gpms,
        };
        (cta < self.ctas).then_some(cta)
    }
}

/// All warp and resident-CTA runtime state for every SM, as GPU-global
/// struct-of-arrays columns.
///
/// A warp slot is addressed by `g = flat * stride + s`, where `flat` is
/// the SM's flat index, `stride` is the per-SM slot capacity
/// (`max_ctas_per_sm * warps_per_cta` — an SM can never hold more live
/// warps than that, so slots never grow), and `s` is the SM-local slot
/// id stored in the per-SM `order`/`free`/GTO structures. One
/// allocation per column for the whole GPU keeps the per-cycle SM walk
/// inside a handful of contiguous arrays instead of chasing hundreds of
/// per-SM heap objects — the difference between an L2-resident working
/// set and a pointer-chasing miss per touched field.
///
/// The columns carry no notion of liveness or ordering; the side
/// structures do:
///
/// * `order` + `order_len` — per-SM slabs of slot ids in the *physical*
///   order the historical `Vec<WarpRun>` kept them (push on launch,
///   `swap_remove` on retire). Loose round-robin indexes this list, so
///   preserving its exact evolution keeps LRR issue order — which is
///   observable through memory-access ordering — bit-identical to the
///   seed.
/// * `gto_head`/`gto_tail`/`gto_next`/`gto_prev` — an age-ascending
///   intrusive doubly-linked list per SM. Warp ages are unique and
///   monotonic and new warps append at the tail, so walking the list
///   *is* the `sort_by_key(age)` order the GTO scheduler used to
///   compute per cycle; `greedy` (cleared on retire — ages are never
///   reused) stands in for the old `greedy_age` match.
/// * `exhausted` (+ per-SM `exhausted_cnt`) — warp slots whose stream
///   is exhausted (the old `pending == None`): when an SM's count is
///   zero, its whole retire scan is skipped.
/// * `cta_free` (+ per-SM `cta_free_cnt`) — free resident-CTA slots;
///   `first_set_in` over the SM's sub-range is the old find-first-free
///   scan.
/// * `wheels` + `buckets` — under the event loop, each SM's ready mask
///   over `order` positions and the timing wheel that keeps it
///   ([`SmWheel`]); the naive reference scans instead.
///
/// A warp's in-flight loads live in a fixed-capacity inline ring:
/// `mlp_cap` contiguous entries of `out_times` per slot, with the live
/// count in `out_len` — no per-warp heap allocation.
///
/// Slot ids themselves are unobservable: issue order is decided only by
/// `order` and the GTO list, so the free-stack recycling order (which
/// differs between a fresh pool and one reused across kernels) cannot
/// influence results. The `event_equivalence` proptests and
/// [`EngineMode::Shadow`] (whose reference sim always starts from a
/// fresh pool) pin this.
#[derive(Default)]
struct WarpPool {
    total_sms: usize,
    /// Warp slots per SM.
    stride: usize,
    /// Resident-CTA slots per SM.
    cta_stride: usize,
    /// In-flight-load ring capacity per warp slot (≥ 1).
    mlp_cap: usize,

    // ---- Warp columns, global index g = flat * stride + s ----
    /// Pre-decoded instruction stream per warp slot; `current()` is the
    /// warp's next instruction (`None` once exhausted).
    streams: Vec<PredecodedStream>,
    /// Cycle the warp can next issue (or finishes draining).
    ready_at: Vec<u64>,
    /// Launch order on this SM (for greedy-then-oldest scheduling).
    age: Vec<u64>,
    /// Resident-CTA slot the warp belongs to.
    cta_of: Vec<u32>,
    /// Age-order intrusive list: next/prev SM-local slot (or [`NONE`]).
    gto_next: Vec<u32>,
    gto_prev: Vec<u32>,
    /// Inline rings: completion times of loads in flight, `mlp_cap`
    /// entries per warp slot (`g * mlp_cap + r`).
    out_times: Vec<u64>,
    /// Live entries in each warp's ring.
    out_len: Vec<u32>,
    /// Warp slots whose stream is exhausted.
    exhausted: BitWords,

    // ---- Per-SM slabs, `stride` entries each at `flat * stride` ----
    /// Live warps in historical `Vec<WarpRun>` physical order.
    order: Vec<u32>,
    /// Reusable warp slots (a stack growing upward).
    free: Vec<u32>,

    // ---- Per-SM scalar columns ----
    order_len: Vec<u32>,
    free_len: Vec<u32>,
    exhausted_cnt: Vec<u32>,
    /// Oldest / youngest live warp slot (or [`NONE`]).
    gto_head: Vec<u32>,
    gto_tail: Vec<u32>,
    /// Slot the GTO policy is currently greedy on (or [`NONE`]).
    greedy: Vec<u32>,
    /// Loose-round-robin start pointer.
    rr: Vec<u32>,
    /// Monotonic warp-launch counter (ages for GTO).
    next_age: Vec<u64>,

    // ---- CTA columns, index flat * cta_stride + c ----
    /// Live warps per resident-CTA slot.
    cta_live: Vec<u32>,
    /// Resident-CTA slots with no live warps.
    cta_free: BitWords,
    cta_free_cnt: Vec<u32>,

    // ---- Ready masks (event loop, at most 64 slots per SM) ----
    /// Whether this kernel's SMs keep a [`SmWheel`] (see
    /// [`WarpPool::reset_wheels`]); the naive reference never does.
    masked: bool,
    /// One ready mask and timing wheel per SM.
    wheels: Vec<SmWheel>,
    /// Every SM's wheel buckets, bucket-major (see [`SmBuckets`]).
    buckets: Vec<u64>,
}

/// Timing-wheel horizon in cycles: a ready time less than `WHEEL`
/// cycles past an SM's last step sits in a bucket, a later one in the
/// far mask.
const WHEEL: u64 = 64;

/// One SM's wheel buckets: position masks indexed by `ready_at % WHEEL`,
/// a column of the pool's bucket table. The table is bucket-major
/// (`b * sms + flat`): the event loop walks SMs in ascending order, and
/// SMs running in step drain and fill the same buckets, so their words
/// share cache lines.
struct SmBuckets<'a> {
    table: &'a mut [u64],
    flat: usize,
}

impl<'a> SmBuckets<'a> {
    fn new(table: &'a mut [u64], flat: usize) -> Self {
        SmBuckets { table, flat }
    }

    #[inline]
    fn word(&mut self, b: usize) -> &mut u64 {
        let sms = self.table.len() / WHEEL as usize;
        &mut self.table[b * sms + self.flat]
    }
}

/// One SM's ready mask and the timing wheel that feeds it, over warp
/// *positions* (indices into the SM's `order` slab, hence at most 64).
///
/// Every live position's bit sits in exactly one word, chosen by its
/// warp's `ready_at` relative to `base`, the cycle of the SM's last
/// step: `ready` when `ready_at <= base`; bucket `ready_at % WHEEL`
/// when `ready_at - base < WHEEL`; `far` beyond the horizon. Stepping
/// the SM at `now` first drains the buckets (and, when `far_min` comes
/// within the horizon, refiles `far`) so that `ready` is exactly the
/// set of warps the reference scan finds ready. Debug builds check
/// this against the scan at every step.
///
/// The step works on a copy held in registers and writes it back at
/// the end; a bit's location is a function of `ready_at` alone, so a
/// bit is removed or moved without searching.
#[derive(Debug, Clone, Copy)]
struct SmWheel {
    base: u64,
    ready: u64,
    /// Bucket occupancy: bit `b` set ⇔ bucket `b` is non-empty.
    occ: u64,
    far: u64,
    /// Exact minimum `ready_at` over `far` (`u64::MAX` when empty):
    /// the wake time of an SM whose buckets are empty.
    far_min: u64,
}

impl SmWheel {
    fn new(base: u64) -> Self {
        SmWheel {
            base,
            ready: 0,
            occ: 0,
            far: 0,
            far_min: u64::MAX,
        }
    }

    /// Files position `p`, ready at `ra`, into the word its time
    /// selects. The bit must be absent from every word.
    #[inline]
    fn arm(&mut self, buckets: &mut SmBuckets<'_>, p: usize, ra: u64) {
        let bit = 1u64 << p;
        if ra <= self.base {
            self.ready |= bit;
        } else if ra - self.base < WHEEL {
            let b = (ra % WHEEL) as usize;
            *buckets.word(b) |= bit;
            self.occ |= 1 << b;
        } else {
            self.far |= bit;
            self.far_min = self.far_min.min(ra);
        }
    }

    /// Removes position `p`, ready at `ra`, from its word. Removing the
    /// far minimum rescans `far` through `ready_at_of` (position →
    /// `ready_at`) for the next one; returns whether it did.
    fn disarm(
        &mut self,
        buckets: &mut SmBuckets<'_>,
        p: usize,
        ra: u64,
        ready_at_of: impl Fn(usize) -> u64,
    ) -> bool {
        let bit = 1u64 << p;
        if ra <= self.base {
            self.ready &= !bit;
        } else if ra - self.base < WHEEL {
            let b = (ra % WHEEL) as usize;
            let word = buckets.word(b);
            *word &= !bit;
            if *word == 0 {
                self.occ &= !(1 << b);
            }
        } else {
            self.far &= !bit;
            if ra == self.far_min {
                let mut far = self.far;
                let mut m = u64::MAX;
                while far != 0 {
                    let q = far.trailing_zeros() as usize;
                    far &= far - 1;
                    m = m.min(ready_at_of(q));
                }
                self.far_min = m;
                return true;
            }
        }
        false
    }

    /// Moves the bit of position `from` (ready at `ra`) to the empty
    /// position `to` within its word: retire's `swap_remove`.
    fn move_bit(&mut self, buckets: &mut SmBuckets<'_>, from: usize, to: usize, ra: u64) {
        let word = if ra <= self.base {
            &mut self.ready
        } else if ra - self.base < WHEEL {
            buckets.word((ra % WHEEL) as usize)
        } else {
            &mut self.far
        };
        debug_assert!(*word & (1 << from) != 0 && *word & (1 << to) == 0);
        *word = (*word & !(1 << from)) | (1 << to);
    }

    /// Advances the wheel to `now`: every bucket due by `now` empties
    /// into the ready mask, and once the far minimum has come within
    /// the horizon the far mask is refiled through `ready_at_of`.
    /// Returns whether it was.
    fn drain(
        &mut self,
        buckets: &mut SmBuckets<'_>,
        now: u64,
        ready_at_of: impl Fn(usize) -> u64,
    ) -> bool {
        if now == self.base {
            return false;
        }
        debug_assert!(now > self.base);
        if self.occ != 0 {
            // Buckets hold times base+1 ..= base+WHEEL-1, so a gap of
            // WHEEL-1 or more makes every bucket due.
            let d = now - self.base;
            let due = if d >= WHEEL - 1 {
                self.occ
            } else {
                ((1u64 << d) - 1).rotate_left(((self.base + 1) % WHEEL) as u32) & self.occ
            };
            let mut m = due;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let word = buckets.word(b);
                self.ready |= *word;
                *word = 0;
            }
            self.occ &= !due;
        }
        self.base = now;
        if self.far != 0 && self.far_min < now + WHEEL {
            let mut far = self.far;
            self.far = 0;
            self.far_min = u64::MAX;
            while far != 0 {
                let p = far.trailing_zeros() as usize;
                far &= far - 1;
                self.arm(buckets, p, ready_at_of(p));
            }
            return true;
        }
        false
    }

    /// The SM's next service time after a step at `now`: `now + 1`
    /// while a ready warp is left, else the earliest occupied bucket,
    /// else the far minimum (`u64::MAX` with no live warps). This is
    /// exactly `WarpPool::next_ready` clamped to `now + 1`.
    fn wake(&self, now: u64) -> u64 {
        debug_assert_eq!(self.base, now);
        if self.ready != 0 {
            now + 1
        } else if self.occ != 0 {
            now + u64::from(self.occ.rotate_right((now % WHEEL) as u32).trailing_zeros())
        } else {
            self.far_min
        }
    }
}

/// Positions `lo..hi` as a mask (`hi <= 64`).
fn position_range(lo: usize, hi: usize) -> u64 {
    if hi <= lo {
        0
    } else {
        (u64::MAX >> (64 - (hi - lo))) << lo
    }
}

impl WarpPool {
    /// Prepares the pool for a fresh kernel. A shape change (SM count,
    /// slot capacity, CTA slots, or MLP ring size) rebuilds every
    /// column; otherwise only the per-SM scheduler scalars are rewound
    /// — every kernel retires all its warps and frees all its CTA slots
    /// before its loop exits, so the bulk state is already clean
    /// (debug builds verify this).
    fn reset(&mut self, total_sms: usize, stride: usize, cta_stride: usize, mlp_cap: usize) {
        debug_assert!(mlp_cap >= 1);
        if self.total_sms != total_sms
            || self.stride != stride
            || self.cta_stride != cta_stride
            || self.mlp_cap != mlp_cap
        {
            self.total_sms = total_sms;
            self.stride = stride;
            self.cta_stride = cta_stride;
            self.mlp_cap = mlp_cap;
            let slots = total_sms * stride;
            for pd in &mut self.streams {
                pd.release();
            }
            self.streams.resize_with(slots, PredecodedStream::new);
            self.ready_at.clear();
            self.ready_at.resize(slots, 0);
            self.age.clear();
            self.age.resize(slots, 0);
            self.cta_of.clear();
            self.cta_of.resize(slots, 0);
            self.gto_next.clear();
            self.gto_next.resize(slots, NONE);
            self.gto_prev.clear();
            self.gto_prev.resize(slots, NONE);
            self.out_times.clear();
            self.out_times.resize(slots * mlp_cap, 0);
            self.out_len.clear();
            self.out_len.resize(slots, 0);
            self.exhausted = BitWords::with_capacity(slots);
            self.order.clear();
            self.order.resize(slots, 0);
            // Free stacks pop from the top: descending ids per SM make
            // allocation hand out 0, 1, 2, … exactly like the
            // historical `Vec` push order on first use.
            self.free.clear();
            self.free.reserve(slots);
            for _ in 0..total_sms {
                self.free.extend((0..stride as u32).rev());
            }
            self.order_len.clear();
            self.order_len.resize(total_sms, 0);
            self.free_len.clear();
            self.free_len.resize(total_sms, stride as u32);
            self.exhausted_cnt.clear();
            self.exhausted_cnt.resize(total_sms, 0);
            self.gto_head.clear();
            self.gto_head.resize(total_sms, NONE);
            self.gto_tail.clear();
            self.gto_tail.resize(total_sms, NONE);
            self.greedy.clear();
            self.greedy.resize(total_sms, NONE);
            self.rr.clear();
            self.rr.resize(total_sms, 0);
            self.next_age.clear();
            self.next_age.resize(total_sms, 0);
            let cta_slots = total_sms * cta_stride;
            self.cta_live.clear();
            self.cta_live.resize(cta_slots, 0);
            self.cta_free = BitWords::with_capacity(cta_slots);
            for b in 0..cta_slots {
                self.cta_free.set(b);
            }
            self.cta_free_cnt.clear();
            self.cta_free_cnt.resize(total_sms, cta_stride as u32);
            return;
        }
        #[cfg(debug_assertions)]
        for flat in 0..total_sms {
            debug_assert_eq!(self.order_len[flat], 0, "pool reused with live warps");
            debug_assert_eq!(self.free_len[flat] as usize, stride);
            debug_assert_eq!(self.exhausted_cnt[flat], 0);
            debug_assert_eq!(self.gto_head[flat], NONE);
            debug_assert_eq!(self.cta_free_cnt[flat] as usize, cta_stride);
        }
        self.rr.fill(0);
        self.next_age.fill(0);
        self.greedy.fill(NONE);
    }

    /// Launches one warp on SM `flat`: adopts its stream into a
    /// (reused) slot, links it at the GTO tail, and appends it to the
    /// physical order. Returns `false` for a degenerate empty stream
    /// (the warp retires instantly, exactly like the old
    /// `pending == None` launch path; the slot is not consumed).
    fn alloc_warp(
        &mut self,
        flat: usize,
        reset: impl FnOnce(&mut PredecodedStream) -> bool,
        cta: u32,
        now: u64,
    ) -> bool {
        let wbase = flat * self.stride;
        let fl = self.free_len[flat] as usize;
        debug_assert!(fl > 0, "warp slot capacity exceeded");
        let s = self.free[wbase + fl - 1];
        let g = wbase + s as usize;
        if !reset(&mut self.streams[g]) {
            return false;
        }
        self.free_len[flat] = (fl - 1) as u32;
        self.ready_at[g] = now;
        let a = self.next_age[flat];
        self.age[g] = a;
        self.next_age[flat] = a + 1;
        self.cta_of[g] = cta;
        self.out_len[g] = 0;
        let tail = self.gto_tail[flat];
        self.gto_prev[g] = tail;
        self.gto_next[g] = NONE;
        if tail != NONE {
            self.gto_next[wbase + tail as usize] = s;
        } else {
            self.gto_head[flat] = s;
        }
        self.gto_tail[flat] = s;
        let ol = self.order_len[flat] as usize;
        self.order[wbase + ol] = s;
        self.order_len[flat] = (ol + 1) as u32;
        true
    }

    /// Unlinks a retiring warp from the GTO list and returns its slot
    /// to the free stack. The caller removes it from `order`. Only
    /// called on exhausted warps.
    fn retire_slot(&mut self, flat: usize, s: u32) {
        let wbase = flat * self.stride;
        let g = wbase + s as usize;
        let (p, n) = (self.gto_prev[g], self.gto_next[g]);
        if p != NONE {
            self.gto_next[wbase + p as usize] = n;
        } else {
            self.gto_head[flat] = n;
        }
        if n != NONE {
            self.gto_prev[wbase + n as usize] = p;
        } else {
            self.gto_tail[flat] = p;
        }
        if self.greedy[flat] == s {
            // Ages are never reused, so the old `greedy_age` could never
            // match another warp once its owner retired; clearing the
            // slot pointer is the exact equivalent.
            self.greedy[flat] = NONE;
        }
        self.exhausted.unset(g);
        self.exhausted_cnt[flat] -= 1;
        self.streams[g].release();
        let fl = self.free_len[flat] as usize;
        self.free[wbase + fl] = s;
        self.free_len[flat] = (fl + 1) as u32;
    }

    /// First free resident-CTA slot on SM `flat` (SM-local index) — the
    /// old find-first-free scan, now a masked word probe.
    fn cta_first_free(&self, flat: usize) -> Option<usize> {
        let cbase = flat * self.cta_stride;
        self.cta_free
            .first_set_in(cbase, self.cta_stride)
            .map(|b| b - cbase)
    }

    /// Drops ring entries at or before `now` (loads that have landed),
    /// preserving order — the old `outstanding.retain(|&t| t > now)`.
    fn ring_retain(&mut self, g: usize, now: u64) {
        let base = g * self.mlp_cap;
        let len = self.out_len[g] as usize;
        let mut w = 0;
        for r in 0..len {
            let t = self.out_times[base + r];
            if t > now {
                self.out_times[base + w] = t;
                w += 1;
            }
        }
        self.out_len[g] = w as u32;
    }

    fn ring_push(&mut self, g: usize, t: u64) {
        let base = g * self.mlp_cap;
        let len = self.out_len[g] as usize;
        debug_assert!(len < self.mlp_cap, "outstanding ring overflow");
        self.out_times[base + len] = t;
        self.out_len[g] = (len + 1) as u32;
    }

    /// Replaces the single [`DEFER_PLACEHOLDER`] entry in warp `g`'s
    /// ring with the real completion time the merge just learned. A
    /// warp issues at most one instruction per cycle, so at most one
    /// placeholder ever exists per ring.
    fn ring_replace_placeholder(&mut self, g: usize, t: u64) {
        debug_assert!(t < DEFER_PLACEHOLDER);
        let base = g * self.mlp_cap;
        for r in 0..self.out_len[g] as usize {
            if self.out_times[base + r] == DEFER_PLACEHOLDER {
                self.out_times[base + r] = t;
                return;
            }
        }
        debug_assert!(false, "deferred load left no placeholder in the ring");
    }

    fn ring_min(&self, g: usize) -> Option<u64> {
        let base = g * self.mlp_cap;
        self.out_times[base..base + self.out_len[g] as usize]
            .iter()
            .copied()
            .min()
    }

    fn ring_max(&self, g: usize) -> Option<u64> {
        let base = g * self.mlp_cap;
        self.out_times[base..base + self.out_len[g] as usize]
            .iter()
            .copied()
            .max()
    }

    /// Post-step, every warp in `order` is live (the retire pass runs
    /// each step), so residency is just non-emptiness.
    fn resident(&self, flat: usize) -> bool {
        self.order_len[flat] > 0
    }

    /// Earliest cycle any of SM `flat`'s live warps becomes ready (or
    /// finishes draining); `u64::MAX` when it has none.
    fn next_ready(&self, flat: usize) -> u64 {
        let wbase = flat * self.stride;
        let n = self.order_len[flat] as usize;
        let mut m = u64::MAX;
        for &s in &self.order[wbase..wbase + n] {
            m = m.min(self.ready_at[wbase + s as usize]);
        }
        m
    }

    /// Arms (or disarms) the per-SM ready masks for a kernel starting
    /// at cycle `start`. Every kernel retires all its warps, which
    /// clears every bit, so the buckets carry over empty.
    fn reset_wheels(&mut self, masked: bool, start: u64) {
        self.masked = masked;
        self.wheels.clear();
        if !masked {
            return;
        }
        self.wheels.resize(self.total_sms, SmWheel::new(start));
        let words = self.total_sms * WHEEL as usize;
        if self.buckets.len() != words {
            self.buckets.clear();
            self.buckets.resize(words, 0);
        }
        debug_assert!(
            self.buckets.iter().all(|&b| b == 0),
            "wheel reused non-empty"
        );
    }

    /// Advances SM `flat`'s wheel `w` to `now` (see [`SmWheel::drain`]).
    fn drain(&mut self, w: &mut SmWheel, flat: usize, now: u64, work: &mut WorkStats) {
        let wbase = flat * self.stride;
        let (order, ready_at) = (&self.order, &self.ready_at);
        if w.drain(&mut SmBuckets::new(&mut self.buckets, flat), now, |p| {
            ready_at[wbase + order[wbase + p] as usize]
        }) {
            work.far_rescans += 1;
        }
    }

    /// Removes position `p` of SM `flat`, ready at `ra`, from its wheel
    /// `w` (see [`SmWheel::disarm`]).
    fn disarm(&mut self, w: &mut SmWheel, flat: usize, p: usize, ra: u64, work: &mut WorkStats) {
        let wbase = flat * self.stride;
        let (order, ready_at) = (&self.order, &self.ready_at);
        if w.disarm(&mut SmBuckets::new(&mut self.buckets, flat), p, ra, |q| {
            ready_at[wbase + order[wbase + q] as usize]
        }) {
            work.far_rescans += 1;
        }
    }

    /// Position of live slot `s` in SM `flat`'s order, if it is live.
    fn position_of(&self, flat: usize, s: u32) -> Option<usize> {
        let wbase = flat * self.stride;
        let n = self.order_len[flat] as usize;
        self.order[wbase..wbase + n].iter().position(|&o| o == s)
    }

    /// Debug-build check that SM `flat`'s wheel `w` files every live
    /// warp exactly where its `ready_at` says — so `w.ready` equals the
    /// reference readiness scan — with exact occupancy and far minimum.
    #[cfg(debug_assertions)]
    fn debug_check_wheel(&self, flat: usize, w: &SmWheel) {
        let wbase = flat * self.stride;
        let n = self.order_len[flat] as usize;
        let (mut ready, mut far, mut far_min) = (0u64, 0u64, u64::MAX);
        let mut buckets = [0u64; WHEEL as usize];
        for p in 0..n {
            let ra = self.ready_at[wbase + self.order[wbase + p] as usize];
            if ra <= w.base {
                ready |= 1 << p;
            } else if ra - w.base < WHEEL {
                buckets[(ra % WHEEL) as usize] |= 1 << p;
            } else {
                far |= 1 << p;
                far_min = far_min.min(ra);
            }
        }
        assert_eq!(
            w.ready, ready,
            "ready mask diverged from the readiness scan"
        );
        assert_eq!(w.far, far, "far mask diverged from the readiness scan");
        assert_eq!(w.far_min, far_min, "far minimum is not exact");
        for (b, &word) in buckets.iter().enumerate() {
            assert_eq!(
                self.buckets[b * self.total_sms + flat],
                word,
                "wheel bucket {b} diverged"
            );
        }
        let occ = buckets
            .iter()
            .enumerate()
            .fold(0u64, |o, (b, &word)| o | u64::from(word != 0) << b);
        assert_eq!(w.occ, occ, "bucket occupancy diverged");
    }
}

/// How [`GpuSim::run_kernel`] advances the simulated clock.
///
/// All modes produce bit-identical [`KernelResult`]s; they differ only in
/// wall-clock cost. The default is read once per process from the
/// `MMGPU_SIM_ENGINE` environment variable (`event`, `naive`, `shadow`,
/// `parallel`, or `shadow-par`), falling back to
/// [`EngineMode::EventDriven`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Per-SM wake times with fast-forward over sleeping SMs (the
    /// default; fastest single-threaded, especially for memory-bound
    /// multi-GPM runs).
    #[default]
    EventDriven,
    /// The reference per-cycle loop that scans every SM on every visited
    /// cycle (slow; kept as the ground truth the other modes are checked
    /// against).
    Naive,
    /// Runs *both* loops on cloned machine state and asserts their
    /// results and memory-side counters are identical (slowest; for
    /// validation runs and CI equivalence smokes).
    Shadow,
    /// Shards the GPMs of *one* simulation across worker threads in
    /// lockstep epochs, merging memory traffic in canonical order at an
    /// epoch barrier — bit-identical to [`EngineMode::EventDriven`] by
    /// construction (the determinism contract is DESIGN.md §17). Thread
    /// count comes from [`GpuSim::set_sim_threads`] or
    /// `MMGPU_SIM_THREADS`.
    Parallel,
    /// Runs the parallel engine on `self` and the naive reference on
    /// cloned machine state, asserting results and memory-side counters
    /// are identical (validation runs and CI smokes for the parallel
    /// engine).
    ShadowPar,
}

/// The concrete cycle loop [`GpuSim::run_kernel_with`] dispatches to —
/// the shadow modes resolve to one of these plus a reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    Naive,
    Event,
    Parallel,
}

impl EngineMode {
    /// The process-wide default: `MMGPU_SIM_ENGINE` if set and valid,
    /// otherwise [`EngineMode::EventDriven`]. Read once and cached.
    pub fn from_env() -> EngineMode {
        use std::sync::OnceLock;
        static MODE: OnceLock<EngineMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("MMGPU_SIM_ENGINE") {
            Ok(v) => match v.as_str() {
                "event" | "event-driven" => EngineMode::EventDriven,
                "naive" => EngineMode::Naive,
                "shadow" => EngineMode::Shadow,
                "parallel" => EngineMode::Parallel,
                "shadow-par" | "shadow_par" => EngineMode::ShadowPar,
                other => {
                    eprintln!(
                        "sim: ignoring unknown MMGPU_SIM_ENGINE={other:?} \
                         (expected event, naive, shadow, parallel, or shadow-par)"
                    );
                    EngineMode::EventDriven
                }
            },
            Err(_) => EngineMode::EventDriven,
        })
    }
}

/// Counters describing how much work the event-driven loop avoided,
/// accumulated across every kernel a [`GpuSim`] has run.
///
/// `visited_cycles * total_sms - sm_steps` is the number of per-SM scans
/// the naive loop would have performed that the event-driven loop
/// skipped; `skipped_cycles` is the number of whole cycles neither loop
/// visits (both fast-forward those, charging them as stall/idle time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Clock advances of more than one cycle.
    pub jumps: u64,
    /// Cycles skipped by those jumps (never visited by the loop).
    pub skipped_cycles: u64,
    /// Cycles the loop actually visited.
    pub visited_cycles: u64,
    /// Per-SM processing steps actually executed (the naive loop would
    /// have executed `visited_cycles * total_sms`).
    pub sm_steps: u64,
}

/// Counters describing how the data-oriented (SoA) engine core spent
/// its effort, accumulated across every kernel a [`GpuSim`] has run.
/// Exported to the trace layer as `sim.soa.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoaStats {
    /// Bitmask scans performed (free-CTA-slot probes plus
    /// exhausted-warp checks).
    pub mask_scans: u64,
    /// Retire scans skipped because the exhausted mask was empty.
    pub retire_scans_skipped: u64,
}

/// Engine work counters for one kernel: how many warps the issue and
/// retire paths touched. Accumulated across kernels by [`GpuSim`] and
/// exported per kernel as the `sim.issue.*`, `sim.retire.checks`,
/// `sim.cta.refills` and `sim.wheel.far_rescans` trace counters, under
/// every loop kind (the naive reference included), so
/// `sim.ns_per_instr` splits into work per instruction times cost per
/// unit of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// SM steps, through the ready mask or the reference scan.
    pub steps: u64,
    /// Warps the issue path considered: every resident warp under the
    /// reference scan (each list entry walked under GTO), only the
    /// ready ones under the ready mask.
    pub warps_examined: u64,
    /// Scheduler polls of ready warps.
    pub polls: u64,
    /// Polls that issued an instruction.
    pub issued: u64,
    /// Polls of a load stalled at the per-warp MLP limit.
    pub mlp_stalls: u64,
    /// Exhausted warps the retire path checked for retirement.
    pub retire_checks: u64,
    /// CTAs launched onto an SM.
    pub cta_refills: u64,
    /// Far-mask rescans of the ready-mask timing wheel (zero under the
    /// reference scan).
    pub far_rescans: u64,
}

impl WorkStats {
    pub(crate) fn add(&mut self, o: &WorkStats) {
        self.steps += o.steps;
        self.warps_examined += o.warps_examined;
        self.polls += o.polls;
        self.issued += o.issued;
        self.mlp_stalls += o.mlp_stalls;
        self.retire_checks += o.retire_checks;
        self.cta_refills += o.cta_refills;
        self.far_rescans += o.far_rescans;
    }

    /// Exports these per-kernel counts to the trace layer.
    fn export(&self) {
        trace::count("sim.issue.steps", self.steps);
        trace::count("sim.issue.warps_examined", self.warps_examined);
        trace::count("sim.issue.polls", self.polls);
        trace::count("sim.issue.issued", self.issued);
        trace::count("sim.issue.mlp_stalls", self.mlp_stalls);
        trace::count("sim.retire.checks", self.retire_checks);
        trace::count("sim.cta.refills", self.cta_refills);
        trace::count("sim.wheel.far_rescans", self.far_rescans);
    }
}

/// Event-loop bookkeeping for one contiguous run of SMs — the whole GPU
/// under the serial event-driven loop, one shard's GPM range under the
/// parallel engine. Holding it outside [`KernelState`] lets the epoch
/// coordinator patch wake times after the merge without aliasing the
/// warp pool, and lets each shard carry its own copy.
#[derive(Default)]
pub(crate) struct EventLoopState {
    /// Earliest `ready_at` among the SM's live warps; `u64::MAX` when
    /// none. Valid while the SM sleeps because sleeping SMs are exactly
    /// those whose state no cycle can change.
    pub(crate) ready_wake: Vec<u64>,
    /// Free CTA slot && CTA pending — processed at every visited cycle
    /// (the naive loop refills on visited cycles only, so refill times
    /// must not influence which cycles are visited — see DESIGN.md §12).
    refill_eligible: Vec<bool>,
    /// First cycle not yet charged to this SM (lazy idle/stall
    /// accounting for sleeping SMs).
    acct: Vec<u64>,
    /// Resident status while sleeping (constant between processings).
    sleeping_resident: Vec<bool>,
    /// Visited-cycle iteration of the SM's last processing (for
    /// round-robin pointer catch-up: naive advances rr once per
    /// *visited* cycle with warps resident, not per calendar cycle).
    last_iter: Vec<u64>,
    /// SMs that can still make progress: the per-cycle SM walk scans
    /// this mask word by word instead of testing a dead flag per SM.
    live_mask: BitWords,
    /// Count of members in `live_mask`; the kernel (or shard) is
    /// drained when it reaches zero.
    pub(crate) live: usize,
    /// Visited-cycle counter. Under the parallel engine every shard
    /// visits every epoch, so shard-local iteration counts equal the
    /// serial loop's global count — which keeps the rr catch-up above
    /// bit-exact.
    iter: u64,
}

impl EventLoopState {
    /// Re-arms the bookkeeping for a kernel over `total_sms` SMs
    /// starting at cycle `start`. Every SM begins refill-eligible so the
    /// first visited cycle processes all of them, exactly like the
    /// naive loop.
    pub(crate) fn reset(&mut self, total_sms: usize, start: u64) {
        self.ready_wake.clear();
        self.ready_wake.resize(total_sms, u64::MAX);
        self.refill_eligible.clear();
        self.refill_eligible.resize(total_sms, true);
        self.acct.clear();
        self.acct.resize(total_sms, start);
        self.sleeping_resident.clear();
        self.sleeping_resident.resize(total_sms, false);
        self.last_iter.clear();
        self.last_iter.resize(total_sms, 0);
        self.live_mask.clear();
        self.live_mask.grow_to(total_sms);
        for flat in 0..total_sms {
            self.live_mask.set(flat);
        }
        self.live = total_sms;
        self.iter = 0;
    }

    /// Processes one visited cycle: wakes every SM that can make
    /// progress at `now`, applies its lazy sleep accounting, steps it,
    /// and refreshes its wake/refill state. Returns whether any warp
    /// anywhere issued. The walk is ascending-SM-order identical to the
    /// naive loop's `for flat in 0..total_sms` (each mask word is
    /// snapshotted so the body may retire the SM it is processing).
    pub(crate) fn visit(
        &mut self,
        ctx: &KernelCtx<'_>,
        st: &mut KernelState,
        sink: &mut MemSink<'_>,
        soa: &mut SoaStats,
        sm_steps: &mut u64,
        now: u64,
    ) -> bool {
        self.iter += 1;
        let iter = self.iter;
        let issue_width = ctx.issue_width;
        let iw = issue_width as u64;
        let mut issued_any = false;

        for wi in 0..self.live_mask.word_count() {
            let mut word = self.live_mask.word(wi);
            while word != 0 {
                let flat = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if !(self.refill_eligible[flat] || self.ready_wake[flat] <= now) {
                    continue; // sleeping
                }

                // Lazy catch-up for the cycles this SM slept through.
                let slept = now - self.acct[flat];
                if slept > 0 {
                    st.counts.idle_sm_cycles += slept;
                    if self.sleeping_resident[flat] {
                        st.counts.stall_cycles += iw * slept;
                    }
                    let missed_iters = iter - 1 - self.last_iter[flat];
                    let n = st.pool.order_len[flat] as usize;
                    if n > 0 && missed_iters > 0 {
                        let r = st.pool.rr[flat] as usize;
                        st.pool.rr[flat] =
                            ((r % n + (missed_iters % n as u64) as usize) % n) as u32;
                    }
                }

                let step = GpuSim::step_sm(ctx, st, sink, soa, flat, now);
                *sm_steps += 1;
                if step.issued > 0 {
                    issued_any = true;
                }
                st.charge_cycle(step.issued, step.resident, issue_width);
                self.acct[flat] = now + 1;
                self.last_iter[flat] = iter;
                self.sleeping_resident[flat] = step.resident;
                self.refill_eligible[flat] = step.cta_pending && step.free_slot;
                if !step.resident && !step.cta_pending {
                    self.live_mask.unset(flat);
                    self.live -= 1;
                    self.ready_wake[flat] = u64::MAX;
                } else {
                    self.ready_wake[flat] = step.wake;
                }
            }
        }
        issued_any
    }

    /// The earliest wake time across all SMs (`u64::MAX` when nothing
    /// is pending) — the fast-forward jump target when no warp issued.
    pub(crate) fn min_wake(&self) -> u64 {
        self.ready_wake.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Final flush: the naive loop keeps charging drained SMs one idle
    /// cycle per visited cycle until the whole kernel drains; `through`
    /// is one past the final visited cycle.
    pub(crate) fn flush_idle(&self, st: &mut KernelState, through: u64) {
        for &charged in &self.acct {
            if charged < through {
                st.counts.idle_sm_cycles += through - charged;
            }
        }
    }
}

/// Applies one shard's deferred memory accesses in their recorded
/// (SM-then-poll) order — with shards merged in ascending order by the
/// caller, exactly the order the serial engine issues them at cycle
/// `now` — and patches the shard's warp state with the real outcomes:
/// placeholder ring entries become true completions, write-buffer
/// backpressure lands on `ready_at`, exhausted warps re-arm to their
/// true drain time, and each touched SM's wake time is recomputed
/// exactly (DESIGN.md §17 shows the exact recompute is unobservable).
/// Returns the number of accesses merged.
pub(crate) fn merge_deferred(
    mem: &mut MemorySystem,
    ctx: &KernelCtx<'_>,
    st: &mut KernelState,
    els: &mut EventLoopState,
    queue: &mut Vec<DeferredAccess>,
    now: u64,
) -> u64 {
    let merged = queue.len() as u64;
    for acc in queue.drain(..) {
        let g = acc.g as usize;
        let flat = g / st.pool.stride;
        let flat_global = st.sm_base + flat;
        let gpm = flat_global / ctx.sms_per_gpm;
        let sm_id = SmId::new(
            GpmId::new(gpm as u16),
            (flat_global - gpm * ctx.sms_per_gpm) as u16,
        );
        let out = mem.access(sm_id, acc.mref, now);
        let pool = &mut st.pool;
        let old = pool.ready_at[g];
        let mut ra = old;
        if !acc.mref.is_store {
            pool.ring_replace_placeholder(g, out.completion);
        } else if out.blocking && !pool.exhausted.get(g) {
            // Write-buffer backpressure, exactly where the direct path
            // applies it. An exhausted warp discards it in favor of its
            // drain time (below), as the direct path's ring_max
            // overwrite does; a warp that already retired this cycle
            // (store with no loads in flight) has a freed slot whose
            // `ready_at` the next allocation resets.
            ra = out.completion;
        }
        if pool.exhausted.get(g) {
            ra = pool.ring_max(g).unwrap_or(now + 1);
        }
        pool.ready_at[g] = ra;
        // Re-arm a live warp whose ready time moved (a freed slot has
        // no position and no wheel bit).
        if pool.masked && ra != old {
            let s = (g - flat * pool.stride) as u32;
            if let Some(p) = pool.position_of(flat, s) {
                let mut w = pool.wheels[flat];
                pool.disarm(&mut w, flat, p, old, &mut st.work);
                w.arm(&mut SmBuckets::new(&mut pool.buckets, flat), p, ra);
                pool.wheels[flat] = w;
            }
        }
        // The shard's wake time saw placeholders; recompute it exactly
        // for still-live SMs.
        if els.live_mask.get(flat) {
            els.ready_wake[flat] = if pool.masked {
                pool.wheels[flat].wake(now)
            } else {
                pool.next_ready(flat)
            };
        }
    }
    merged
}

/// Debug build check that fast-forwarding from `now` to `next` jumps
/// over no ready event: every live warp's wake-up lies at or beyond the
/// target. Compiled to nothing in release builds.
#[allow(unused_variables)]
pub(crate) fn debug_assert_no_skip(st: &KernelState, now: u64, next: u64) {
    #[cfg(debug_assertions)]
    if next > now + 1 {
        for flat in 0..st.pool.total_sms {
            let wbase = flat * st.pool.stride;
            let n = st.pool.order_len[flat] as usize;
            for &s in &st.pool.order[wbase..wbase + n] {
                let ready_at = st.pool.ready_at[wbase + s as usize];
                debug_assert!(
                    ready_at <= now || ready_at >= next,
                    "fast-forward from {now} to {next} skips a warp ready at {ready_at}"
                );
            }
        }
    }
}

/// Reusable per-kernel allocations owned by [`GpuSim`]: the warp-state
/// columns and the event-loop bookkeeping vectors. Taken at kernel
/// launch, reset in place, and returned at kernel end, so steady-state
/// workloads allocate nothing per kernel.
#[derive(Default)]
struct EngineScratch {
    pool: WarpPool,
    gpm_issued: Vec<usize>,
    els: EventLoopState,
}

/// Immutable per-kernel parameters shared by every loop implementation.
pub(crate) struct KernelCtx<'a> {
    program: &'a dyn KernelProgram,
    pub(crate) partition: CtaPartition,
    pub(crate) warps_per_cta: usize,
    pub(crate) issue_width: usize,
    pub(crate) sms_per_gpm: usize,
    pub(crate) mlp_per_warp: usize,
    gto: bool,
    /// The kernel's single shared instruction sequence, when every warp
    /// runs the same one ([`KernelProgram::uniform_warp_program`]):
    /// decoded once here, shared by every warp slot, never re-decoded
    /// through the boxed iterators.
    uniform: Option<Arc<[WarpInstr]>>,
}

/// Mutable per-kernel state for one contiguous run of SMs: the whole
/// GPU for the serial loops (`sm_base == 0`), one shard's GPM range for
/// the parallel engine. Warp-pool and `gpm_issued` indices are local to
/// the range; `sm_base`/`gpm_base` locate it globally.
pub(crate) struct KernelState {
    pool: WarpPool,
    gpm_issued: Vec<usize>,
    pub(crate) counts: EventCounts,
    pub(crate) done_ctas: u32,
    /// Engine work counters for this kernel.
    pub(crate) work: WorkStats,
    /// Global flat index of this state's first SM. Always a multiple of
    /// `sms_per_gpm` (shards own whole GPMs).
    sm_base: usize,
    /// First GPM this state owns (`sm_base / sms_per_gpm`).
    gpm_base: usize,
}

/// Builds the shard-local [`KernelState`] for GPMs `gpm_lo..gpm_hi`
/// with a freshly shaped warp pool (ready masks armed at `start`).
/// Slot ids are unobservable (see [`WarpPool`]), so a fresh pool per
/// shard cannot perturb results.
pub(crate) fn shard_state(
    ctx: &KernelCtx<'_>,
    max_ctas_per_sm: usize,
    gpm_lo: usize,
    gpm_hi: usize,
    start: u64,
) -> KernelState {
    let shard_sms = (gpm_hi - gpm_lo) * ctx.sms_per_gpm;
    let stride = max_ctas_per_sm * ctx.warps_per_cta;
    let mut pool = WarpPool::default();
    pool.reset(shard_sms, stride, max_ctas_per_sm, ctx.mlp_per_warp.max(1));
    pool.reset_wheels(stride <= 64, start);
    KernelState {
        pool,
        gpm_issued: vec![0; gpm_hi - gpm_lo],
        counts: EventCounts::new(),
        done_ctas: 0,
        work: WorkStats::default(),
        sm_base: gpm_lo * ctx.sms_per_gpm,
        gpm_base: gpm_lo,
    }
}

impl KernelState {
    /// Accounting for one SM over one visited cycle — the same charges
    /// whether the SM was processed (naive) or slept through it (event-
    /// driven lazy catch-up with `issued == 0`).
    fn charge_cycle(&mut self, issued: usize, resident: bool, issue_width: usize) {
        if issued > 0 {
            self.counts.busy_sm_cycles += 1;
            self.counts.stall_cycles += (issue_width - issued) as u64;
        } else if resident {
            self.counts.idle_sm_cycles += 1;
            self.counts.stall_cycles += issue_width as u64;
        } else {
            self.counts.idle_sm_cycles += 1;
        }
    }
}

/// Outcome of processing one SM at one visited cycle.
pub(crate) struct SmStep {
    /// Instructions issued this cycle (0..=issue_width).
    issued: usize,
    /// Post-step: the SM still holds live warps.
    resident: bool,
    /// Post-step: a CTA remains unassigned for this SM's module.
    cta_pending: bool,
    /// Post-step: the SM has a free resident-CTA slot.
    free_slot: bool,
    /// Post-step: earliest cycle at which a live warp needs service
    /// (`u64::MAX` when none) — `next_ready` of the post-step state,
    /// where any value up to `now + 1` means "next visited cycle". It
    /// must be exact. A late wake jumps over a ready warp; an early one
    /// adds a visited cycle the naive loop never visits, which advances
    /// round-robin pointers and refills CTAs there and so changes the
    /// simulation. Debug builds assert it at every step.
    wake: u64,
}

/// The multi-module GPU simulator.
///
/// State (module-side L2 contents, first-touch page placements, resource
/// queues, the global clock) persists across kernel launches within a
/// workload, with software-coherence flushes at each kernel boundary.
///
/// # Examples
///
/// ```
/// use sim::{GpuConfig, GpuSim};
/// use isa::{GridShape, KernelProgram, MemRef, WarpInstr, WarpInstrStream, Opcode};
/// use common::{CtaId, WarpId};
///
/// struct Saxpy;
/// impl KernelProgram for Saxpy {
///     fn name(&self) -> &str { "saxpy" }
///     fn grid(&self) -> GridShape { GridShape::new(8, 2) }
///     fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
///         let base = (cta.0 as u64 * 2 + warp.0 as u64) * 256;
///         isa::iter_stream([
///             WarpInstr::Mem(MemRef::global_load(base)),
///             WarpInstr::Compute(Opcode::FFma32),
///             WarpInstr::Mem(MemRef::global_store(base + 128)),
///         ].into_iter())
///     }
/// }
///
/// let mut sim = GpuSim::new(&GpuConfig::tiny(1));
/// let result = sim.run_kernel(&Saxpy);
/// assert_eq!(result.ctas, 8);
/// assert!(result.cycles > 0);
/// ```
pub struct GpuSim {
    cfg: GpuConfig,
    mem: MemorySystem,
    now: u64,
    mode: EngineMode,
    ff: FastForwardStats,
    soa: SoaStats,
    work: WorkStats,
    par: crate::par::ParStats,
    /// Worker-thread budget for [`EngineMode::Parallel`]; `None` defers
    /// to `MMGPU_SIM_THREADS` / the machine's available parallelism.
    sim_threads: Option<usize>,
    scratch: EngineScratch,
}

impl GpuSim {
    /// Creates a simulator for a configuration, using the process-wide
    /// default [`EngineMode`] (see [`EngineMode::from_env`]).
    pub fn new(cfg: &GpuConfig) -> Self {
        GpuSim::with_mode(cfg, EngineMode::from_env())
    }

    /// Creates a simulator with an explicit clock-advance strategy.
    pub fn with_mode(cfg: &GpuConfig, mode: EngineMode) -> Self {
        GpuSim {
            cfg: cfg.clone(),
            mem: MemorySystem::new(cfg),
            now: 0,
            mode,
            ff: FastForwardStats::default(),
            soa: SoaStats::default(),
            work: WorkStats::default(),
            par: crate::par::ParStats::default(),
            sim_threads: None,
            scratch: EngineScratch::default(),
        }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The memory system (diagnostics: hit rates, page balance).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The clock-advance strategy this simulator uses.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Fast-forward counters accumulated over every kernel run so far
    /// (all zero under [`EngineMode::Naive`]).
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.ff
    }

    /// Data-oriented-core counters accumulated over every kernel run so
    /// far (bitmask scans, skipped retire passes).
    pub fn soa_stats(&self) -> SoaStats {
        self.soa
    }

    /// Engine work counters accumulated over every kernel run so far
    /// (steps, warps examined, polls, retire checks, refills).
    pub fn work_stats(&self) -> WorkStats {
        self.work
    }

    /// Parallel-engine counters accumulated over every kernel run so
    /// far (all zero unless [`EngineMode::Parallel`] /
    /// [`EngineMode::ShadowPar`] ran).
    pub fn par_stats(&self) -> crate::par::ParStats {
        self.par
    }

    /// Overrides the worker-thread budget the parallel engine may use.
    /// `None` (the default) defers to `MMGPU_SIM_THREADS`, then to the
    /// machine's available parallelism. The effective shard count is
    /// `min(threads, num_gpms)` — shards own whole GPMs, so extra
    /// threads beyond the GPM count are simply not used.
    pub fn set_sim_threads(&mut self, threads: Option<usize>) {
        self.sim_threads = threads;
    }

    fn resolved_threads(&self) -> usize {
        self.sim_threads
            .unwrap_or_else(crate::par::default_threads)
            .max(1)
    }

    /// Runs one kernel to completion and returns its event counts.
    pub fn run_kernel(&mut self, program: &dyn KernelProgram) -> KernelResult {
        match self.mode {
            EngineMode::EventDriven => self.run_kernel_with(program, LoopKind::Event),
            EngineMode::Naive => self.run_kernel_with(program, LoopKind::Naive),
            EngineMode::Parallel => self.run_kernel_with(program, LoopKind::Parallel),
            EngineMode::Shadow => self.run_shadowed(program, LoopKind::Event),
            EngineMode::ShadowPar => self.run_shadowed(program, LoopKind::Parallel),
        }
    }

    /// Runs the naive reference on a clone of the machine, then the
    /// checked loop on `self` (which stays authoritative), asserting
    /// bit-identical results and memory-side counters.
    fn run_shadowed(&mut self, program: &dyn KernelProgram, kind: LoopKind) -> KernelResult {
        let mut reference = GpuSim {
            cfg: self.cfg.clone(),
            mem: self.mem.clone(),
            now: self.now,
            mode: EngineMode::Naive,
            ff: FastForwardStats::default(),
            soa: SoaStats::default(),
            work: WorkStats::default(),
            par: crate::par::ParStats::default(),
            sim_threads: self.sim_threads,
            scratch: EngineScratch::default(),
        };
        let expected = reference.run_kernel_with(program, LoopKind::Naive);
        let got = self.run_kernel_with(program, kind);
        let label = match kind {
            LoopKind::Parallel => "parallel",
            _ => "event-driven",
        };
        assert_eq!(
            got, expected,
            "shadow mode: {label} result diverged from the naive reference"
        );
        assert_eq!(
            self.now,
            reference.now,
            "shadow mode: clocks diverged after kernel {:?}",
            program.name()
        );
        assert_eq!(
            self.mem.txns(),
            reference.mem.txns(),
            "shadow mode: memory-side transaction counts diverged"
        );
        assert_eq!(
            self.mem.inter_gpm_hop_bytes(),
            reference.mem.inter_gpm_hop_bytes(),
            "shadow mode: NoC hop-byte counters diverged"
        );
        got
    }

    /// Shared kernel setup/teardown around the selected cycle loop.
    fn run_kernel_with(&mut self, program: &dyn KernelProgram, kind: LoopKind) -> KernelResult {
        let _span = trace::span("sim.kernel");
        let grid = program.grid();
        let num_gpms = self.cfg.num_gpms;
        let sms_per_gpm = self.cfg.gpm.sms;
        let total_sms = self.cfg.total_sms();

        // CTA partition across GPMs (contiguous by default, round-robin
        // under the scheduling ablation).
        let ctas = grid.ctas as usize;
        let warps_per_cta = grid.warps_per_cta as usize;
        let max_ctas_per_sm = (self.cfg.gpm.max_resident_warps / warps_per_cta).max(1);

        let ctx = KernelCtx {
            program,
            partition: CtaPartition::new(self.cfg.cta_schedule, ctas, num_gpms),
            warps_per_cta,
            issue_width: self.cfg.gpm.issue_width as usize,
            sms_per_gpm,
            mlp_per_warp: self.cfg.gpm.mlp_per_warp,
            gto: self.cfg.warp_scheduler == crate::config::WarpScheduler::GreedyThenOldest,
            uniform: program.uniform_warp_program().map(Arc::from),
        };

        // Event accumulation (memory-side counts snapshot for deltas).
        let txns_before = self.mem.txns().clone();
        let hop_before = self.mem.inter_gpm_hop_bytes();
        let e2e_before = self.mem.inter_gpm_bytes();
        let switch_before = self.mem.switch_bytes();

        let start = self.now;
        let ff_before = self.ff;
        let soa_before = self.soa;
        let par_before = self.par;

        // The parallel engine runs on shard-local state; it falls back
        // to the serial event loop (identical results) when the shard
        // worker pool is held by another simulation in this process.
        let mut work = WorkStats::default();
        let sharded = if kind == LoopKind::Parallel {
            let threads = self.resolved_threads();
            let out = crate::par::run_shards(
                &mut self.mem,
                &mut self.par,
                &mut self.ff,
                &mut self.soa,
                &mut work,
                &ctx,
                max_ctas_per_sm,
                threads,
                start,
            );
            if out.is_none() {
                self.par.serial_fallbacks += 1;
            }
            out
        } else {
            None
        };

        let (mut now, mut counts, done_ctas) = match sharded {
            Some(out) => out,
            None => {
                // Reuse the per-kernel allocations owned by the sim:
                // take the warp-state columns out of the scratch pool,
                // reset them in place, and return them at kernel end.
                let mut pool = std::mem::take(&mut self.scratch.pool);
                let stride = max_ctas_per_sm * warps_per_cta;
                pool.reset(total_sms, stride, max_ctas_per_sm, ctx.mlp_per_warp.max(1));
                // The event loop steps through ready masks when an SM's
                // positions fit one word; the naive loop is the
                // reference scan.
                pool.reset_wheels(kind != LoopKind::Naive && stride <= 64, start);
                let mut gpm_issued = std::mem::take(&mut self.scratch.gpm_issued);
                gpm_issued.clear();
                gpm_issued.resize(num_gpms, 0);
                let mut st = KernelState {
                    pool,
                    gpm_issued,
                    counts: EventCounts::new(),
                    done_ctas: 0,
                    work: WorkStats::default(),
                    sm_base: 0,
                    gpm_base: 0,
                };
                let now = if kind == LoopKind::Naive {
                    self.run_loop_naive(&ctx, &mut st, start)
                } else {
                    self.run_loop_event(&ctx, &mut st, start)
                };
                self.scratch.pool = std::mem::take(&mut st.pool);
                self.scratch.gpm_issued = std::mem::take(&mut st.gpm_issued);
                work = st.work;
                (now, st.counts, st.done_ctas)
            }
        };

        self.work.add(&work);
        work.export();
        if kind != LoopKind::Naive {
            let d = self.ff;
            trace::count("sim.ff.jumps", d.jumps - ff_before.jumps);
            trace::count(
                "sim.ff.skipped_cycles",
                d.skipped_cycles - ff_before.skipped_cycles,
            );
            trace::count(
                "sim.ff.visited_cycles",
                d.visited_cycles - ff_before.visited_cycles,
            );
            trace::count("sim.ff.sm_steps", d.sm_steps - ff_before.sm_steps);
            let s = self.soa;
            trace::count("sim.soa.mask_scans", s.mask_scans - soa_before.mask_scans);
            trace::count(
                "sim.soa.retire_scans_skipped",
                s.retire_scans_skipped - soa_before.retire_scans_skipped,
            );
        }
        if kind == LoopKind::Parallel {
            let p = self.par;
            trace::count("sim.par.epochs", p.epochs - par_before.epochs);
            trace::count(
                "sim.par.merged_accesses",
                p.merged_accesses - par_before.merged_accesses,
            );
            trace::count(
                "sim.par.barrier_waits",
                p.barrier_waits - par_before.barrier_waits,
            );
            trace::count(
                "sim.par.serial_fallbacks",
                p.serial_fallbacks - par_before.serial_fallbacks,
            );
        }

        // Software coherence at the kernel boundary.
        now = self.mem.kernel_boundary(now).max(now);
        self.now = now;

        let cycles = now - start;
        counts.elapsed = common::Cycles::new(cycles) / self.cfg.gpm.clock;

        // Memory-side deltas against the pre-kernel snapshot.
        let mut txns = isa::TxnCounts::new();
        for (t, n) in self.mem.txns().iter() {
            txns.add(t, n - txns_before.get(t));
        }
        let hop_bytes = self.mem.inter_gpm_hop_bytes() - hop_before;
        let e2e_bytes = self.mem.inter_gpm_bytes() - e2e_before;
        let switch_bytes = self.mem.switch_bytes() - switch_before;
        txns.add(
            isa::Transaction::InterGpmHop,
            hop_bytes / isa::Transaction::InterGpmHop.bytes_per_txn(),
        );
        txns.add(
            isa::Transaction::SwitchTraversal,
            switch_bytes / isa::Transaction::SwitchTraversal.bytes_per_txn(),
        );
        counts.txns = txns;
        counts.inter_gpm_bytes = common::Bytes::new(e2e_bytes);
        counts.inter_gpm_hop_bytes = common::Bytes::new(hop_bytes);
        counts.switch_bytes = common::Bytes::new(switch_bytes);

        KernelResult {
            name: program.name().to_string(),
            counts,
            cycles,
            ctas: done_ctas,
        }
    }

    /// One scheduler poll of a warp slot `g` (already known ready) on
    /// SM `flat`: either issues the warp's current instruction (returns
    /// `true`) or makes the bookkeeping-only transition the historical
    /// poll made — the MLP-limit stall re-arm, or the exhausted-stream
    /// skip (`false`). Counts the poll and its outcome in `work`.
    ///
    /// The in-flight ring is retained (landed loads dropped) only where
    /// its contents decide something: at the MLP limit and at stream
    /// exhaustion (the retire paths retain as well), so `ring_min` and
    /// `ring_max` are always read over exact rings.
    ///
    /// An associated function over split borrows so both scheduler scan
    /// shapes share it without aliasing `KernelState`. Memory traffic
    /// goes through `sink`: the serial loops pass the memory system
    /// directly; the parallel engine defers the access to the epoch
    /// merge and parks a [`DEFER_PLACEHOLDER`] in the outstanding-load
    /// ring so every occupancy-dependent decision this cycle is
    /// unchanged (see DESIGN.md §17 for why that is exact).
    #[allow(clippy::too_many_arguments)]
    fn poll_issue(
        pool: &mut WarpPool,
        counts: &mut EventCounts,
        work: &mut WorkStats,
        sink: &mut MemSink<'_>,
        ctx: &KernelCtx,
        sm_id: SmId,
        flat: usize,
        g: usize,
        now: u64,
    ) -> bool {
        work.polls += 1;
        let Some(instr) = pool.streams[g].current() else {
            return false;
        };
        // Loads are pipelined per warp up to the MLP limit; a warp at
        // the limit stalls until one of its loads returns.
        if matches!(instr, WarpInstr::Mem(m) if !m.is_store)
            && pool.out_len[g] as usize >= ctx.mlp_per_warp
        {
            pool.ring_retain(g, now);
            if pool.out_len[g] as usize >= ctx.mlp_per_warp {
                pool.ready_at[g] = pool.ring_min(g).unwrap_or(now + 1);
                work.mlp_stalls += 1;
                return false;
            }
        }
        work.issued += 1;
        match instr {
            WarpInstr::Compute(op) => {
                counts.instrs.add(op, WARP_SIZE as u64);
                pool.ready_at[g] = now + op.latency_cycles() as u64;
            }
            WarpInstr::Mem(mref) => match sink {
                MemSink::Direct(mem) => {
                    let out = mem.access(sm_id, mref, now);
                    if out.blocking && !mref.is_store {
                        pool.ring_push(g, out.completion);
                        pool.ready_at[g] = now + 1;
                    } else if out.blocking {
                        // Write-buffer backpressure.
                        pool.ready_at[g] = out.completion;
                    } else {
                        pool.ready_at[g] = now + 1;
                    }
                }
                MemSink::Defer(queue) => {
                    // Every load blocks with a future completion, so a
                    // placeholder ring entry plus the load's universal
                    // `ready_at = now + 1` reproduces the direct path's
                    // observable state; stores get the same `now + 1`
                    // and the merge re-applies write-buffer
                    // backpressure exactly where the direct path would.
                    queue.push(DeferredAccess { g: g as u32, mref });
                    if !mref.is_store {
                        pool.ring_push(g, DEFER_PLACEHOLDER);
                    }
                    pool.ready_at[g] = now + 1;
                }
            },
        }
        pool.streams[g].advance();
        if pool.streams[g].current().is_none() {
            // Stream exhausted: the warp drains its outstanding loads
            // and retires in a later cleanup pass.
            pool.ring_retain(g, now);
            pool.ready_at[g] = pool.ring_max(g).unwrap_or(now + 1);
            pool.exhausted.set(g);
            pool.exhausted_cnt[flat] += 1;
        }
        true
    }

    /// SM `flat`'s global id, plus its module's global index and its
    /// index local to `st`. `flat` is local to `st`;
    /// `st.sm_base`/`st.gpm_base` translate to global SM/GPM ids so CTA
    /// partitioning and NoC addressing are identical whether `st` spans
    /// the whole GPU (serial loops) or one shard's GPM range (parallel
    /// engine).
    fn sm_coords(ctx: &KernelCtx, st: &KernelState, flat: usize) -> (SmId, usize, usize) {
        let flat_global = st.sm_base + flat;
        let gpm = flat_global / ctx.sms_per_gpm;
        let sm_id = SmId::new(
            GpmId::new(gpm as u16),
            (flat_global - gpm * ctx.sms_per_gpm) as u16,
        );
        (sm_id, gpm, gpm - st.gpm_base)
    }

    /// Refills at most one CTA onto SM `flat` per cycle (breadth-first
    /// across the module's SMs, like a hardware CTA scheduler; filling
    /// one SM's slots greedily would cluster small grids onto SM0). Its
    /// warps append to the SM's order, ready at `now`. Returns the
    /// module's next unassigned CTA — the post-step `cta_pending`
    /// answer, re-read only when this step consumed a CTA.
    fn refill_cta(
        ctx: &KernelCtx,
        st: &mut KernelState,
        soa: &mut SoaStats,
        flat: usize,
        gpm: usize,
        gpm_local: usize,
        now: u64,
    ) -> Option<usize> {
        let pool = &mut st.pool;
        let mut cta_next = ctx.partition.nth_for(gpm, st.gpm_issued[gpm_local]);
        if let Some(cta) = cta_next {
            soa.mask_scans += 1;
            if let Some(slot_idx) = pool.cta_first_free(flat) {
                st.work.cta_refills += 1;
                st.gpm_issued[gpm_local] += 1;
                cta_next = ctx.partition.nth_for(gpm, st.gpm_issued[gpm_local]);
                let cslot = flat * pool.cta_stride + slot_idx;
                pool.cta_live[cslot] = ctx.warps_per_cta as u32;
                pool.cta_free.unset(cslot);
                pool.cta_free_cnt[flat] -= 1;
                for w in 0..ctx.warps_per_cta {
                    let landed = if let Some(uni) = &ctx.uniform {
                        pool.alloc_warp(flat, |s| s.reset_shared(uni.clone()), slot_idx as u32, now)
                    } else {
                        let stream = ctx
                            .program
                            .warp_instructions(CtaId::new(cta as u32), WarpId::new(w as u32));
                        pool.alloc_warp(flat, |s| s.reset(stream), slot_idx as u32, now)
                    };
                    if !landed {
                        // Degenerate empty warp: retire instantly.
                        pool.cta_live[cslot] -= 1;
                        if pool.cta_live[cslot] == 0 {
                            pool.cta_free.set(cslot);
                            pool.cta_free_cnt[flat] += 1;
                            st.done_ctas += 1;
                        }
                    }
                }
            }
        }
        cta_next
    }

    /// Processes one SM for one visited cycle of the event loop (or a
    /// parallel shard): through its ready mask when the kernel keeps
    /// one ([`WarpPool::reset_wheels`]), else through the reference
    /// scan.
    pub(crate) fn step_sm(
        ctx: &KernelCtx,
        st: &mut KernelState,
        sink: &mut MemSink<'_>,
        soa: &mut SoaStats,
        flat: usize,
        now: u64,
    ) -> SmStep {
        if st.pool.masked {
            Self::step_sm_ready(ctx, st, sink, soa, flat, now)
        } else {
            Self::step_sm_scan(ctx, st, sink, soa, flat, now)
        }
    }

    /// The reference SM step: refill at most one CTA, issue up to
    /// `issue_width` instructions, retire drained warps, finding ready
    /// and exhausted warps by scanning every resident warp. The naive
    /// loop always runs this, so [`EngineMode::Shadow`] checks the
    /// ready-mask step against it. Accounting is left to the caller
    /// (the two loops charge visited and slept cycles differently, but
    /// through the same rates).
    fn step_sm_scan(
        ctx: &KernelCtx,
        st: &mut KernelState,
        sink: &mut MemSink<'_>,
        soa: &mut SoaStats,
        flat: usize,
        now: u64,
    ) -> SmStep {
        let (sm_id, gpm, gpm_local) = Self::sm_coords(ctx, st, flat);
        st.work.steps += 1;
        let cta_next = Self::refill_cta(ctx, st, soa, flat, gpm, gpm_local, now);
        let issue_width = ctx.issue_width;
        let pool = &mut st.pool;
        let wbase = flat * pool.stride;

        // Issue up to issue_width instructions, in policy order: loose
        // round robin rotates through the physical order; greedy-then-
        // oldest prefers the warp it issued from last, then walks the
        // age-ordered list — the same sequence the historical
        // `sort_by_key((age != greedy, age))` produced, without the
        // per-cycle sort.
        let n = pool.order_len[flat] as usize;
        let mut issued = 0usize;
        let mut first_issued_slot = NONE;
        // Earliest future service time, folded into the scans this step
        // already performs; `true` forces a full end-of-step rescan on
        // the paths that mutate `ready_at` outside that fold.
        let mut wake = u64::MAX;
        let mut wake_rescan = false;
        if n > 0 {
            let start_rr = {
                // rr is stored already wrapped; it can only exceed the
                // live count when warps retired since the last step.
                let r = pool.rr[flat] as usize;
                if r >= n {
                    r % n
                } else {
                    r
                }
            };
            if !ctx.gto && n <= 64 {
                // Loose-round-robin mask fast path: one branchless pass
                // builds a position-indexed ready mask, then only the
                // (typically zero or one) ready warps are visited — via
                // `trailing_zeros`, in the exact rotated position order
                // the historical poll-every-warp loop used. Warps that
                // are not ready are pure no-op polls in that loop, so
                // never visiting them is unobservable.
                st.work.warps_examined += n as u64;
                let mut posmask: u64 = 0;
                for p in 0..n {
                    let s = pool.order[wbase + p] as usize;
                    let ra = pool.ready_at[wbase + s];
                    let ready = ra <= now;
                    posmask |= (ready as u64) << p;
                    // Not-ready warps keep their ready_at through the
                    // whole step (only the retire pass re-arms them,
                    // and it triggers a rescan), so fold their wake
                    // time here instead of re-scanning after issue.
                    wake = wake.min(if ready { u64::MAX } else { ra });
                }
                // Split at the rotation point instead of rotating, so
                // bit indices stay raw positions.
                let ge_rr = (u64::MAX >> (64 - n)) << start_rr;
                let mut hi = posmask & ge_rr;
                let mut lo = posmask & !ge_rr;
                while issued < issue_width {
                    let p = if hi != 0 {
                        let p = hi.trailing_zeros() as usize;
                        hi &= hi - 1;
                        p
                    } else if lo != 0 {
                        let p = lo.trailing_zeros() as usize;
                        lo &= lo - 1;
                        p
                    } else {
                        break;
                    };
                    let s = pool.order[wbase + p];
                    let g = wbase + s as usize;
                    if Self::poll_issue(
                        pool,
                        &mut st.counts,
                        &mut st.work,
                        sink,
                        ctx,
                        sm_id,
                        flat,
                        g,
                        now,
                    ) {
                        if first_issued_slot == NONE {
                            first_issued_slot = s;
                        }
                        issued += 1;
                    }
                    // Issued or stalled, the poll leaves ready_at as
                    // this warp's next service time (an exhausted
                    // stream additionally triggers the rescan below).
                    wake = wake.min(pool.ready_at[g]);
                }
                if hi | lo != 0 {
                    // Ready warps left unvisited by the issue-width cap
                    // are issuable again next cycle.
                    wake = wake.min(now + 1);
                }
            } else {
                // Generic poll loop: the greedy-then-oldest list walk
                // (any warp count), or loose round robin across more
                // than 64 resident warps.
                wake_rescan = true;
                let mut rr_idx = start_rr;
                let greedy = pool.greedy[flat];
                let mut cursor = if greedy != NONE {
                    greedy
                } else {
                    pool.gto_head[flat]
                };
                for _k in 0..n {
                    if issued == issue_width {
                        break;
                    }
                    let i = if ctx.gto {
                        let cur = cursor;
                        let mut nx = if cur == greedy {
                            pool.gto_head[flat]
                        } else {
                            pool.gto_next[wbase + cur as usize]
                        };
                        if nx != NONE && nx == greedy {
                            nx = pool.gto_next[wbase + nx as usize];
                        }
                        cursor = nx;
                        cur as usize
                    } else {
                        let i = pool.order[wbase + rr_idx] as usize;
                        rr_idx += 1;
                        if rr_idx == n {
                            rr_idx = 0;
                        }
                        i
                    };
                    let g = wbase + i;
                    st.work.warps_examined += 1;
                    if pool.ready_at[g] > now {
                        continue;
                    }
                    if Self::poll_issue(
                        pool,
                        &mut st.counts,
                        &mut st.work,
                        sink,
                        ctx,
                        sm_id,
                        flat,
                        g,
                        now,
                    ) {
                        if first_issued_slot == NONE {
                            first_issued_slot = i as u32;
                        }
                        issued += 1;
                    }
                }
            }
            pool.rr[flat] = if start_rr + 1 == n {
                0
            } else {
                (start_rr + 1) as u32
            };
            if ctx.gto && first_issued_slot != NONE {
                pool.greedy[flat] = first_issued_slot;
            }
        }

        // Retire warps whose stream is exhausted once their last loads
        // have returned (a warp never abandons in-flight memory). The
        // exhausted count makes the no-retirement case — every visited
        // cycle of a compute-bound kernel's steady state — one counter
        // test instead of a scan; removal from `order` keeps the exact
        // `swap_remove` physical reordering.
        soa.mask_scans += 1;
        if pool.exhausted_cnt[flat] > 0 {
            // Retirement and load-drain re-arming move ready_at under
            // the incremental fold's feet; recompute from scratch.
            wake_rescan = true;
            let mut len = pool.order_len[flat] as usize;
            let mut wi = 0;
            while wi < len {
                let s = pool.order[wbase + wi];
                let g = wbase + s as usize;
                st.work.retire_checks += 1;
                if pool.exhausted.get(g) {
                    pool.ring_retain(g, now);
                    if pool.out_len[g] == 0 {
                        let cslot = flat * pool.cta_stride + pool.cta_of[g] as usize;
                        pool.cta_live[cslot] -= 1;
                        if pool.cta_live[cslot] == 0 {
                            pool.cta_free.set(cslot);
                            pool.cta_free_cnt[flat] += 1;
                            st.done_ctas += 1;
                        }
                        pool.retire_slot(flat, s);
                        pool.order[wbase + wi] = pool.order[wbase + len - 1];
                        len -= 1;
                        continue;
                    }
                    // Wake exactly when the last load lands.
                    pool.ready_at[g] = pool.ring_max(g).unwrap_or(now + 1);
                }
                wi += 1;
            }
            pool.order_len[flat] = len as u32;
        } else {
            soa.retire_scans_skipped += 1;
        }

        let wake = if wake_rescan {
            pool.next_ready(flat)
        } else {
            wake
        };
        debug_assert_eq!(
            wake.max(now + 1),
            pool.next_ready(flat).max(now + 1),
            "SM {flat}: folded wake is not exact"
        );
        SmStep {
            issued,
            resident: pool.resident(flat),
            cta_pending: cta_next.is_some(),
            free_slot: pool.cta_free_cnt[flat] > 0,
            wake,
        }
    }

    /// Polls the ready warp at position `p` (slot `s`) of SM `flat`
    /// through [`GpuSim::poll_issue`], lifting its bit out of the ready
    /// mask first and re-arming it at the poll's new `ready_at` after.
    #[allow(clippy::too_many_arguments)]
    fn poll_position(
        pool: &mut WarpPool,
        w: &mut SmWheel,
        counts: &mut EventCounts,
        work: &mut WorkStats,
        sink: &mut MemSink<'_>,
        ctx: &KernelCtx,
        sm_id: SmId,
        flat: usize,
        p: usize,
        s: u32,
        now: u64,
    ) -> bool {
        let g = flat * pool.stride + s as usize;
        w.ready &= !(1 << p);
        let issued = Self::poll_issue(pool, counts, work, sink, ctx, sm_id, flat, g, now);
        w.arm(
            &mut SmBuckets::new(&mut pool.buckets, flat),
            p,
            pool.ready_at[g],
        );
        issued
    }

    /// The event loop's SM step: the same transitions as
    /// [`GpuSim::step_sm_scan`], but it reads only the warps that can
    /// issue or retire. The SM's [`SmWheel`] is drained to `now`, so
    /// its ready mask is exactly the set the reference scan would find
    /// ready; issue visits those warps in the reference order; the
    /// retire pass checks only exhausted warps that are ready or were
    /// polled this step (an exhausted warp with loads in flight has
    /// `ready_at == ring_max > now`, so it cannot retire); and the wake
    /// time comes from the wheel.
    fn step_sm_ready(
        ctx: &KernelCtx,
        st: &mut KernelState,
        sink: &mut MemSink<'_>,
        soa: &mut SoaStats,
        flat: usize,
        now: u64,
    ) -> SmStep {
        let (sm_id, gpm, gpm_local) = Self::sm_coords(ctx, st, flat);
        st.work.steps += 1;
        let launched_from = st.pool.order_len[flat] as usize;
        let cta_next = Self::refill_cta(ctx, st, soa, flat, gpm, gpm_local, now);
        let issue_width = ctx.issue_width;
        let KernelState {
            pool,
            counts,
            work,
            done_ctas,
            ..
        } = st;
        let wbase = flat * pool.stride;
        let n = pool.order_len[flat] as usize;
        let mut w = pool.wheels[flat];
        pool.drain(&mut w, flat, now, work);
        // Warps launched this step are ready at `now`.
        w.ready |= position_range(launched_from, n);
        #[cfg(debug_assertions)]
        pool.debug_check_wheel(flat, &w);

        let mut issued = 0usize;
        // Positions polled this step: with the ready ones, the only
        // warps that can retire.
        let mut polled = 0u64;
        if n > 0 {
            let start_rr = {
                let r = pool.rr[flat] as usize;
                if r >= n {
                    r % n
                } else {
                    r
                }
            };
            let ready = w.ready;
            work.warps_examined += u64::from(ready.count_ones());
            let mut first_issued_slot = NONE;
            if !ctx.gto {
                // Loose round robin: ready positions from `start_rr` up,
                // then wrapping around from 0.
                let ge_rr = position_range(start_rr, n);
                let mut hi = ready & ge_rr;
                let mut lo = ready & !ge_rr;
                while issued < issue_width {
                    let p = if hi != 0 {
                        let p = hi.trailing_zeros() as usize;
                        hi &= hi - 1;
                        p
                    } else if lo != 0 {
                        let p = lo.trailing_zeros() as usize;
                        lo &= lo - 1;
                        p
                    } else {
                        break;
                    };
                    polled |= 1 << p;
                    let s = pool.order[wbase + p];
                    if Self::poll_position(
                        pool, &mut w, counts, work, sink, ctx, sm_id, flat, p, s, now,
                    ) {
                        if first_issued_slot == NONE {
                            first_issued_slot = s;
                        }
                        issued += 1;
                    }
                }
            } else {
                // Greedy-then-oldest: the greedy warp, then ascending
                // age — the reference list walk restricted to ready
                // warps, picked by selection over the (few) ready bits.
                let greedy = pool.greedy[flat];
                let mut rest = ready;
                while issued < issue_width && rest != 0 {
                    let mut best = (u64::MAX, 0usize);
                    let mut m = rest;
                    while m != 0 {
                        let p = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let s = pool.order[wbase + p];
                        let key = if s == greedy {
                            0
                        } else {
                            pool.age[wbase + s as usize] + 1
                        };
                        if key < best.0 {
                            best = (key, p);
                        }
                    }
                    let p = best.1;
                    rest &= !(1 << p);
                    polled |= 1 << p;
                    let s = pool.order[wbase + p];
                    if Self::poll_position(
                        pool, &mut w, counts, work, sink, ctx, sm_id, flat, p, s, now,
                    ) {
                        if first_issued_slot == NONE {
                            first_issued_slot = s;
                        }
                        issued += 1;
                    }
                }
            }
            pool.rr[flat] = if start_rr + 1 == n {
                0
            } else {
                (start_rr + 1) as u32
            };
            if ctx.gto && first_issued_slot != NONE {
                pool.greedy[flat] = first_issued_slot;
            }
        }

        // Retire drained warps in the reference pass's order: the
        // lowest retiring position first, the tail moving into its
        // place (`swap_remove`) and being considered there in turn.
        soa.mask_scans += 1;
        if pool.exhausted_cnt[flat] > 0 {
            let mut retiring = 0u64;
            let mut m = w.ready | polled;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                let g = wbase + pool.order[wbase + p] as usize;
                if pool.exhausted.get(g) {
                    work.retire_checks += 1;
                    pool.ring_retain(g, now);
                    if pool.out_len[g] == 0 {
                        retiring |= 1 << p;
                    }
                }
            }
            let mut len = n;
            while retiring != 0 {
                let p = retiring.trailing_zeros() as usize;
                retiring &= !(1 << p);
                let s = pool.order[wbase + p];
                let g = wbase + s as usize;
                pool.disarm(&mut w, flat, p, pool.ready_at[g], work);
                let cslot = flat * pool.cta_stride + pool.cta_of[g] as usize;
                pool.cta_live[cslot] -= 1;
                if pool.cta_live[cslot] == 0 {
                    pool.cta_free.set(cslot);
                    pool.cta_free_cnt[flat] += 1;
                    *done_ctas += 1;
                }
                pool.retire_slot(flat, s);
                len -= 1;
                if p != len {
                    let tail = pool.order[wbase + len];
                    pool.order[wbase + p] = tail;
                    let ra = pool.ready_at[wbase + tail as usize];
                    w.move_bit(&mut SmBuckets::new(&mut pool.buckets, flat), len, p, ra);
                    if retiring & (1 << len) != 0 {
                        retiring ^= (1 << len) | (1 << p);
                    }
                }
            }
            pool.order_len[flat] = len as u32;
        } else {
            soa.retire_scans_skipped += 1;
        }

        pool.wheels[flat] = w;
        let wake = w.wake(now);
        #[cfg(debug_assertions)]
        {
            pool.debug_check_wheel(flat, &w);
            assert_eq!(
                wake,
                pool.next_ready(flat).max(now + 1),
                "SM {flat}: wheel wake is not exact"
            );
        }
        SmStep {
            issued,
            resident: pool.resident(flat),
            cta_pending: cta_next.is_some(),
            free_slot: pool.cta_free_cnt[flat] > 0,
            wake,
        }
    }

    /// The reference loop: every SM is processed on every visited cycle;
    /// when no warp anywhere issued, the clock jumps to the next wake-up,
    /// charging the skipped cycles as memory-wait (stall) time — the
    /// quantity that drives the paper's constant-energy exposure at
    /// scale. This is the historical seed behavior, kept bit-for-bit.
    fn run_loop_naive(&mut self, ctx: &KernelCtx, st: &mut KernelState, start: u64) -> u64 {
        let total_sms = st.pool.total_sms;
        let issue_width = ctx.issue_width;
        let mut now = start;
        loop {
            let mut issued_any = false;
            let mut all_drained = true;

            for flat in 0..total_sms {
                let mut sink = MemSink::Direct(&mut self.mem);
                let step = Self::step_sm_scan(ctx, st, &mut sink, &mut self.soa, flat, now);
                if step.issued > 0 {
                    issued_any = true;
                }
                st.charge_cycle(step.issued, step.resident, issue_width);
                if step.resident || step.cta_pending {
                    all_drained = false;
                }
            }

            if all_drained {
                break;
            }

            if issued_any {
                now += 1;
            } else {
                // Nothing issued anywhere: jump to the next wake-up.
                let mut min_ready = u64::MAX;
                for flat in 0..total_sms {
                    min_ready = min_ready.min(st.pool.next_ready(flat));
                }
                let next = if min_ready == u64::MAX {
                    now + 1
                } else {
                    min_ready.max(now + 1)
                };
                let skipped = next - now - 1; // the current cycle is already accounted
                if skipped > 0 {
                    for flat in 0..total_sms {
                        if st.pool.resident(flat) {
                            st.counts.idle_sm_cycles += skipped;
                            st.counts.stall_cycles += issue_width as u64 * skipped;
                        } else {
                            st.counts.idle_sm_cycles += skipped;
                        }
                    }
                }
                now = next;
            }
        }
        now
    }

    /// The event-driven loop. Equivalent to `run_loop_naive`
    /// but it only *processes* SMs that can make progress at the visited
    /// cycle; the rest sleep. Per SM it tracks:
    ///
    /// * `ready_wake` — the earliest `ready_at` among its live warps
    ///   (what `WarpPool::next_ready` computes, maintained
    ///   incrementally). Valid while the SM sleeps because sleeping SMs
    ///   are exactly those whose state no cycle can change.
    /// * `refill_eligible` — a free CTA slot plus a CTA remaining for its
    ///   module. Such an SM is processed at *every visited* cycle (the
    ///   naive loop refills on visited cycles only, so refill times must
    ///   not influence which cycles are visited — see DESIGN.md §12).
    /// * lazy accounting — a sleeping SM's idle/stall charges and its
    ///   round-robin pointer advances are applied in one batch when it
    ///   wakes, at the same rates the naive loop applies per cycle.
    ///
    /// The visited-cycle sequence is therefore identical to the naive
    /// loop's: `now + 1` when any SM issued, else the minimum
    /// `ready_wake` (debug asserts check no ready event is ever jumped
    /// over).
    fn run_loop_event(&mut self, ctx: &KernelCtx, st: &mut KernelState, start: u64) -> u64 {
        let mut now = start;
        let mut els = std::mem::take(&mut self.scratch.els);
        els.reset(st.pool.total_sms, start);

        loop {
            self.ff.visited_cycles += 1;
            let mut sink = MemSink::Direct(&mut self.mem);
            let issued_any = els.visit(
                ctx,
                st,
                &mut sink,
                &mut self.soa,
                &mut self.ff.sm_steps,
                now,
            );

            if els.live == 0 {
                break;
            }

            // Advance the clock exactly as the naive loop would: one
            // cycle while anything issued, else straight to the earliest
            // warp wake-up (refill-eligible SMs deliberately do not pull
            // the jump target closer — the naive loop skips their refill
            // opportunities on unvisited cycles too).
            let next = if issued_any {
                now + 1
            } else {
                let min_ready = els.min_wake();
                if min_ready == u64::MAX {
                    now + 1
                } else {
                    min_ready.max(now + 1)
                }
            };

            debug_assert_no_skip(st, now, next);

            if next > now + 1 {
                self.ff.jumps += 1;
                self.ff.skipped_cycles += next - now - 1;
            }
            now = next;
        }

        els.flush_idle(st, now + 1);

        // Return the bookkeeping vectors to the scratch pool.
        self.scratch.els = els;
        now
    }

    /// Walks a kernel's trace in CTA order and first-touch-places every
    /// page on the GPM its CTA is partitioned to, without simulating any
    /// timing or energy.
    ///
    /// This models what happens on real systems: data is written by an
    /// in-order initialization phase before the measured kernels run, so
    /// first-touch placement reflects the owning partition rather than
    /// the racy arrival order of a cold simulator start. Pages that are
    /// already placed (by an earlier kernel of the workload) keep their
    /// home.
    pub fn prefault(&mut self, program: &dyn KernelProgram) {
        let _span = trace::span("sim.prefault");
        let grid = program.grid();
        let partition =
            CtaPartition::new(self.cfg.cta_schedule, grid.ctas as usize, self.cfg.num_gpms);
        let regions = program.data_regions();
        if !regions.is_empty() {
            // Address order matches ownership order: place each region's
            // pages on the module whose CTA (under the active schedule)
            // owns that fraction of the address range, mirroring the
            // first touch an in-order init phase would perform.
            let page = self.cfg.page_bytes.count();
            for (base, len) in regions {
                if len == 0 {
                    continue;
                }
                let mut addr = base & !(page - 1);
                while addr < base + len {
                    let offset = addr.saturating_sub(base);
                    let cta = ((offset as u128 * grid.ctas as u128) / len as u128) as usize;
                    let gpm = partition.gpm_of(cta.min(grid.ctas as usize - 1));
                    self.mem.prefault_page(addr, GpmId::new(gpm as u16));
                    addr += page;
                }
            }
            return;
        }

        // Fallback: walk the trace in CTA order.
        for cta in 0..grid.ctas {
            let gpm = GpmId::new(partition.gpm_of(cta as usize) as u16);
            for warp in 0..grid.warps_per_cta {
                for instr in program.warp_instructions(CtaId::new(cta), WarpId::new(warp)) {
                    if let WarpInstr::Mem(mref) = instr {
                        if mref.space == isa::MemSpace::Global {
                            self.mem.prefault_page(mref.addr, gpm);
                        }
                    }
                }
            }
        }
    }

    /// Runs a workload: every launch in order, each [`LaunchSpec`]
    /// repeated its configured number of times. Each program is
    /// pre-faulted (see [`GpuSim::prefault`]) before its first launch.
    pub fn run_workload(&mut self, launches: &[LaunchSpec]) -> WorkloadResult {
        let _span = trace::span("sim.workload");
        let mut result = WorkloadResult::default();
        for launch in launches {
            self.prefault(launch.program.as_ref());
            for _ in 0..launch.invocations {
                result
                    .kernels
                    .push(self.run_kernel(launch.program.as_ref()));
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BwSetting, GpuConfig, Topology};
    use isa::{GridShape, MemRef, Opcode, WarpInstrStream};

    impl GpuSim {
        /// Test helper: prefault, run one kernel, return NUMA hop-bytes.
        fn run_and_hops(mut self, k: &dyn KernelProgram) -> u64 {
            self.prefault(k);
            let r = self.run_kernel(k);
            r.counts.inter_gpm_hop_bytes.count()
        }
    }

    /// A compute-only kernel: `len` FMAs per warp.
    struct ComputeKernel {
        ctas: u32,
        warps: u32,
        len: u32,
    }

    impl KernelProgram for ComputeKernel {
        fn name(&self) -> &str {
            "compute"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(self.ctas, self.warps)
        }
        fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
            isa::iter_stream((0..self.len).map(|_| WarpInstr::Compute(Opcode::FFma32)))
        }
    }

    /// A streaming kernel: each warp strides through its own array slice.
    struct StreamKernel {
        ctas: u32,
        warps: u32,
        lines_per_warp: u32,
    }

    impl KernelProgram for StreamKernel {
        fn name(&self) -> &str {
            "stream"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(self.ctas, self.warps)
        }
        fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
            let wpc = self.warps as u64;
            let stride = self.lines_per_warp as u64 * 128;
            let base = (cta.0 as u64 * wpc + warp.0 as u64) * stride;
            isa::iter_stream(
                (0..self.lines_per_warp as u64)
                    .map(move |i| WarpInstr::Mem(MemRef::global_load(base + i * 128))),
            )
        }
    }

    #[test]
    fn compute_kernel_counts_thread_instructions() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let k = ComputeKernel {
            ctas: 8,
            warps: 4,
            len: 50,
        };
        let r = sim.run_kernel(&k);
        assert_eq!(r.ctas, 8);
        assert_eq!(
            r.counts.instrs.get(Opcode::FFma32),
            8 * 4 * 50 * WARP_SIZE as u64
        );
        assert!(r.cycles > 50, "latency-bound lower bound");
    }

    #[test]
    fn compute_kernel_scales_with_sm_count() {
        let k = ComputeKernel {
            ctas: 64,
            warps: 8,
            len: 100,
        };
        let mut sim1 = GpuSim::new(&GpuConfig::tiny(1));
        let c1 = sim1.run_kernel(&k).cycles;
        let mut sim4 = GpuSim::new(&GpuConfig::tiny(4));
        let c4 = sim4.run_kernel(&k).cycles;
        let speedup = c1 as f64 / c4 as f64;
        assert!(
            speedup > 2.5,
            "4x SMs should speed up compute ~4x, got {speedup:.2}"
        );
    }

    #[test]
    fn stream_kernel_is_dram_bound() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 64,
        };
        let r = sim.run_kernel(&k);
        // 16*4*64 lines * 128 B at 256 B/cycle = at least 2048 cycles.
        let min_cycles = (16 * 4 * 64 * 128) / 256;
        assert!(
            r.cycles as f64 > 0.8 * min_cycles as f64,
            "cycles {} should approach DRAM bound {}",
            r.cycles,
            min_cycles
        );
        assert!(r.counts.stall_cycles > 0, "memory-bound kernels stall");
        assert!(r.counts.idle_fraction() > 0.0);
    }

    #[test]
    fn elapsed_matches_cycles_at_1ghz() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let r = sim.run_kernel(&ComputeKernel {
            ctas: 4,
            warps: 2,
            len: 20,
        });
        assert!((r.counts.elapsed.nanos() - r.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn workload_runs_repeated_launches() {
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let launches = vec![LaunchSpec::repeated(
            Box::new(ComputeKernel {
                ctas: 2,
                warps: 2,
                len: 10,
            }),
            3,
        )];
        let result = sim.run_workload(&launches);
        assert_eq!(result.launches(), 3);
        assert!(result.total_cycles() > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let k = StreamKernel {
            ctas: 8,
            warps: 4,
            lines_per_warp: 16,
        };
        let mut a = GpuSim::new(&GpuConfig::tiny(2));
        let mut b = GpuSim::new(&GpuConfig::tiny(2));
        let ra = a.run_kernel(&k);
        let rb = b.run_kernel(&k);
        assert_eq!(ra, rb);
    }

    #[test]
    fn multi_gpm_generates_inter_module_traffic_for_shared_data() {
        // All CTAs read the same shared array: first toucher homes it and
        // everyone else must cross the NoC.
        struct SharedReader;
        impl KernelProgram for SharedReader {
            fn name(&self) -> &str {
                "shared-reader"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(16, 2)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                // Each warp reads a distinct line from one shared region
                // (so the region is homed by whoever touches it first) —
                // lines spread over a few pages.
                let idx = (cta.0 as u64 * 2 + warp.0 as u64) * 8;
                isa::iter_stream((0..8u64).map(move |i| {
                    WarpInstr::Mem(MemRef::global_load(0x100_0000 + ((idx + i) % 1024) * 128))
                }))
            }
        }
        let mut sim = GpuSim::new(&GpuConfig::tiny(4));
        let r = sim.run_kernel(&SharedReader);
        assert!(
            r.counts.inter_gpm_hop_bytes.count() > 0,
            "shared pages must generate NUMA traffic"
        );
    }

    #[test]
    fn ideal_interconnect_removes_numa_penalty() {
        let k = StreamKernel {
            ctas: 32,
            warps: 4,
            lines_per_warp: 32,
        };
        let ring_cfg = GpuConfig {
            topology: Topology::Ring,
            ..GpuConfig::tiny(4)
        };
        let ideal_cfg = GpuConfig {
            topology: Topology::Ideal,
            ..GpuConfig::tiny(4)
        };
        let mut ring = GpuSim::new(&ring_cfg);
        let mut ideal = GpuSim::new(&ideal_cfg);
        let rr = ring.run_kernel(&k);
        let ri = ideal.run_kernel(&k);
        // First-touch makes this kernel mostly local, so the gap is small,
        // but ideal must never be slower and must carry zero hop bytes.
        assert!(ri.cycles <= rr.cycles);
        assert_eq!(ri.counts.inter_gpm_hop_bytes.count(), 0);
    }

    #[test]
    fn stores_count_but_do_not_block() {
        struct StoreKernel;
        impl KernelProgram for StoreKernel {
            fn name(&self) -> &str {
                "stores"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(2, 2)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let base = (cta.0 as u64 * 2 + warp.0 as u64) * 4096;
                isa::iter_stream(
                    (0..16u64).map(move |i| WarpInstr::Mem(MemRef::global_store(base + i * 128))),
                )
            }
        }
        let mut sim = GpuSim::new(&GpuConfig::tiny(1));
        let r = sim.run_kernel(&StoreKernel);
        assert!(r.counts.txns.get(isa::Transaction::L2ToL1) >= 2 * 2 * 16 * 4);
        // Store-only kernels retire fast (no blocking).
        assert!(
            r.cycles < 2000,
            "stores should not serialize, got {}",
            r.cycles
        );
    }

    #[test]
    fn gto_scheduler_executes_identical_work() {
        // Scheduling policy must not change *what* runs — only when. The
        // paper's §II abstraction argument in one test: event counts that
        // feed the energy model are schedule-invariant up to stall/idle
        // timing.
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 24,
        };
        let mut lrr_sim = GpuSim::new(&GpuConfig::tiny(2));
        let lrr = lrr_sim.run_kernel(&k);
        let gto_cfg = GpuConfig {
            warp_scheduler: crate::config::WarpScheduler::GreedyThenOldest,
            ..GpuConfig::tiny(2)
        };
        let mut gto_sim = GpuSim::new(&gto_cfg);
        let gto = gto_sim.run_kernel(&k);
        assert_eq!(lrr.counts.instrs, gto.counts.instrs);
        assert_eq!(
            lrr.counts.txns.get(isa::Transaction::L1ToReg),
            gto.counts.txns.get(isa::Transaction::L1ToReg)
        );
        assert_eq!(lrr.ctas, gto.ctas);
        // Cycle counts are allowed to differ, but not wildly.
        let ratio = lrr.cycles as f64 / gto.cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "LRR {} vs GTO {}",
            lrr.cycles,
            gto.cycles
        );
    }

    #[test]
    fn round_robin_scheduling_still_completes_all_ctas() {
        let k = StreamKernel {
            ctas: 17,
            warps: 3,
            lines_per_warp: 8,
        };
        let cfg = GpuConfig {
            cta_schedule: crate::config::CtaSchedule::RoundRobin,
            ..GpuConfig::tiny(4)
        };
        let mut sim = GpuSim::new(&cfg);
        let r = sim.run_kernel(&k);
        assert_eq!(r.ctas, 17);
        assert_eq!(
            r.counts.txns.get(isa::Transaction::L1ToReg),
            17 * 3 * 8,
            "every load retired"
        );
    }

    #[test]
    fn interleaved_pages_spread_private_data_everywhere() {
        // A private stream under first-touch is local; interleaved pages
        // make most of it remote — the ablation the paper's placement
        // choice avoids.
        let k = StreamKernel {
            ctas: 32,
            warps: 4,
            lines_per_warp: 64,
        };
        let ft = GpuSim::new(&GpuConfig::tiny(4)).run_and_hops(&k);
        let il = GpuSim::new(&GpuConfig {
            page_policy: crate::config::PagePolicy::Interleaved,
            ..GpuConfig::tiny(4)
        })
        .run_and_hops(&k);
        assert!(
            il > ft,
            "interleaving must create more NUMA traffic: {il} vs {ft}"
        );
    }

    #[test]
    fn memory_side_l2_refetches_remote_lines() {
        // Reading the same remote lines twice: module-side caches them,
        // memory-side crosses the NoC both times.
        struct TwoPass;
        impl KernelProgram for TwoPass {
            fn name(&self) -> &str {
                "two-pass"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(4, 2)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let w = cta.0 as u64 * 2 + warp.0 as u64;
                // Everyone reads the same 128 lines twice — more lines
                // than the tiny L1 holds, so the second pass misses L1
                // and lands in an L2: the *local* one under module-side
                // caching, the *home* one (across the NoC) under
                // memory-side.
                isa::iter_stream(
                    (0..256u64).map(move |i| {
                        WarpInstr::Mem(MemRef::global_load(((i + w * 7) % 128) * 128))
                    }),
                )
            }
            fn data_regions(&self) -> Vec<(u64, u64)> {
                vec![(0, 128 * 128)]
            }
        }
        let module = GpuSim::new(&GpuConfig::tiny(4)).run_and_hops(&TwoPass);
        let memory = GpuSim::new(&GpuConfig {
            l2_mode: crate::config::L2Mode::MemorySide,
            ..GpuConfig::tiny(4)
        })
        .run_and_hops(&TwoPass);
        assert!(
            memory > module,
            "memory-side must re-cross the NoC: {memory} vs {module}"
        );
    }

    #[test]
    fn more_bandwidth_helps_memory_bound_multi_gpm() {
        // Remote-heavy reader: GPM0 touches everything first, then all
        // GPMs read it. Two kernels in one workload.
        struct Toucher;
        impl KernelProgram for Toucher {
            fn name(&self) -> &str {
                "touch"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(1, 8)
            }
            fn warp_instructions(&self, _cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let base = warp.0 as u64 * 512 * 128;
                isa::iter_stream(
                    (0..512u64).map(move |i| WarpInstr::Mem(MemRef::global_load(base + i * 128))),
                )
            }
        }
        struct Reader;
        impl KernelProgram for Reader {
            fn name(&self) -> &str {
                "read"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(32, 4)
            }
            fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
                let seed = cta.0 as u64 * 4 + warp.0 as u64;
                isa::iter_stream((0..64u64).map(move |i| {
                    let line = (seed * 97 + i * 131) % 4096;
                    WarpInstr::Mem(MemRef::global_load(line * 128))
                }))
            }
        }

        let run = |bw: BwSetting| {
            let gpm = crate::config::GpmConfig::tiny();
            let cfg = GpuConfig {
                inter_gpm_bw: bw.inter_gpm_bw(gpm.dram_bw),
                ..GpuConfig::tiny(4)
            };
            let mut sim = GpuSim::new(&cfg);
            sim.run_kernel(&Toucher);
            sim.run_kernel(&Reader).cycles
        };
        let slow = run(BwSetting::X1);
        let fast = run(BwSetting::X4);
        assert!(
            fast < slow,
            "4x inter-GPM bandwidth should speed up remote reads: {fast} vs {slow}"
        );
    }

    #[test]
    fn event_and_naive_loops_agree_on_streams() {
        let k = StreamKernel {
            ctas: 24,
            warps: 4,
            lines_per_warp: 32,
        };
        let cfg = GpuConfig::tiny(4);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        event.prefault(&k);
        naive.prefault(&k);
        assert_eq!(event.run_kernel(&k), naive.run_kernel(&k));
        assert_eq!(event.memory().txns(), naive.memory().txns());
        // The stall-heavy stream must actually exercise fast-forward.
        let ff = event.fast_forward_stats();
        assert!(ff.skipped_cycles > 0, "stream kernels must fast-forward");
        assert!(ff.sm_steps < ff.visited_cycles * cfg.total_sms() as u64);
        assert_eq!(naive.fast_forward_stats(), FastForwardStats::default());
    }

    #[test]
    fn event_and_naive_loops_agree_under_gto() {
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 24,
        };
        let cfg = GpuConfig {
            warp_scheduler: crate::config::WarpScheduler::GreedyThenOldest,
            ..GpuConfig::tiny(2)
        };
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        assert_eq!(event.run_kernel(&k), naive.run_kernel(&k));
    }

    #[test]
    fn shadow_mode_runs_and_matches_event_driven() {
        let k = StreamKernel {
            ctas: 8,
            warps: 4,
            lines_per_warp: 16,
        };
        let cfg = GpuConfig::tiny(2);
        let mut shadow = GpuSim::with_mode(&cfg, EngineMode::Shadow);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        // Shadow asserts internally; its visible result equals the
        // event-driven one.
        assert_eq!(shadow.run_kernel(&k), event.run_kernel(&k));
        assert_eq!(shadow.mode(), EngineMode::Shadow);
    }

    #[test]
    fn shadow_mode_holds_across_multi_kernel_workloads() {
        // State persists across launches (L2 contents, pages, clock);
        // shadow must stay bit-equal kernel after kernel.
        let mut sim = GpuSim::with_mode(&GpuConfig::tiny(4), EngineMode::Shadow);
        let launches = vec![
            LaunchSpec::repeated(
                Box::new(StreamKernel {
                    ctas: 16,
                    warps: 4,
                    lines_per_warp: 16,
                }),
                2,
            ),
            LaunchSpec::repeated(
                Box::new(ComputeKernel {
                    ctas: 8,
                    warps: 4,
                    len: 40,
                }),
                1,
            ),
        ];
        let result = sim.run_workload(&launches);
        assert_eq!(result.launches(), 3);
    }

    #[test]
    fn degenerate_grids_agree_across_modes() {
        // Empty-stream warps retire instantly; grids smaller than the
        // GPM count leave whole modules idle. Both paths must agree.
        struct EmptyKernel;
        impl KernelProgram for EmptyKernel {
            fn name(&self) -> &str {
                "empty"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(3, 2)
            }
            fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
                isa::iter_stream(std::iter::empty())
            }
        }
        let cfg = GpuConfig::tiny(4);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        let re = event.run_kernel(&EmptyKernel);
        let rn = naive.run_kernel(&EmptyKernel);
        assert_eq!(re, rn);
        assert_eq!(re.ctas, 3);
    }

    /// A kernel whose warp `w` of every CTA runs `lens[w]` instructions,
    /// alternating FMAs with private loads.
    struct LenKernel {
        ctas: u32,
        lens: Vec<u32>,
    }

    impl KernelProgram for LenKernel {
        fn name(&self) -> &str {
            "lens"
        }
        fn grid(&self) -> GridShape {
            GridShape::new(self.ctas, self.lens.len() as u32)
        }
        fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
            let len = self.lens[warp.0 as usize];
            let base = (cta.0 as u64 * self.lens.len() as u64 + warp.0 as u64) * 64 * 128;
            isa::iter_stream((0..len as u64).map(move |i| {
                if i % 2 == 0 {
                    WarpInstr::Compute(Opcode::FFma32)
                } else {
                    WarpInstr::Mem(MemRef::global_load(base + i * 128))
                }
            }))
        }
    }

    /// Shadow-runs `k` on `cfg` (the naive reference asserts the event
    /// loop internally) and returns the event loop's work counters.
    fn shadow_work(cfg: &GpuConfig, k: &dyn KernelProgram) -> WorkStats {
        let mut sim = GpuSim::with_mode(cfg, EngineMode::Shadow);
        sim.prefault(k);
        let mut event = GpuSim::with_mode(cfg, EngineMode::EventDriven);
        event.prefault(k);
        assert_eq!(sim.run_kernel(k), event.run_kernel(k));
        event.work_stats()
    }

    #[test]
    fn wheel_files_loads_slower_than_its_horizon() {
        // 500-cycle DRAM: every miss lands in the far mask, and an SM
        // whose warps all wait on DRAM sleeps longer than the wheel
        // spans, so its next step drains every bucket and rescans far.
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 24,
        };
        for scheduler in [
            crate::config::WarpScheduler::LooseRoundRobin,
            crate::config::WarpScheduler::GreedyThenOldest,
        ] {
            let mut cfg = GpuConfig {
                warp_scheduler: scheduler,
                ..GpuConfig::tiny(2)
            };
            cfg.gpm.dram_latency = 500;
            let w = shadow_work(&cfg, &k);
            assert!(w.far_rescans > 0, "{scheduler:?}: far mask never rescanned");
        }
    }

    #[test]
    fn ready_times_at_the_horizon_edge_agree() {
        // L1 hits 63, 64 and 65 cycles out: the last bucket, the first
        // far time, one past it.
        let k = LenKernel {
            ctas: 12,
            lens: vec![9, 17, 33, 5],
        };
        for l1 in [63, 64, 65] {
            let mut cfg = GpuConfig::tiny(1);
            cfg.gpm.l1_latency = l1;
            cfg.gpm.l2_latency = l1 + 1;
            shadow_work(&cfg, &k);
        }
    }

    #[test]
    fn retire_moving_the_tail_position_agrees() {
        // Warp 0 (position 0) is the shortest, so it retires while the
        // longer warps behind it live: its retire moves the tail warp
        // into position 0, carrying that warp's wheel bit along.
        let k = LenKernel {
            ctas: 6,
            lens: vec![2, 40, 9, 31],
        };
        for scheduler in [
            crate::config::WarpScheduler::LooseRoundRobin,
            crate::config::WarpScheduler::GreedyThenOldest,
        ] {
            let cfg = GpuConfig {
                warp_scheduler: scheduler,
                ..GpuConfig::tiny(1)
            };
            let w = shadow_work(&cfg, &k);
            assert_eq!(w.cta_refills, 6);
        }
    }

    #[test]
    fn work_counters_split_scan_from_ready_mask() {
        // Both loops poll exactly the same warps; the ready mask only
        // looks at fewer of them to find those.
        let k = StreamKernel {
            ctas: 24,
            warps: 4,
            lines_per_warp: 32,
        };
        let cfg = GpuConfig::tiny(2);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut naive = GpuSim::with_mode(&cfg, EngineMode::Naive);
        event.prefault(&k);
        naive.prefault(&k);
        assert_eq!(event.run_kernel(&k), naive.run_kernel(&k));
        let (we, wn) = (event.work_stats(), naive.work_stats());
        assert_eq!(we.polls, wn.polls);
        assert_eq!(we.issued, wn.issued);
        assert_eq!(we.mlp_stalls, wn.mlp_stalls);
        assert_eq!(we.cta_refills, 24);
        assert_eq!(wn.cta_refills, 24);
        assert_eq!(we.issued, 24 * 4 * 32, "one issue per warp instruction");
        assert!(we.warps_examined < wn.warps_examined);
        assert!(we.retire_checks < wn.retire_checks);
        assert!(we.steps < wn.steps);
        assert_eq!(we.steps, event.fast_forward_stats().sm_steps);
        assert_eq!(wn.far_rescans, 0, "the reference scan keeps no wheel");
    }

    #[test]
    fn pool_reuse_across_mask_and_scan_shapes_agrees() {
        // 16 slots per SM (ready mask), then 65-warp CTAs (65 slots: the
        // reference scan), then back: the reused pool and its wheel must
        // reshape cleanly each time.
        let mut shadow = GpuSim::with_mode(&GpuConfig::tiny(2), EngineMode::Shadow);
        let mut event = GpuSim::with_mode(&GpuConfig::tiny(2), EngineMode::EventDriven);
        let launches = vec![
            LaunchSpec::repeated(
                Box::new(LenKernel {
                    ctas: 8,
                    lens: vec![5, 12, 3, 8],
                }),
                1,
            ),
            LaunchSpec::repeated(
                Box::new(ComputeKernel {
                    ctas: 3,
                    warps: 65,
                    len: 12,
                }),
                1,
            ),
            LaunchSpec::repeated(
                Box::new(StreamKernel {
                    ctas: 8,
                    warps: 2,
                    lines_per_warp: 10,
                }),
                2,
            ),
        ];
        assert_eq!(
            shadow.run_workload(&launches),
            event.run_workload(&launches)
        );
    }

    /// Runs `k` under the event-driven and the parallel engine (with
    /// `threads` shard workers) on `cfg`, asserting bit-identical
    /// results and memory-side counters.
    fn assert_parallel_matches(cfg: &GpuConfig, threads: usize, k: &dyn KernelProgram) {
        let _serial = crate::par::par_test_lock();
        let mut event = GpuSim::with_mode(cfg, EngineMode::EventDriven);
        let mut par = GpuSim::with_mode(cfg, EngineMode::Parallel);
        par.set_sim_threads(Some(threads));
        event.prefault(k);
        par.prefault(k);
        assert_eq!(par.run_kernel(k), event.run_kernel(k));
        assert_eq!(par.now, event.now, "clocks diverged");
        assert_eq!(par.memory().txns(), event.memory().txns());
        assert_eq!(
            par.memory().inter_gpm_hop_bytes(),
            event.memory().inter_gpm_hop_bytes()
        );
        // No sibling test holds the shard pool, so the kernel ran sharded.
        let p = par.par_stats();
        assert_eq!((p.kernels, p.serial_fallbacks), (1, 0));
    }

    #[test]
    fn parallel_matches_event_driven_on_streams() {
        let k = StreamKernel {
            ctas: 24,
            warps: 4,
            lines_per_warp: 32,
        };
        assert_parallel_matches(&GpuConfig::tiny(4), 4, &k);
    }

    #[test]
    fn parallel_matches_event_driven_on_compute() {
        let k = ComputeKernel {
            ctas: 32,
            warps: 8,
            len: 64,
        };
        assert_parallel_matches(&GpuConfig::tiny(8), 4, &k);
    }

    #[test]
    fn parallel_matches_event_driven_under_gto() {
        let k = StreamKernel {
            ctas: 16,
            warps: 4,
            lines_per_warp: 24,
        };
        let cfg = GpuConfig {
            warp_scheduler: crate::config::WarpScheduler::GreedyThenOldest,
            ..GpuConfig::tiny(4)
        };
        assert_parallel_matches(&cfg, 2, &k);
    }

    #[test]
    fn parallel_single_gpm_runs_inline_without_pool() {
        // One GPM => one shard: the defer/merge machinery runs on the
        // caller thread, cannot fall back, and must still be exact.
        let k = StreamKernel {
            ctas: 8,
            warps: 4,
            lines_per_warp: 16,
        };
        let _serial = crate::par::par_test_lock();
        let cfg = GpuConfig::tiny(1);
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut par = GpuSim::with_mode(&cfg, EngineMode::Parallel);
        par.set_sim_threads(Some(8));
        assert_eq!(par.run_kernel(&k), event.run_kernel(&k));
        let p = par.par_stats();
        assert_eq!(p.kernels, 1, "single-shard runs never fall back");
        assert_eq!(p.serial_fallbacks, 0);
        assert_eq!(p.barrier_waits, 0, "no pool engaged for one shard");
        assert!(p.epochs > 0);
        assert!(p.merged_accesses > 0, "stream kernel defers loads");
    }

    #[test]
    fn parallel_thread_count_exceeding_gpms_degenerates_cleanly() {
        // More threads than GPMs: shard count clamps to the GPM count.
        let k = StreamKernel {
            ctas: 12,
            warps: 4,
            lines_per_warp: 16,
        };
        assert_parallel_matches(&GpuConfig::tiny(2), 16, &k);
    }

    #[test]
    fn parallel_holds_across_multi_kernel_workloads() {
        // Persistent state (L2 contents, page placements, clock) must
        // stay bit-equal launch after launch under the parallel engine.
        let cfg = GpuConfig::tiny(4);
        let launches = vec![
            LaunchSpec::repeated(
                Box::new(StreamKernel {
                    ctas: 16,
                    warps: 4,
                    lines_per_warp: 16,
                }),
                2,
            ),
            LaunchSpec::repeated(
                Box::new(ComputeKernel {
                    ctas: 8,
                    warps: 4,
                    len: 40,
                }),
                1,
            ),
        ];
        let _serial = crate::par::par_test_lock();
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        let mut par = GpuSim::with_mode(&cfg, EngineMode::Parallel);
        par.set_sim_threads(Some(4));
        assert_eq!(par.run_workload(&launches), event.run_workload(&launches));
        assert_eq!(par.now, event.now);
    }

    #[test]
    fn shadow_par_mode_asserts_against_naive_internally() {
        let k = StreamKernel {
            ctas: 8,
            warps: 4,
            lines_per_warp: 16,
        };
        let _serial = crate::par::par_test_lock();
        let cfg = GpuConfig::tiny(2);
        let mut shadow = GpuSim::with_mode(&cfg, EngineMode::ShadowPar);
        shadow.set_sim_threads(Some(2));
        let mut event = GpuSim::with_mode(&cfg, EngineMode::EventDriven);
        assert_eq!(shadow.run_kernel(&k), event.run_kernel(&k));
        assert_eq!(shadow.mode(), EngineMode::ShadowPar);
    }

    #[test]
    fn parallel_empty_grid_degenerates_cleanly() {
        struct EmptyKernel;
        impl KernelProgram for EmptyKernel {
            fn name(&self) -> &str {
                "empty"
            }
            fn grid(&self) -> GridShape {
                GridShape::new(3, 2)
            }
            fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
                isa::iter_stream(std::iter::empty())
            }
        }
        assert_parallel_matches(&GpuConfig::tiny(4), 4, &EmptyKernel);
    }

    #[test]
    fn serial_modes_leave_parallel_stats_untouched() {
        let mut sim = GpuSim::with_mode(&GpuConfig::tiny(2), EngineMode::EventDriven);
        sim.run_kernel(&ComputeKernel {
            ctas: 4,
            warps: 2,
            len: 16,
        });
        assert_eq!(sim.par_stats(), crate::par::ParStats::default());
    }
}
