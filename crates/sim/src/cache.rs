//! Set-associative cache model with LRU replacement and dirty tracking.
//!
//! Used for both the per-SM L1s (write-through, invalidated at kernel
//! boundaries — the paper's software coherence) and the per-GPM
//! module-side L2s (write-back, remote lines flushed at kernel
//! boundaries).
//!
//! Line metadata is stored as two parallel `u64` columns (tag word,
//! LRU stamp) rather than an array of structs. A tag word of `0` means
//! "invalid", with the valid and dirty flags packed into the low bits
//! of the line-aligned address — so a fresh cache is `vec![0; n]`
//! twice, which the allocator serves from lazily-zeroed pages.
//! Constructing the hundreds of caches in a multi-module GPU therefore
//! costs no memset and no page faults for sets that are never touched.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present.
    Hit,
    /// The line was not present; it has been allocated. If the victim was
    /// dirty, its line address is returned for write-back.
    Miss {
        /// Dirty victim line that must be written back, if any.
        writeback: Option<u64>,
    },
}

impl CacheAccess {
    /// `true` for a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheAccess::Hit)
    }
}

/// Tag-word flag: the way holds a line. Lives in bit 0, inside the
/// line-offset bits of the stored line-aligned address.
const VALID: u64 = 1;
/// Tag-word flag: the held line is dirty.
const DIRTY: u64 = 2;

/// A set-associative, LRU, write-back cache over power-of-two lines.
///
/// # Examples
///
/// ```
/// use sim::cache::{Cache, CacheAccess};
///
/// let mut c = Cache::new(32 * 1024, 4, 128);
/// assert!(!c.access(0x0, false).is_hit());
/// assert!(c.access(0x0, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `line_addr | VALID | (DIRTY)` per way; `0` = invalid way.
    tags: Vec<u64>,
    /// Last-touch tick per way.
    lru: Vec<u64>,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two (set index
    /// by mask), `None` otherwise (set index by modulo).
    set_mask: Option<u64>,
    /// log2(`line_bytes`): line number = address >> `line_shift`.
    line_shift: u32,
    assoc: usize,
    line_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `assoc` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `assoc × line_bytes`, or `line_bytes` not a power of
    /// two of at least 4 — the flag bits live in the line offset).
    pub fn new(capacity_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(
            line_bytes > 0 && assoc > 0 && capacity_bytes > 0,
            "degenerate cache geometry"
        );
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 4,
            "line size must be a power of two of at least 4 bytes"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines.is_multiple_of(assoc as u64) && lines >= assoc as u64,
            "capacity must be a whole number of sets"
        );
        let num_sets = (lines / assoc as u64) as usize;
        let ways = num_sets * assoc;
        Cache {
            tags: vec![0; ways],
            lru: vec![0; ways],
            num_sets,
            set_mask: (num_sets as u64)
                .is_power_of_two()
                .then_some(num_sets as u64 - 1),
            line_shift: line_bytes.trailing_zeros(),
            assoc,
            line_bytes,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Set index of a line: line number modulo the set count. Line size
    /// is a power of two, so the line number is a shift; so is the set
    /// count in most geometries, which makes the modulo a mask — no
    /// division on the probe path.
    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        let line = line_addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.num_sets as u64,
        };
        set as usize
    }

    /// The stored line-aligned address of a tag word.
    #[inline]
    fn addr_of(tag: u64) -> u64 {
        tag & !(VALID | DIRTY)
    }

    /// Accesses the line containing byte address `addr`, allocating on
    /// miss. `is_store` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_store: bool) -> CacheAccess {
        let line_addr = addr & !(self.line_bytes - 1);
        let set = self.set_of(line_addr);
        let base = set * self.assoc;
        self.tick += 1;
        let want = line_addr | VALID;

        // Probe for hit (the dirty bit is the only tag bit that may
        // differ for a match).
        for i in 0..self.assoc {
            let t = self.tags[base + i];
            if t & !DIRTY == want {
                self.lru[base + i] = self.tick;
                if is_store {
                    self.tags[base + i] = t | DIRTY;
                }
                self.hits += 1;
                return CacheAccess::Hit;
            }
        }

        // Miss: pick LRU victim (preferring invalid ways).
        self.misses += 1;
        let mut victim = 0;
        let mut best = u64::MAX;
        for i in 0..self.assoc {
            let t = self.tags[base + i];
            if t == 0 {
                victim = i;
                break;
            }
            if self.lru[base + i] < best {
                best = self.lru[base + i];
                victim = i;
            }
        }

        let old = self.tags[base + victim];
        let writeback = if old & DIRTY != 0 {
            Some(Self::addr_of(old))
        } else {
            None
        };
        self.tags[base + victim] = want | if is_store { DIRTY } else { 0 };
        self.lru[base + victim] = self.tick;
        CacheAccess::Miss { writeback }
    }

    /// `true` if the line containing `addr` is present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr & !(self.line_bytes - 1);
        let set = self.set_of(line_addr);
        let base = set * self.assoc;
        let want = line_addr | VALID;
        self.tags[base..base + self.assoc]
            .iter()
            .any(|&t| t & !DIRTY == want)
    }

    /// Invalidates everything, returning dirty line addresses that need
    /// write-back.
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for t in &mut self.tags {
            if *t & DIRTY != 0 {
                dirty.push(Self::addr_of(*t));
            }
            *t = 0;
        }
        dirty
    }

    /// Invalidates lines whose address satisfies `pred`, returning the
    /// dirty ones for write-back. Used for the kernel-boundary flush of
    /// remote-homed lines (software coherence among module-side L2s).
    pub fn flush_matching<F: FnMut(u64) -> bool>(&mut self, mut pred: F) -> Vec<u64> {
        let mut dirty = Vec::new();
        for t in &mut self.tags {
            if *t & VALID != 0 && pred(Self::addr_of(*t)) {
                if *t & DIRTY != 0 {
                    dirty.push(Self::addr_of(*t));
                }
                *t = 0;
            }
        }
        dirty
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate since construction; zero with no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 128 B = 1 KiB.
        Cache::new(1024, 2, 128)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).is_hit());
        assert!(c.access(0x100, false).is_hit());
        assert!(
            c.access(0x17F, false).is_hit(),
            "same line, different offset"
        );
        assert!(!c.access(0x180, false).is_hit(), "next line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 512).
        c.access(0x000, false);
        c.access(0x200, false);
        // Touch 0x000 so 0x200 is LRU.
        c.access(0x000, false);
        c.access(0x400, false); // evicts 0x200
        assert!(c.access(0x000, false).is_hit());
        assert!(!c.probe(0x200));
        assert!(c.probe(0x400));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x200, false);
        let res = c.access(0x400, false); // evicts dirty 0x000
        match res {
            CacheAccess::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0x000),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x200, false);
        let res = c.access(0x400, false);
        assert_eq!(res, CacheAccess::Miss { writeback: None });
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // dirty via store hit
        c.access(0x200, false);
        match c.access(0x400, false) {
            CacheAccess::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn flush_all_returns_dirty_lines() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        c.access(0x100, true);
        let mut dirty = c.flush_all();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0x000, 0x100]);
        assert!(!c.probe(0x080));
    }

    #[test]
    fn flush_matching_is_selective() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, true);
        let dirty = c.flush_matching(|addr| addr >= 0x080);
        assert_eq!(dirty, vec![0x080]);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn stats_and_hit_rate() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        let (h, m) = c.stats();
        assert_eq!((h, m), (2, 1));
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_behaves_like_working_set_bound() {
        // A working set that fits is all hits on the second pass.
        let mut c = Cache::new(32 * 1024, 4, 128);
        for addr in (0..32 * 1024).step_by(128) {
            c.access(addr, false);
        }
        let (_, misses_first) = c.stats();
        for addr in (0..32 * 1024).step_by(128) {
            assert!(c.access(addr, false).is_hit());
        }
        assert_eq!(misses_first, 256);
    }

    #[test]
    fn address_zero_line_is_cacheable() {
        // Line address 0 must be distinguishable from an invalid way —
        // the VALID flag, not the address, encodes occupancy.
        let mut c = tiny();
        assert!(!c.access(0x000, false).is_hit());
        assert!(c.access(0x000, false).is_hit());
        assert!(c.probe(0x000));
        // Dirty line 0 writes back as address 0.
        c.access(0x000, true);
        c.access(0x200, false);
        match c.access(0x400, false) {
            CacheAccess::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.flush_all(), Vec::<u64>::new());
    }

    #[test]
    fn set_index_matches_division_for_both_set_counts() {
        // 32 KiB / 4-way / 128 B = 64 sets (mask path); the Pascal-class
        // 24 KiB / 4-way L1 has 48 sets (modulo path).
        for (capacity, sets) in [(32 * 1024, 64u64), (24 * 1024, 48)] {
            let c = Cache::new(capacity, 4, 128);
            assert_eq!(c.num_sets as u64, sets);
            assert_eq!(c.set_mask.is_some(), sets.is_power_of_two());
            let mut addr = 0x1234_5678_u64;
            for i in 0..10_000u64 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i);
                let line_addr = addr & !127;
                assert_eq!(c.set_of(line_addr) as u64, (line_addr / 128) % sets);
            }
            assert_eq!(c.set_of(!127) as u64, (u64::MAX / 128) % sets);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_capacity_panics() {
        let _ = Cache::new(0, 2, 128);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn non_integral_sets_panic() {
        let _ = Cache::new(128 * 3, 2, 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_panics() {
        let _ = Cache::new(1024, 2, 96);
    }
}
