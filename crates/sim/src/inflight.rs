//! Arena-backed tracking of in-flight memory fills.
//!
//! Each GPM's module-side L2 tracks lines with an outstanding fill so
//! later misses merge with the in-flight request instead of charging
//! DRAM twice. The original implementation kept a `HashMap<u64, u64>`
//! (line → ready cycle) per GPM, which allocates per entry, hashes with
//! SipHash, and — because nothing ever removed entries whose fill had
//! long since landed — grew monotonically between kernel boundaries.
//!
//! [`InflightTable`] replaces it with a slab of parallel columns
//! indexed by small slot ids, an xorshift-multiply open-addressing index
//! over line addresses, and a *sorted wheel* (a min-heap keyed on ready cycle)
//! that retires expired entries in O(log n) as simulated time advances.
//!
//! # Expiry is behavior-identical
//!
//! [`expire`](InflightTable::expire)`(now)` drops entries with
//! `ready <= now`. Every consumer of the old map removed-or-ignored
//! such entries anyway:
//!
//! * the module-side L2-hit merge removes the entry unless
//!   `ready > completion`, and `completion >= now + l2_latency > now`;
//! * the memory-side remote merge removes the entry unless
//!   `ready > t0`, and `t0 >= now` (LSU queues never travel back in
//!   time).
//!
//! So expiring at `now` only removes entries no future lookup could
//! have used, and per-line `get`/`remove`/`insert` semantics are
//! unchanged.
//!
//! # Slot lifecycle
//!
//! A slot is *live* while the index maps its line to it, *dead* after
//! `remove`/replacement, and *free* once its (single) wheel entry pops.
//! Slots return to the free list **only** through the wheel pop — a
//! replacement marks the old slot dead and allocates a fresh one — so a
//! heap entry can never alias a reused slot and no generation counters
//! are needed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for an empty index bucket.
const EMPTY: u32 = u32::MAX;
/// Sentinel for a deleted index bucket (tombstone; probes continue past).
const TOMBSTONE: u32 = u32::MAX - 1;

/// Slab + index + wheel tracking in-flight fills: line → ready cycle.
#[derive(Debug, Clone, Default)]
pub struct InflightTable {
    /// Cacheline address column, parallel to `ready`/`live`.
    line: Vec<u64>,
    /// Ready-cycle column.
    ready: Vec<u64>,
    /// Liveness column: `false` once removed/replaced, slot awaiting its
    /// wheel pop.
    live: Vec<bool>,
    /// Slot ids available for reuse.
    free: Vec<u32>,
    /// Open-addressing index: bucket → slot id (or `EMPTY`/`TOMBSTONE`).
    /// Length is always a power of two (or zero before first insert).
    buckets: Vec<u32>,
    /// Live entries in the index.
    len: usize,
    /// Occupied buckets (live + tombstones), for resize pressure.
    used_buckets: usize,
    /// Min-heap over (ready, slot id): the sorted wheel.
    wheel: BinaryHeap<Reverse<(u64, u32)>>,
}

/// One xorshift-multiply over a line address: the shift folds the high
/// half onto the low half, and the product's upper 32 bits (the result)
/// each depend on every bit of that folded word — so the low bits a
/// power-of-two table masks with see the whole address, although line
/// addresses are 128-byte aligned. Bucket placement is unobservable:
/// lookups compare the stored line, so any hash gives the same answers.
#[inline]
fn hash_line(line: u64) -> u64 {
    (line ^ (line >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

impl InflightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no fills are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slots (live + dead awaiting their wheel pop); the
    /// arena's high-water occupancy is `line.len()`.
    pub fn occupancy(&self) -> usize {
        self.line.len() - self.free.len()
    }

    /// Ready cycle of the in-flight fill for `line`, if any.
    #[inline]
    pub fn get(&self, line: u64) -> Option<u64> {
        let slot = self.find(line)?;
        Some(self.ready[slot as usize])
    }

    /// Stops tracking `line` (no-op when absent). The slot is reclaimed
    /// later by the wheel.
    pub fn remove(&mut self, line: u64) {
        if self.buckets.is_empty() {
            return;
        }
        let mask = self.buckets.len() - 1;
        let mut b = hash_line(line) as usize & mask;
        loop {
            match self.buckets[b] {
                EMPTY => return,
                TOMBSTONE => {}
                slot if self.line[slot as usize] == line => {
                    self.buckets[b] = TOMBSTONE;
                    self.live[slot as usize] = false;
                    self.len -= 1;
                    return;
                }
                _ => {}
            }
            b = (b + 1) & mask;
        }
    }

    /// Tracks an in-flight fill of `line` landing at `ready`,
    /// replacing any existing entry for the line.
    pub fn insert(&mut self, line: u64, ready: u64) {
        // Replace = remove old + insert fresh slot; the dead slot keeps
        // its wheel entry and is reclaimed when that pops.
        self.remove(line);
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.line[i] = line;
                self.ready[i] = ready;
                self.live[i] = true;
                s
            }
            None => {
                let s = self.line.len() as u32;
                self.line.push(line);
                self.ready.push(ready);
                self.live.push(true);
                s
            }
        };
        self.wheel.push(Reverse((ready, slot)));
        self.index_insert(line, slot);
    }

    /// Retires every entry whose fill has landed (`ready <= now`),
    /// reclaiming dead slots along the way. Returns how many *live*
    /// entries were retired.
    pub fn expire(&mut self, now: u64) -> usize {
        let mut retired = 0;
        while let Some(&Reverse((ready, slot))) = self.wheel.peek() {
            if ready > now {
                break;
            }
            self.wheel.pop();
            if self.live[slot as usize] {
                self.remove(self.line[slot as usize]);
                retired += 1;
            }
            self.free.push(slot);
        }
        retired
    }

    /// Drops every entry (kernel boundary). Capacity is retained.
    pub fn clear(&mut self) {
        self.line.clear();
        self.ready.clear();
        self.live.clear();
        self.free.clear();
        self.wheel.clear();
        self.buckets.fill(EMPTY);
        self.len = 0;
        self.used_buckets = 0;
    }

    /// Index lookup: slot id for `line`.
    #[inline]
    fn find(&self, line: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut b = hash_line(line) as usize & mask;
        loop {
            match self.buckets[b] {
                EMPTY => return None,
                TOMBSTONE => {}
                slot if self.line[slot as usize] == line => return Some(slot),
                _ => {}
            }
            b = (b + 1) & mask;
        }
    }

    /// Inserts `line → slot` into the index; `line` must be absent.
    fn index_insert(&mut self, line: u64, slot: u32) {
        if self.used_buckets * 2 >= self.buckets.len() {
            self.grow_index();
        }
        let mask = self.buckets.len() - 1;
        let mut b = hash_line(line) as usize & mask;
        loop {
            match self.buckets[b] {
                EMPTY => {
                    self.buckets[b] = slot;
                    self.len += 1;
                    self.used_buckets += 1;
                    return;
                }
                TOMBSTONE => {
                    self.buckets[b] = slot;
                    self.len += 1;
                    // Reusing a tombstone leaves `used_buckets` as-is.
                    return;
                }
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Doubles the bucket array (min 16) and rehashes the indexed
    /// slots, clearing tombstone pressure. Rebuilds from the old bucket
    /// array (not the slab columns) so a slot mid-insert — already in
    /// the columns but not yet indexed — is not double-indexed.
    fn grow_index(&mut self) {
        let new_cap = (self.buckets.len() * 2).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; new_cap]);
        self.used_buckets = 0;
        let mask = new_cap - 1;
        for slot in old {
            if slot == EMPTY || slot == TOMBSTONE {
                continue;
            }
            let mut b = hash_line(self.line[slot as usize]) as usize & mask;
            while self.buckets[b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.buckets[b] = slot;
            self.used_buckets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = InflightTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(0x1000), None);
        t.insert(0x1000, 500);
        t.insert(0x2000, 300);
        assert_eq!(t.get(0x1000), Some(500));
        assert_eq!(t.get(0x2000), Some(300));
        assert_eq!(t.len(), 2);
        t.remove(0x1000);
        assert_eq!(t.get(0x1000), None);
        assert_eq!(t.get(0x2000), Some(300));
        t.remove(0x1000); // double remove is a no-op
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_replaces_existing_line() {
        let mut t = InflightTable::new();
        t.insert(0x40, 100);
        t.insert(0x40, 900);
        assert_eq!(t.get(0x40), Some(900));
        assert_eq!(t.len(), 1);
        // The dead slot's early wheel entry must not evict the
        // replacement when it pops.
        assert_eq!(t.expire(100), 0);
        assert_eq!(t.get(0x40), Some(900));
        assert_eq!(t.expire(900), 1);
        assert_eq!(t.get(0x40), None);
    }

    #[test]
    fn expire_retires_in_ready_order() {
        let mut t = InflightTable::new();
        for (i, ready) in [400u64, 100, 300, 200].iter().enumerate() {
            t.insert(i as u64 * 128, *ready);
        }
        assert_eq!(t.expire(50), 0);
        assert_eq!(t.len(), 4);
        assert_eq!(t.expire(250), 2); // 100 and 200 land
        assert_eq!(t.get(128), None);
        assert_eq!(t.get(3 * 128), None);
        assert_eq!(t.get(0), Some(400));
        assert_eq!(t.expire(1_000), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn slots_are_reused_after_expiry() {
        let mut t = InflightTable::new();
        for round in 0..10u64 {
            for i in 0..8u64 {
                t.insert(i * 128, round * 100 + 50);
            }
            assert_eq!(t.expire(round * 100 + 50), 8);
            assert!(t.is_empty());
        }
        // 8 live at a time; replacements double the transient footprint
        // at worst, but expiry reclaims everything.
        assert!(t.occupancy() == 0, "occupancy {}", t.occupancy());
        assert!(t.line.len() <= 16, "slab grew to {}", t.line.len());
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = InflightTable::new();
        for i in 0..100u64 {
            t.insert(i * 128, i + 1_000);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.occupancy(), 0);
        for i in 0..100u64 {
            assert_eq!(t.get(i * 128), None);
        }
        t.insert(0, 5);
        assert_eq!(t.get(0), Some(5));
    }

    #[test]
    fn matches_hashmap_reference_under_mixed_ops() {
        use std::collections::HashMap;
        // Deterministic splitmix-style generator (no rand dependency).
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut t = InflightTable::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut now = 0u64;
        for _ in 0..20_000 {
            let line = (next() % 512) * 128;
            match next() % 10 {
                0..=5 => {
                    let ready = now + 1 + next() % 400;
                    t.insert(line, ready);
                    reference.insert(line, ready);
                }
                6..=7 => {
                    assert_eq!(t.get(line), reference.get(&line).copied());
                    t.remove(line);
                    reference.remove(&line);
                }
                8 => {
                    now += next() % 100;
                    t.expire(now);
                    reference.retain(|_, &mut r| r > now);
                }
                _ => {
                    assert_eq!(t.get(line), reference.get(&line).copied());
                    assert_eq!(t.len(), reference.len());
                }
            }
        }
        for (&line, &ready) in &reference {
            assert_eq!(t.get(line), Some(ready));
        }
        assert_eq!(t.len(), reference.len());
    }
}
