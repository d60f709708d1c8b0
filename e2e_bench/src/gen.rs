//! Seeded input generators. Every input the program receives — sweep
//! points, full-scale point sets, query catalogs and schedules — is a
//! pure function of the workload seed, built here and nowhere else.
//!
//! The generators use their own SplitMix64 stream rather than the
//! workspace's `rand` stand-in, so a change to the program can never
//! change the benchmark's inputs.
//!
//! Seeds vary *which* inputs run, never how much work a run holds:
//! each generator draws from pools stratified so that every seed gets
//! the same mix of costly and cheap inputs. That keeps the end-to-end
//! figures comparable across seeds.

use sim::{BwSetting, Topology};
use std::fmt::Write as _;
use std::time::Duration;
use workloads::WorkloadSpec;
use xp::ExpConfig;

/// SplitMix64: small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for sub-input `index` of seed `seed`.
    pub fn derive(seed: u64, index: u64) -> Rng {
        Rng::new(seed ^ Rng::new(index).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------------
// Simulation points
// ---------------------------------------------------------------------

/// One (Table II surrogate × Table III/IV configuration) point. Ring
/// points use the paper's default domain for their bandwidth; switch
/// points are on-board, as in the Fig. 9 study.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub workload: &'static str,
    pub gpms: usize,
    pub bw: BwSetting,
    pub topology: Topology,
}

impl Point {
    /// The stable name reference digests are filed under.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.workload,
            self.gpms,
            self.bw.label(),
            self.topology
        )
    }

    pub fn config(&self) -> ExpConfig {
        match self.topology {
            Topology::Switch => ExpConfig::on_board(self.gpms, self.bw, Topology::Switch),
            _ => ExpConfig::paper_default(self.gpms, self.bw),
        }
    }

    pub fn spec(&self) -> WorkloadSpec {
        workloads::by_name(self.workload).expect("points name suite workloads")
    }
}

const BWS: [BwSetting; 3] = [BwSetting::X1, BwSetting::X2, BwSetting::X4];
const TOPOLOGIES: [Topology; 2] = [Topology::Ring, Topology::Switch];

/// Every point a cold sweep may draw: all 18 Table II surrogates ×
/// 1–32 GPMs × 1x/2x/4x bandwidth × ring/switch (648 points).
pub fn sweep_pool() -> Vec<Point> {
    let mut pool = Vec::new();
    for w in workloads::suite() {
        for gpms in xp::GPM_COUNTS {
            for bw in BWS {
                for topology in TOPOLOGIES {
                    pool.push(Point {
                        workload: w.name,
                        gpms,
                        bw,
                        topology,
                    });
                }
            }
        }
    }
    pool
}

/// Points per cold sweep batch, of which [`SWEEP_DUPLICATES`] repeat an
/// earlier point of the same batch (the cache's share of the work).
pub const SWEEP_BATCH: usize = 16;
pub const SWEEP_DUPLICATES: usize = 3;

/// Cold sweep batch `index` of `seed`: uniform draws from the pool plus
/// seeded duplicates, in seeded order.
pub fn sweep_batch(pool: &[Point], seed: u64, index: u64) -> Vec<Point> {
    let mut rng = Rng::derive(seed, index);
    let fresh = SWEEP_BATCH - SWEEP_DUPLICATES;
    let mut batch: Vec<Point> = (0..fresh)
        .map(|_| pool[rng.below(pool.len())].clone())
        .collect();
    for _ in 0..SWEEP_DUPLICATES {
        let dup = batch[rng.below(fresh)].clone();
        batch.push(dup);
    }
    rng.shuffle(&mut batch);
    batch
}

/// The full-scale 32-GPM candidates, in three classes of similar host
/// cost (about 0.85 s, 1.4 s and 1.6 s each on a 2-core x86-64 host)
/// and, within a class, identical instruction counts: compute-heavy,
/// memory-heavy, and NoC-heavy (Stream moves the most inter-GPM bytes
/// per instruction of the suite). BFS (about 22 s) and the multi-second
/// MiniAMR and Kmeans are left out so a set fits a run.
pub fn point32_classes() -> [Vec<Point>; 3] {
    let p = |workload, bw, topology| Point {
        workload,
        gpms: 32,
        bw,
        topology,
    };
    [
        vec![
            p("BPROP", BwSetting::X2, Topology::Ring),
            p("BPROP", BwSetting::X4, Topology::Switch),
        ],
        vec![
            p("Nekbone-12", BwSetting::X1, Topology::Ring),
            p("Nekbone-12", BwSetting::X2, Topology::Ring),
            p("Nekbone-12", BwSetting::X4, Topology::Switch),
        ],
        vec![
            p("Stream", BwSetting::X2, Topology::Ring),
            p("Stream", BwSetting::X4, Topology::Switch),
        ],
    ]
}

/// The seeded full-scale set: one point per class, in seeded order.
pub fn point32_set(seed: u64) -> Vec<Point> {
    let mut rng = Rng::derive(seed, 0);
    let mut set: Vec<Point> = point32_classes()
        .iter()
        .map(|class| class[rng.below(class.len())].clone())
        .collect();
    rng.shuffle(&mut set);
    set
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// One daemon query: an artifact id and its config deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub artifact: &'static str,
    pub sets: Vec<(String, String)>,
}

impl Query {
    pub fn new(artifact: &'static str, sets: &[(&str, &str)]) -> Query {
        Query {
            artifact,
            sets: sets
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// The stable name reference digests are filed under.
    pub fn key(&self) -> String {
        let mut key = self.artifact.to_string();
        for (k, v) in &self.sets {
            let _ = write!(key, "|{k}={v}");
        }
        key
    }

    pub fn request(&self) -> xpd::QueryRequest {
        let mut req = xpd::QueryRequest::query(self.artifact);
        for (k, v) in &self.sets {
            req = req.with_set(k.as_str(), v.as_str());
        }
        req
    }

    /// Whether answering this delta needs new simulations (any key
    /// other than the energy-only `link_energy_mult`).
    pub fn changes_simulation(&self) -> bool {
        self.sets.iter().any(|(k, _)| k != "link_energy_mult")
    }
}

/// Response-size classes of the warm catalog: fig6 deltas render five
/// configurations (~14 KB lines), sensitivity deltas one (~3 KB), base
/// artifacts under 1.5 KB. Every entry's simulations are covered by
/// fig6's sweep, so warming the store costs one cold sweep.
pub fn hot_catalog() -> [Vec<Query>; 3] {
    let big = ["1.5", "2", "2.5", "3", "4", "5", "6"]
        .iter()
        .map(|m| Query::new("fig6", &[("link_energy_mult", m)]))
        .collect();
    let mid = ["0.5", "1.5", "2", "3", "4", "8"]
        .iter()
        .map(|m| Query::new("sensitivity", &[("link_energy_mult", m)]))
        .collect();
    let small = ["fig6", "sensitivity", "tables"]
        .iter()
        .map(|a| Query::new(a, &[]))
        .collect();
    [big, mid, small]
}

/// Size class of each popularity rank (0 = big, 1 = mid, 2 = small).
/// Fixed so every seed sends the same mix of response sizes — under
/// Zipf(1) about 70% big, 23% mid and 7% small — so the median and the
/// 99th percentile both fall well inside the big class, whose cost (the
/// client's parse of a ~14 KB line) is what this workload exposes. The
/// seed picks which entry of the class holds each rank.
const RANK_CLASSES: [usize; 16] = [0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 2, 1, 2, 1];

/// Catalog entries, one per popularity rank.
pub const HOT_RANKS: usize = RANK_CLASSES.len();

/// The catalog in popularity order for `seed`: rank 0 is the most
/// requested entry.
pub fn hot_ranking(seed: u64) -> Vec<Query> {
    let mut rng = Rng::derive(seed, 1);
    let mut classes = hot_catalog();
    for class in classes.iter_mut() {
        rng.shuffle(class);
    }
    let mut next = [0usize; 3];
    RANK_CLASSES
        .iter()
        .map(|&c| {
            let q = classes[c][next[c]].clone();
            next[c] += 1;
            q
        })
        .collect()
}

/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 1.0;

/// One open-loop request: when it is due (from the phase start) and the
/// catalog rank it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub rank: usize,
}

/// A Poisson arrival schedule at `rate` requests/s lasting `span`, with
/// Zipf-popular ranks over `ranks` catalog entries. `phase` separates
/// the streams of the reference phase and each ladder rung.
pub fn open_loop_schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    span: Duration,
    ranks: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::derive(seed, 100 + phase);
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        let mut u = rng.unit() * total;
        let mut rank = ranks - 1;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                rank = i;
                break;
            }
            u -= w;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            rank,
        });
    }
}

/// Energy-only what-if deltas on the 32-GPM `sensitivity` point:
/// `link_energy_mult` from 1.005 to 11 in steps of 0.005.
pub fn whatif_energy_pool() -> Vec<Query> {
    (1..=2000)
        .map(|i| {
            let m = format!("{:.3}", 1.0 + i as f64 / 200.0);
            Query::new("sensitivity", &[("link_energy_mult", &m)])
        })
        .collect()
}

/// Simulation-changing what-if deltas: GPM count × bandwidth ×
/// topology × {nothing, mlp 8, clock 0.8}, minus the base point.
pub fn whatif_sim_pool() -> Vec<Query> {
    let mut pool = Vec::new();
    for gpms in ["2", "4", "8", "16", "32"] {
        for bw in ["1x", "2x", "4x"] {
            for topology in ["ring", "switch"] {
                for extra in [None, Some(("mlp", "8")), Some(("clock_scale", "0.8"))] {
                    if gpms == "32" && bw == "2x" && topology == "ring" && extra.is_none() {
                        continue; // the base point itself
                    }
                    let mut sets = vec![("gpms", gpms), ("bw", bw), ("topology", topology)];
                    sets.extend(extra);
                    pool.push(Query::new("sensitivity", &sets));
                }
            }
        }
    }
    pool
}

/// One query in every this many is simulation-changing; the position
/// inside each block is seeded.
pub const WHATIF_SIM_EVERY: usize = 32;
/// One query in every this many is sent twice back to back, so the two
/// closed-loop clients ask for it at the same moment.
pub const WHATIF_DUP_EVERY: usize = 16;

/// The what-if query sequence for `seed`: never-seen deltas drawn
/// without replacement, one simulation-changing delta per block of
/// [`WHATIF_SIM_EVERY`], and seeded back-to-back duplicates. Its length
/// is bounded by the pools.
pub fn whatif_sequence(seed: u64) -> Vec<Query> {
    let mut rng = Rng::derive(seed, 2);
    let mut energy = whatif_energy_pool();
    let mut sims = whatif_sim_pool();
    rng.shuffle(&mut energy);
    rng.shuffle(&mut sims);
    let (mut energy, mut sims) = (energy.into_iter(), sims.into_iter());
    let mut out = Vec::new();
    'blocks: loop {
        let sim_slot = rng.below(WHATIF_SIM_EVERY);
        for slot in 0..WHATIF_SIM_EVERY {
            let next = if slot == sim_slot {
                sims.next()
            } else {
                energy.next()
            };
            let Some(q) = next else { break 'blocks };
            if rng.below(WHATIF_DUP_EVERY) == 0 {
                out.push(q.clone());
            }
            out.push(q);
        }
    }
    out
}

/// A canonical text rendering of every generated input of `workload`
/// for `seed` — what "same seed, same inputs" is checked against.
#[cfg(test)]
pub fn render_inputs(workload: &str, seed: u64) -> String {
    let mut out = String::new();
    match workload {
        "sweep" => {
            let pool = sweep_pool();
            for i in 0..64 {
                for p in sweep_batch(&pool, seed, i) {
                    let _ = writeln!(out, "{i} {}", p.key());
                }
            }
        }
        "point32" => {
            for p in point32_set(seed) {
                let _ = writeln!(out, "{}", p.key());
            }
        }
        "serve_hot" => {
            for q in hot_ranking(seed) {
                let _ = writeln!(out, "rank {}", q.key());
            }
            let s = crate::serve::hot_schedules(seed, Duration::from_secs(20));
            let ladder = s.ladder.into_iter().map(|(_, a)| a);
            let phases = std::iter::once(s.reference)
                .chain(s.saturation)
                .chain(ladder);
            for (phase, arrivals) in phases.enumerate() {
                for a in arrivals {
                    let _ = writeln!(out, "{phase} {} {}", a.due.as_nanos(), a.rank);
                }
            }
        }
        "serve_whatif" => {
            for q in whatif_sequence(seed) {
                let _ = writeln!(out, "{}", q.key());
            }
        }
        other => panic!("no inputs for workload {other:?}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in crate::WORKLOADS {
            let a = render_inputs(w, 7);
            assert!(!a.is_empty(), "{w} generated nothing");
            assert_eq!(a, render_inputs(w, 7), "{w} is not a function of the seed");
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in crate::WORKLOADS {
            assert_ne!(
                render_inputs(w, 1),
                render_inputs(w, 2),
                "{w} ignores its seed"
            );
        }
    }

    #[test]
    fn sweep_batches_hold_their_duplicates() {
        let pool = sweep_pool();
        assert_eq!(pool.len(), 18 * 6 * 3 * 2);
        let batch = sweep_batch(&pool, 3, 0);
        assert_eq!(batch.len(), SWEEP_BATCH);
        let mut keys: Vec<String> = batch.iter().map(Point::key).collect();
        keys.sort();
        keys.dedup();
        assert!(keys.len() <= SWEEP_BATCH - SWEEP_DUPLICATES);
    }

    #[test]
    fn point32_sets_take_one_point_per_class() {
        let classes = point32_classes();
        for seed in 0..20 {
            let set = point32_set(seed);
            assert_eq!(set.len(), 3);
            for class in &classes {
                assert_eq!(set.iter().filter(|p| class.contains(p)).count(), 1);
            }
        }
    }

    #[test]
    fn hot_ranking_keeps_the_size_mix_fixed() {
        let classes = hot_catalog();
        for seed in 0..10 {
            let ranking = hot_ranking(seed);
            assert_eq!(ranking.len(), RANK_CLASSES.len());
            for (q, &c) in ranking.iter().zip(&RANK_CLASSES) {
                assert!(classes[c].contains(q));
            }
        }
    }

    #[test]
    fn whatif_sequence_never_repeats_except_back_to_back() {
        let seq = whatif_sequence(5);
        let mut seen = std::collections::HashSet::new();
        for (i, q) in seq.iter().enumerate() {
            let dup_of_previous = i > 0 && seq[i - 1] == *q;
            assert!(
                seen.insert(q.key()) || dup_of_previous,
                "{} repeats",
                q.key()
            );
        }
        let sims = seq.iter().filter(|q| q.changes_simulation()).count();
        assert!(sims > 0 && sims * WHATIF_SIM_EVERY <= seq.len() + WHATIF_SIM_EVERY);
    }

    #[test]
    fn open_loop_schedule_is_ordered_and_near_its_rate() {
        let s = open_loop_schedule(9, 0, 200.0, Duration::from_secs(10), 16);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!((1800..2200).contains(&s.len()), "{} arrivals", s.len());
        let top = s.iter().filter(|a| a.rank == 0).count();
        assert!(top > s.len() / 5, "rank 0 should dominate under Zipf");
    }
}
