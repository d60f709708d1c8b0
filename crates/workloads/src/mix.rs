//! Instruction mixes: weighted opcode distributions for the surrogates.
//!
//! Each benchmark surrogate draws its compute instructions from a mix that
//! matches the source application's character: FP32 stencils, FP64
//! molecular dynamics, integer-heavy graph traversal, and so on.

use isa::Opcode;
use rand::Rng;

/// A normalized, weighted distribution over opcodes.
///
/// # Examples
///
/// ```
/// use workloads::mix::InstMix;
/// use isa::Opcode;
///
/// let mix = InstMix::new(vec![(Opcode::FFma32, 3.0), (Opcode::FAdd32, 1.0)]);
/// assert!((mix.weight_of(Opcode::FFma32) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstMix {
    entries: Vec<(Opcode, f64)>,
    cumulative: Vec<f64>,
}

impl InstMix {
    /// Builds a mix from `(opcode, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is non-positive.
    pub fn new(weights: Vec<(Opcode, f64)>) -> Self {
        assert!(!weights.is_empty(), "a mix needs at least one opcode");
        assert!(
            weights.iter().all(|&(_, w)| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let entries: Vec<(Opcode, f64)> =
            weights.into_iter().map(|(op, w)| (op, w / total)).collect();
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        for &(_, w) in &entries {
            acc += w;
            cumulative.push(acc);
        }
        // Guard against rounding: the last boundary is exactly 1.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        InstMix {
            entries,
            cumulative,
        }
    }

    /// The normalized weight of an opcode (zero if absent).
    pub fn weight_of(&self, op: Opcode) -> f64 {
        self.entries
            .iter()
            .find(|&&(o, _)| o == op)
            .map(|&(_, w)| w)
            .unwrap_or(0.0)
    }

    /// Samples one opcode: the first entry whose cumulative weight is at
    /// least a uniform draw from `[0, 1)`.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Opcode {
        self.entries[self.pick(rng.gen())].0
    }

    /// The index of the first entry whose cumulative weight is at least
    /// `u`, computed as the number of boundaries below `u`, summed
    /// without branches: `u` is random, so a search that stops at the
    /// first match mispredicts on nearly every draw. The two agree
    /// because `cumulative` is non-decreasing; the last boundary (exactly
    /// 1) is never below `u < 1`, so it is left out of the count.
    #[inline]
    fn pick(&self, u: f64) -> usize {
        let below = &self.cumulative[..self.cumulative.len() - 1];
        below.iter().map(|&c| usize::from(c < u)).sum()
    }

    /// The opcodes in this mix.
    pub fn opcodes(&self) -> impl Iterator<Item = Opcode> + '_ {
        self.entries.iter().map(|&(op, _)| op)
    }

    /// FP32 dense-math mix (back-propagation, stencils): FMA-dominated
    /// with adds, multiplies and the occasional transcendental.
    pub fn fp32_dense() -> Self {
        InstMix::new(vec![
            (Opcode::FFma32, 5.0),
            (Opcode::FAdd32, 2.5),
            (Opcode::FMul32, 2.0),
            (Opcode::IAdd32, 1.2),
            (Opcode::Mov32, 0.8),
            (Opcode::FExp232, 0.3),
            (Opcode::Setp, 0.4),
            (Opcode::Bra, 0.3),
        ])
    }

    /// FP64 HPC mix (CoMD, Lulesh, Nekbone): double-precision FMA chains
    /// with square roots and reciprocals.
    pub fn fp64_hpc() -> Self {
        InstMix::new(vec![
            (Opcode::FFma64, 4.0),
            (Opcode::FAdd64, 2.5),
            (Opcode::FMul64, 2.0),
            (Opcode::FSqrt32, 0.4),
            (Opcode::FRcp32, 0.3),
            (Opcode::IAdd32, 1.0),
            (Opcode::Setp, 0.4),
            (Opcode::Bra, 0.4),
        ])
    }

    /// Integer/pointer-chasing mix (B+Tree, BFS): compares, adds, logic.
    pub fn int_graph() -> Self {
        InstMix::new(vec![
            (Opcode::IAdd32, 3.5),
            (Opcode::ISub32, 1.0),
            (Opcode::And32, 1.0),
            (Opcode::Or32, 0.6),
            (Opcode::Setp, 2.0),
            (Opcode::Bra, 1.6),
            (Opcode::Mov32, 1.3),
            (Opcode::IMad32, 0.8),
        ])
    }

    /// Table-lookup physics mix (RSBench): FP64 evaluation with integer
    /// indexing and transcendentals.
    pub fn lookup_physics() -> Self {
        InstMix::new(vec![
            (Opcode::FFma64, 3.0),
            (Opcode::FMul64, 2.0),
            (Opcode::FAdd64, 1.5),
            (Opcode::IMul32, 1.0),
            (Opcode::IAdd32, 1.5),
            (Opcode::FExp232, 0.5),
            (Opcode::FLog232, 0.4),
            (Opcode::Setp, 0.5),
        ])
    }

    /// FP32 streaming mix (Stream, SRAD, Kmeans): short FMA bursts over
    /// loads.
    pub fn fp32_stream() -> Self {
        InstMix::new(vec![
            (Opcode::FFma32, 3.0),
            (Opcode::FAdd32, 2.0),
            (Opcode::FMul32, 1.5),
            (Opcode::IAdd32, 1.5),
            (Opcode::Mov32, 1.0),
            (Opcode::Bra, 0.5),
        ])
    }

    /// Distance/clustering mix (Kmeans, PathFinder): FP32 with integer
    /// control and compares.
    pub fn fp32_control() -> Self {
        InstMix::new(vec![
            (Opcode::FAdd32, 2.0),
            (Opcode::FMul32, 1.5),
            (Opcode::FFma32, 2.0),
            (Opcode::ISub32, 1.0),
            (Opcode::IAdd32, 1.5),
            (Opcode::Setp, 1.5),
            (Opcode::Bra, 1.0),
            (Opcode::FSqrt32, 0.3),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn weights_normalize() {
        let mix = InstMix::new(vec![(Opcode::FAdd32, 1.0), (Opcode::FMul32, 3.0)]);
        assert!((mix.weight_of(Opcode::FAdd32) - 0.25).abs() < 1e-12);
        assert!((mix.weight_of(Opcode::FMul32) - 0.75).abs() < 1e-12);
        assert_eq!(mix.weight_of(Opcode::Bra), 0.0);
    }

    #[test]
    fn sampling_tracks_weights() {
        let mix = InstMix::new(vec![(Opcode::FAdd32, 1.0), (Opcode::FMul32, 3.0)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 40_000;
        let muls = (0..n)
            .filter(|_| mix.sample(&mut rng) == Opcode::FMul32)
            .count();
        let frac = muls as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mix = InstMix::fp32_dense();
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut a), mix.sample(&mut b));
        }
    }

    /// The index rule `sample` used before it went branchless.
    fn position_rule(mix: &InstMix, u: f64) -> usize {
        mix.cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(mix.entries.len() - 1)
    }

    fn presets() -> [InstMix; 6] {
        [
            InstMix::fp32_dense(),
            InstMix::fp64_hpc(),
            InstMix::int_graph(),
            InstMix::lookup_physics(),
            InstMix::fp32_stream(),
            InstMix::fp32_control(),
        ]
    }

    #[test]
    fn branchless_pick_matches_position_rule_at_every_boundary() {
        for mix in presets() {
            for &c in &mix.cumulative {
                // The boundary itself and its two float neighbours.
                let below = f64::from_bits(c.to_bits() - 1);
                let above = f64::from_bits(c.to_bits() + 1);
                for u in [below, c, above] {
                    assert_eq!(mix.pick(u), position_rule(&mix, u), "u = {u:e}");
                }
            }
            for u in [0.0, 0.5, f64::from_bits(1.0f64.to_bits() - 1)] {
                assert_eq!(mix.pick(u), position_rule(&mix, u), "u = {u:e}");
            }
        }
    }

    #[test]
    fn branchless_sample_matches_position_rule_over_seeded_draws() {
        for mix in presets() {
            let mut rng = SmallRng::seed_from_u64(0x5EED);
            let mut reference = rng.clone();
            for _ in 0..100_000 {
                let u: f64 = reference.gen();
                assert_eq!(mix.sample(&mut rng), mix.entries[position_rule(&mix, u)].0);
            }
        }
    }

    #[test]
    fn presets_are_well_formed() {
        for mix in presets() {
            let total: f64 = mix.opcodes().map(|op| mix.weight_of(op)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fp64_mix_is_fp64_dominated() {
        let mix = InstMix::fp64_hpc();
        let fp64: f64 = mix
            .opcodes()
            .filter(|op| op.is_fp64())
            .map(|op| mix.weight_of(op))
            .sum();
        assert!(fp64 > 0.5, "got {fp64}");
    }

    #[test]
    #[should_panic(expected = "at least one opcode")]
    fn empty_mix_panics() {
        let _ = InstMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_panics() {
        let _ = InstMix::new(vec![(Opcode::FAdd32, 0.0)]);
    }
}
