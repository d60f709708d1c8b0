#![warn(missing_docs)]

//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the few entry points it actually uses: [`rngs::SmallRng`]
//! seeded through [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! extension methods `gen`, `gen_bool`, and `gen_range`.
//!
//! `SmallRng` is xoshiro256++ with splitmix64 seed expansion — the same
//! generator family real `rand` 0.8 uses on 64-bit targets, so the
//! statistical quality assumptions of downstream tests (frequency checks
//! over tens of thousands of draws) hold. Streams are deterministic per
//! seed but are **not** bit-identical to the real crate's; everything in
//! this workspace derives its traces from seeds it controls, so only
//! self-consistency matters.

use std::ops::Range;

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be drawn uniformly from the full value domain
/// (the `Standard` distribution of real `rand`).
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

/// Types `gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: Copy {
    /// A uniform draw from `[lo, hi)`. `hi` must exceed `lo`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range requires a non-empty range");
                // Every implementing type is at most 64 bits wide, so the
                // span is below 2^64 and the modulo runs in u64 — the
                // same value as the u128 formula, without the 128-bit
                // division a `u128 %` compiles to.
                let span = (hi as i128 - lo as i128) as u64;
                // Modulo draw: the bias over u64 output is < 2^-63 for the
                // span sizes this workspace uses (all far below 2^32).
                let v = rng.next_u64() % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range requires a non-empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from the type's full domain (`f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// A Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::draw(self) < p
    }

    /// A uniform draw from `range`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from small seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_matches_the_u128_modulo_formula() {
        // The draw `gen_range` made before its u64 fast path, kept as the
        // reference: a u128 modulo over the widened span.
        fn reference(rng: &mut SmallRng, lo: i128, hi: i128) -> i128 {
            let span = (hi - lo) as u128;
            lo + ((rng.next_u64() as u128) % span) as i128
        }
        for span in [1u64, 3, (1 << 32) + 1, (1 << 63) + 1, u64::MAX] {
            let mut fast = SmallRng::seed_from_u64(span);
            let mut slow = fast.clone();
            for _ in 0..1_000 {
                let got = fast.gen_range(0..span);
                assert_eq!(
                    got as i128,
                    reference(&mut slow, 0, span as i128),
                    "span {span}"
                );
            }
        }
        // Signed ranges straddling zero, up to the widest i64 span.
        for (lo, hi) in [(-3i64, 4i64), (i64::MIN, i64::MAX), (i64::MIN, 0)] {
            let mut fast = SmallRng::seed_from_u64(7);
            let mut slow = fast.clone();
            for _ in 0..1_000 {
                let got = fast.gen_range(lo..hi);
                assert_eq!(got as i128, reference(&mut slow, lo as i128, hi as i128));
            }
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(10_u64..17);
            assert!((10..17).contains(&v));
            let f = rng.gen_range(-2.0_f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }
}
