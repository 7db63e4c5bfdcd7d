//! Deterministic random-number generation and sampling helpers.
//!
//! The build environment carries no external crates, so this module provides
//! the small slice of the `rand` API the workspace actually uses — a seedable
//! generator ([`StdRng`]), the [`Rng`] trait with `gen` / `gen_range` /
//! `gen_bool`, and the non-uniform distributions needed by the capacity
//! models and workload generators (Gaussian noise for capacity estimation,
//! exponential inter-arrivals for the Poisson download workload of Table 1).
//!
//! Determinism contract (DESIGN.md §3.4): the generator is xoshiro256++
//! seeded via SplitMix64, both fully specified algorithms with no
//! platform-dependent behaviour, so a given seed yields the same stream on
//! every build and architecture. Nothing here reads entropy from the OS.

use std::ops::{Range, RangeInclusive};

/// A source of uniformly random 64-bit words plus derived sampling methods.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` from its natural uniform distribution
    /// (`f64`/`f32` in `[0, 1)`, full range for integers).
    fn gen<T: Sample>(&mut self) -> T {
        T::sample_from(self)
    }

    /// Samples uniformly from a range (see [`SampleRange`] for the
    /// supported range types).
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from raw generator output.
pub trait Sample {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Sample for u64 {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange {
    type Output;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer draw from `[0, span)` via Lemire-style rejection.
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone keeps the multiply-shift map exactly uniform.
    let zone = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = x as u128 * span as u128;
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi - lo) as u64 + 1;
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty gen_range");
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

/// Constructing a generator from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's deterministic generator: xoshiro256++ seeded via
/// SplitMix64. Fast, 256-bit state, passes BigCrush; most importantly the
/// stream is a pure function of the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        StdRng { s: [next(), next(), next(), next()] }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// SplitMix64 finalizer: one full avalanche round over `x`.
fn splitmix_finalize(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent per-entity stream seed from a master seed.
///
/// `tag` names the stream family (e.g. "per-flow traffic draws" vs
/// "per-link estimation noise") and `idx` the entity within the family.
/// Two rounds of the SplitMix64 finalizer decorrelate the inputs, the same
/// construction the workload compiler uses for `instance_seed`. The point
/// of per-entity streams is *independence*: an entity's draw sequence
/// depends only on `(master, tag, idx)` and its own draw count, never on
/// how many draws other entities made, so changing one flow's traffic
/// leaves every other flow's draws as they were.
pub fn stream_seed(master: u64, tag: u64, idx: u64) -> u64 {
    splitmix_finalize(splitmix_finalize(master ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ idx)
}

// ---------------------------------------------------------------------
// Distribution helpers
// ---------------------------------------------------------------------

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `N(mean, std)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Samples an exponential variate with the given mean (`1/λ`).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments_are_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 60.0)).sum::<f64>() / n as f64;
        assert!((mean - 60.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(exponential(&mut rng, 1.0) > 0.0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }

    #[test]
    fn unit_samples_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn int_ranges_cover_and_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.gen_range(0..7usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..1000 {
            let v = rng.gen_range(3..=5u32);
            assert!((3..=5).contains(&v));
        }
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            let v = rng.gen_range(2.0..5.0);
            assert!((2.0..5.0).contains(&v));
            let w = rng.gen_range(0.25..=0.75);
            assert!((0.25..=0.75).contains(&w));
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_deterministic() {
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for tag in [0x1u64, 0x2, 0xF10A] {
            for idx in 0..200u64 {
                assert!(seen.insert(stream_seed(7, tag, idx)), "collision at {tag:#x}/{idx}");
                assert_eq!(stream_seed(7, tag, idx), stream_seed(7, tag, idx));
            }
        }
        // Different master seeds move every stream.
        assert_ne!(stream_seed(7, 1, 0), stream_seed(8, 1, 0));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }
}
