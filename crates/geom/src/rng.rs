//! The workspace's one deterministic PRNG: the data and workload
//! generators draw from it, and so does every seeded test.
//!
//! The generators only need `seed_from_u64`, `gen_range` and `gen_bool`,
//! so instead of depending on the external `rand` crate (unavailable in
//! this offline build) we ship a small xoshiro256++ generator with a
//! splitmix64 seeding routine — the same construction `rand`'s `SmallRng`
//! uses on 64-bit platforms. Determinism is what matters here: identical
//! seeds must yield identical maps and workloads across runs and
//! platforms. It lives in the geometry crate, which depends on nothing,
//! so every crate of the workspace reaches it;
//! `spatialdb_data::rng` re-exports it.

use std::ops::{Range, RangeInclusive};

/// A small, fast, deterministic random-number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seed the generator from a single `u64` via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    ///
    /// `#[inline]` here and on the samplers: the map and workload
    /// generators that draw millions of values live in other crates.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (see [`SampleRange`]).
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> usize {
        assert!(self.start < self.end, "empty range");
        let span = (self.end - self.start) as u64;
        self.start + (rng.next_u64() % span) as usize
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_u64() % (self.end - self.start)
    }
}

impl SampleRange for Range<u8> {
    type Output = u8;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u8 {
        assert!(self.start < self.end, "empty range");
        let span = u64::from(self.end - self.start);
        self.start + (rng.next_u64() % span) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_samples_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1_000 {
            let x = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&x));
            let y = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&y));
            let i = rng.gen_range(3..9usize);
            assert!((3..9).contains(&i));
            let w = rng.gen_range(3..9u64);
            assert!((3..9).contains(&w));
            let b = rng.gen_range(0..3u8);
            assert!(b < 3);
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_800..3_200).contains(&hits), "{hits} hits");
    }
}
