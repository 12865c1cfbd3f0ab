//! Seedable pseudo-random numbers: the workspace's only generator.
//!
//! [`Rng64`] is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64,
//! with `seed_from_u64` / `gen_range` call shapes plus Box–Muller normal
//! sampling. It is not cryptographic. It draws weight initialisation, node
//! jitter and the inputs of every property test, so a seed fixes a stream
//! on every platform.

use std::ops::Range;

/// SplitMix64 — used to expand a 64-bit seed into xoshiro state, and
/// directly wherever a tiny one-shot stream is enough.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from any 64-bit seed (all values are fine).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ with a `StdRng`-shaped API and cached Box–Muller sampling.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
    spare_normal: Option<f64>,
}

impl Rng64 {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        let mut sm = SplitMix64::new(seed);
        // SplitMix64 output is equidistributed, so the all-zero xoshiro
        // state (the one invalid state) cannot arise from it in practice;
        // guard anyway so the type upholds its own invariant.
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e3779b97f4a7c15;
        }
        Rng64 {
            s,
            spare_normal: None,
        }
    }

    /// Next 64 uniformly distributed bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[range.start, range.end)`.
    pub fn gen_range(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "gen_range needs a non-empty range");
        let x = range.start + self.next_f64() * (range.end - range.start);
        // On a range only a few ulps wide the affine map can round up onto
        // the excluded end; keep the half-open promise.
        if x < range.end {
            x
        } else {
            range.end.next_down()
        }
    }

    /// Uniform integer in `[range.start, range.end)`. Uses rejection-free
    /// widening multiply (Lemire), so small ranges have no modulo bias.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range needs a non-empty range");
        let width = (range.end - range.start) as u64;
        let hi = ((u128::from(self.next_u64()) * u128::from(width)) >> 64) as u64;
        range.start + hi as usize
    }

    /// Standard normal sample via Box–Muller; the second sample of each
    /// pair is cached.
    pub fn next_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0, 1] so the log is finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.next_normal()
    }

    /// Fills `out` with uniform samples from `range`.
    pub fn fill_uniform(&mut self, out: &mut [f64], range: Range<f64>) {
        for v in out.iter_mut() {
            *v = self.gen_range(range.start..range.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams for different seeds overlap: {same}/64");
    }

    #[test]
    fn uniform_moments_are_sane() {
        let mut rng = Rng64::seed_from_u64(7);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 5e-3, "uniform mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 5e-3, "uniform variance {var}");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng64::seed_from_u64(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = rng.next_normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 1e-2, "normal mean {mean}");
        assert!((var - 1.0).abs() < 2e-2, "normal variance {var}");
        let shifted = rng.normal(3.0, 0.5);
        assert!(shifted.is_finite());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.5..1.5);
            assert!((-2.5..1.5).contains(&x));
            let k = rng.gen_range_usize(10..17);
            assert!((10..17).contains(&k));
        }
    }

    #[test]
    fn gen_range_excludes_end_on_a_one_ulp_range() {
        let mut rng = Rng64::seed_from_u64(7);
        let end = 1.0 + f64::EPSILON;
        for i in 0..10_000 {
            let x = rng.gen_range(1.0..end);
            assert!((1.0..end).contains(&x), "draw {i} returned {x:e}");
        }
    }

    #[test]
    fn integer_range_covers_all_values() {
        let mut rng = Rng64::seed_from_u64(5);
        let mut hits = [0usize; 8];
        for _ in 0..8000 {
            hits[rng.gen_range_usize(0..8)] += 1;
        }
        for (v, &h) in hits.iter().enumerate() {
            assert!(h > 700, "value {v} under-sampled: {h}/8000");
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), SplitMix64::new(100).next_u64());
    }
}
