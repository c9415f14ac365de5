//! Deterministic random number generation.
//!
//! The simulator must be exactly reproducible across runs and platforms so
//! that telemetry replays and what-if studies can be compared apples to
//! apples (the paper replays the *same* 183 days under different power
//! delivery variants). We therefore carry our own small, well-known
//! generator — xoshiro256\*\* (Blackman & Vigna) seeded through splitmix64 —
//! instead of relying on `rand`'s unspecified default engine.
//!
//! The distribution helpers mirror what RAPS needs:
//!
//! * [`Rng::exponential`] implements eq. (5) of the paper,
//!   `τ = -ln(1 - U) / λ`, for Poisson job arrivals;
//! * [`Rng::normal`] / [`Rng::lognormal`] synthesize job sizes and runtimes
//!   from telemetry-derived moments (§III-B3);
//! * truncated variants clamp to physical ranges (no negative runtimes,
//!   utilizations in `[0, 1]`).

/// Splitmix64: used to expand a single `u64` seed into the 256-bit xoshiro
/// state. This is the seeding procedure recommended by the xoshiro authors.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* generator with distribution helpers.
///
/// Cloning an `Rng` forks the exact state; use [`Rng::split`] to derive an
/// independent stream (e.g. one stream per simulated day in the 183-day
/// replay so days can be generated in parallel yet stay reproducible).
///
/// Serialization captures the full 256-bit state plus the Box–Muller
/// cache, so a deserialized generator continues the *same* stream: the
/// n-th draw after a save/load round trip is bit-identical to the n-th
/// draw without one (the durable-snapshot contract).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal deviate from the Box–Muller pair.
    cached_normal: Option<u64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s, cached_normal: None }
    }

    /// Derive an independent stream keyed by `stream_id`.
    ///
    /// Streams derived from the same parent with different ids are
    /// statistically independent; the parent is left untouched.
    pub fn split(&self, stream_id: u64) -> Self {
        // Mix the full parent state with the stream id through splitmix64.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(34)
            ^ self.s[3].rotate_left(51)
            ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s, cached_normal: None }
    }

    /// Next raw 64-bit value (xoshiro256\*\* step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (unbiased via rejection).
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize needs n > 0");
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponential inter-arrival time, eq. (5) of the paper:
    /// `τ = -ln(1 - U) / λ` where `λ = 1 / t_avg`.
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let u = self.uniform();
        -(1.0 - u).ln() / lambda
    }

    /// Standard normal deviate (Box–Muller, pair-cached).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(bits) = self.cached_normal.take() {
            return f64::from_bits(bits);
        }
        // Box–Muller: generate a pair, cache the second.
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let z0 = r * theta.cos();
        let z1 = r * theta.sin();
        self.cached_normal = Some(z1.to_bits());
        z0
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.standard_normal()
    }

    /// Normal deviate clamped to `[lo, hi]`.
    pub fn normal_clamped(&mut self, mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
        self.normal(mean, std).clamp(lo, hi)
    }

    /// Lognormal deviate parameterised by the mean/std of the *underlying*
    /// normal (i.e. `exp(N(mu, sigma))`).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Lognormal deviate parameterised by the desired mean and standard
    /// deviation of the lognormal itself (moment matching). Handy because
    /// the paper reports telemetry moments, not log-space parameters.
    pub fn lognormal_from_moments(&mut self, mean: f64, std: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        self.lognormal(mu, sigma2.sqrt())
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let parent = Rng::new(7);
        let mut s1 = parent.split(1);
        let mut s1b = parent.split(1);
        let mut s2 = parent.split(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exponential_matches_rate() {
        let mut rng = Rng::new(5);
        let lambda = 1.0 / 138.0; // paper Table IV: average arrival time 138 s
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 138.0).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(9);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std={}", var.sqrt());
    }

    #[test]
    fn lognormal_from_moments_matches() {
        let mut rng = Rng::new(13);
        let n = 400_000;
        let (target_mean, target_std) = (268.0, 626.0); // nodes-per-job moments, Table IV
        let samples: Vec<f64> = (0..n)
            .map(|_| rng.lognormal_from_moments(target_mean, target_std))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        // Heavy-tailed, so allow a generous band on the mean.
        assert!((mean - target_mean).abs() / target_mean < 0.05, "mean={mean}");
    }

    #[test]
    fn uniform_usize_covers_range_without_bias() {
        let mut rng = Rng::new(17);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.uniform_usize(7)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts={counts:?}");
        }
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = Rng::new(29);
        for _ in 0..10_000 {
            let x = rng.normal_clamped(0.5, 1.0, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }
}
