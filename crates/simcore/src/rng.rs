//! A small deterministic PRNG (xoshiro256**) for simulation use.
//!
//! The machine model and workload generators need randomness whose entire
//! stream is determined by a single `u64` seed, so a run can be reproduced
//! exactly from its report. We implement xoshiro256** directly rather than
//! pulling `rand` into the runtime dependency graph; `rand` remains a
//! dev/workload-generation dependency elsewhere.

/// Deterministic xoshiro256** generator seeded via SplitMix64.
///
/// # Examples
///
/// ```
/// use elsc_simcore::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step: advances `state` and returns its mix. Expands a
/// [`SimRng`] seed into the xoshiro state, and is the cluster
/// dispatcher's placement hash (one step from the hashed value).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed is valid; SplitMix64 expansion guarantees a non-zero
    /// internal state even for seed 0.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the next 64 random bits.
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

    /// Returns a uniformly distributed value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift with rejection for unbiased output.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// Used for think times and I/O latencies; returns at least 1.0 so a
    /// sampled duration can always be charged as a nonzero cycle count.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // in (0, 1]
        (-mean * u.ln()).max(1.0)
    }

    /// Samples a value uniformly jittered around `mean` by ±`frac`
    /// (e.g. `frac = 0.2` gives `[0.8*mean, 1.2*mean)`).
    pub fn jitter(&mut self, mean: u64, frac: f64) -> u64 {
        if mean == 0 || frac <= 0.0 {
            return mean;
        }
        let spread = (mean as f64 * frac) as u64;
        if spread == 0 {
            return mean;
        }
        let lo = mean.saturating_sub(spread);
        self.range(lo, mean + spread + 1)
    }

    /// Splits off an independent generator (for per-task streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(12345);
        let mut b = SimRng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(7);
        for n in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut r = SimRng::new(99);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_endpoints() {
        let mut r = SimRng::new(3);
        for _ in 0..500 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range(5, 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut r = SimRng::new(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(100.0)).sum();
        let mean = sum / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn exp_is_at_least_one() {
        let mut r = SimRng::new(8);
        for _ in 0..1000 {
            assert!(r.exp(0.001) >= 1.0);
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.jitter(1000, 0.2);
            assert!((800..=1200).contains(&v), "got {v}");
        }
        assert_eq!(r.jitter(0, 0.5), 0);
        assert_eq!(r.jitter(100, 0.0), 100);
        assert_eq!(r.jitter(1, 0.1), 1); // spread rounds to zero
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SimRng::new(20);
        let mut f = a.fork();
        // Forked stream should not replay the parent's next values.
        let av: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let fv: Vec<u64> = (0..10).map(|_| f.next_u64()).collect();
        assert_ne!(av, fv);
    }
}
