//! A log-bucketed histogram for latency and duration distributions.
//!
//! The §8 question — "Would the ELSC scheduler be more effective in
//! increasing throughput or decreasing the latency of an Apache web
//! server?" — needs latency *distributions*, not just means. This
//! histogram buckets by powers of two, which is plenty of resolution for
//! wakeup-to-dispatch latencies spanning seven orders of magnitude, with
//! O(1) recording and a fixed footprint.

/// Number of power-of-two buckets (covers 0 .. 2^63).
const BUCKETS: usize = 64;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use elsc_simcore::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 1000);
/// assert!(h.mean() > 200.0);
/// assert!(h.percentile(50.0) <= 100);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: floor(log2(v)) + 1, with 0 in bucket 0.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Upper bound (inclusive) of a bucket.
fn bucket_limit(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v).min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile: the upper bound of the bucket containing
    /// the p-th sample (`p` in 0..=100).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_limit(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }

    /// One-line summary, for reports.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.0} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_limit(0), 0);
        assert_eq!(bucket_limit(1), 1);
        assert_eq!(bucket_limit(2), 3);
        assert_eq!(bucket_limit(3), 7);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert_eq!(h.sum(), 60);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p10 = h.percentile(10.0);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p10 <= p50 && p50 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn percentile_100_is_max_bucket() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(1_000_000);
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        a.record(100);
        b.record(50);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 10_000);
        assert_eq!(a.sum(), 10_151);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(7);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
        assert_eq!(a.max(), before.max());
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn summary_mentions_fields() {
        let mut h = Histogram::new();
        h.record(10);
        let s = h.summary();
        assert!(s.contains("n=1"));
        assert!(s.contains("p99"));
    }

    #[test]
    fn zero_samples_go_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max(), 0);
    }

    /// On `SimRng` samples: count/min/max/mean are exact, the median is
    /// within one power-of-two bucket of the exact one, and merging two
    /// histograms equals recording both sample sets into one.
    #[test]
    fn random_samples_match_exact_statistics_and_merge_is_additive() {
        use crate::SimRng;
        let record = |samples: &[u64]| {
            let mut h = Histogram::new();
            samples.iter().for_each(|&s| h.record(s));
            h
        };
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x4157 ^ seed);
            let mut a: Vec<u64> = (0..1 + seed * 3).map(|_| rng.below(1 << 30)).collect();
            let b = a.split_off(a.len() / 3);
            let (mut ha, hb) = (record(&a), record(&b));
            let mut sorted = b.clone();
            sorted.sort_unstable();
            assert_eq!(hb.count(), b.len() as u64);
            assert_eq!((hb.min(), hb.max()), (sorted[0], sorted[b.len() - 1]));
            let mean = b.iter().sum::<u64>() as f64 / b.len() as f64;
            assert!((hb.mean() - mean).abs() < 1e-6 * mean.max(1.0));
            let p50 = hb.percentile(50.0);
            assert!(p50 <= hb.max() && p50.saturating_mul(2) + 1 >= sorted[(b.len() - 1) / 2]);

            ha.merge(&hb);
            let both = record(&[a, b].concat());
            assert_eq!(
                (
                    ha.count(),
                    ha.sum(),
                    ha.min(),
                    ha.max(),
                    ha.percentile(90.0)
                ),
                (
                    both.count(),
                    both.sum(),
                    both.min(),
                    both.max(),
                    both.percentile(90.0)
                )
            );
        }
    }
}
