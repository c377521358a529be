//! Sample summaries: median, nearest-rank percentile, and the rule that
//! picks the highest percentile worth reporting.

/// The percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported: with
/// fewer, the value is set by a handful of outliers.
pub const BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the middle two for an even count); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100); NaN if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    sorted(xs)[rank(xs.len(), p) - 1]
}

/// The highest percentile of [`LADDER`] that leaves at least [`BEYOND`]
/// of `n` samples above its rank, or `None` when even the median does
/// not (n < 20).
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - rank(n, p) >= BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=256).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 128.0);
        assert_eq!(percentile(&xs, 95.0), 244.0);
        assert_eq!(percentile(&xs, 100.0), 256.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 256 slices: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(highest_percentile(256), Some(95.0));
        // 20 samples: the median leaves exactly 10 beyond.
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(5), None);
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(95.0));
    }
}
