//! Percentile latency recording.
//!
//! The §8 question — whether ELSC helps *latency*, not just throughput —
//! needs tail percentiles. [`Percentiles`] summarizes a simcore
//! [`Histogram`] as a fixed p50/p90/p99/p999 record that exports to JSON
//! for CI artifacts.

use crate::json::Obj;
use elsc_simcore::Histogram;

/// A latency distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
}

impl Percentiles {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> Percentiles {
        Percentiles {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            max: h.max(),
        }
    }

    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("count", self.count)
            .f64("mean", self.mean)
            .u64("p50", self.p50)
            .u64("p90", self.p90)
            .u64("p99", self.p99)
            .u64("p999", self.p999)
            .u64("max", self.max)
            .build()
    }
}

impl core::fmt::Display for Percentiles {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={:.0} p50={} p90={} p99={} p999={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p = Percentiles::of(&h);
        assert_eq!(p.count, 10_000);
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999);
        assert!(p.p999 <= p.max);
        assert_eq!(p.max, 10_000);
    }

    #[test]
    fn empty_recorder_is_all_zero() {
        let p = Percentiles::of(&Histogram::new());
        assert_eq!(p.count, 0);
        assert_eq!(p.p999, 0);
        assert_eq!(p.max, 0);
    }

    #[test]
    fn json_has_all_fields() {
        let mut h = Histogram::new();
        h.record(5);
        let j = Percentiles::of(&h).to_json();
        for key in ["count", "mean", "p50", "p90", "p99", "p999", "max"] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
    }

    #[test]
    fn display_is_one_line() {
        let mut h = Histogram::new();
        h.record(42);
        let s = Percentiles::of(&h).to_string();
        assert!(s.contains("p999="));
        assert!(!s.contains('\n'));
    }
}
