//! Virtual time measured in CPU cycles.
//!
//! All simulated time in this project is expressed in cycles of the
//! simulated processor. The paper's hardware was Pentium II class, so the
//! default frequency used by the machine model is 400 MHz; converting to
//! seconds only matters when rendering human-readable reports.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) virtual time, measured in CPU cycles.
///
/// `Cycles` is deliberately a thin wrapper over `u64`: it exists to stop
/// cycle counts from being mixed up with other integers (task counts, list
/// indices, ...), not to provide arithmetic safety beyond overflow checks
/// in debug builds.
///
/// # Examples
///
/// ```
/// use elsc_simcore::Cycles;
///
/// let t = Cycles(4_000_000);
/// assert_eq!(t.as_secs(400_000_000), 0.01); // one 10 ms tick at 400 MHz
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero instant, the start of every simulation.
    pub const ZERO: Cycles = Cycles(0);

    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel (e.g. the resume time of an idle CPU).
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts this span to seconds at the given clock frequency.
    #[inline]
    pub fn as_secs(self, hz: u64) -> f64 {
        self.0 as f64 / hz as f64
    }

    /// Saturating subtraction: returns `self - other`, or zero if `other`
    /// is later than `self`.
    #[inline]
    pub fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;

    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycles {
    type Output = Cycles;

    #[inline]
    fn add(self, rhs: u64) -> Cycles {
        Cycles(self.0 + rhs)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;

    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Cycles {
    #[inline]
    fn from(v: u64) -> Cycles {
        Cycles(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Cycles::default(), Cycles::ZERO);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles(140));
        c -= b;
        assert_eq!(c, a);
        c += 5u64;
        assert_eq!(c, Cycles(105));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(Cycles(5).saturating_sub(Cycles(10)), Cycles::ZERO);
        assert_eq!(Cycles(10).saturating_sub(Cycles(5)), Cycles(5));
    }

    #[test]
    fn seconds_conversion() {
        let hz = 400_000_000;
        assert_eq!(Cycles(hz).as_secs(hz), 1.0);
    }

    #[test]
    fn min_max() {
        let a = Cycles(3);
        let b = Cycles(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(b), b);
    }

    #[test]
    fn ordering_matches_raw_value() {
        assert!(Cycles(1) < Cycles(2));
        assert!(Cycles::MAX > Cycles(u64::MAX - 1));
    }

    #[test]
    fn sum_of_spans() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Cycles(42)), "42");
        assert_eq!(format!("{:?}", Cycles(42)), "42cyc");
    }
}
