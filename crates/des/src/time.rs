//! Virtual simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, stored as integer nanoseconds.
///
/// Integer storage keeps the event calendar totally ordered and the
/// simulation deterministic; conversion helpers move in and out of `f64`
/// seconds at the model boundary.
///
/// # Examples
///
/// ```
/// use hhsim_des::SimTime;
///
/// let t = SimTime::from_secs_f64(1.5) + SimTime::from_millis(500);
/// assert_eq!(t.as_secs_f64(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant, origin of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, saturating at the
    /// representable range and treating NaN or negative input as zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`ns` is positive and below u64::MAX where it is cast; rounding to whole nanoseconds is the conversion"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns.round() as u64)
        }
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; never underflows.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// True if this is the zero instant.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`SimTime::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert!(SimTime::ZERO.is_zero());
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        let t = SimTime::from_secs_f64(0.123_456_789);
        assert!((t.as_secs_f64() - 0.123_456_789).abs() < 1e-9);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(3));
        assert_eq!(a - b, SimTime::from_secs(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 4, SimTime::from_secs(8));
        assert_eq!(a * 1.5, SimTime::from_secs(3));
        assert_eq!(a / 2, SimTime::from_secs(1));
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total, SimTime::from_secs(4));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering_matches_nanos() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::MAX > SimTime::from_secs(u32::MAX as u64));
    }
}
