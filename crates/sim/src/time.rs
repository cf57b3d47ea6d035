//! Simulation clock.
//!
//! All simulation timestamps are integer **microseconds** since the start of
//! the run. Integer time makes event ordering exact and runs reproducible:
//! there is no floating-point drift, and two events scheduled for "the same
//! time" compare equal on every platform.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in microseconds since the run started.
///
/// `SimTime` is also used for durations. Subtraction saturates at zero, so
/// latency jitter can never produce a negative timestamp; addition and the
/// whole-unit constructors saturate at [`SimTime::MAX`], so an absurd
/// delay or horizon means "never", not a wrapped time in the past.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Microseconds in one second.
    pub const USEC_PER_SEC: u64 = 1_000_000;

    /// Build from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(Self::USEC_PER_SEC))
    }

    /// Build from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Build from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Build from fractional seconds, rounding to the nearest microsecond.
    ///
    /// Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * Self::USEC_PER_SEC as f64).round() as u64)
    }

    /// Build from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimTime::from_secs(m.saturating_mul(60))
    }

    /// Build from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimTime::from_secs(h.saturating_mul(3600))
    }

    /// Whole seconds (truncated).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / Self::USEC_PER_SEC
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Self::USEC_PER_SEC as f64
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub const fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, d: SimTime) -> Option<SimTime> {
        match self.0.checked_add(d.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Hour-of-day in `[0, 24)` assuming the run starts at midnight.
    #[inline]
    pub fn hour_of_day(self) -> f64 {
        (self.as_secs_f64() / 3600.0) % 24.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.as_secs();
        let (h, m, s) = (total / 3600, (total / 60) % 60, total % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_secs(3600));
        assert_eq!(SimTime::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_secs(1));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    fn constructors_and_addition_saturate() {
        for huge in [u64::MAX / 1_000 + 1, u64::MAX] {
            assert_eq!(SimTime::from_secs(huge), SimTime::MAX);
            assert_eq!(SimTime::from_millis(huge), SimTime::MAX);
            assert_eq!(SimTime::from_mins(huge), SimTime::MAX);
            assert_eq!(SimTime::from_hours(huge), SimTime::MAX);
        }
        // The hostile horizon of the CLI regression: wrapped to 60.4 s.
        assert_eq!(SimTime::from_secs(18_446_744_073_770), SimTime::MAX);
        assert_eq!(SimTime::from_secs(1) + SimTime::MAX, SimTime::MAX);
        let mut t = SimTime::from_micros(u64::MAX - 1);
        t += SimTime::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn hour_of_day_wraps() {
        assert_eq!(SimTime::from_hours(25).hour_of_day(), 1.0);
        assert!((SimTime::from_secs(3600 * 18 + 1800).hour_of_day() - 18.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_hh_mm_ss() {
        assert_eq!(SimTime::from_secs(3723).to_string(), "01:02:03");
    }

    #[test]
    fn ordering_and_sum() {
        let times = [SimTime::from_secs(2), SimTime::from_secs(1)];
        assert!(times[1] < times[0]);
        let total: SimTime = times.iter().copied().sum();
        assert_eq!(total, SimTime::from_secs(3));
    }
}
