//! Simulated time.
//!
//! All simulated timing in the reproduction is expressed in integer
//! nanoseconds. One nanosecond is fine enough for every effect the paper
//! measures (the fastest clock in the system is the 300 MHz memory stack,
//! i.e. 3.33 ns per cycle; wire time for one 64-byte beat at 100 Gbps is
//! 5.12 ns) while keeping arithmetic exact and the event order
//! deterministic — two floating-point timestamps that differ in the 17th
//! digit must never reorder events between runs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in microseconds (the unit of every response
    /// time plot in the paper).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; a negative elapsed time is
    /// always a simulation bug and must not be silently clamped.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: negative elapsed time is a bug"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from a (possibly fractional) number of microseconds.
    ///
    /// Used by the calibration module, where constants are quoted in µs.
    /// Rounds to the nearest nanosecond.
    #[expect(
        clippy::disallowed_macros,
        reason = "calibrated inputs are finite and non-negative"
    )]
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(us >= 0.0 && us.is_finite(), "invalid duration: {us} us");
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Time to move `bytes` through a resource with throughput
    /// `bytes_per_sec`, rounded up to the next nanosecond (a transfer is
    /// not complete until its last bit has passed).
    #[expect(
        clippy::disallowed_macros,
        reason = "calibrated rates are positive and finite"
    )]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "invalid bandwidth: {bytes_per_sec} B/s"
        );
        let ns = (bytes as f64) * 1e9 / bytes_per_sec;
        SimDuration(ns.ceil() as u64)
    }

    /// `cycles` periods of a clock running at `hz`.
    #[expect(
        clippy::disallowed_macros,
        reason = "calibrated clocks are positive and finite"
    )]
    pub fn for_cycles(cycles: u64, hz: f64) -> Self {
        assert!(hz > 0.0 && hz.is_finite(), "invalid frequency: {hz} Hz");
        let ns = (cycles as f64) * 1e9 / hz;
        SimDuration(ns.ceil() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(clippy::expect_used, reason = "2^64 ns is 584 years of simulated time")]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(clippy::expect_used, reason = "2^64 ns is 584 years of simulated time")]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::disallowed_macros,
        reason = "a negative duration is a bug; `saturating_sub` is the clamping form"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(rhs.0 <= self.0, "SimDuration underflow: {self} - {rhs}");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(clippy::expect_used, reason = "2^64 ns is 584 years of simulated time")]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 1 GB/s is exactly 1 ns.
        assert_eq!(SimDuration::for_bytes(1, 1e9).as_nanos(), 1);
        // 1 byte at 3 GB/s is 0.33 ns and must round *up*.
        assert_eq!(SimDuration::for_bytes(1, 3e9).as_nanos(), 1);
        // 1 KiB at 12.5 GB/s (100 Gbps) is 81.92 ns -> 82 ns.
        assert_eq!(SimDuration::for_bytes(1024, 12.5e9).as_nanos(), 82);
    }

    #[test]
    fn for_cycles_matches_clock() {
        // 250 MHz -> 4 ns per cycle.
        assert_eq!(SimDuration::for_cycles(1, 250e6).as_nanos(), 4);
        assert_eq!(SimDuration::for_cycles(1000, 250e6).as_nanos(), 4_000);
        // 300 MHz -> 3.33.. ns, rounded up per call.
        assert_eq!(SimDuration::for_cycles(3, 300e6).as_nanos(), 10);
    }

    #[test]
    #[should_panic(expected = "SimTime::since")]
    fn since_panics_on_negative_elapsed() {
        let _ = SimTime::from_nanos(1).since(SimTime::from_nanos(2));
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
    }

    #[test]
    fn sum_and_scalar_ops() {
        let parts = [
            SimDuration::from_nanos(10),
            SimDuration::from_nanos(20),
            SimDuration::from_nanos(30),
        ];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total.as_nanos(), 60);
        assert_eq!((total * 2).as_nanos(), 120);
        assert_eq!((total / 3).as_nanos(), 20);
        assert_eq!(
            total.saturating_sub(SimDuration::from_nanos(100)),
            SimDuration::ZERO
        );
    }
}
