//! Simulated-time instants and clock-frequency conversions.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, measured in cycles of the component
/// that owns the clock domain (the GPU clock in the full-system model).
///
/// `Cycle` is an *instant*; durations are plain `u64` cycle counts. This
/// mirrors `std::time::Instant`/`Duration` and statically prevents the
/// classic bug of adding two absolute timestamps.
///
/// # Example
///
/// ```
/// use bc_sim::Cycle;
///
/// let start = Cycle::new(100);
/// let done = start + 25;
/// assert_eq!(done.as_u64(), 125);
/// assert_eq!(done - start, 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero instant, i.e. simulation start.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates an instant at `cycles` cycles after simulation start.
    #[inline]
    #[must_use]
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Returns the raw cycle count since simulation start.
    #[inline]
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the later of two instants.
    #[inline]
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Cycles elapsed from `earlier` to `self`, or zero if `earlier` is in
    /// the future (saturating, like `Instant::saturating_duration_since`).
    #[inline]
    #[must_use]
    // bc-lint: allow(saturating-counter) — saturation is this API's
    // documented contract, mirroring Instant::saturating_duration_since.
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Cycles elapsed between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle difference");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

/// A clock frequency, used to convert between wall-clock-style rates (e.g.
/// "permission downgrades per second") and the cycle domain of the
/// simulation.
///
/// # Example
///
/// ```
/// use bc_sim::Frequency;
///
/// let gpu = Frequency::from_mhz(700);
/// // 100 downgrades/second at 700 MHz is one downgrade every 7M cycles.
/// assert_eq!(gpu.cycles_per_event(100), 7_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hertz: u64,
}

impl Frequency {
    /// Creates a frequency from a raw hertz value.
    ///
    /// # Panics
    ///
    /// Panics if `hertz` is zero.
    #[must_use]
    pub fn from_hz(hertz: u64) -> Self {
        assert!(hertz > 0, "frequency must be non-zero");
        Frequency { hertz }
    }

    /// Creates a frequency from megahertz.
    #[must_use]
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: u64) -> Self {
        Self::from_hz(ghz * 1_000_000_000)
    }

    /// Raw frequency in hertz.
    #[must_use]
    pub fn as_hz(self) -> u64 {
        self.hertz
    }

    /// Number of clock cycles in one second at this frequency.
    #[must_use]
    pub fn cycles_per_second(self) -> u64 {
        self.hertz
    }

    /// Cycle spacing of an event that occurs `events_per_second` times per
    /// second of simulated wall-clock time.
    ///
    /// Returns `u64::MAX` when `events_per_second` is zero (the event never
    /// occurs), which composes conveniently with event scheduling.
    #[must_use]
    pub fn cycles_per_event(self, events_per_second: u64) -> u64 {
        self.hertz
            .checked_div(events_per_second)
            .unwrap_or(u64::MAX)
    }

    /// Converts a byte-per-second bandwidth into bytes per cycle at this
    /// frequency, rounding down but never returning zero.
    #[must_use]
    pub fn bytes_per_cycle(self, bytes_per_second: u64) -> u64 {
        (bytes_per_second / self.hertz).max(1)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hertz.is_multiple_of(1_000_000_000) {
            write!(f, "{} GHz", self.hertz / 1_000_000_000)
        } else if self.hertz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hertz / 1_000_000)
        } else {
            write!(f, "{} Hz", self.hertz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle::new(7);
        assert_eq!((c + 3).as_u64(), 10);
        assert_eq!((c + 3) - c, 3);
        let mut m = c;
        m += 5;
        assert_eq!(m.as_u64(), 12);
    }

    #[test]
    fn cycle_ordering_and_extremes() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::new(5).max(Cycle::new(9)), Cycle::new(9));
        assert_eq!(Cycle::new(5).min(Cycle::new(9)), Cycle::new(5));
        assert_eq!(Cycle::ZERO.as_u64(), 0);
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Cycle::new(3).saturating_since(Cycle::new(10)), 0);
        assert_eq!(Cycle::new(10).saturating_since(Cycle::new(3)), 7);
    }

    // The check is a `debug_assert!`: release builds promise no panic.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative cycle difference")]
    fn negative_difference_panics_in_debug() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }

    #[test]
    fn frequency_display_and_conversion() {
        assert_eq!(Frequency::from_mhz(700).to_string(), "700 MHz");
        assert_eq!(Frequency::from_ghz(3).to_string(), "3 GHz");
        assert_eq!(Frequency::from_hz(12345).to_string(), "12345 Hz");
        assert_eq!(Frequency::from_mhz(700).cycles_per_event(0), u64::MAX);
        assert_eq!(Frequency::from_mhz(1).cycles_per_event(4), 250_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    fn bytes_per_cycle_never_zero() {
        let f = Frequency::from_ghz(3);
        assert_eq!(f.bytes_per_cycle(1), 1);
        assert_eq!(f.bytes_per_cycle(6_000_000_000), 2);
    }
}
