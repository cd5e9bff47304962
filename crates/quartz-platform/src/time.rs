//! Virtual time.
//!
//! All simulated time is kept in integer **picoseconds** so that cycle
//! durations at GHz frequencies (fractions of a nanosecond) accumulate
//! without floating-point drift, keeping every experiment bit-reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// An instant on the simulated timeline, in picoseconds since simulation
/// start.
///
/// ```
/// use quartz_platform::time::{Duration, SimTime};
/// let t = SimTime::ZERO + Duration::from_ns(5);
/// assert_eq!(t.as_ns_f64(), 5.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// ```
/// use quartz_platform::time::Duration;
/// let d = Duration::from_ns(3) + Duration::from_ps(500);
/// assert_eq!(d.as_ps(), 3_500);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates an instant from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000 * PS_PER_NS)
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000 * PS_PER_NS)
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds since simulation start, as a float (lossy for display
    /// and model math only).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        debug_assert!(earlier.0 <= self.0, "duration_since: earlier > self");
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a span from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * PS_PER_NS)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000 * PS_PER_NS)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000 * PS_PER_NS)
    }

    /// Creates a span from fractional nanoseconds, rounding to the nearest
    /// picosecond (halves away from zero). Negative inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return Duration::ZERO;
        }
        Duration(round_to_u64(ns * PS_PER_NS as f64))
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds as a float (lossy; for display and model math).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer count.
    pub fn saturating_mul(self, n: u64) -> Duration {
        Duration(self.0.saturating_mul(n))
    }

    /// The larger of two spans.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

/// The largest double below one half.
const JUST_BELOW_HALF: f64 = 0.499_999_999_999_999_94;

/// Exactly `x.round() as u64`, without the libm call that `f64::round`
/// compiles to on baseline x86-64 (no SSE4.1). This is LLVM's own
/// lowering of `round`: the addition rounds to nearest-even, so a half
/// carries up to the next integer while anything below a half does not,
/// and from 2^52 on, where every double is an integer, the addend
/// vanishes. Negative, NaN and too-large inputs saturate like the cast.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    (x + JUST_BELOW_HALF) as u64
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

/// A processor core frequency in megahertz, used for cycle/time conversion.
///
/// ```
/// use quartz_platform::time::Frequency;
/// let f = Frequency::from_mhz(2_000);
/// // 2 GHz: one cycle is 0.5 ns.
/// assert_eq!(f.cycles_to_duration(4).as_ps(), 2_000);
/// assert_eq!(f.duration_to_cycles(quartz_platform::time::Duration::from_ns(1)), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    mhz: u64,
}

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be non-zero");
        Frequency { mhz }
    }

    /// The frequency in megahertz.
    pub const fn mhz(self) -> u64 {
        self.mhz
    }

    /// The frequency in gigahertz, as a float.
    pub fn ghz_f64(self) -> f64 {
        self.mhz as f64 / 1_000.0
    }

    /// Converts a cycle count to a time span at this frequency.
    pub fn cycles_to_duration(self, cycles: u64) -> Duration {
        // ps = cycles * 1e6 / mhz  (1 cycle at 1 MHz = 1 us = 1e6 ps)
        Duration::from_ps(cycles.saturating_mul(1_000_000) / self.mhz)
    }

    /// Converts a time span to whole cycles at this frequency (rounded
    /// down).
    pub fn duration_to_cycles(self, d: Duration) -> u64 {
        d.as_ps().saturating_mul(self.mhz) / 1_000_000
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GHz", self.ghz_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_ns(100);
        let t2 = t + Duration::from_ns(50);
        assert_eq!(t2.duration_since(t), Duration::from_ns(50));
        assert_eq!(t2 - Duration::from_ns(150), SimTime::ZERO);
    }

    #[test]
    fn duration_from_ns_f64_rounds() {
        assert_eq!(Duration::from_ns_f64(1.4996).as_ps(), 1_500);
        assert_eq!(Duration::from_ns_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_ns_f64(0.0), Duration::ZERO);
    }

    /// Edge inputs of the rounding identity: halves and their
    /// neighbouring doubles, the boundaries of the integer-only range,
    /// saturation, NaN, infinities, negatives and subnormals.
    #[test]
    fn round_to_u64_matches_round_on_edge_inputs() {
        assert_eq!(JUST_BELOW_HALF.to_bits(), 0.5f64.to_bits() - 1);
        let two52 = 4_503_599_627_370_496.0f64;
        let mut inputs = vec![
            0.0,
            -0.0,
            JUST_BELOW_HALF,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52,
            2.0 * two52 + 2.0,
            18_446_744_073_709_549_568.0, // largest double below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            1e30,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            -f64::from_bits(1),
            -0.4,
            -0.5,
            -0.6,
            -2.5,
            -1e300,
        ];
        for n in [0u64, 1, 2, 3, 7, 1_000, 999_999, 1 << 40, (1 << 51) + 1] {
            let half = n as f64 + 0.5;
            inputs.extend([
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
                n as f64,
                n as f64 - 0.5,
            ]);
        }
        for x in inputs {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    proptest::proptest! {
        /// Each case checks a block of 4 096 bit patterns drawn from
        /// its seed, so the run covers every exponent many times over.
        #[test]
        fn round_to_u64_matches_round_on_random_bits(seed in 0u64..u64::MAX) {
            let mut rng = crate::seed::Rng::new(seed);
            for _ in 0..4_096 {
                let x = f64::from_bits(rng.next_u64());
                proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
                // The constructor keeps its definition through `round`.
                let reference = if x <= 0.0 { 0 } else { (x * 1e3).round() as u64 };
                proptest::prop_assert_eq!(Duration::from_ns_f64(x).as_ps(), reference, "x = {:e}", x);
            }
        }

        #[test]
        fn round_to_u64_matches_round_on_nanosecond_values(ns in 0.0f64..1e7) {
            let x = ns * 1e3;
            proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {}", x);
        }
    }

    #[test]
    fn duration_saturating_ops() {
        let a = Duration::from_ns(1);
        let b = Duration::from_ns(2);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a), Duration::from_ns(1));
        assert_eq!(a - b, Duration::ZERO);
    }

    #[test]
    fn frequency_cycle_conversions() {
        let f = Frequency::from_mhz(2_200); // Ivy Bridge
        let d = f.cycles_to_duration(2_200_000);
        assert_eq!(d, Duration::from_ms(1));
        assert_eq!(f.duration_to_cycles(d), 2_200_000);
    }

    #[test]
    fn frequency_conversion_is_consistent_under_division() {
        let f = Frequency::from_mhz(2_100);
        for cycles in [1u64, 3, 7, 1000, 123_456] {
            let d = f.cycles_to_duration(cycles);
            let back = f.duration_to_cycles(d);
            // Rounding may lose at most one cycle.
            assert!(back <= cycles && cycles - back <= 1, "{cycles} -> {back}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Frequency::from_mhz(0);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_ns).sum();
        assert_eq!(total, Duration::from_ns(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_ns(2)), "2.000 ns");
        assert_eq!(format!("{}", SimTime::from_ns(1)), "1.000 ns");
        assert_eq!(format!("{}", Frequency::from_mhz(2_300)), "2.3 GHz");
    }
}
