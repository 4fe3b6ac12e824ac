//! Virtual time types for the discrete-event engine.
//!
//! All simulated time is kept in integer nanoseconds. Two newtypes keep
//! instants and durations statically distinct ([`SimTime`] and
//! [`SimDuration`]); mixing them up is a compile error rather than a subtle
//! latency-accounting bug.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. It only
/// advances; the engine never schedules events in the past.
///
/// # Examples
///
/// ```
/// use reflex_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(5);
/// assert_eq!(t.as_nanos(), 5_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_nanos(5_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use reflex_sim::SimDuration;
///
/// let d = SimDuration::from_micros(2) + SimDuration::from_nanos(500);
/// assert_eq!(d.as_nanos(), 2_500);
/// assert_eq!(d.as_micros_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// `x.round() as u64`, bit for bit over all of `f64`, without the libm
/// call `f64::round` is on x86-64 targets that lack SSE4.1.
///
/// Below 2^62 the truncation through `i64` is exact, and so is the
/// fraction it leaves (the low bits of `x`), so comparing that fraction
/// with one half rounds ties away from zero exactly as `round` does —
/// unlike `(x + 0.5).floor()`, which rounds 0.49999999999999994 up.
/// Everything else (huge, infinite, NaN) takes the libm path.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const EXACT_BELOW: f64 = (1u64 << 62) as f64;
    if x.abs() < EXACT_BELOW {
        let whole = x as i64;
        let frac = x - whole as f64;
        let rounded = whole + i64::from(frac >= 0.5) - i64::from(frac <= -0.5);
        rounded.max(0) as u64
    } else {
        x.round() as u64
    }
}

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The earlier of two optional instants, `None` being never.
    #[inline]
    pub fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_micros_f64(micros: f64) -> Self {
        if micros <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(micros * 1_000.0))
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds, as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative float, rounding to nanoseconds.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
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
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(7).as_nanos(), 7_000_000);
        assert_eq!(SimDuration::from_secs(7).as_nanos(), 7_000_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t0 = SimTime::from_micros(10);
        let t1 = t0 + SimDuration::from_micros(5);
        assert_eq!(t1 - t0, SimDuration::from_micros(5));
        assert_eq!(t1 - SimDuration::from_micros(15), SimTime::ZERO);

        let mut t = SimTime::ZERO;
        t += SimDuration::from_nanos(42);
        assert_eq!(t.as_nanos(), 42);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_micros(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_float_conversions() {
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_micros_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_nanos(), 250_000_000);
        let d = SimDuration::from_micros(3);
        assert!((d.as_micros_f64() - 3.0).abs() < 1e-12);
        assert_eq!(d.mul_f64(0.5).as_nanos(), 1_500);
    }

    /// What the helper must equal, everywhere.
    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn inline_rounding_matches_libm_on_boundary_cases() {
        let two52 = (1u64 << 52) as f64;
        let two62 = (1u64 << 62) as f64;
        let two63 = (1u64 << 63) as f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.49999999999999994, // the largest f64 below one half
            0.5,
            0.5000000000000001,
            1.5,
            2.5,
            -0.49999999999999994,
            -0.5,
            -1.5,
            -7.0,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two62 - 512.0,
            two62,
            two63 - 1024.0,
            two63,
            two63 * 2.0,
            two63 * 4.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Ties k + 0.5 across the range where they are representable.
        for k in [
            0u64,
            1,
            2,
            3,
            10,
            999,
            1_000_000,
            (1 << 51) - 1,
            (1 << 52) - 1,
        ] {
            cases.push(k as f64 + 0.5);
            cases.push(-(k as f64) - 0.5);
        }
        for x in cases {
            assert_eq!(
                round_to_u64(x),
                libm_round(x),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Any bit pattern at all: NaNs, infinities, subnormals, negatives.
        #[test]
        fn inline_rounding_matches_libm_on_any_bits(bits in proptest::strategy::any::<u64>()) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_to_u64(x), libm_round(x), "bits {:#x}", bits);
        }

        /// The range durations live in, dense around halves: an integer
        /// part below 2^53 plus a fraction within a few ulps of a tie.
        #[test]
        fn inline_rounding_matches_libm_near_ties(
            whole in 0u64..(1 << 53),
            shift in 0u32..53,
            ulps in -4i64..5,
        ) {
            let base = (whole >> shift) as f64 + 0.5;
            let x = f64::from_bits((base.to_bits() as i64 + ulps) as u64);
            proptest::prop_assert_eq!(round_to_u64(x), libm_round(x), "x = {:e}", x);
            proptest::prop_assert_eq!(round_to_u64(-x), libm_round(-x), "x = {:e}", -x);
        }

        /// What the constructors compute, through the public surface.
        #[test]
        fn float_constructors_round_like_libm(micros in 0u64..4_000_000_000, nanos_frac in 0u32..1_000_000) {
            let us = micros as f64 + f64::from(nanos_frac) / 1e6;
            proptest::prop_assert_eq!(
                SimDuration::from_micros_f64(us).as_nanos(),
                libm_round(us * 1_000.0)
            );
            let factor = f64::from(nanos_frac) / 1e5;
            proptest::prop_assert_eq!(
                SimDuration::from_nanos(micros).mul_f64(factor).as_nanos(),
                libm_round(micros as f64 * factor)
            );
        }
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_micros(4);
        assert_eq!(d * 3, SimDuration::from_micros(12));
        assert_eq!(d / 2, SimDuration::from_micros(2));
        let total: SimDuration = (0..4).map(|_| d).sum();
        assert_eq!(total, SimDuration::from_micros(16));
    }

    #[test]
    fn display_units_scale() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_micros(1).to_string(), "t+1.000us");
    }

    #[test]
    fn min_max_pick_correct_ends() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_nanos(5);
        let db = SimDuration::from_nanos(9);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
        assert_eq!(db.saturating_sub(da).as_nanos(), 4);
        assert_eq!(da.saturating_sub(db), SimDuration::ZERO);
    }
}
