//! Simulated time: nanosecond-resolution instants and durations.
//!
//! All simulation components agree on a single monotonically increasing
//! clock. Time is represented as whole nanoseconds in a `u64`, which covers
//! ~584 years of simulated time — far more than the 700-day window the
//! characterization study spans.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns this instant as nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant as (fractional) seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is after `self`, which keeps
    /// measurement code robust against components that record completion
    /// before enqueue due to zero-cost stages.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Truncates this instant down to a multiple of `window`.
    ///
    /// Used by the monitoring database to align samples on 30-minute
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn align_down(self, window: SimDuration) -> SimTime {
        assert!(window.0 > 0, "alignment window must be non-zero");
        SimTime(self.0 - self.0 % window.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative and NaN inputs clamp to zero (so sampled service times can
    /// never run the clock backwards); `+inf` clamps to the maximum
    /// representable duration.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_nanos(s * 1e9))
    }

    /// Creates a duration from fractional microseconds, clamping like
    /// [`SimDuration::from_secs_f64`].
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Returns the duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiplies the duration by a non-negative factor, rounding to
    /// nanoseconds and clamping at the representable range.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

/// `x.round().min(u64::MAX as f64) as u64` for `x > 0` (NaN excluded),
/// without the `round` call.
///
/// Below 2^52 the fraction `x - trunc(x)` is exact, so comparing it with
/// 0.5 rounds half away from zero exactly as `f64::round` does. From 2^52
/// up every f64 is already an integer, and the saturating cast clamps
/// 2^64 and above (infinity included) to `u64::MAX`.
#[inline]
fn round_nanos(x: f64) -> u64 {
    const EXACT_FRACTION_BELOW: f64 = (1u64 << 52) as f64;
    if x < EXACT_FRACTION_BELOW {
        let n = x as i64;
        (n + i64::from(x - n as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
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

    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_mins(2).as_nanos(), 120_000_000_000);
        assert_eq!(SimDuration::from_hours(1).as_nanos(), 3_600_000_000_000);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(30);
        assert_eq!(b.since(a).as_nanos(), 20);
        assert_eq!(a.since(b).as_nanos(), 0);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
        assert!(SimDuration::from_secs_f64(f64::INFINITY).as_nanos() > 0);
    }

    /// The rounding `round_nanos` replaces.
    fn reference_round(x: f64) -> u64 {
        x.round().min(u64::MAX as f64) as u64
    }

    /// Positive, non-NaN f64s from random bit patterns, spread over every
    /// exponent.
    fn random_positive(n: usize, seed: u64) -> impl Iterator<Item = f64> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        std::iter::repeat_with(move || f64::from_bits(rng.next_u64() >> 1))
            .filter(|x| !x.is_nan() && *x > 0.0)
            .take(n)
    }

    #[test]
    fn round_nanos_matches_f64_round() {
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5,
            two(52) - 1.0,
            two(52),
            two(52) + 1.0,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64),
            f64::MAX,
            f64::INFINITY,
        ];
        let ties = (0..100_000u64).map(|k| k as f64 + 0.5);
        let near_ties = (0..100_000u64).flat_map(|k| {
            let tie = k as f64 + 0.5;
            [tie.next_down(), tie.next_up()]
        });
        for x in edges
            .into_iter()
            .chain(ties)
            .chain(near_ties)
            .chain(random_positive(200_000, 1))
        {
            assert_eq!(round_nanos(x), reference_round(x), "x = {x:e}");
        }
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
    }

    /// Long budget, run by CI's exactness-sweep step: every tie `k + 0.5`
    /// for `k < 2^24` and its neighbours, plus 50M random bit patterns.
    #[test]
    #[ignore]
    fn sweep_round_nanos_matches_f64_round() {
        for k in 0..1u64 << 24 {
            let tie = k as f64 + 0.5;
            for x in [tie.next_down(), tie, tie.next_up()] {
                assert_eq!(round_nanos(x), reference_round(x), "x = {x:e}");
            }
        }
        for x in random_positive(50_000_000, 2) {
            assert_eq!(round_nanos(x), reference_round(x), "x = {x:e}");
        }
    }

    #[test]
    fn align_down_truncates() {
        let t = SimTime::from_nanos(95);
        assert_eq!(t.align_down(SimDuration::from_nanos(30)).as_nanos(), 90);
        assert_eq!(
            SimTime::ZERO.align_down(SimDuration::from_nanos(30)),
            SimTime::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn align_down_zero_window_panics() {
        let _ = SimTime::from_nanos(1).align_down(SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.00us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.00ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn sum_folds_durations() {
        let total: SimDuration = (1..=4u64).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn add_then_since_is_identity() {
        let (mut rng, half) = (Prng::seed_from(0x7135), u64::MAX / 2);
        let mut cases = vec![(0, 0), (0, half - 1), (half - 1, 0), (half - 1, half - 1)];
        cases.resize_with(64, || (rng.next_below(half), rng.next_below(half)));
        for (case, (start, delta)) in cases.into_iter().enumerate() {
            let inputs = format!("case {case}: start {start}, delta {delta}");
            let (t, d) = (SimTime::from_nanos(start), SimDuration::from_nanos(delta));
            assert_eq!((t + d).since(t), d, "{inputs}");
        }
    }

    #[test]
    fn align_down_is_idempotent() {
        let (mut rng, half) = (Prng::seed_from(0x7136), u64::MAX / 2);
        let mut cases = vec![(0, 1), (0, 999_999), (half - 1, 1), (half - 1, 999_999)];
        cases.resize_with(64, || (rng.next_below(half), 1 + rng.next_below(999_999)));
        for (case, (t, w)) in cases.into_iter().enumerate() {
            let inputs = format!("case {case}: t {t}, w {w}");
            let (t, w) = (SimTime::from_nanos(t), SimDuration::from_nanos(w));
            let once = t.align_down(w);
            assert_eq!(once.align_down(w), once, "{inputs}");
            assert!(once <= t, "{inputs}");
        }
    }

    #[test]
    fn secs_f64_roundtrip_within_rounding() {
        let mut rng = Prng::seed_from(0x7137);
        let mut cases = vec![0, 999_999_999_999];
        cases.resize_with(64, || rng.next_below(1_000_000_000_000));
        for (case, ns) in cases.into_iter().enumerate() {
            let back = SimDuration::from_secs_f64(SimDuration::from_nanos(ns).as_secs_f64());
            let diff = back.as_nanos().abs_diff(ns);
            // f64 has 52 mantissa bits; allow proportional rounding slack.
            let inputs = format!("case {case}: ns {ns}, back {back}");
            assert!(diff <= 1 + ns / (1 << 50), "{inputs}");
        }
    }
}
