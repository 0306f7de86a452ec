//! Virtual time for the discrete-event simulation.
//!
//! Time is an integer count of microseconds since simulation start. Integer
//! time keeps the event order total and reproducible across platforms: two
//! events scheduled from identical inputs compare identically everywhere,
//! which `f64` timestamps cannot guarantee once arithmetic reorders.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds per second, the base resolution of the simulation clock.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock (microseconds since simulation start).
///
/// Stored as micros + 1 in a `NonZeroU64`, so `Option<SimTime>` is 8 bytes:
/// a task record carries five optional milestones. The order is the order
/// of the microsecond values; the last representable instant is
/// [`SimTime::MAX`], and arithmetic saturates there.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(NonZeroU64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(NonZeroU64::MIN);
    /// The greatest representable instant, `u64::MAX - 1` µs; used as an
    /// "infinite" horizon.
    pub const MAX: SimTime = SimTime(NonZeroU64::MAX);

    /// Construct from whole microseconds; `u64::MAX` saturates to
    /// [`SimTime::MAX`].
    pub const fn from_micros(us: u64) -> Self {
        SimTime(NonZeroU64::MIN.saturating_add(us))
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime::from_micros(s * MICROS_PER_SEC)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0.get() - 1
    }

    /// Seconds since simulation start, as a float (for metrics/reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.as_micros() as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.get().saturating_sub(earlier.0.get()))
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Hash for SimTime {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_micros().hash(state);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SimTime").field(&self.as_micros()).finish()
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    ///
    /// Negative and non-finite inputs clamp to zero: latency samples are
    /// durations by construction, and a model that drifts negative should
    /// stall at zero cost rather than corrupt the clock.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_micros(s * MICROS_PER_SEC as f64))
    }

    /// Microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this span, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whether this span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

/// `x.round() as u64` for a positive `x`, in integer arithmetic: every
/// cost draw ends here, and `f64::round` is a libm call on baseline
/// x86-64. Below 2^52 the fractional part `x - trunc(x)` is exact, so
/// comparing it with one half rounds ties away from zero as `round` does;
/// from 2^52 up every `f64` is whole, and `as` saturates past `u64::MAX`.
fn round_micros(x: f64) -> u64 {
    const EXACT_FRACTION_BELOW: f64 = (1u64 << 52) as f64;
    if x < EXACT_FRACTION_BELOW {
        // Signed conversions are single instructions on x86-64; unsigned
        // ones are not.
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is a legal condition.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction went negative");
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert!((SimTime::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_micros(7);
        assert_eq!(u.as_micros(), 7);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    /// The reference the integer rounding must equal bit for bit.
    fn libm_micros(s: f64) -> u64 {
        if !s.is_finite() || s <= 0.0 {
            0
        } else {
            (s * MICROS_PER_SEC as f64).round() as u64
        }
    }

    #[test]
    fn rounding_matches_libm_on_edges() {
        let p52 = (1u64 << 52) as f64;
        let p64 = 2f64.powi(64);
        let mut micros = vec![
            0.5,
            1.5,
            2.5,
            1_000_000.5,
            0.49999999999999994,
            1.4999999999999998,
            p52 - 0.5,
            p52 - 1.5,
            p52,
            p52 + 1.0,
            2f64.powi(53),
            p64 - 2048.0,
            p64,
            p64 * 2.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
        ];
        // Every exact tie k + 0.5 over the range a tie can occur in.
        for e in 0..52 {
            let k = (1u64 << e) as f64;
            micros.extend([k - 0.5, k + 0.5, k + 1.5]);
        }
        for &x in &micros {
            assert_eq!(round_micros(x), x.round() as u64, "{x:e} µs");
        }
        let secs = [
            0.0,
            -0.0,
            -1e-9,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            f64::MIN_POSITIVE,
            0.0000005,
            0.0000015,
            p52 / 1e6,
            p64 / 1e6,
            1e300,
            f64::MAX,
        ];
        for &s in micros
            .iter()
            .map(|x| x / 1e6)
            .collect::<Vec<_>>()
            .iter()
            .chain(&secs)
        {
            let got = SimDuration::from_secs_f64(s).as_micros();
            assert_eq!(got, libm_micros(s), "{s:e} s");
        }
        assert_eq!(SimDuration::from_secs_f64(f64::MAX).as_micros(), u64::MAX);
        assert_eq!(SimDuration::from_secs_f64(-0.0), SimDuration::ZERO);
    }

    /// A seeded sweep of a million positive values: half log-uniform over
    /// every binade from the subnormals to 2^77 µs, half over 2^-30 to
    /// 2^70 µs (where draws land), a third of all snapped to exact
    /// half-microsecond ties.
    #[test]
    fn rounding_matches_libm_on_a_seeded_sweep() {
        let mut rng = crate::RngStream::derive(52, "round-sweep");
        for i in 0..1_000_000u32 {
            let bits = rng.next_u64();
            // Biased exponent 1023 is 2^0.
            let exp = if i % 2 == 0 {
                (bits >> 52) % 1101
            } else {
                993 + (bits >> 52) % 101
            };
            let x = f64::from_bits(exp << 52 | (bits & ((1 << 52) - 1)));
            let x = if i % 3 == 0 && x < 1e15 {
                x.floor() + 0.5
            } else {
                x
            };
            assert_eq!(round_micros(x), x.round() as u64, "{x:e} µs");
            let s = x / 1e6;
            assert_eq!(
                SimDuration::from_secs_f64(s).as_micros(),
                libm_micros(s),
                "{s:e} s"
            );
        }
    }

    #[test]
    fn saturating_since_is_zero_for_future() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn max_is_one_micro_below_u64_max() {
        assert_eq!(SimTime::MAX.as_micros(), u64::MAX - 1);
        assert_eq!(SimTime::from_micros(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_micros(u64::MAX - 1), SimTime::MAX);
        assert_eq!(SimTime::MAX + SimDuration::from_micros(1), SimTime::MAX);
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
        assert_eq!(format!("{:?}", SimTime::from_micros(7)), "SimTime(7)");
    }

    /// `SimTime` against a plain `u64` of microseconds clamped to
    /// `u64::MAX - 1`: order, equality, arithmetic and hashes agree on
    /// seeded values clustered at the epoch, at `MAX` and at `u64::MAX`.
    #[test]
    fn matches_a_plain_u64_model() {
        use std::collections::hash_map::DefaultHasher;
        fn hash<T: Hash>(x: T) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let top = u64::MAX - 1;
        let mut pick = move || {
            let r = next();
            match r % 4 {
                0 => (r >> 2) % 1_000,
                1 => top - (r >> 2) % 1_000,
                2 => u64::MAX - (r >> 2) % 3,
                _ => r,
            }
        };
        for _ in 0..20_000 {
            let (a, b, d) = (pick(), pick(), pick());
            let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
            let (ma, mb) = (a.min(top), b.min(top));
            assert_eq!(ta.as_micros(), ma);
            assert_eq!(ta.cmp(&tb), ma.cmp(&mb), "{a} vs {b}");
            assert_eq!(ta == tb, ma == mb);
            assert_eq!(hash(ta), hash(ma));
            let sum = ta + SimDuration::from_micros(d);
            assert_eq!(sum.as_micros(), ma.saturating_add(d).min(top), "{a} + {d}");
            let mut acc = ta;
            acc += SimDuration::from_micros(d);
            assert_eq!(acc, sum);
            assert_eq!(ta.saturating_since(tb).as_micros(), ma.saturating_sub(mb));
            if ma >= mb {
                assert_eq!((ta - tb).as_micros(), ma - mb);
            }
        }
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(0.5),
            SimDuration::from_secs(1)
        );
        assert_eq!(SimDuration::from_secs(2).mul_f64(-1.0), SimDuration::ZERO);
    }
}
