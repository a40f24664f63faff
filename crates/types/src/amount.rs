//! Fixed-point money.
//!
//! All balances, demands, and fees in the workspace are expressed as an
//! [`Amount`]: an unsigned 64-bit count of *micro-units* (one millionth) of
//! the network's native currency unit. For the Ripple-style experiments the
//! native unit is one USD; for the Lightning-style experiments it is one
//! satoshi. A `u64` of micro-units spans up to ~1.8e13 native units, far
//! beyond any balance in the paper's traces, while keeping every arithmetic
//! operation exact — the simulator's conservation invariant (total funds
//! constant up to fees) is checked with `==`, not a float tolerance.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::Div;

/// Number of micro-units per native currency unit.
pub const MICROS_PER_UNIT: u64 = 1_000_000;

/// A non-negative amount of money in micro-units of the native currency.
///
/// Construction helpers:
/// * [`Amount::from_units`] — whole native units (USD / satoshi).
/// * [`Amount::from_micros`] — raw micro-units.
/// * [`Amount::from_units_f64`] — lossy float conversion for workload
///   synthesis (rounds to nearest micro-unit, saturating at the ends).
///
/// There is no `+`, `-` or `*`: every sum, difference and product goes
/// through a `saturating_*` / `checked_*` helper (or [`Amount::scale`]),
/// so a balance update can neither panic mid-settlement in debug nor
/// wrap in release. The build rejects the raw operator:
///
/// ```compile_fail,E0369
/// use pcn_types::Amount;
/// let _ = Amount::UNIT + Amount::UNIT;
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Amount(u64);

impl Amount {
    /// The zero amount.
    pub const ZERO: Amount = Amount(0);
    /// The maximum representable amount.
    pub const MAX: Amount = Amount(u64::MAX);

    /// One native unit (e.g. $1 or 1 satoshi).
    pub const UNIT: Amount = Amount(MICROS_PER_UNIT);

    /// Creates an amount from a raw count of micro-units.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Amount(micros)
    }

    /// Creates an amount from whole native units, saturating on overflow.
    #[inline]
    pub const fn from_units(units: u64) -> Self {
        Amount(units.saturating_mul(MICROS_PER_UNIT))
    }

    /// Creates an amount from a (non-negative, finite) float of native
    /// units, rounding to the nearest micro-unit and saturating at the
    /// representable range. Negative or NaN inputs map to zero.
    pub fn from_units_f64(units: f64) -> Self {
        if units.is_nan() || units <= 0.0 {
            return Amount::ZERO;
        }
        let micros = units * MICROS_PER_UNIT as f64;
        if micros >= u64::MAX as f64 {
            Amount::MAX
        } else {
            Amount(micros.round() as u64)
        }
    }

    /// Raw micro-unit count.
    #[inline]
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Value in native units as a float (for reporting only).
    #[inline]
    pub fn as_units_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_UNIT as f64
    }

    /// Whether this amount is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, rhs: Amount) -> Amount {
        Amount(self.0.min(rhs.0))
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, rhs: Amount) -> Amount {
        Amount(self.0.max(rhs.0))
    }

    /// Multiplies by an integer scale factor, saturating on overflow.
    ///
    /// Used by the capacity-scale-factor sweeps of Figures 6 and 7.
    #[inline]
    pub fn scale(self, factor: u64) -> Amount {
        Amount(self.0.saturating_mul(factor))
    }

    /// Multiplies by `num / den` in 128-bit intermediate precision,
    /// rounding down. Panics if `den == 0`.
    pub fn mul_ratio(self, num: u64, den: u64) -> Amount {
        assert!(den != 0, "mul_ratio denominator must be non-zero");
        let v = self.0 as u128 * num as u128 / den as u128;
        Amount(u64::try_from(v).unwrap_or(u64::MAX))
    }

    /// Proportional part per million: `self * ppm / 1_000_000`, rounding
    /// up so fees are never under-collected.
    pub fn ppm_ceil(self, ppm: u64) -> Amount {
        let v = (self.0 as u128 * ppm as u128).div_ceil(1_000_000);
        Amount(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl Div<u64> for Amount {
    type Output = Amount;
    #[inline]
    fn div(self, rhs: u64) -> Amount {
        Amount(self.0 / rhs)
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, Amount::saturating_add)
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Amount({})", self)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / MICROS_PER_UNIT;
        let frac = self.0 % MICROS_PER_UNIT;
        if frac == 0 {
            write!(f, "{whole}")
        } else {
            let s = format!("{frac:06}");
            write!(f, "{whole}.{}", s.trim_end_matches('0'))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_units_scales_by_a_million() {
        assert_eq!(Amount::from_units(3).micros(), 3_000_000);
        assert_eq!(Amount::from_units(0), Amount::ZERO);
    }

    #[test]
    fn from_units_f64_rounds_to_micro() {
        assert_eq!(Amount::from_units_f64(4.8).micros(), 4_800_000);
        assert_eq!(Amount::from_units_f64(0.0000004).micros(), 0);
        assert_eq!(Amount::from_units_f64(0.0000006).micros(), 1);
    }

    #[test]
    fn from_units_f64_rejects_non_finite_and_negative() {
        assert_eq!(Amount::from_units_f64(f64::NAN), Amount::ZERO);
        assert_eq!(Amount::from_units_f64(f64::NEG_INFINITY), Amount::ZERO);
        assert_eq!(Amount::from_units_f64(-3.0), Amount::ZERO);
        assert_eq!(Amount::from_units_f64(f64::INFINITY), Amount::MAX);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(Amount::MAX.saturating_add(Amount::UNIT), Amount::MAX);
        assert_eq!(Amount::ZERO.saturating_sub(Amount::UNIT), Amount::ZERO);
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert_eq!(
            Amount::from_units(1).checked_sub(Amount::from_units(2)),
            None
        );
    }

    #[test]
    fn display_trims_trailing_zeros() {
        assert_eq!(Amount::from_micros(1_500_000).to_string(), "1.5");
        assert_eq!(Amount::from_micros(2_000_000).to_string(), "2");
        assert_eq!(Amount::from_micros(123).to_string(), "0.000123");
    }

    #[test]
    fn ppm_ceil_rounds_up() {
        // 1% of 1 micro-unit rounds up to 1 micro-unit.
        assert_eq!(Amount::from_micros(1).ppm_ceil(10_000).micros(), 1);
        // 1% of $100 is exactly $1.
        assert_eq!(
            Amount::from_units(100).ppm_ceil(10_000),
            Amount::from_units(1)
        );
    }

    #[test]
    fn mul_ratio_uses_wide_intermediate() {
        let big = Amount::from_micros(u64::MAX / 2);
        // * 2 / 2 must not overflow the intermediate.
        assert_eq!(big.mul_ratio(2, 2), big);
    }

    #[test]
    fn scale_matches_mul() {
        assert_eq!(Amount::from_units(7).scale(10), Amount::from_units(70));
    }

    #[test]
    fn serde_is_transparent() {
        let a = Amount::from_micros(42);
        assert_eq!(serde_json::to_string(&a).unwrap(), "42");
        let b: Amount = serde_json::from_str("42").unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn add_sub_round_trips(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let x = Amount::from_micros(a);
            let y = Amount::from_micros(b);
            prop_assert_eq!(x.checked_add(y).and_then(|s| s.checked_sub(y)), Some(x));
        }

        #[test]
        fn min_max_partition(a: u64, b: u64) {
            let x = Amount::from_micros(a);
            let y = Amount::from_micros(b);
            prop_assert_eq!(
                x.min(y).micros() as u128 + x.max(y).micros() as u128,
                a as u128 + b as u128
            );
        }

        #[test]
        fn ppm_ceil_monotone(a in 0u64..1u64 << 40, ppm in 0u64..2_000_000) {
            let x = Amount::from_micros(a);
            let y = Amount::from_micros(a + 1);
            prop_assert!(x.ppm_ceil(ppm) <= y.ppm_ceil(ppm));
        }

        #[test]
        fn units_f64_round_trip_within_micro(units in 0.0f64..1e9) {
            let a = Amount::from_units_f64(units);
            prop_assert!((a.as_units_f64() - units).abs() <= 1e-6);
        }
    }
}
