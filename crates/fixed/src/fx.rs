//! Signed fixed-point scalar with const-generic fraction width.

use std::error::Error;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Shl, Shr, Sub, SubAssign};

/// Error type for fallible fixed-point conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FxError {
    /// The source floating-point value was NaN.
    NotANumber,
    /// The value does not fit the requested bus width without saturation.
    Overflow {
        /// Requested bus width in bits (including sign).
        bits: u32,
        /// Raw value that failed to fit.
        raw: i64,
    },
}

impl fmt::Display for FxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FxError::NotANumber => write!(f, "source value was NaN"),
            FxError::Overflow { bits, raw } => {
                write!(f, "raw value {raw} does not fit a signed {bits}-bit bus")
            }
        }
    }
}

impl Error for FxError {}

/// A signed fixed-point number with `FRAC` fraction bits.
///
/// Backed by an `i64` so that the wide intermediate results produced by
/// FPGA multiplier/adder trees can be represented exactly; explicit
/// calls to [`Fx::saturate_bits`] model the points where the RTL clamps
/// a result back onto a fixed-width bus.
///
/// The representable value is `raw / 2^FRAC`.
///
/// # Examples
///
/// ```
/// use mimo_fixed::Fx;
///
/// let x = Fx::<15>::from_f64(0.125);
/// assert_eq!(x.raw(), 4096);
/// assert_eq!(x.to_f64(), 0.125);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx<const FRAC: u32> {
    raw: i64,
}

impl<const FRAC: u32> Fx<FRAC> {
    /// The additive identity.
    pub const ZERO: Self = Self { raw: 0 };

    /// The multiplicative identity (`1.0`).
    pub const ONE: Self = Self { raw: 1i64 << FRAC };

    /// Smallest positive representable increment (one LSB).
    pub const EPSILON: Self = Self { raw: 1 };

    /// Creates a value from its raw two's-complement representation.
    ///
    /// ```
    /// use mimo_fixed::Fx;
    /// assert_eq!(Fx::<15>::from_raw(1 << 15).to_f64(), 1.0);
    /// ```
    #[inline]
    pub const fn from_raw(raw: i64) -> Self {
        Self { raw }
    }

    /// Returns the raw two's-complement representation.
    #[inline]
    pub const fn raw(self) -> i64 {
        self.raw
    }

    /// Converts from `f64`, rounding to nearest (ties away from zero).
    ///
    /// Non-finite inputs saturate: `+inf` becomes the largest `i64`
    /// raw value, `-inf` the smallest, and NaN becomes zero. Use
    /// [`Fx::try_from_f64`] to detect those cases instead.
    ///
    /// ```
    /// use mimo_fixed::Fx;
    /// let x = Fx::<15>::from_f64(-0.5);
    /// assert_eq!(x.raw(), -(1 << 14));
    /// ```
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        match Self::try_from_f64(value) {
            Ok(v) => v,
            Err(FxError::NotANumber) => Self::ZERO,
            Err(FxError::Overflow { .. }) => {
                if value > 0.0 {
                    Self::from_raw(i64::MAX)
                } else {
                    Self::from_raw(i64::MIN)
                }
            }
        }
    }

    /// Converts from `f64`, rounding to nearest (ties away from zero).
    ///
    /// # Errors
    ///
    /// Returns [`FxError::NotANumber`] for NaN and
    /// [`FxError::Overflow`] when the scaled value exceeds the `i64`
    /// backing range.
    #[inline]
    pub fn try_from_f64(value: f64) -> Result<Self, FxError> {
        if value.is_nan() {
            return Err(FxError::NotANumber);
        }
        let scaled = value * (1i64 << FRAC) as f64;
        let rounded = scaled.round();
        if !(rounded >= i64::MIN as f64 && rounded <= i64::MAX as f64) {
            return Err(FxError::Overflow { bits: 64, raw: 0 });
        }
        Ok(Self::from_raw(rounded as i64))
    }

    /// Converts to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / (1i64 << FRAC) as f64
    }

    /// Saturates to a signed bus of `bits` total width (including sign),
    /// exactly as an FPGA datapath clamps at a register boundary.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 63.
    ///
    /// ```
    /// use mimo_fixed::Fx;
    /// // +2.0 does not fit Q1.15 on a 16-bit bus; it clamps to ~+1.0.
    /// let clamped = Fx::<15>::from_f64(2.0).saturate_bits(16);
    /// assert_eq!(clamped.raw(), (1 << 15) - 1);
    /// ```
    #[inline]
    pub fn saturate_bits(self, bits: u32) -> Self {
        assert!((1..=63).contains(&bits), "bus width out of range: {bits}");
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        Self::from_raw(self.raw.clamp(min, max))
    }

    /// Returns `true` if the value fits a signed bus of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 63.
    #[inline]
    pub fn fits_bits(self, bits: u32) -> bool {
        assert!((1..=63).contains(&bits), "bus width out of range: {bits}");
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        (min..=max).contains(&self.raw)
    }

    /// Reinterprets into a format with `F2` fraction bits, shifting the
    /// raw value and rounding to nearest on a right shift (this is the
    /// "discard LSBs with round" hardware idiom).
    ///
    /// ```
    /// use mimo_fixed::Fx;
    /// let x = Fx::<16>::from_f64(0.75);
    /// let y: Fx<15> = x.convert();
    /// assert_eq!(y.to_f64(), 0.75);
    /// ```
    #[inline]
    pub fn convert<const F2: u32>(self) -> Fx<F2> {
        if F2 >= FRAC {
            Fx::from_raw(self.raw << (F2 - FRAC))
        } else {
            let shift = FRAC - F2;
            Fx::from_raw(round_shift_right(self.raw, shift))
        }
    }

    /// Fixed-point multiply: full-precision product, then rounding
    /// right-shift by `FRAC` (the single-DSP-block multiply model).
    ///
    /// ```
    /// use mimo_fixed::Fx;
    /// let a = Fx::<15>::from_f64(0.5);
    /// let b = Fx::<15>::from_f64(0.5);
    /// assert_eq!(a.mul(b).to_f64(), 0.25);
    /// ```
    #[inline]
    #[allow(clippy::should_implement_trait)] // `Mul` is also implemented; the named form reads better in DSP chains
    pub fn mul(self, rhs: Self) -> Self {
        let wide = self.raw as i128 * rhs.raw as i128;
        Self::from_raw(round_shift_right_i128(wide, FRAC))
    }

    /// Fixed-point divide: `(self << FRAC) / rhs` with round-to-nearest,
    /// the behaviour of a restoring divider core.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero. The channel-estimation pipeline guards
    /// divisors (the R-matrix diagonal) before dividing.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: panics like a hardware divider, no `Div` impl exists
    pub fn div(self, rhs: Self) -> Self {
        assert!(rhs.raw != 0, "fixed-point division by zero");
        // `raw << (FRAC + 1)` fits an `i64` strictly inside ±2⁶³ when
        // |raw| < 2^(62 − FRAC): the `i64` quotient, and its rounding,
        // are then those of the wide division, with no overflow even
        // for a divisor of −1.
        if FRAC < 62 && self.raw.unsigned_abs() < 1 << 62u32.saturating_sub(FRAC) {
            let q2 = (self.raw << (FRAC + 1)) / rhs.raw;
            // Round-half-away-from-zero on the extra bit.
            return Self::from_raw(if q2 >= 0 { (q2 + 1) >> 1 } else { -((-q2 + 1) >> 1) });
        }
        Self::from_raw(div_wide(self.raw, rhs.raw, FRAC))
    }

    /// Absolute value (saturating at `i64::MAX`).
    #[inline]
    pub fn abs(self) -> Self {
        Self::from_raw(self.raw.saturating_abs())
    }

    /// Returns `true` if the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.raw == 0
    }

    /// Arithmetic right shift with round-to-nearest: the hardware
    /// "divide by 2^n" used e.g. by the LTS averager (`+ ÷2` in Fig 5).
    #[inline]
    pub fn shr_round(self, shift: u32) -> Self {
        Self::from_raw(round_shift_right(self.raw, shift))
    }
}

/// Rounding arithmetic shift right (round half away from zero).
#[inline]
fn round_shift_right(value: i64, shift: u32) -> i64 {
    if shift == 0 {
        return value;
    }
    let half = 1i64 << (shift - 1);
    if value >= 0 {
        (value + half) >> shift
    } else {
        -(((-value) + half) >> shift)
    }
}

#[inline]
fn round_shift_right_i128(value: i128, shift: u32) -> i64 {
    if shift == 0 {
        return clamp_i128(value);
    }
    let half = 1i128 << (shift - 1);
    let shifted = if value >= 0 {
        (value + half) >> shift
    } else {
        -(((-value) + half) >> shift)
    };
    clamp_i128(shifted)
}

/// [`Fx::div`] on `i128` words, for numerators whose shifted value
/// leaves the `i64` range; the result saturates to `i64`.
#[inline(never)]
fn div_wide(num: i64, den: i64, frac: u32) -> i64 {
    let q2 = (i128::from(num) << (frac + 1)) / i128::from(den);
    // Round-half-away-from-zero on the extra bit.
    let rounded = if q2 >= 0 { (q2 + 1) >> 1 } else { -((-q2 + 1) >> 1) };
    clamp_i128(rounded)
}

#[inline]
fn clamp_i128(value: i128) -> i64 {
    value.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

impl<const FRAC: u32> Add for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_raw(self.raw.saturating_add(rhs.raw))
    }
}

impl<const FRAC: u32> AddAssign for Fx<FRAC> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const FRAC: u32> Sub for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_raw(self.raw.saturating_sub(rhs.raw))
    }
}

impl<const FRAC: u32> SubAssign for Fx<FRAC> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const FRAC: u32> Neg for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::from_raw(self.raw.saturating_neg())
    }
}

impl<const FRAC: u32> Mul for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Fx::mul(self, rhs)
    }
}

impl<const FRAC: u32> Shr<u32> for Fx<FRAC> {
    type Output = Self;
    /// Truncating arithmetic shift right (no rounding), as a bare
    /// hardware wire shift. Use [`Fx::shr_round`] for the rounded form.
    #[inline]
    fn shr(self, shift: u32) -> Self {
        Self::from_raw(self.raw >> shift)
    }
}

impl<const FRAC: u32> Shl<u32> for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn shl(self, shift: u32) -> Self {
        Self::from_raw(self.raw.saturating_mul(1i64 << shift.min(62)))
    }
}

impl<const FRAC: u32> fmt::Debug for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fx<{}>({} = {})", FRAC, self.raw, self.to_f64())
    }
}

impl<const FRAC: u32> fmt::Display for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const FRAC: u32> From<Fx<FRAC>> for f64 {
    fn from(v: Fx<FRAC>) -> f64 {
        v.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q15 = Fx<15>;
    type Q16 = Fx<16>;

    #[test]
    fn roundtrip_exact_powers() {
        for k in 0..14 {
            let v = 1.0 / (1u32 << k) as f64;
            assert_eq!(Q15::from_f64(v).to_f64(), v, "2^-{k}");
            assert_eq!(Q15::from_f64(-v).to_f64(), -v, "-2^-{k}");
        }
    }

    #[test]
    fn one_constant_is_one() {
        assert_eq!(Q15::ONE.to_f64(), 1.0);
        assert_eq!(Q16::ONE.to_f64(), 1.0);
        assert_eq!(Q15::ZERO.to_f64(), 0.0);
    }

    #[test]
    fn rounding_ties_away_from_zero() {
        // 0.5 LSB rounds away from zero.
        let half_lsb = 1.0 / (1u64 << 16) as f64;
        assert_eq!(Q15::from_f64(half_lsb).raw(), 1);
        assert_eq!(Q15::from_f64(-half_lsb).raw(), -1);
    }

    #[test]
    fn nan_becomes_zero_and_try_errors() {
        assert_eq!(Q15::from_f64(f64::NAN), Q15::ZERO);
        assert_eq!(Q15::try_from_f64(f64::NAN), Err(FxError::NotANumber));
    }

    #[test]
    fn infinity_saturates() {
        assert_eq!(Q15::from_f64(f64::INFINITY).raw(), i64::MAX);
        assert_eq!(Q15::from_f64(f64::NEG_INFINITY).raw(), i64::MIN);
    }

    #[test]
    fn saturate_bits_models_16_bit_bus() {
        let two = Q15::from_f64(2.0);
        assert_eq!(two.saturate_bits(16).raw(), (1 << 15) - 1);
        let neg_two = Q15::from_f64(-2.0);
        assert_eq!(neg_two.saturate_bits(16).raw(), -(1 << 15));
        // In-range values pass through untouched.
        let half = Q15::from_f64(0.5);
        assert_eq!(half.saturate_bits(16), half);
    }

    #[test]
    fn fits_bits_boundaries() {
        assert!(Q15::from_raw((1 << 15) - 1).fits_bits(16));
        assert!(!Q15::from_raw(1 << 15).fits_bits(16));
        assert!(Q15::from_raw(-(1 << 15)).fits_bits(16));
        assert!(!Q15::from_raw(-(1 << 15) - 1).fits_bits(16));
    }

    #[test]
    fn overflow_error_reports_the_bus_width() {
        let err = Q15::try_from_f64(1e30).unwrap_err();
        assert_eq!(err, FxError::Overflow { bits: 64, raw: 0 });
        assert!(err.to_string().contains("64-bit"));
    }

    #[test]
    fn multiply_matches_float() {
        let x = std::f64::consts::FRAC_1_SQRT_2;
        let a = Q15::from_f64(x);
        let b = Q15::from_f64(-0.5);
        let p = a.mul(b);
        assert!((p.to_f64() - (x * -0.5)).abs() < 1e-4);
    }

    #[test]
    fn multiply_identity() {
        let x = Q15::from_f64(0.333);
        assert_eq!(x.mul(Q15::ONE), x);
    }

    #[test]
    fn divide_matches_float() {
        let a = Q16::from_f64(0.75);
        let b = Q16::from_f64(1.5);
        assert!((a.div(b).to_f64() - 0.5).abs() < 1e-4);
    }

    /// Numerators around the `i64` fit boundary of `F`, both signs,
    /// plus zero and the extremes.
    fn boundary_numerators<const F: u32>() -> Vec<i64> {
        let edge = 1i64 << (62 - F);
        let mut out = vec![0, 1, -1, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1];
        for d in [-2, -1, 0, 1, 2] {
            out.extend([edge + d, -(edge + d)]);
        }
        out
    }

    #[test]
    fn narrow_divide_matches_wide_at_the_boundary() {
        let dens = [
            1,
            -1,
            2,
            -2,
            3,
            -7,
            65_536,
            -65_536,
            1 << 40,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        for &num in &boundary_numerators::<16>() {
            for &den in &dens {
                assert_eq!(
                    Q16::from_raw(num).div(Q16::from_raw(den)).raw(),
                    div_wide(num, den, 16),
                    "{num}/{den}"
                );
            }
        }
        for &num in &boundary_numerators::<15>() {
            for &den in &dens {
                assert_eq!(
                    Q15::from_raw(num).div(Q15::from_raw(den)).raw(),
                    div_wide(num, den, 15),
                    "{num}/{den}"
                );
            }
        }
    }

    /// Raw words spread over every magnitude, both signs.
    fn any_magnitude() -> impl proptest::Strategy<Value = i64> {
        use proptest::prelude::*;
        (any::<i64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn narrow_divide_matches_wide(num in any_magnitude(), den in any_magnitude()) {
            proptest::prop_assume!(den != 0);
            proptest::prop_assert_eq!(Q16::from_raw(num).div(Q16::from_raw(den)).raw(), div_wide(num, den, 16));
            proptest::prop_assert_eq!(Q15::from_raw(num).div(Q15::from_raw(den)).raw(), div_wide(num, den, 15));
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        let _ = Q16::ONE.div(Q16::ZERO);
    }

    #[test]
    fn convert_between_formats() {
        let x = Q16::from_f64(0.123456);
        let y: Q15 = x.convert();
        assert!((y.to_f64() - 0.123456).abs() < 1e-4);
        let z: Fx<20> = y.convert();
        assert_eq!(z.to_f64(), y.to_f64());
    }

    #[test]
    fn shr_round_is_rounded_halving() {
        // 3/2^15 >> 1 should round 1.5 LSB -> 2 LSB.
        assert_eq!(Q15::from_raw(3).shr_round(1).raw(), 2);
        assert_eq!(Q15::from_raw(-3).shr_round(1).raw(), -2);
        // Plain shift truncates toward -inf instead.
        assert_eq!((Q15::from_raw(3) >> 1).raw(), 1);
    }

    #[test]
    fn add_sub_neg() {
        let a = Q15::from_f64(0.25);
        let b = Q15::from_f64(0.5);
        assert_eq!((a + b).to_f64(), 0.75);
        assert_eq!((a - b).to_f64(), -0.25);
        assert_eq!((-a).to_f64(), -0.25);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let x = Q15::from_f64(0.5);
        assert_eq!(format!("{x}"), "0.5");
        assert!(format!("{x:?}").contains("Fx<15>"));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Q15::default(), Q15::ZERO);
    }
}
