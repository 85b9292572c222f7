//! Complex fixed-point values (I/Q pairs).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::fx::Fx;

/// A complex fixed-point value: an I/Q pair of [`Fx`] words, as carried
/// on the paired real/imaginary buses throughout the paper's datapath.
///
/// # Examples
///
/// ```
/// use mimo_fixed::CQ15;
///
/// let j = CQ15::from_f64(0.0, 0.5);
/// let rotated = j * j; // 0.5j * 0.5j = -0.25
/// assert!((rotated.re.to_f64() + 0.25).abs() < 1e-4);
/// assert!(rotated.im.to_f64().abs() < 1e-4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CFx<const FRAC: u32> {
    /// In-phase (real) component.
    pub re: Fx<FRAC>,
    /// Quadrature (imaginary) component.
    pub im: Fx<FRAC>,
}

impl<const FRAC: u32> CFx<FRAC> {
    /// The additive identity.
    pub const ZERO: Self = Self {
        re: Fx::ZERO,
        im: Fx::ZERO,
    };

    /// The multiplicative identity (`1 + 0j`).
    pub const ONE: Self = Self {
        re: Fx::ONE,
        im: Fx::ZERO,
    };

    /// Creates a complex value from fixed-point components.
    #[inline]
    pub const fn new(re: Fx<FRAC>, im: Fx<FRAC>) -> Self {
        Self { re, im }
    }

    /// Creates a complex value from `f64` components (see
    /// [`Fx::from_f64`] for rounding/saturation rules).
    #[inline]
    pub fn from_f64(re: f64, im: f64) -> Self {
        Self::new(Fx::from_f64(re), Fx::from_f64(im))
    }

    /// Creates a purely real value.
    #[inline]
    pub fn from_re(re: Fx<FRAC>) -> Self {
        Self::new(re, Fx::ZERO)
    }

    /// Returns `(re, im)` as `f64`.
    #[inline]
    pub fn to_f64(self) -> (f64, f64) {
        (self.re.to_f64(), self.im.to_f64())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` computed in full precision.
    #[inline]
    pub fn norm_sqr(self) -> Fx<FRAC> {
        self.re.mul(self.re) + self.im.mul(self.im)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: Fx<FRAC>) -> Self {
        Self::new(self.re.mul(k), self.im.mul(k))
    }

    /// Saturates both components onto a `bits`-wide bus
    /// (see [`Fx::saturate_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 63.
    #[inline]
    pub fn saturate_bits(self, bits: u32) -> Self {
        Self::new(self.re.saturate_bits(bits), self.im.saturate_bits(bits))
    }

    /// Returns `true` if both components fit a `bits`-wide bus.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 63.
    #[inline]
    pub fn fits_bits(self, bits: u32) -> bool {
        self.re.fits_bits(bits) && self.im.fits_bits(bits)
    }

    /// Rounded arithmetic right shift of both components
    /// (the `+ ÷2` averaging idiom from the receiver's LTS path).
    #[inline]
    pub fn shr_round(self, shift: u32) -> Self {
        Self::new(self.re.shr_round(shift), self.im.shr_round(shift))
    }

    /// Reinterprets into a format with `F2` fraction bits.
    #[inline]
    pub fn convert<const F2: u32>(self) -> CFx<F2> {
        CFx::new(self.re.convert(), self.im.convert())
    }

    /// Returns `true` if both components are exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.re.is_zero() && self.im.is_zero()
    }
}

impl<const FRAC: u32> Add for CFx<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<const FRAC: u32> AddAssign for CFx<FRAC> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const FRAC: u32> Sub for CFx<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<const FRAC: u32> SubAssign for CFx<FRAC> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const FRAC: u32> Neg for CFx<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<const FRAC: u32> Mul for CFx<FRAC> {
    type Output = Self;
    /// Full complex multiply: four real multiplies and two adds, the
    /// structure of the paper's complex-multiplier macro.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let re = self.re.mul(rhs.re) - self.im.mul(rhs.im);
        let im = self.re.mul(rhs.im) + self.im.mul(rhs.re);
        Self::new(re, im)
    }
}

impl<const FRAC: u32> fmt::Debug for CFx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CFx<{}>({} + {}j)", FRAC, self.re, self.im)
    }
}

impl<const FRAC: u32> fmt::Display for CFx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im.raw() >= 0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = CFx<15>;

    fn c(re: f64, im: f64) -> C {
        C::from_f64(re, im)
    }

    #[test]
    fn add_sub() {
        let a = c(0.25, -0.5);
        let b = c(0.125, 0.25);
        assert_eq!((a + b).to_f64(), (0.375, -0.25));
        assert_eq!((a - b).to_f64(), (0.125, -0.75));
    }

    #[test]
    fn multiply_by_j_rotates() {
        let x = c(0.5, 0.0);
        let j = c(0.0, 1.0).saturate_bits(17);
        let y = x * j;
        assert!((y.re.to_f64()).abs() < 1e-4);
        assert!((y.im.to_f64() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn multiply_matches_float_reference() {
        let a = c(0.3, -0.4);
        let b = c(-0.1, 0.7);
        let p = a * b;
        let (pre, pim) = p.to_f64();
        let fre = 0.3 * -0.1 - (-0.4) * 0.7;
        let fim = 0.3 * 0.7 + (-0.4) * -0.1;
        assert!((pre - fre).abs() < 1e-3);
        assert!((pim - fim).abs() < 1e-3);
    }

    #[test]
    fn conj_and_mul_conj() {
        let a = c(0.5, 0.25);
        assert_eq!(a.conj().to_f64(), (0.5, -0.25));
        // a * a^* is the squared magnitude on the real axis.
        let p = a * a.conj();
        assert!((p.re.to_f64() - (0.25 + 0.0625)).abs() < 1e-3);
        assert!(p.im.to_f64().abs() < 1e-3);
    }

    #[test]
    fn norms() {
        let a = c(0.6, -0.8);
        assert!((a.norm_sqr().to_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn scale_and_shift() {
        let a = c(0.5, -0.5);
        let half = crate::Q15::from_f64(0.5);
        assert_eq!(a.scale(half).to_f64(), (0.25, -0.25));
        assert_eq!(a.shr_round(1).to_f64(), (0.25, -0.25));
    }

    #[test]
    fn saturation_applies_componentwise() {
        let big = C::from_f64(3.0, -3.0);
        let s = big.saturate_bits(16);
        assert_eq!(s.re.raw(), (1 << 15) - 1);
        assert_eq!(s.im.raw(), -(1 << 15));
        assert!(!big.fits_bits(16));
        assert!(s.fits_bits(16));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", c(0.5, 0.5)), "0.5+0.5j");
        assert_eq!(format!("{}", c(0.5, -0.5)), "0.5-0.5j");
    }

    #[test]
    fn zero_and_one() {
        assert!(C::ZERO.is_zero());
        let x = c(0.3, 0.1);
        assert_eq!(x * C::ONE, x);
        assert_eq!(x + C::ZERO, x);
    }
}
