//! Double-precision complex arithmetic — the *reference* domain.
//!
//! The fixed-point datapath models in this workspace are validated
//! against double-precision implementations of the same math, and the
//! channel simulator (which stands in for the analog world) works in
//! doubles before the ADC model quantizes back to Q1.15. [`Cf64`] is
//! that shared reference complex type.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::complex::CFx;
use crate::fx::Fx;

/// A complex number in `f64`, used for reference math and the
/// channel-simulator domain.
///
/// # Examples
///
/// ```
/// use mimo_fixed::Cf64;
///
/// let a = Cf64::new(1.0, 1.0);
/// assert!((a.norm() - 2f64.sqrt()).abs() < 1e-12);
/// assert_eq!(a * Cf64::I, Cf64::new(-1.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cf64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cf64 {
    /// The additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates `e^{jθ}` — a unit phasor at angle `theta` radians.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, range (-π, π].
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Multiplicative inverse.
    ///
    /// Returns zero for a zero input rather than dividing by zero; the
    /// caller is expected to guard singular values (as the hardware
    /// guards the R-matrix diagonal).
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        if d == 0.0 {
            Self::ZERO
        } else {
            Self::new(self.re / d, -self.im / d)
        }
    }

    /// Quantizes onto a fixed-point complex value (the ADC model).
    #[inline]
    pub fn to_fixed<const F: u32>(self) -> CFx<F> {
        CFx::new(Fx::from_f64(self.re), Fx::from_f64(self.im))
    }

    /// Lifts a fixed-point complex value into the reference domain.
    #[inline]
    pub fn from_fixed<const F: u32>(v: CFx<F>) -> Self {
        let (re, im) = v.to_f64();
        Self::new(re, im)
    }
}

impl Add for Cf64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cf64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Cf64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cf64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Neg for Cf64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Mul for Cf64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cf64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cf64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Cf64 {
    type Output = Self;
    #[inline]
    #[expect(clippy::suspicious_arithmetic_impl, reason = "z / w = z * w^-1")]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Cf64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Sum for Cf64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Cf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polar_roundtrip() {
        let z = Cf64::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        let z = Cf64::new(0.3, -1.2);
        let p = z * z.inv();
        assert!((p.re - 1.0).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
        assert_eq!(Cf64::ZERO.inv(), Cf64::ZERO);
    }

    #[test]
    fn division() {
        let a = Cf64::new(1.0, 2.0);
        let b = Cf64::new(3.0, -1.0);
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12);
        assert!((back.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn fixed_point_roundtrip() {
        let z = Cf64::new(0.123, -0.456);
        let q = z.to_fixed::<15>();
        let back = Cf64::from_fixed(q);
        assert!((back.re - z.re).abs() < 1e-4);
        assert!((back.im - z.im).abs() < 1e-4);
    }

    #[test]
    fn sum_accumulates() {
        let total: Cf64 = (0..4).map(|i| Cf64::new(i as f64, 1.0)).sum();
        assert_eq!(total, Cf64::new(6.0, 4.0));
    }
}
