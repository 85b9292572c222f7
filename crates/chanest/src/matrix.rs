//! 4×4 complex matrices: `f64` reference and Q2.16 datapath forms.

use std::fmt;
use std::ops::{Index, IndexMut, Mul};

use mimo_fixed::{CFx, CQ16, Cf64};

/// A 4×4 complex matrix in double precision — the reference domain for
/// validating the fixed-point datapath.
///
/// # Examples
///
/// ```
/// use mimo_chanest::Mat4;
/// use mimo_fixed::Cf64;
///
/// let i = Mat4::identity();
/// let a = Mat4::from_fn(|r, c| Cf64::new((r + c) as f64, 0.0));
/// assert_eq!((i * a)[(2, 3)], a[(2, 3)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat4 {
    m: [[Cf64; 4]; 4],
}

impl Mat4 {
    /// The zero matrix.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The identity matrix.
    pub fn identity() -> Self {
        Self::from_fn(|r, c| if r == c { Cf64::ONE } else { Cf64::ZERO })
    }

    /// Builds a matrix element-wise.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> Cf64) -> Self {
        let mut m = [[Cf64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = f(r, c);
            }
        }
        Self { m }
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn hermitian(&self) -> Self {
        Self::from_fn(|r, c| self.m[c][r].conj())
    }

    /// Matrix–vector product `self · v`.
    pub fn mul_vec(&self, v: &[Cf64; 4]) -> [Cf64; 4] {
        let mut out = [Cf64::ZERO; 4];
        for (r, o) in out.iter_mut().enumerate() {
            for (c, &x) in v.iter().enumerate() {
                *o += self.m[r][c] * x;
            }
        }
        out
    }

    /// Maximum elementwise distance to another matrix.
    pub fn max_distance(&self, other: &Self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..4 {
            for c in 0..4 {
                worst = worst.max((self.m[r][c] - other.m[r][c]).norm());
            }
        }
        worst
    }

    /// Quantizes to the Q2.16 datapath form.
    pub fn to_fixed(&self) -> FxMat4 {
        FxMat4::from_fn(|r, c| self.m[r][c].to_fixed::<16>())
    }
}

impl Index<(usize, usize)> for Mat4 {
    type Output = Cf64;
    fn index(&self, (r, c): (usize, usize)) -> &Cf64 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat4 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Cf64 {
        &mut self.m[r][c]
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        Mat4::from_fn(|r, c| {
            let mut acc = Cf64::ZERO;
            for k in 0..4 {
                acc += self.m[r][k] * rhs.m[k][c];
            }
            acc
        })
    }
}

impl fmt::Display for Mat4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.m {
            for cell in row {
                write!(f, "{cell:>24}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A 4×4 complex matrix on the Q2.16 CORDIC datapath.
///
/// The backing [`CFx`] words are `i64`-wide, so intermediate products
/// keep guard bits exactly as the FPGA's wide accumulators do; callers
/// clamp to bus widths where the architecture does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FxMat4 {
    m: [[CQ16; 4]; 4],
}

impl FxMat4 {
    /// The zero matrix.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Builds a matrix element-wise.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> CQ16) -> Self {
        let mut m = [[CFx::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = f(r, c);
            }
        }
        Self { m }
    }

    /// Conjugate transpose.
    pub fn hermitian(&self) -> Self {
        Self::from_fn(|r, c| self.m[c][r].conj())
    }

    /// Matrix–matrix product (the paper's "4x4 matrix multiplication
    /// block" computing R⁻¹ · Qᵀ).
    pub fn mul_mat(&self, rhs: &FxMat4) -> FxMat4 {
        FxMat4::from_fn(|r, c| {
            let mut acc = CFx::ZERO;
            for k in 0..4 {
                acc += self.m[r][k] * rhs.m[k][c];
            }
            acc
        })
    }

    /// Matrix–vector product — the per-subcarrier MIMO decode
    /// `y = H⁻¹ · r`.
    pub fn mul_vec(&self, v: &[CQ16; 4]) -> [CQ16; 4] {
        let mut out = [CFx::ZERO; 4];
        for (r, o) in out.iter_mut().enumerate() {
            for (c, &x) in v.iter().enumerate() {
                *o += self.m[r][c] * x;
            }
        }
        out
    }

    /// Lifts to the `f64` reference domain.
    pub fn to_f64(&self) -> Mat4 {
        Mat4::from_fn(|r, c| Cf64::from_fixed(self.m[r][c]))
    }
}

impl Index<(usize, usize)> for FxMat4 {
    type Output = CQ16;
    fn index(&self, (r, c): (usize, usize)) -> &CQ16 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for FxMat4 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut CQ16 {
        &mut self.m[r][c]
    }
}

impl fmt::Display for FxMat4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat4 {
        Mat4::from_fn(|r, c| Cf64::new(0.1 * (r as f64 + 1.0), -0.05 * c as f64))
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = sample();
        assert!(a.max_distance(&(Mat4::identity() * a)) < 1e-15);
        assert!(a.max_distance(&(a * Mat4::identity())) < 1e-15);
    }

    #[test]
    fn hermitian_involution() {
        let a = sample();
        assert!(a.max_distance(&a.hermitian().hermitian()) < 1e-15);
    }

    #[test]
    fn mul_vec_matches_mul_mat_column() {
        let a = sample();
        let v = [Cf64::ONE, Cf64::I, Cf64::new(-1.0, 0.0), Cf64::ZERO];
        let got = a.mul_vec(&v);
        for r in 0..4 {
            let mut expect = Cf64::ZERO;
            for c in 0..4 {
                expect += a[(r, c)] * v[c];
            }
            assert!((got[r] - expect).norm() < 1e-15);
        }
    }

    #[test]
    fn fixed_roundtrip_accuracy() {
        let a = sample();
        let back = a.to_fixed().to_f64();
        assert!(a.max_distance(&back) < 1e-4);
    }

    #[test]
    fn fixed_multiply_matches_float() {
        let a = sample();
        let b = Mat4::from_fn(|r, c| Cf64::new(0.03 * c as f64, 0.07 * r as f64));
        let fixed = a.to_fixed().mul_mat(&b.to_fixed()).to_f64();
        let float = a * b;
        assert!(fixed.max_distance(&float) < 1e-3);
    }
}
