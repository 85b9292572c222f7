//! The R-matrix inverse block: back-substitution exactly as the
//! paper's equation list (§IV.B).
//!
//! ```text
//! R⁻¹(3,3) = 1/R(3,3)
//! R⁻¹(2,2) = 1/R(2,2)
//! R⁻¹(2,3) = −R(2,3)·R⁻¹(3,3)/R(2,2)
//! R⁻¹(1,1) = 1/R(1,1)
//! R⁻¹(1,2) = −R(1,2)·R⁻¹(2,2)/R(1,1)
//! R⁻¹(1,3) = −(R(1,2)·R⁻¹(2,3) + R(1,3)·R⁻¹(3,3))/R(1,1)
//! R⁻¹(0,0) = 1/R(0,0)
//! R⁻¹(0,1) = −R(0,1)·R⁻¹(1,1)/R(0,0)
//! R⁻¹(0,2) = −(R(0,1)·R⁻¹(1,2) + R(0,2)·R⁻¹(2,2))/R(0,0)
//! R⁻¹(0,3) = −(R(0,1)·R⁻¹(1,3) + R(0,2)·R⁻¹(2,3) + R(0,3)·R⁻¹(3,3))/R(0,0)
//! ```
//!
//! "This circuit is heavily pipelined with many shift registers
//! required as some of the terms require higher computation and also
//! because the calculation of some matrix terms require the result of
//! other matrix terms."

use mimo_fixed::{CFx, Q16};

use crate::estimator::ChanestError;
use crate::matrix::FxMat4;

/// Smallest diagonal magnitude the divider accepts; below this the
/// channel matrix is reported singular (a hardware implementation
/// would flag the same condition off the reciprocal unit's range).
const MIN_DIAGONAL: f64 = 1.0 / 512.0;

/// Inverts an upper-triangular matrix with real positive diagonal (the
/// R factor of the CORDIC QRD) by the paper's back-substitution
/// equations.
///
/// # Errors
///
/// Returns [`ChanestError::SingularChannel`] if any diagonal entry is
/// smaller than the divider's input range (the channel matrix was
/// rank-deficient at that subcarrier).
///
/// # Examples
///
/// ```
/// use mimo_chanest::{invert_upper_triangular, Mat4};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let r_inv = invert_upper_triangular(&Mat4::identity().to_fixed())?;
/// assert_eq!(r_inv.to_f64()[(0, 0)].re, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn invert_upper_triangular(r: &FxMat4) -> Result<FxMat4, ChanestError> {
    let min_raw = Q16::from_f64(MIN_DIAGONAL).raw();
    for k in 0..4 {
        if r[(k, k)].re.raw() < min_raw {
            return Err(ChanestError::SingularChannel { diagonal: k });
        }
    }
    let mut inv = FxMat4::zero();

    // Reciprocal of a real positive diagonal entry.
    let recip = |k: usize| -> CFx<16> {
        CFx::new(Q16::ONE.div(r[(k, k)].re), Q16::ZERO)
    };
    // Complex value divided by the (real) diagonal entry of row `k`.
    let div_diag = |v: CFx<16>, k: usize| -> CFx<16> {
        let d = r[(k, k)].re;
        CFx::new(v.re.div(d), v.im.div(d))
    };

    // The ten equations, in the paper's order.
    inv[(3, 3)] = recip(3);
    inv[(2, 2)] = recip(2);
    inv[(2, 3)] = div_diag(-(r[(2, 3)] * inv[(3, 3)]), 2);
    inv[(1, 1)] = recip(1);
    inv[(1, 2)] = div_diag(-(r[(1, 2)] * inv[(2, 2)]), 1);
    inv[(1, 3)] = div_diag(-(r[(1, 2)] * inv[(2, 3)] + r[(1, 3)] * inv[(3, 3)]), 1);
    inv[(0, 0)] = recip(0);
    inv[(0, 1)] = div_diag(-(r[(0, 1)] * inv[(1, 1)]), 0);
    inv[(0, 2)] = div_diag(-(r[(0, 1)] * inv[(1, 2)] + r[(0, 2)] * inv[(2, 2)]), 0);
    inv[(0, 3)] = div_diag(
        -(r[(0, 1)] * inv[(1, 3)] + r[(0, 2)] * inv[(2, 3)] + r[(0, 3)] * inv[(3, 3)]),
        0,
    );
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat4;
    use mimo_fixed::Cf64;

    fn upper(seed: u64) -> Mat4 {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Mat4::from_fn(|r, c| {
            if c > r {
                Cf64::new(next(), next())
            } else if c == r {
                Cf64::new(0.4 + next().abs(), 0.0) // real positive diag
            } else {
                Cf64::ZERO
            }
        })
    }

    #[test]
    fn r_times_r_inverse_is_identity() {
        for seed in 1..20 {
            let r = upper(seed);
            let inv = invert_upper_triangular(&r.to_fixed()).unwrap();
            let product = r.to_fixed().mul_mat(&inv).to_f64();
            let err = product.max_distance(&Mat4::identity());
            assert!(err < 2e-3, "seed {seed}: ||R·R⁻¹ − I|| = {err}");
        }
    }

    #[test]
    fn inverse_is_upper_triangular() {
        let r = upper(7);
        let inv = invert_upper_triangular(&r.to_fixed()).unwrap().to_f64();
        for row in 0..4 {
            for col in 0..row {
                assert_eq!(inv[(row, col)], Cf64::ZERO);
            }
        }
    }

    #[test]
    fn diagonal_is_reciprocal() {
        let r = upper(3);
        let inv = invert_upper_triangular(&r.to_fixed()).unwrap().to_f64();
        for k in 0..4 {
            assert!((inv[(k, k)].re - 1.0 / r[(k, k)].re).abs() < 1e-3);
            assert_eq!(inv[(k, k)].im, 0.0);
        }
    }

    #[test]
    fn singular_diagonal_reported() {
        let mut r = upper(5);
        r[(2, 2)] = Cf64::ZERO;
        let err = invert_upper_triangular(&r.to_fixed()).unwrap_err();
        assert_eq!(err, ChanestError::SingularChannel { diagonal: 2 });
        assert!(err.to_string().contains("2"));
    }

    #[test]
    fn identity_inverts_to_identity() {
        let inv = invert_upper_triangular(&crate::Mat4::identity().to_fixed()).unwrap();
        assert!(inv.to_f64().max_distance(&Mat4::identity()) < 1e-4);
    }
}
