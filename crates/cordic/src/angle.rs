//! The angle rules shared by the scalar engine and the lane kernel.
//!
//! Both engines take their constants, their [−π, π] wrap and their
//! quadrant pre-rotations from here, so the two cannot drift apart.
//! The pre-rotations are generic over the word width: the scalar
//! engine runs them on its `i64` words, the lanes on `i32`.

use std::ops::{Add, Neg, Sub};

/// π in Q2.16 radians: `round(π·2¹⁶)`.
pub(crate) const PI_Q16: i32 = 205_887;

/// π/2 in Q2.16 radians (truncating halving of [`PI_Q16`], as the
/// hardware's one-bit shift).
pub(crate) const HALF_PI_Q16: i32 = PI_Q16 / 2;

/// A CORDIC datapath word: `i64` in the scalar engine, `i32` in the
/// lanes.
pub(crate) trait Word:
    Copy + Ord + Add<Output = Self> + Sub<Output = Self> + Neg<Output = Self> + From<i32>
{
}

impl Word for i32 {}
impl Word for i64 {}

/// Wraps a Q2.16 angle into [−π, π]. The remainder is only taken when
/// the angle lies outside [−π, π], which is the common case's fast path
/// and gives the same result as always taking it.
#[inline(always)]
pub(crate) fn wrap_angle(z: i64) -> i64 {
    let pi = i64::from(PI_Q16);
    if (-pi..=pi).contains(&z) {
        return z;
    }
    let two_pi = 2 * pi;
    let w = z % two_pi;
    if w > pi {
        w - two_pi
    } else if w < -pi {
        w + two_pi
    } else {
        w
    }
}

/// Vectoring-mode quadrant pre-rotation: a vector in the left half
/// plane is turned by π (negated), and the angle accumulator starts at
/// +π (upper half, `y ≥ 0`) or −π. Returns `(x, y, accumulator)`.
#[inline(always)]
pub(crate) fn vector_quadrant<T: Word>(x: T, y: T) -> (T, T, T) {
    let zero = T::from(0);
    if x < zero {
        let pi = T::from(PI_Q16);
        (-x, -y, if y >= zero { pi } else { -pi })
    } else {
        (x, y, zero)
    }
}

/// Rotation-mode quadrant pre-rotation: a wrapped angle beyond ±π/2 is
/// brought inside the micro-rotations' convergence range by a quarter
/// turn of `(x, y)` in its direction. Returns `(x, y, residual angle)`.
#[inline(always)]
pub(crate) fn rotate_quadrant<T: Word>(x: T, y: T, z: T) -> (T, T, T) {
    let half_pi = T::from(HALF_PI_Q16);
    if z > half_pi {
        (-y, x, z - half_pi)
    } else if z < -half_pi {
        (y, -x, z + half_pi)
    } else {
        (x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fixed::Q16;

    #[test]
    fn pi_is_pinned() {
        assert_eq!(PI_Q16, 205_887);
        assert_eq!(i64::from(PI_Q16), Q16::from_f64(std::f64::consts::PI).raw());
        assert_eq!(HALF_PI_Q16, 102_943);
    }

    #[test]
    fn wrap_matches_always_taking_the_remainder() {
        let pi = i64::from(PI_Q16);
        let reference = |z: i64| {
            let w = z % (2 * pi);
            if w > pi {
                w - 2 * pi
            } else if w < -pi {
                w + 2 * pi
            } else {
                w
            }
        };
        let edges = [
            0,
            1,
            -1,
            pi,
            -pi,
            pi + 1,
            -pi - 1,
            2 * pi,
            -2 * pi,
            3 * pi,
            i64::MAX,
            i64::MIN,
        ];
        for z in edges
            .into_iter()
            .chain((-2_000_000..2_000_000).step_by(997))
        {
            assert_eq!(wrap_angle(z), reference(z), "z = {z}");
        }
    }
}
