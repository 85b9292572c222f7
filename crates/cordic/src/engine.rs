//! The iterative fixed-point CORDIC kernel.

use mimo_fixed::Q16;

use crate::angle::{rotate_quadrant, vector_quadrant, wrap_angle};
use crate::CORDIC_ITERATIONS;

/// Result of a vectoring-mode CORDIC operation: the input vector rotated
/// onto the positive x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vectored {
    /// Vector magnitude (gain-compensated).
    pub magnitude: Q16,
    /// Angle of the original vector, in radians, range (-π, π].
    pub angle: Q16,
}

/// Result of a rotation-mode CORDIC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rotated {
    /// Rotated x component (gain-compensated).
    pub x: Q16,
    /// Rotated y component (gain-compensated).
    pub y: Q16,
}

/// An iterative circular CORDIC engine in Q2.16 fixed point, the
/// arithmetic core of both the time synchroniser's magnitude calculator
/// and every cell in the QRD systolic array.
///
/// The engine works internally on the wide `i64` backing of [`Q16`]
/// (hardware keeps guard bits through the micro-rotations) and
/// compensates the CORDIC gain `K ≈ 1.6468` with a final constant
/// multiply, as the RTL does with one DSP block.
///
/// # Examples
///
/// ```
/// use mimo_cordic::Cordic;
/// use mimo_fixed::Q16;
///
/// let cordic = Cordic::new();
/// let r = cordic.rotate(Q16::ONE, Q16::ZERO, Q16::from_f64(std::f64::consts::FRAC_PI_2));
/// assert!(r.x.to_f64().abs() < 1e-3);
/// assert!((r.y.to_f64() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Cordic {
    /// atan(2^-i) table in Q16 radians, one entry per iteration.
    pub(crate) atan_table: Vec<i64>,
    /// 1/K gain compensation in Q16.
    pub(crate) inv_gain: Q16,
    iterations: u32,
}

impl Default for Cordic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cordic {
    /// Creates an engine with the paper's iteration count
    /// ([`CORDIC_ITERATIONS`] = 18, giving a 20-cycle pipeline).
    pub fn new() -> Self {
        Self::with_iterations(CORDIC_ITERATIONS)
    }

    /// Creates an engine with a custom micro-rotation count.
    ///
    /// Fewer iterations model a cheaper, lower-accuracy CORDIC; this is
    /// the knob used by the accuracy-ablation benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero or greater than 40.
    pub fn with_iterations(iterations: u32) -> Self {
        assert!(
            (1..=40).contains(&iterations),
            "iteration count out of range: {iterations}"
        );
        let atan_table = (0..iterations)
            .map(|i| Q16::from_f64((2f64.powi(-(i as i32))).atan()).raw())
            .collect();
        let gain: f64 = (0..iterations)
            .map(|i| (1.0 + 2f64.powi(-2 * i as i32)).sqrt())
            .product();
        Self {
            atan_table,
            inv_gain: Q16::from_f64(1.0 / gain),
            iterations,
        }
    }

    /// Number of micro-rotation iterations.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Pipeline latency of the equivalent hardware element, in cycles:
    /// one input register + `iterations` + one gain-compensation stage.
    pub fn latency_cycles(&self) -> u32 {
        self.iterations + 2
    }

    /// Vectoring mode: rotates `(x, y)` onto the positive x-axis,
    /// returning the magnitude and the angle rotated through.
    ///
    /// Handles all four quadrants via a pre-rotation by π when `x < 0`,
    /// like the quadrant-correction logic in front of a hardware CORDIC.
    pub fn vector(&self, x: Q16, y: Q16) -> Vectored {
        // Quadrant pre-rotation: CORDIC converges only for |angle| < ~1.74 rad.
        let (mut xr, mut yr, acc) = vector_quadrant(x.raw(), y.raw());
        // Micro-rotations drive y to zero.
        let mut z = acc;
        for i in 0..self.iterations {
            let (dx, dy) = (xr >> i, yr >> i);
            if yr >= 0 {
                xr += dy;
                yr -= dx;
                z += self.atan_table[i as usize];
            } else {
                xr -= dy;
                yr += dx;
                z -= self.atan_table[i as usize];
            }
        }
        let magnitude = Q16::from_raw(xr).mul(self.inv_gain);
        Vectored {
            magnitude,
            angle: Q16::from_raw(z),
        }
    }

    /// Rotation mode: rotates `(x, y)` by `angle` radians
    /// (counter-clockwise positive).
    ///
    /// Angles of any magnitude are accepted; they are wrapped into
    /// (-π, π] and quadrant-corrected before the micro-rotations.
    pub fn rotate(&self, x: Q16, y: Q16, angle: Q16) -> Rotated {
        // Wrap, then pre-rotate by ±π/2 to bring the residual inside
        // convergence.
        let (mut xr, mut yr, mut z) = rotate_quadrant(x.raw(), y.raw(), wrap_angle(angle.raw()));

        for i in 0..self.iterations {
            let (dx, dy) = (xr >> i, yr >> i);
            if z >= 0 {
                xr -= dy;
                yr += dx;
                z -= self.atan_table[i as usize];
            } else {
                xr += dy;
                yr -= dx;
                z += self.atan_table[i as usize];
            }
        }
        Rotated {
            x: Q16::from_raw(xr).mul(self.inv_gain),
            y: Q16::from_raw(yr).mul(self.inv_gain),
        }
    }

    /// Magnitude of a complex value — the time synchroniser's use of the
    /// CORDIC ("Magnitude Calc" in Fig 4). Equivalent to
    /// [`Cordic::vector`] with the angle output left unconnected.
    pub fn magnitude(&self, re: Q16, im: Q16) -> Q16 {
        self.vector(re, im).magnitude
    }
}

/// Convenience: worst-case absolute error of an `iterations`-deep CORDIC
/// in radians (angle) — roughly `2^-(iterations-1)` plus quantization.
#[cfg(test)]
pub(crate) fn angle_tolerance(iterations: u32) -> f64 {
    2f64.powi(-(iterations as i32 - 1)) + 4.0 / (1u64 << 16) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn q(v: f64) -> Q16 {
        Q16::from_f64(v)
    }

    #[test]
    fn vector_first_quadrant() {
        let c = Cordic::new();
        let v = c.vector(q(0.6), q(0.8));
        assert!((v.magnitude.to_f64() - 1.0).abs() < 1e-3);
        assert!((v.angle.to_f64() - 0.8f64.atan2(0.6)).abs() < 1e-3);
    }

    #[test]
    fn vector_all_quadrants_match_atan2() {
        let c = Cordic::new();
        let cases = [
            (0.5, 0.5),
            (-0.5, 0.5),
            (-0.5, -0.5),
            (0.5, -0.5),
            (0.9, 0.1),
            (-0.9, 0.1),
            (-0.1, -0.9),
        ];
        for (x, y) in cases {
            let v = c.vector(q(x), q(y));
            let expected = f64::atan2(y, x);
            assert!(
                (v.angle.to_f64() - expected).abs() < 2e-3,
                "atan2({y},{x}): got {} want {expected}",
                v.angle.to_f64()
            );
            assert!((v.magnitude.to_f64() - x.hypot(y)).abs() < 2e-3);
        }
    }

    #[test]
    fn vector_zero_is_zero() {
        let c = Cordic::new();
        let v = c.vector(Q16::ZERO, Q16::ZERO);
        assert_eq!(v.magnitude.to_f64(), 0.0);
    }

    #[test]
    fn vector_on_negative_x_axis() {
        let c = Cordic::new();
        let v = c.vector(q(-1.0), Q16::ZERO);
        assert!((v.magnitude.to_f64() - 1.0).abs() < 1e-3);
        assert!((v.angle.to_f64().abs() - PI).abs() < 2e-3);
    }

    #[test]
    fn rotate_quarter_turn() {
        let c = Cordic::new();
        let r = c.rotate(Q16::ONE, Q16::ZERO, q(FRAC_PI_2));
        assert!(r.x.to_f64().abs() < 1e-3);
        assert!((r.y.to_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rotate_matches_rotation_matrix() {
        let c = Cordic::new();
        for angle in [-3.0, -1.8, -FRAC_PI_4, 0.0, 0.3, 1.0, 2.5, 3.1] {
            let (x0, y0) = (0.37, -0.22);
            let r = c.rotate(q(x0), q(y0), q(angle));
            let ex = x0 * angle.cos() - y0 * angle.sin();
            let ey = x0 * angle.sin() + y0 * angle.cos();
            assert!(
                (r.x.to_f64() - ex).abs() < 2e-3 && (r.y.to_f64() - ey).abs() < 2e-3,
                "angle {angle}: got ({}, {}), want ({ex}, {ey})",
                r.x.to_f64(),
                r.y.to_f64()
            );
        }
    }

    #[test]
    fn rotate_wraps_large_angles() {
        let c = Cordic::new();
        let a = c.rotate(q(0.5), q(0.25), q(0.4));
        let b = c.rotate(q(0.5), q(0.25), q(0.4 + 2.0 * PI));
        assert!((a.x.to_f64() - b.x.to_f64()).abs() < 2e-3);
        assert!((a.y.to_f64() - b.y.to_f64()).abs() < 2e-3);
    }

    #[test]
    fn rotate_then_unrotate_is_identity() {
        let c = Cordic::new();
        let (x0, y0) = (0.43, 0.31);
        let r = c.rotate(q(x0), q(y0), q(1.1));
        let back = c.rotate(r.x, r.y, q(-1.1));
        assert!((back.x.to_f64() - x0).abs() < 3e-3);
        assert!((back.y.to_f64() - y0).abs() < 3e-3);
    }

    #[test]
    fn vector_then_rotate_recovers_input() {
        let c = Cordic::new();
        let (x0, y0) = (-0.37, 0.61);
        let v = c.vector(q(x0), q(y0));
        let r = c.rotate(v.magnitude, Q16::ZERO, v.angle);
        assert!((r.x.to_f64() - x0).abs() < 3e-3);
        assert!((r.y.to_f64() - y0).abs() < 3e-3);
    }

    #[test]
    fn latency_is_twenty_cycles_at_default_config() {
        let c = Cordic::new();
        assert_eq!(c.latency_cycles(), crate::CORDIC_LATENCY_CYCLES);
    }

    #[test]
    fn fewer_iterations_lower_accuracy() {
        let coarse = Cordic::with_iterations(6);
        let fine = Cordic::new();
        let expected = 0.8f64.atan2(0.6);
        let ec = (coarse.vector(q(0.6), q(0.8)).angle.to_f64() - expected).abs();
        let ef = (fine.vector(q(0.6), q(0.8)).angle.to_f64() - expected).abs();
        assert!(ef <= ec, "more iterations must not be less accurate");
        assert!(ec < angle_tolerance(6));
    }

    #[test]
    #[should_panic(expected = "iteration count out of range")]
    fn zero_iterations_rejected() {
        let _ = Cordic::with_iterations(0);
    }

    #[test]
    fn magnitude_shortcut_matches_vector() {
        let c = Cordic::new();
        assert_eq!(
            c.magnitude(q(0.3), q(-0.4)),
            c.vector(q(0.3), q(-0.4)).magnitude
        );
    }
}
