//! Property-based tests for the CORDIC engines.

use mimo_cordic::Cordic;
use mimo_fixed::Q16;
use proptest::prelude::*;

fn q(v: f64) -> Q16 {
    Q16::from_f64(v)
}

proptest! {
    /// Vectoring angle matches atan2 for any nonzero vector.
    #[test]
    fn vector_angle_matches_atan2(x in -0.9f64..0.9, y in -0.9f64..0.9) {
        prop_assume!(x.hypot(y) > 0.05);
        let c = Cordic::new();
        let v = c.vector(q(x), q(y));
        let expected = y.atan2(x);
        let mut err = (v.angle.to_f64() - expected).abs();
        // ±π are the same angle.
        err = err.min((err - 2.0 * std::f64::consts::PI).abs());
        prop_assert!(err < 3e-3, "got {} want {expected}", v.angle.to_f64());
    }

    /// Vectoring magnitude matches hypot and is never negative.
    #[test]
    fn vector_magnitude_matches_hypot(x in -0.9f64..0.9, y in -0.9f64..0.9) {
        let c = Cordic::new();
        let v = c.vector(q(x), q(y));
        prop_assert!(v.magnitude.to_f64() >= -1e-6);
        prop_assert!((v.magnitude.to_f64() - x.hypot(y)).abs() < 3e-3);
    }

    /// Rotation preserves vector norm (CORDIC gain is compensated).
    #[test]
    fn rotation_preserves_norm(
        x in -0.7f64..0.7, y in -0.7f64..0.7, angle in -3.1f64..3.1
    ) {
        let c = Cordic::new();
        let r = c.rotate(q(x), q(y), q(angle));
        let before = x.hypot(y);
        let after = r.x.to_f64().hypot(r.y.to_f64());
        prop_assert!((after - before).abs() < 4e-3);
    }

    /// Rotation matches the rotation-matrix reference.
    #[test]
    fn rotation_matches_matrix(
        x in -0.7f64..0.7, y in -0.7f64..0.7, angle in -3.1f64..3.1
    ) {
        let c = Cordic::new();
        let r = c.rotate(q(x), q(y), q(angle));
        let ex = x * angle.cos() - y * angle.sin();
        let ey = x * angle.sin() + y * angle.cos();
        prop_assert!((r.x.to_f64() - ex).abs() < 3e-3);
        prop_assert!((r.y.to_f64() - ey).abs() < 3e-3);
    }

    /// Angle accuracy improves monotonically (weakly) with iterations.
    #[test]
    fn accuracy_improves_with_iterations(x in 0.1f64..0.9, y in -0.9f64..0.9) {
        let expected = y.atan2(x);
        let coarse = Cordic::with_iterations(8);
        let fine = Cordic::with_iterations(18);
        let ec = (coarse.vector(q(x), q(y)).angle.to_f64() - expected).abs();
        let ef = (fine.vector(q(x), q(y)).angle.to_f64() - expected).abs();
        // Allow a tiny slack: fixed-point quantization is not monotone.
        prop_assert!(ef <= ec + 1e-3);
    }
}
