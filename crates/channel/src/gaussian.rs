//! The crate's one Gaussian source: a Box–Muller draw shared by the
//! noise, fading and phase-noise models.

use mimo_fixed::Cf64;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Draws Box–Muller's polar pair from two uniforms: the radius
/// `√(−2 ln u₁)` and the angle `2π·u₂`. `radius · cos(angle)` (or
/// `sin`) is then a standard normal sample.
pub(crate) fn radius_angle(rng: &mut ChaCha8Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2)
}

/// Draws one zero-mean complex Gaussian of variance `σ²` (`sigma2`),
/// `σ²/2` per component.
pub(crate) fn complex_gaussian(rng: &mut ChaCha8Rng, sigma2: f64) -> Cf64 {
    let (radius, angle) = radius_angle(rng);
    Cf64::from_polar(radius * (sigma2 / 2.0).sqrt(), angle)
}
