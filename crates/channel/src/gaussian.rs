//! The crate's one Gaussian formula, Box–Muller, in two bodies.
//!
//! The libm body ([`polar`], [`gaussian_at`]) draws one sample at a
//! time with libm's `ln`, `sin` and `cos`. It is the fading and
//! phase-noise draw, and the oracle of the lane body.
//!
//! The lane body is the same formula as branch-free per-lane
//! functions, which the AWGN channel runs on blocks of [`LANES`]
//! samples (`noise::noisy_block`): [`uniform_lane`] (the uniforms
//! from the same keystream words), [`ln_lane`] (fdlibm's `e_log`
//! reduction and polynomial) and [`sin_cos_lane`] (one Cody–Waite
//! quadrant reduction and fdlibm's kernels). It agrees with libm to
//! within [`LN_REL_DIFF`] (relative) and [`TRIG_ABS_DIFF`] (absolute),
//! not bit for bit; the AWGN channel turns that bound into bit
//! identity with a tie guard.

use std::f64::consts::{FRAC_2_PI, PI};

use mimo_fixed::Cf64;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Draws Box–Muller's two uniforms: `u₁` in `[MIN_POSITIVE, 1)` for
/// the radius and `u₂` in `[0, 1)` for the angle, in that order.
pub(crate) fn uniforms(rng: &mut ChaCha8Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// Box–Muller's polar pair of the uniforms `u₁`, `u₂` on libm: the
/// radius `√(−2 ln u₁)` and the angle `2π·u₂`. `radius · cos(angle)`
/// (or `sin`) is then a standard normal sample.
pub(crate) fn polar(u1: f64, u2: f64) -> (f64, f64) {
    ((-2.0 * u1.ln()).sqrt(), 2.0 * PI * u2)
}

/// Draws one polar pair (see [`polar`]).
pub(crate) fn radius_angle(rng: &mut ChaCha8Rng) -> (f64, f64) {
    let (u1, u2) = uniforms(rng);
    polar(u1, u2)
}

/// The zero-mean complex Gaussian of variance `σ²` (`sigma2`), `σ²/2`
/// per component, that the uniforms `u₁`, `u₂` map to on libm.
pub(crate) fn gaussian_at(u1: f64, u2: f64, sigma2: f64) -> Cf64 {
    let (radius, angle) = polar(u1, u2);
    Cf64::from_polar(radius * (sigma2 / 2.0).sqrt(), angle)
}

/// Draws one zero-mean complex Gaussian of variance `σ²` (`sigma2`),
/// `σ²/2` per component.
pub(crate) fn complex_gaussian(rng: &mut ChaCha8Rng, sigma2: f64) -> Cf64 {
    let (u1, u2) = uniforms(rng);
    gaussian_at(u1, u2, sigma2)
}

/// Samples per lane block.
pub(crate) const LANES: usize = 16;

/// One `f64` per sample of a lane block.
pub(crate) type Lanes = [f64; LANES];

/// Bound on `|ln_lane(x) − ln(x)| / |ln(x)|` over positive normal `x`
/// (libm's `ln` and the lane `ln` are each within about one ulp).
pub(crate) const LN_REL_DIFF: f64 = 1.0 / (1u64 << 51) as f64;

/// Bound on `|sin_lane(a) − sin(a)|` and `|cos_lane(a) − cos(a)|` over
/// `a` in `[0, 2π]` (each within about one ulp of a value of at most 1).
pub(crate) const TRIG_ABS_DIFF: f64 = 1.0 / (1u64 << 51) as f64;

const TWO52: f64 = (1u64 << 52) as f64;

/// `1.5·2⁵²`: adding it rounds any `|x| < 2⁵¹` to an integer, which
/// then sits in the low bits of the sum's mantissa.
pub(crate) const TO_INT: f64 = 1.5 * TWO52;

/// `gen_range(start..end)`'s arithmetic on the 64-bit word `w`: the top
/// 53 bits as a fraction of 2⁵³, scaled onto the range, with a value
/// that rounds onto `end` folded back to `start`.
#[inline(always)]
pub(crate) fn uniform_lane(w: u64, start: f64, end: f64) -> f64 {
    let v = w >> 11;
    // `v as f64`, exact, without a 64-bit integer conversion: the low
    // 52 bits through the 2⁵² bias, plus bit 52 selected as 2⁵².
    let low = f64::from_bits(TWO52.to_bits() | (v & ((1 << 52) - 1))) - TWO52;
    let top = f64::from_bits(0u64.wrapping_sub(v >> 52) & TWO52.to_bits());
    let u = (low + top) * (1.0 / (1u64 << 53) as f64);
    let x = start + u * (end - start);
    if x >= end {
        start
    } else {
        x
    }
}

// fdlibm `e_log`: ln 2 split so that `k·LN2_HI` is exact for every
// exponent `k`, and the minimax coefficients of `R(s²)` on
// `s = f/(2+f)`, `|s| ≤ 0.1716`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// `ln x` for positive normal `x`, branch-free: `x = 2ᵏ·(1 + f)` with
/// `1 + f` in `[√2/2, √2)`, then fdlibm's `k·ln 2 + ln(1 + f)`, both of
/// its final formulas evaluated and one selected by `f`'s band.
#[inline(always)]
pub(crate) fn ln_lane(x: f64) -> f64 {
    let bits = x.to_bits();
    let hx = (bits >> 32) & 0x000f_ffff;
    // 2²⁰ when the mantissa is at or above √2's: halve it, bump k.
    let i = (hx + 0x95f64) & 0x10_0000;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | ((i ^ 0x3ff0_0000) << 32));
    let biased_k = (bits >> 52) + (i >> 20);
    let dk = (f64::from_bits(TWO52.to_bits() | biased_k) - TWO52) - 1023.0;
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let upper = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    let lower = dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f);
    if (0x6147a..=0x6b851).contains(&hx) {
        upper
    } else {
        lower
    }
}

// fdlibm `rem_pio2`'s first Cody–Waite step: the leading 33 bits of
// π/2 (so `n·PIO2_1` is exact for small `n`) and the next 53.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);

// fdlibm `k_sin` / `k_cos` minimax coefficients on `|x| ≤ π/4`.
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// `(sin a, cos a)` for `a` in `[0, 2π]`, branch-free: `a = n·π/2 +
/// (r + tail)` by one Cody–Waite step, the fdlibm kernels on
/// `r + tail`, then the quadrant `n mod 4` as a swap and two sign flips.
#[inline(always)]
pub(crate) fn sin_cos_lane(a: f64) -> (f64, f64) {
    let biased_n = a * FRAC_2_PI + TO_INT;
    let n = biased_n.to_bits();
    let fn_ = biased_n - TO_INT;
    let hi = a - fn_ * PIO2_1;
    let lo = fn_ * PIO2_1T;
    let r = hi - lo;
    let tail = (hi - r) - lo;

    let z = r * r;
    let v = z * r;
    let ps = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    let sin_r = r - ((z * (0.5 * tail - v * ps) - tail) - v * S1);
    let w = z * z;
    let pc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos_r = one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * pc - r * tail));

    // Quadrant n: (sin, cos) = (s, c), (c, −s), (−s, −c), (−c, s).
    let (s, c) = if n & 1 == 0 { (sin_r, cos_r) } else { (cos_r, sin_r) };
    let sin_sign = (n & 2) << 62;
    let cos_sign = ((n + 1) & 2) << 62;
    (
        f64::from_bits(s.to_bits() ^ sin_sign),
        f64::from_bits(c.to_bits() ^ cos_sign),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fixed::Isa;

    /// The lane kernels on a block, built for tier `isa`: `ln` of `x`
    /// and `(sin, cos)` of `a`.
    fn kernels(isa: Isa, x: &Lanes, a: &Lanes) -> [Lanes; 3] {
        #[cfg(target_arch = "x86_64")]
        if isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { kernels_avx2(x, a) };
        }
        kernels_plain(x, a)
    }

    #[inline(always)]
    fn kernels_plain(x: &Lanes, a: &Lanes) -> [Lanes; 3] {
        let mut out = [[0.0; LANES]; 3];
        for k in 0..LANES {
            out[0][k] = ln_lane(x[k]);
            (out[1][k], out[2][k]) = sin_cos_lane(a[k]);
        }
        out
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers must have verified AVX2 support at run time
    // (`kernels` calls this only when its `Isa` answers `avx2()`, the
    // tier invariant). The body is safe code.
    unsafe fn kernels_avx2(x: &Lanes, a: &Lanes) -> [Lanes; 3] {
        kernels_plain(x, a)
    }

    /// Worst differences of the lane kernels from libm over `xs`
    /// (for `ln`, relative) and `angles` (for `sin`/`cos`, absolute),
    /// at tier `isa`.
    fn worst(isa: Isa, xs: &[f64], angles: &[f64]) -> (f64, f64) {
        let (mut ln_diff, mut trig_diff) = (0.0f64, 0.0f64);
        let pad = |v: &[f64], k: usize| -> Lanes {
            std::array::from_fn(|j| v.get(k * LANES + j).copied().unwrap_or(0.5))
        };
        let blocks = xs.len().max(angles.len()).div_ceil(LANES);
        for k in 0..blocks {
            let (x, a) = (pad(xs, k), pad(angles, k));
            let [ln, sin, cos] = kernels(isa, &x, &a);
            for j in 0..LANES {
                let want = x[j].ln();
                if want != 0.0 {
                    ln_diff = ln_diff.max(((ln[j] - want) / want).abs());
                }
                let d = (sin[j] - a[j].sin())
                    .abs()
                    .max((cos[j] - a[j].cos()).abs());
                trig_diff = trig_diff.max(d);
            }
        }
        (ln_diff, trig_diff)
    }

    /// SplitMix64, for dense sweeps.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn lane_ln_stays_within_its_bound_of_libm() {
        let root_half = std::f64::consts::FRAC_1_SQRT_2;
        let mut xs = vec![
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            0.5,
            root_half,
            root_half.next_up(),
            root_half.next_down(),
            std::f64::consts::SQRT_2.next_down(),
            1.0 / (1u64 << 53) as f64,
        ];
        // Dense: every exponent of the draw's range, random mantissas,
        // and the upper-band edges of fdlibm's formula selection.
        let mut next = splitmix(0x1e);
        for _ in 0..200_000 {
            let bits = next();
            let exponent = 1 + (bits >> 53) % 1022;
            xs.push(f64::from_bits((exponent << 52) | (bits & ((1 << 52) - 1))));
            xs.push(((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(f64::MIN_POSITIVE));
        }
        for edge in [0x6147au64, 0x6b851] {
            let x = f64::from_bits((0x3fe0_0000 | edge) << 32);
            xs.extend([x.next_down(), x, x.next_up()]);
        }
        for &isa in Isa::tiers() {
            let (ln_diff, _) = worst(isa, &xs, &[]);
            assert!(
                ln_diff < LN_REL_DIFF,
                "{}: ln differs from libm by {ln_diff:e} (relative)",
                isa.name()
            );
        }
    }

    #[test]
    fn lane_sin_cos_stay_within_their_bound_of_libm() {
        let mut angles = vec![0.0, (2.0 * PI).next_down(), 2.0 * PI];
        for k in 1..4 {
            let quadrant = k as f64 * std::f64::consts::FRAC_PI_2;
            angles.extend([quadrant.next_down(), quadrant, quadrant.next_up()]);
        }
        // Dense: the angles the draw makes, `2π·u₂` for random `u₂`.
        let mut next = splitmix(0x5c);
        for _ in 0..400_000 {
            angles.push(2.0 * PI * ((next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)));
        }
        for &isa in Isa::tiers() {
            let (_, trig_diff) = worst(isa, &[], &angles);
            assert!(
                trig_diff < TRIG_ABS_DIFF,
                "{}: sin/cos differ from libm by {trig_diff:e}",
                isa.name()
            );
        }
    }

    #[test]
    fn lane_uniforms_follow_gen_range() {
        use rand::RngCore;
        use rand_chacha::rand_core::SeedableRng;
        let mut words = ChaCha8Rng::seed_from_u64(17);
        let mut draws = ChaCha8Rng::seed_from_u64(17);
        let check = |w1: u64, w2: u64, (u1, u2): (f64, f64)| {
            assert_eq!(uniform_lane(w1, f64::MIN_POSITIVE, 1.0).to_bits(), u1.to_bits());
            assert_eq!(uniform_lane(w2, 0.0, 1.0).to_bits(), u2.to_bits());
        };
        for _ in 0..100_000 {
            let (w1, w2) = (words.next_u64(), words.next_u64());
            check(w1, w2, uniforms(&mut draws));
        }
        // The range ends: a zero word and an all-ones word.
        check(0, 0, (f64::MIN_POSITIVE, 0.0));
        let top = 1.0 - f64::EPSILON / 2.0;
        check(u64::MAX, u64::MAX, (top, top));
    }
}
