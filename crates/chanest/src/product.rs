//! The R⁻¹·Qᴴ product on carrier lanes: the paper's "4x4 matrix
//! multiplication block" for [`LANES`] subcarriers per step,
//! bit-identical to [`FxMat4::mul_mat`] per carrier.
//!
//! Every real product of [`FxMat4::mul_mat`] is an `i64 × i64` product
//! rounded half away from zero by 16 bits. When every raw word of both
//! factors fits an `i32`, that product fits an `i64` exactly (below
//! 2⁶²), the rounded part stays below 2⁴⁶ and the eight-term sums of
//! an output word below 2⁴⁹: nothing saturates, so `i64` lanes give
//! the scalar bits. Any other group multiplies on the scalar path.
//!
//! The lane body is written once and built twice, like the other lane
//! kernels: inside an `avx2` target-feature function and plain, the
//! one that runs picked by the caller's [`Isa`] tier. Both builds give
//! the same bits.

use mimo_cordic::LANES;
use mimo_fixed::{CFx, Isa, Q16};

use crate::matrix::FxMat4;
use crate::N_ANTENNAS;

/// Pipeline latency of the paper's 4×4 matrix multiplier, in clock
/// cycles: four multiply-accumulate stages of a 5-stage pipelined
/// multiplier.
pub(crate) const PRODUCT_LATENCY_CYCLES: u32 = 20;

/// A 4×4 matrix of carrier lanes: `[row][col]`, lane `s` = carrier `s`.
type MatLanes<T> = [[[T; LANES]; N_ANTENNAS]; N_ANTENNAS];

/// Real and imaginary parts of a [`MatLanes`].
type Parts<T> = (MatLanes<T>, MatLanes<T>);

/// Whether every raw word of `m` fits an `i32` (module docs).
fn admitted(m: &FxMat4) -> bool {
    let fits = |raw: i64| i32::try_from(raw).is_ok();
    (0..N_ANTENNAS)
        .all(|r| (0..N_ANTENNAS).all(|c| fits(m[(r, c)].re.raw()) && fits(m[(r, c)].im.raw())))
}

// phylint: hot
/// Appends `a[s]·b[s]` to `out` for every carrier `s` of one group of at
/// most [`LANES`], in carrier order: on the lanes (the build of tier
/// `isa`) when every word of the group is admitted, with
/// [`FxMat4::mul_mat`] otherwise.
pub(crate) fn mul_group(a: &[FxMat4], b: &[FxMat4], isa: Isa, out: &mut Vec<FxMat4>) {
    debug_assert!(a.len() <= LANES && a.len() == b.len());
    if !a.iter().chain(b).all(admitted) {
        out.extend(a.iter().zip(b).map(|(a, b)| a.mul_mat(b)));
        return;
    }
    let n = a.len();
    let (a, b) = (narrow(a), narrow(b));
    let mut product = (
        [[[0; LANES]; N_ANTENNAS]; N_ANTENNAS],
        [[[0; LANES]; N_ANTENNAS]; N_ANTENNAS],
    );
    lanes_product(&a, &b, isa, &mut product);
    let (re, im) = &product;
    out.extend((0..n).map(|s| {
        FxMat4::from_fn(|r, c| CFx::new(Q16::from_raw(re[r][c][s]), Q16::from_raw(im[r][c][s])))
    }));
}

/// [`mul_lanes`] on the build of tier `isa`.
#[inline]
fn lanes_product(a: &Parts<i32>, b: &Parts<i32>, isa: Isa, out: &mut Parts<i64>) {
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: an `Isa` answers `avx2()` only where the probe
        // detected AVX2 on this CPU (the tier invariant).
        return unsafe { mul_avx2(a, b, out) };
    }
    mul_lanes(a, b, out)
}

/// Moves up to [`LANES`] admitted matrices onto `i32` carrier lanes;
/// spare lanes stay zero.
fn narrow(ms: &[FxMat4]) -> Parts<i32> {
    let mut parts = (
        [[[0; LANES]; N_ANTENNAS]; N_ANTENNAS],
        [[[0; LANES]; N_ANTENNAS]; N_ANTENNAS],
    );
    for (s, m) in ms.iter().enumerate() {
        for r in 0..N_ANTENNAS {
            for c in 0..N_ANTENNAS {
                // Admitted words fit an i32.
                parts.0[r][c][s] = m[(r, c)].re.raw() as i32;
                parts.1[r][c][s] = m[(r, c)].im.raw() as i32;
            }
        }
    }
    parts
}

/// `p / 2¹⁶` rounded half away from zero — `Q16::mul`'s rounding for a
/// product below 2⁶² in magnitude. `p >> 63` is −1 for negative `p`,
/// turning round-half-up into round-half-away.
#[inline(always)]
fn round_q16(p: i64) -> i64 {
    (p + (1 << 15) + (p >> 63)) >> 16
}

/// The lane body: `out = a · b` on every lane, each complex product
/// `(ar·br − ai·bi, ar·bi + ai·br)` with every real product rounded, as
/// [`FxMat4::mul_mat`] computes it.
#[inline(always)]
fn mul_lanes(a: &Parts<i32>, b: &Parts<i32>, out: &mut Parts<i64>) {
    let ((ar, ai), (br, bi)) = (a, b);
    let p = |x: i32, y: i32| round_q16(i64::from(x) * i64::from(y));
    for r in 0..N_ANTENNAS {
        for c in 0..N_ANTENNAS {
            let (mut re, mut im) = ([0i64; LANES], [0i64; LANES]);
            for k in 0..N_ANTENNAS {
                let (xr, xi, yr, yi) = (&ar[r][k], &ai[r][k], &br[k][c], &bi[k][c]);
                for s in 0..LANES {
                    re[s] += p(xr[s], yr[s]) - p(xi[s], yi[s]);
                    im[s] += p(xr[s], yi[s]) + p(xi[s], yr[s]);
                }
            }
            out.0[r][c] = re;
            out.1[r][c] = im;
        }
    }
}

/// [`mul_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`lanes_product` calls this only when its `Isa` answers `avx2()`,
// the tier invariant). The body is safe code.
unsafe fn mul_avx2(a: &Parts<i32>, b: &Parts<i32>, out: &mut Parts<i64>) {
    mul_lanes(a, b, out)
}
// phylint: end-hot
