//! The lane-parallel fine scan: the 32-tap correlation of [`LANES`]
//! consecutive candidate positions per step.
//!
//! See the crate docs for the contract and the range guard.
//! [`ScanLanes`] holds the taps as `i32` words and the lane CORDIC,
//! built once per [`TimeSynchronizer`](crate::TimeSynchronizer); the
//! sample lanes live on the caller's stack, one chunk of [`CHUNK`]
//! positions at a time.

use mimo_cordic::{Cordic, CordicLanes, Lanes, LANES};
use mimo_fixed::{Isa, CQ15, Q16, SAMPLE_BITS};

use crate::CORRELATOR_TAPS;

/// Candidate positions per lane chunk: eight lane groups.
pub(crate) const CHUNK: usize = 8 * LANES;

/// Lane groups per chunk.
const GROUPS: usize = CHUNK / LANES;

/// Samples one chunk reads: its positions plus the 31 that prime the
/// first window.
const SPAN: usize = CHUNK + CORRELATOR_TAPS - 1;

/// What the lane scan reads, built once per synchroniser.
#[derive(Debug, Clone)]
pub(crate) struct ScanLanes {
    /// Real parts of the pre-conjugated taps, oldest sample's tap first.
    tap_re: [i32; CORRELATOR_TAPS],
    /// Imaginary parts, laid out as `tap_re`.
    tap_im: [i32; CORRELATOR_TAPS],
    /// The magnitude CORDIC on [`LANES`] positions per call.
    cordic: CordicLanes,
    /// The CPU tier the correlation dispatches on (the CORDIC's too).
    pub(crate) isa: Isa,
}

impl ScanLanes {
    /// Builds the lane tables for the 32 `taps` and `cordic`, for the
    /// build of tier `isa`. Returns `None` when a tap is off the 16-bit
    /// bus; such synchronisers scan on the scalar correlator only.
    pub(crate) fn new(taps: &[CQ15], cordic: &Cordic, isa: Isa) -> Option<Self> {
        if !on_bus(taps) {
            return None;
        }
        let cordic = CordicLanes::with_isa(cordic, isa);
        let mut tap_re = [0; CORRELATOR_TAPS];
        let mut tap_im = [0; CORRELATOR_TAPS];
        for ((re, im), t) in tap_re.iter_mut().zip(&mut tap_im).zip(taps) {
            // On-bus words fit an i32.
            *re = t.re.raw() as i32;
            *im = t.im.raw() as i32;
        }
        Some(Self {
            tap_re,
            tap_im,
            cordic,
            isa,
        })
    }

    // phylint: hot
    /// The correlation magnitude of every window ending in `samples`:
    /// `out[p]` is the CORDIC magnitude of the window
    /// `samples[p..p + 32]`, equal to the scalar correlator's.
    /// `samples` holds `out.len() + 31` samples, `out` at most
    /// [`CHUNK`] entries. Returns `false`, with `out` unspecified, when
    /// a sample is off the 16-bit bus: the caller then correlates
    /// those windows on the scalar path.
    #[inline]
    pub(crate) fn magnitudes(&self, samples: &[CQ15], out: &mut [Q16]) -> bool {
        debug_assert!(out.len() <= CHUNK);
        debug_assert_eq!(samples.len(), out.len() + CORRELATOR_TAPS - 1);
        let groups = out.len().div_ceil(LANES);
        let mut xs = [[0; LANES]; GROUPS];
        let mut ys = [[0; LANES]; GROUPS];
        if !self.correlate(samples, &mut xs[..groups], &mut ys[..groups]) {
            return false;
        }
        for ((x, y), dst) in xs.iter().zip(&ys).zip(out.chunks_mut(LANES)) {
            let (magnitude, _) = self.cordic.vector(x, y);
            for (d, &m) in dst.iter_mut().zip(&magnitude) {
                *d = Q16::from_raw(m.into());
            }
        }
        true
    }

    /// [`correlate_lanes`] on the build of the scan's tier.
    #[inline]
    fn correlate(&self, samples: &[CQ15], xs: &mut [Lanes], ys: &mut [Lanes]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { correlate_avx2(self, samples, xs, ys) };
        }
        correlate_lanes(self, samples, xs, ys)
    }
}

/// Returns `true` if every component of `block` is on the 16-bit bus.
fn on_bus(block: &[CQ15]) -> bool {
    block.iter().all(|c| c.fits_bits(SAMPLE_BITS))
}

/// `p / 2¹⁵` rounded half away from zero — `Fx::<15>::mul`'s rounding.
/// Both factors are on the 16-bit bus, so `|p| ≤ 2³⁰` and `p + 2¹⁴`
/// fits an `i32`. `p >> 31` is −1 for negative `p`, turning
/// round-half-up into round-half-away:
/// `⌈(p − h)/2¹⁵⌉ = ⌊(p + h − 1)/2¹⁵⌋` for `h = 2¹⁴`.
#[inline(always)]
fn round_q15(p: i32) -> i32 {
    (p + (1 << 14) + (p >> 31)) >> 15
}

/// The lane body: widens `samples` onto `i32` lanes, then sums the 32
/// tap products of lane group `g`'s [`LANES`] windows into
/// `(xs[g], ys[g])`, already in the CORDIC's Q2.16. Every product is
/// rounded as the scalar complex multiply rounds it, and the sums are
/// exact: each product part is at most 2¹⁵ in magnitude, so a window's
/// sum stays below 2²¹ and its Q2.16 form below 2²², inside the lane
/// CORDIC's range. Lanes past the last window read zero padding and
/// are discarded by the caller. Returns `false` as soon as a sample is
/// off the bus.
#[inline(always)]
fn correlate_lanes(t: &ScanLanes, samples: &[CQ15], xs: &mut [Lanes], ys: &mut [Lanes]) -> bool {
    if !on_bus(samples) {
        return false;
    }
    let (mut re, mut im) = ([0i32; SPAN], [0i32; SPAN]);
    for ((r, m), c) in re.iter_mut().zip(&mut im).zip(samples) {
        *r = c.re.raw() as i32;
        *m = c.im.raw() as i32;
    }
    for (g, (x, y)) in xs.iter_mut().zip(ys.iter_mut()).enumerate() {
        let (mut acc_re, mut acc_im) = ([0i32; LANES], [0i32; LANES]);
        for (j, (&tr, &ti)) in t.tap_re.iter().zip(&t.tap_im).enumerate() {
            let base = g * LANES + j;
            let (sr, si) = (&re[base..base + LANES], &im[base..base + LANES]);
            for k in 0..LANES {
                acc_re[k] += round_q15(sr[k] * tr) - round_q15(si[k] * ti);
                acc_im[k] += round_q15(sr[k] * ti) + round_q15(si[k] * tr);
            }
        }
        // The Q1.15 → Q2.16 widening is an exact left shift.
        *x = acc_re.map(|v| v << 1);
        *y = acc_im.map(|v| v << 1);
    }
    true
}

/// [`correlate_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`ScanLanes::correlate` calls this only when its `Isa` answers
// `avx2()`, the tier invariant). The body is safe code.
unsafe fn correlate_avx2(
    t: &ScanLanes,
    samples: &[CQ15],
    xs: &mut [Lanes],
    ys: &mut [Lanes],
) -> bool {
    correlate_lanes(t, samples, xs, ys)
}
// phylint: end-hot
