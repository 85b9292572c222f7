//! The lane-parallel FFT body: the radix-2 butterflies on `i32` data
//! lanes with `i64` twiddle products, bit-identical to the scalar core.
//!
//! See the crate docs for the contract, the headroom argument and the
//! builds. [`LaneTables`] holds what the body reads (the bit-reversal
//! permutation and per-stage `i32` twiddles), built once per
//! [`FixedFft`](crate::FixedFft); the data lanes live on the caller's
//! stack, one lane for a single transform and [`FFT_LANES`] for a
//! whole group of a batch.

use mimo_fixed::{Fx, Isa, CQ15, SAMPLE_BITS};

/// Symbols per batch transform: one AVX2 register of `i32` per bin.
pub const FFT_LANES: usize = 8;

/// log2 of the largest supported transform size.
const MAX_LOG2: u32 = crate::MAX_SIZE.trailing_zeros();

/// Signed width of every lane data word: the 16-bit bus plus
/// `log2 n + 1` bits of growth (crate docs).
const LANE_DATA_BITS: u32 = SAMPLE_BITS + MAX_LOG2 + 1;

/// Output shifts at or above this round every lane word to zero, as
/// the scalar core does; larger configured shifts are capped here so
/// every `i32` shift stays defined.
const SHIFT_CAP: u32 = LANE_DATA_BITS;

/// Bound on the complex magnitude, in LSBs, of every butterfly output
/// after `stages` stages. Bus input has magnitude below
/// `⌈√2·2¹⁵⌉`; a stage maps `M` to at most
/// `M + M·(1 + 2⁻¹⁵) + √2` (the twiddle's magnitude, then two
/// half-LSB roundings per component), bounded here in integers.
const fn magnitude_bound(stages: u32) -> i64 {
    let mut m: i64 = 46_341;
    let mut s = 0;
    while s < stages {
        m = 2 * m + m / (1 << 15) + 1 + 2;
        s += 1;
    }
    m
}

// Every component of every stage fits `LANE_DATA_BITS` signed bits,
// which fit an `i32`, and a data word times a 16-bit twiddle
// component fits an `i64` with room for the rounding offset.
const _: () = assert!(magnitude_bound(MAX_LOG2) < 1 << (LANE_DATA_BITS - 1));
const _: () = assert!(LANE_DATA_BITS < 32);
const _: () = assert!(LANE_DATA_BITS + SAMPLE_BITS < 63);

/// What the lane body reads, built once per transform size.
#[derive(Debug, Clone)]
pub(crate) struct LaneTables {
    /// Load order: lane bin `i` reads input sample `bitrev[i]`.
    bitrev: Vec<u16>,
    /// Twiddle real parts per stage: the stage of half-length `h`
    /// reads `[h − 1, 2h − 1)`.
    tw_re: Vec<i32>,
    /// Twiddle imaginary parts, laid out as `tw_re`.
    tw_im: Vec<i32>,
    /// `tw_im` negated: the inverse transform's conjugate twiddles.
    tw_im_conj: Vec<i32>,
    /// The CPU tier [`LaneTables::transform`] dispatches on.
    pub(crate) isa: Isa,
}

/// Where a transform reads and writes: [`LaneTables::transform`] at
/// `W` lanes reads lane `k`'s `n` input samples from
/// `input[k·in_stride..]` and writes its `n` outputs to
/// `out[k·out_stride..]`.
pub(crate) struct LaneIo<'a> {
    pub input: &'a [CQ15],
    pub in_stride: usize,
    pub out: &'a mut [CQ15],
    pub out_stride: usize,
}

impl LaneTables {
    /// Builds the tables from the scalar core's Q1.15 twiddles
    /// (`e^{-j2πk/n}` for `k < n/2`), for the build of tier `isa`.
    pub(crate) fn new(twiddles: &[CQ15], isa: Isa) -> Self {
        let n = 2 * twiddles.len();
        let log2 = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| (i.reverse_bits() >> (usize::BITS - log2)) as u16)
            .collect();
        let mut staged = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            staged.extend((0..half).map(|i| twiddles[i * step]));
            half *= 2;
        }
        // Twiddles sit on the 16-bit bus, so every part fits an i32.
        let part =
            |f: fn(&CQ15) -> i64| -> Vec<i32> { staged.iter().map(|c| f(c) as i32).collect() };
        Self {
            bitrev,
            tw_re: part(|c| c.re.raw()),
            tw_im: part(|c| c.im.raw()),
            tw_im_conj: part(|c| -c.im.raw()),
            isa,
        }
    }

    // phylint: hot
    /// Runs the lane body at `W` lanes on the build of the tables'
    /// tier. `re` and
    /// `im` hold `n` bins each; every lane input must be on the 16-bit
    /// bus (an off-bus lane yields unspecified values, never a panic).
    #[inline]
    pub(crate) fn transform<const W: usize>(
        &self,
        re: &mut [[i32; W]],
        im: &mut [[i32; W]],
        io: LaneIo<'_>,
        inverse: bool,
        shift: u32,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            unsafe { transform_avx2(self, re, im, io, inverse, shift) };
            return;
        }
        transform_lanes(self, re, im, io, inverse, shift);
    }
    // phylint: end-hot
}

// phylint: hot
/// Returns `true` if every component of `block` is on the 16-bit bus:
/// the condition for the lanes to reproduce the scalar core.
pub(crate) fn on_bus(block: &[CQ15]) -> bool {
    // raw + 2¹⁵ lands in [0, 2¹⁶) exactly for on-bus values; the OR of
    // all of them stays below 2¹⁶ exactly when each does.
    let bias = |raw: i64| raw.wrapping_add(1 << (SAMPLE_BITS - 1)) as u64;
    let spread = block
        .iter()
        .fold(0u64, |acc, c| acc | bias(c.re.raw()) | bias(c.im.raw()));
    spread < 1 << SAMPLE_BITS
}

/// `p / 2¹⁵` rounded half away from zero — `Fx::<15>::mul`'s rounding.
/// `neg` is −1 for negative `p`, turning round-half-up into
/// round-half-away: `⌈(p − h)/2¹⁵⌉ = ⌊(p + h − 1)/2¹⁵⌋` for `h = 2¹⁴`.
#[inline(always)]
fn round_q15(p: i64) -> i32 {
    let neg = p >> 63;
    ((p + (1 << 14) + neg) >> 15) as i32
}

/// The output register: `Fx::shr_round` by `shift` (the same
/// half-away rounding; `half`/`neg_mask` are zero for `shift == 0`),
/// then saturation onto the 16-bit bus.
#[inline(always)]
fn finish(v: i32, shift: u32, half: i32, neg_mask: i32) -> i32 {
    let neg = (v >> 31) & neg_mask;
    let bus = 1 << (SAMPLE_BITS - 1);
    ((v + half + neg) >> shift).clamp(-bus, bus - 1)
}

/// One radix-2 butterfly on every lane: `(u, x) ← (u + x·w, u − x·w)`,
/// each product rounded as `Fx::<15>::mul`. The lanes are read into
/// locals first, so the `W` lanes are independent straight-line code.
#[inline(always)]
fn butterfly<const W: usize>(
    (ur, ui): (&mut [i32; W], &mut [i32; W]),
    (xr, xi): (&mut [i32; W], &mut [i32; W]),
    (wr, wi): (i64, i64),
) {
    let (a, b) = (*xr, *xi);
    let vr: [i32; W] =
        std::array::from_fn(|k| round_q15(i64::from(a[k]) * wr) - round_q15(i64::from(b[k]) * wi));
    let vi: [i32; W] =
        std::array::from_fn(|k| round_q15(i64::from(a[k]) * wi) + round_q15(i64::from(b[k]) * wr));
    let (pr, pi) = (*ur, *ui);
    *ur = std::array::from_fn(|k| pr[k] + vr[k]);
    *ui = std::array::from_fn(|k| pi[k] + vi[k]);
    *xr = std::array::from_fn(|k| pr[k] - vr[k]);
    *xi = std::array::from_fn(|k| pi[k] - vi[k]);
}

/// The lane body: bit-reversed load, `log2 n` butterfly stages and the
/// output register, on `W` independent transforms in lockstep.
#[inline(always)]
fn transform_lanes<const W: usize>(
    t: &LaneTables,
    re: &mut [[i32; W]],
    im: &mut [[i32; W]],
    io: LaneIo<'_>,
    inverse: bool,
    shift: u32,
) {
    let n = re.len();
    let LaneIo {
        input,
        in_stride,
        out,
        out_stride,
    } = io;
    for k in 0..W {
        let symbol = &input[k * in_stride..k * in_stride + n];
        for ((r, m), &src) in re.iter_mut().zip(im.iter_mut()).zip(&t.bitrev) {
            let c = symbol[usize::from(src)];
            // On-bus values pass unchanged; an off-bus lane wraps here
            // (keeping the arithmetic in range) and the caller
            // recomputes it on the scalar core.
            r[k] = i32::from(c.re.raw() as i16);
            m[k] = i32::from(c.im.raw() as i16);
        }
    }
    let tw_im = if inverse { &t.tw_im_conj } else { &t.tw_im };
    let mut half = 1;
    while half < n {
        let (wr, wi) = (
            &t.tw_re[half - 1..2 * half - 1],
            &tw_im[half - 1..2 * half - 1],
        );
        for (cr, ci) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (ur, xr) = cr.split_at_mut(half);
            let (ui, xi) = ci.split_at_mut(half);
            for ((((ur, xr), ui), xi), (&wr, &wi)) in ur
                .iter_mut()
                .zip(xr.iter_mut())
                .zip(ui.iter_mut())
                .zip(xi.iter_mut())
                .zip(wr.iter().zip(wi))
            {
                butterfly((ur, ui), (xr, xi), (i64::from(wr), i64::from(wi)));
            }
        }
        half *= 2;
    }
    let shift = shift.min(SHIFT_CAP);
    let (half, neg_mask) = if shift == 0 {
        (0, 0)
    } else {
        (1 << (shift - 1), -1)
    };
    for lanes in re.iter_mut().chain(im.iter_mut()) {
        *lanes = lanes.map(|v| finish(v, shift, half, neg_mask));
    }
    for k in 0..W {
        let symbol = &mut out[k * out_stride..k * out_stride + n];
        for ((o, r), m) in symbol.iter_mut().zip(re.iter()).zip(im.iter()) {
            *o = CQ15::new(Fx::from_raw(i64::from(r[k])), Fx::from_raw(i64::from(m[k])));
        }
    }
}

/// [`transform_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`LaneTables::transform` calls this only when its `Isa` answers
// `avx2()`, the tier invariant). The body is safe code.
unsafe fn transform_avx2<const W: usize>(
    t: &LaneTables,
    re: &mut [[i32; W]],
    im: &mut [[i32; W]],
    io: LaneIo<'_>,
    inverse: bool,
    shift: u32,
) {
    transform_lanes(t, re, im, io, inverse, shift)
}
// phylint: end-hot
