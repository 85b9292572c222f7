//! Bit-accurate fixed-point radix-2 FFT/IFFT core.

use std::error::Error;
use std::fmt;

use mimo_fixed::{Cf64, Isa, CQ15, SAMPLE_BITS};

use crate::lanes::{on_bus, LaneIo, LaneTables, FFT_LANES};

/// Largest transform size whose whole groups of [`FFT_LANES`] frames
/// run in the lanes: eight lanes of 512 bins take 32 KiB of stack, as
/// much as one lane of the largest size. Larger batches run one lane
/// per frame.
const BATCH_MAX: usize = 512;

/// Errors produced by the fixed-point FFT core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FftError {
    /// Requested transform size is unsupported.
    UnsupportedSize(usize),
    /// Input block length does not match the configured size.
    LengthMismatch {
        /// Configured transform size.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::UnsupportedSize(n) => {
                write!(f, "unsupported FFT size {n} (power of two in 8..=4096 required)")
            }
            FftError::LengthMismatch { expected, got } => {
                write!(f, "input length {got} does not match FFT size {expected}")
            }
        }
    }
}

impl Error for FftError {}

/// Output scaling policy, modelling the right-shift normalization a
/// hardware core applies to keep results on the 16-bit bus.
///
/// The defaults reflect where each transform sits in the paper's
/// datapath: the transmit IFFT backs its output off so OFDM peaks
/// (PAPR) rarely clip the DAC bus, while the receive FFT divides by
/// `√N`-ish so a full-scale input neither clips nor starves precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftScaling {
    /// Right-shift applied to forward-transform outputs.
    pub forward_shift: u32,
    /// Right-shift applied to inverse-transform outputs.
    pub inverse_shift: u32,
}

impl FftScaling {
    /// Default policy for a transform of size `n`:
    /// forward shift `(log2 n + 2) / 2`, inverse shift `log2 n − 1`.
    pub fn for_size(n: usize) -> Self {
        let log2 = n.trailing_zeros();
        Self {
            forward_shift: (log2 + 2) / 2,
            inverse_shift: log2.saturating_sub(1),
        }
    }
}

/// A fixed-point radix-2 decimation-in-time FFT/IFFT core.
///
/// Twiddle factors are quantized to Q1.15 exactly as a hardware twiddle
/// ROM would store them; butterflies carry guard bits and results are
/// saturated onto the 16-bit bus at the output register, so the model
/// clips exactly where hardware would.
///
/// Every transform of on-bus input runs the lane body (crate docs):
/// one transform per call through [`FixedFft::fft_into`] /
/// [`FixedFft::ifft_into`], or any number through
/// [`FixedFft::fft_batch_into`] / [`FixedFft::ifft_batch_into`], whole
/// groups of [`FFT_LANES`] in lockstep. Input off the 16-bit bus takes
/// the scalar core, which the lanes reproduce bit for bit.
///
/// # Examples
///
/// ```
/// use mimo_fft::FixedFft;
/// use mimo_fixed::CQ15;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fft = FixedFft::new(64)?;
/// let mut impulse = vec![CQ15::ZERO; 64];
/// impulse[0] = CQ15::from_f64(0.5, 0.0);
/// let spectrum = fft.fft(&impulse)?;
/// // Flat spectrum at 0.5 >> forward_shift.
/// let expected = 0.5 / (1 << fft.scaling().forward_shift) as f64;
/// assert!((spectrum[7].re.to_f64() - expected).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FixedFft {
    size: usize,
    scaling: FftScaling,
    /// Twiddles e^{-j2πk/N} for k in 0..N/2, quantized to Q1.15.
    twiddles: Vec<CQ15>,
    /// Bit-reversal order and `i32` twiddles of the lane body.
    lanes: LaneTables,
}

impl FixedFft {
    /// Creates a core of the given size with default scaling.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::UnsupportedSize`] unless `n` is a power of
    /// two in `8..=4096`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Self::with_scaling(n, FftScaling::for_size(n))
    }

    /// Creates a core with an explicit scaling policy.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::UnsupportedSize`] unless `n` is a power of
    /// two in `8..=4096`.
    pub fn with_scaling(n: usize, scaling: FftScaling) -> Result<Self, FftError> {
        if !crate::is_supported_size(n) {
            return Err(FftError::UnsupportedSize(n));
        }
        let twiddles = (0..n / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Cf64::from_polar(1.0, ang).to_fixed::<15>().saturate_bits(SAMPLE_BITS)
            })
            .collect::<Vec<_>>();
        let lanes = LaneTables::new(&twiddles, Isa::detected());
        Ok(Self {
            size: n,
            scaling,
            twiddles,
            lanes,
        })
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The configured scaling policy.
    pub fn scaling(&self) -> FftScaling {
        self.scaling
    }

    /// Forward transform: `out[k] = (Σ x[n]·e^{-j2πkn/N}) >> forward_shift`,
    /// saturated to the 16-bit bus.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != size`.
    pub fn fft(&self, input: &[CQ15]) -> Result<Vec<CQ15>, FftError> {
        let mut out = vec![CQ15::ZERO; self.size];
        self.fft_into(input, &mut out)?;
        Ok(out)
    }

    /// Inverse transform:
    /// `out[n] = (Σ X[k]·e^{+j2πkn/N}) >> inverse_shift`, saturated to
    /// the 16-bit bus. With the default `inverse_shift = log2 N − 1`
    /// this is `2/N` times the unnormalized IDFT.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `input.len() != size`.
    pub fn ifft(&self, input: &[CQ15]) -> Result<Vec<CQ15>, FftError> {
        let mut out = vec![CQ15::ZERO; self.size];
        self.ifft_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free forward transform into a caller-provided buffer
    /// (`input` and `out` must both be exactly `size` samples). Equal
    /// to [`FixedFft::fft`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on either length.
    pub fn fft_into(&self, input: &[CQ15], out: &mut [CQ15]) -> Result<(), FftError> {
        self.transform_into(input, out, false)
    }

    /// Allocation-free inverse transform into a caller-provided buffer.
    /// Equal to [`FixedFft::ifft`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on either length.
    pub fn ifft_into(&self, input: &[CQ15], out: &mut [CQ15]) -> Result<(), FftError> {
        self.transform_into(input, out, true)
    }

    // phylint: hot
    /// `frames` forward transforms at once. Frame `k` reads its `size`
    /// samples from `input[k·in_stride..]` and writes its spectrum to
    /// `out[k·out_stride..]`; each result equals [`FixedFft::fft_into`]
    /// on that frame bit for bit. Every whole group of [`FFT_LANES`]
    /// frames runs in the lanes together (sizes up to 512), the rest
    /// one lane each. The lane data lives on the stack, so the call
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when a stride is below the
    /// transform size or a buffer is too short for `frames` strides.
    pub fn fft_batch_into(
        &self,
        input: &[CQ15],
        in_stride: usize,
        out: &mut [CQ15],
        out_stride: usize,
        frames: usize,
    ) -> Result<(), FftError> {
        self.transform_batch(input, in_stride, out, out_stride, frames, false)
    }

    /// `frames` inverse transforms at once, laid out and grouped as in
    /// [`FixedFft::fft_batch_into`]; each result equals
    /// [`FixedFft::ifft_into`] on that frame bit for bit.
    ///
    /// # Errors
    ///
    /// As [`FixedFft::fft_batch_into`].
    pub fn ifft_batch_into(
        &self,
        input: &[CQ15],
        in_stride: usize,
        out: &mut [CQ15],
        out_stride: usize,
        frames: usize,
    ) -> Result<(), FftError> {
        self.transform_batch(input, in_stride, out, out_stride, frames, true)
    }

    fn transform_into(
        &self,
        input: &[CQ15],
        out: &mut [CQ15],
        inverse: bool,
    ) -> Result<(), FftError> {
        self.check_len(input.len())?;
        self.check_len(out.len())?;
        if !on_bus(input) {
            self.transform_scalar(input, out, inverse);
            return Ok(());
        }
        let n = self.size;
        let io = LaneIo {
            input,
            in_stride: n,
            out,
            out_stride: n,
        };
        // 64 points for the default geometry, the largest supported
        // size otherwise.
        if n <= 64 {
            self.on_stack::<1, 64>(io, inverse);
        } else {
            self.on_stack::<1, { crate::MAX_SIZE }>(io, inverse);
        }
        Ok(())
    }

    /// Runs the lane body at `W` lanes on stack data of `CAP ≥ size`
    /// bins per lane.
    fn on_stack<const W: usize, const CAP: usize>(&self, io: LaneIo<'_>, inverse: bool) {
        let n = self.size;
        let (mut re, mut im) = ([[0; W]; CAP], [[0; W]; CAP]);
        self.lanes
            .transform(&mut re[..n], &mut im[..n], io, inverse, self.shift(inverse));
    }

    fn transform_batch(
        &self,
        input: &[CQ15],
        in_stride: usize,
        out: &mut [CQ15],
        out_stride: usize,
        frames: usize,
        inverse: bool,
    ) -> Result<(), FftError> {
        let n = self.size;
        if frames == 0 {
            return Ok(());
        }
        let span = |stride: usize| (frames - 1) * stride + n;
        for (stride, len) in [(in_stride, input.len()), (out_stride, out.len())] {
            if stride < n {
                return Err(FftError::LengthMismatch {
                    expected: n,
                    got: stride,
                });
            }
            if len < span(stride) {
                return Err(FftError::LengthMismatch {
                    expected: span(stride),
                    got: len,
                });
            }
        }
        let grouped = if n <= BATCH_MAX {
            frames - frames % FFT_LANES
        } else {
            0
        };
        for first in (0..grouped).step_by(FFT_LANES) {
            let io = LaneIo {
                input: &input[first * in_stride..],
                in_stride,
                out: &mut out[first * out_stride..],
                out_stride,
            };
            if n <= 64 {
                self.on_stack::<FFT_LANES, 64>(io, inverse);
            } else {
                self.on_stack::<FFT_LANES, BATCH_MAX>(io, inverse);
            }
        }
        for k in 0..frames {
            let frame = &input[k * in_stride..k * in_stride + n];
            let dst = &mut out[k * out_stride..k * out_stride + n];
            if k >= grouped {
                self.transform_into(frame, dst, inverse)?;
            } else if !on_bus(frame) {
                // Wrapped in the lanes: redo it on the scalar core.
                self.transform_scalar(frame, dst, inverse);
            }
        }
        Ok(())
    }
    // phylint: end-hot

    fn check_len(&self, got: usize) -> Result<(), FftError> {
        if got == self.size {
            Ok(())
        } else {
            Err(FftError::LengthMismatch {
                expected: self.size,
                got,
            })
        }
    }

    fn shift(&self, inverse: bool) -> u32 {
        if inverse {
            self.scaling.inverse_shift
        } else {
            self.scaling.forward_shift
        }
    }

    /// The scalar core: the oracle the lanes are checked against and
    /// the path for input off the 16-bit bus. Works in the wide `i64`
    /// backing; saturates only at the output register.
    fn transform_scalar(&self, input: &[CQ15], out: &mut [CQ15], inverse: bool) {
        let n = self.size;
        let data = out;
        data.copy_from_slice(input);
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                data.swap(i, j);
            }
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
            }
            j |= m;
        }
        let mut len = 2;
        while len <= n {
            let step = n / len;
            for chunk in data.chunks_mut(len) {
                let half = len / 2;
                for i in 0..half {
                    let tw = self.twiddles[i * step];
                    let tw = if inverse { tw.conj() } else { tw };
                    let u = chunk[i];
                    let v = chunk[i + half] * tw;
                    chunk[i] = u + v;
                    chunk[i + half] = u - v;
                }
            }
            len <<= 1;
        }
        let shift = self.shift(inverse);
        for c in data.iter_mut() {
            *c = c.shr_round(shift).saturate_bits(SAMPLE_BITS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fft_f64, ifft_f64};

    /// No scaling at all: wide outputs that saturate on the bus.
    const UNSCALED: FftScaling = FftScaling {
        forward_shift: 0,
        inverse_shift: 0,
    };

    fn to_f64(v: &[CQ15]) -> Vec<Cf64> {
        v.iter().map(|&c| Cf64::from_fixed(c)).collect()
    }

    fn from_f64(v: &[Cf64]) -> Vec<CQ15> {
        v.iter().map(|c| c.to_fixed::<15>()).collect()
    }

    /// Output SNR of the fixed-point core vs the f64 reference, in dB.
    fn fixed_vs_float_snr_db(n: usize) -> f64 {
        let fft = FixedFft::new(n).unwrap();
        // Random-ish but deterministic multitone input at rms ~0.15.
        let input: Vec<Cf64> = (0..n)
            .map(|i| {
                let t = i as f64;
                Cf64::new(
                    0.1 * (0.7 * t).sin() + 0.05 * (2.1 * t + 0.3).cos(),
                    0.1 * (1.3 * t).cos() - 0.05 * (0.4 * t).sin(),
                )
            })
            .collect();
        let got = to_f64(&fft.fft(&from_f64(&input)).unwrap());
        let mut reference = input;
        fft_f64(&mut reference);
        let scale = 1.0 / (1 << fft.scaling().forward_shift) as f64;
        let mut sig = 0.0;
        let mut err = 0.0;
        for (g, r) in got.iter().zip(&reference) {
            let want = r.scale(scale);
            sig += want.norm_sqr();
            err += (*g - want).norm_sqr();
        }
        10.0 * (sig / err).log10()
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let fft = FixedFft::new(64).unwrap();
        let mut x = vec![CQ15::ZERO; 64];
        x[0] = CQ15::from_f64(0.5, 0.0);
        let y = fft.fft(&x).unwrap();
        let expected = 0.5 / (1 << fft.scaling().forward_shift) as f64;
        for bin in &y {
            assert!((bin.re.to_f64() - expected).abs() < 1e-3);
            assert!(bin.im.to_f64().abs() < 1e-3);
        }
    }

    #[test]
    fn fixed_matches_float_to_high_snr() {
        for n in [64usize, 128, 256, 512] {
            let snr = fixed_vs_float_snr_db(n);
            assert!(snr > 55.0, "N={n}: fixed-point FFT SNR {snr:.1} dB too low");
        }
    }

    #[test]
    fn ifft_matches_float_reference() {
        let n = 64;
        let fft = FixedFft::new(n).unwrap();
        let freq: Vec<Cf64> = (0..n)
            .map(|k| Cf64::new(0.3 * ((k * 7) as f64).sin(), 0.3 * ((k * 3) as f64).cos()))
            .collect();
        let got = to_f64(&fft.ifft(&from_f64(&freq)).unwrap());
        let mut reference = freq;
        ifft_f64(&mut reference);
        // Our ifft = (2/N)·unnormalized IDFT = 2·normalized IDFT... the
        // reference applies 1/N, ours applies 2^-(log2N-1) = 2/N.
        for (g, r) in got.iter().zip(&reference) {
            let want = r.scale(2.0);
            assert!((*g - want).norm() < 2e-3, "got {g}, want {want}");
        }
    }

    #[test]
    fn fft_of_ifft_recovers_input_shape() {
        let n = 64;
        let core = FixedFft::new(n).unwrap();
        let freq: Vec<CQ15> = (0..n)
            .map(|k| CQ15::from_f64(if k % 5 == 0 { 0.4 } else { -0.2 }, 0.1))
            .collect();
        let time = core.ifft(&freq).unwrap();
        let back = core.fft(&time).unwrap();
        // Net gain: ifft 2/N · fft N/2^fwd = 2/2^fwd = 2/16 = 1/8 for N=64.
        let gain = 2.0 / (1 << core.scaling().forward_shift) as f64;
        for (b, f) in back.iter().zip(&freq) {
            let want = Cf64::from_fixed(*f).scale(gain);
            assert!((Cf64::from_fixed(*b) - want).norm() < 3e-3);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let fft = FixedFft::new(64).unwrap();
        let err = fft.fft(&vec![CQ15::ZERO; 32]).unwrap_err();
        assert_eq!(err, FftError::LengthMismatch { expected: 64, got: 32 });
        assert!(err.to_string().contains("32"));
    }

    #[test]
    fn unsupported_sizes_rejected() {
        assert_eq!(FixedFft::new(48).unwrap_err(), FftError::UnsupportedSize(48));
        assert_eq!(FixedFft::new(4).unwrap_err(), FftError::UnsupportedSize(4));
    }

    #[test]
    fn full_scale_input_saturates_not_wraps() {
        let fft = FixedFft::with_scaling(64, UNSCALED).unwrap();
        let x = vec![CQ15::from_f64(0.999, 0.0); 64];
        let y = fft.fft(&x).unwrap();
        // Unscaled DC bin would be ~64; it must clamp to the bus max,
        // not wrap negative.
        assert!(y[0].re.to_f64() > 0.9);
        assert_eq!(y[0].re.raw(), (1 << 15) - 1);
    }

    /// Deterministic xorshift bus samples.
    fn random_block(n: usize, seed: u64) -> Vec<CQ15> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            raw((x >> 48) as i16 as i64, (x >> 32) as i16 as i64)
        };
        (0..n).map(|_| next()).collect()
    }

    fn raw(re: i64, im: i64) -> CQ15 {
        CQ15::new(mimo_fixed::Fx::from_raw(re), mimo_fixed::Fx::from_raw(im))
    }

    const MAX: i64 = (1 << 15) - 1;
    const MIN: i64 = -(1 << 15);

    /// Rails, alternating rails and random values.
    fn inputs(n: usize) -> Vec<Vec<CQ15>> {
        vec![
            vec![raw(MAX, MAX); n],
            vec![raw(MIN, MIN); n],
            (0..n)
                .map(|i| {
                    let (a, b) = if i % 2 == 0 { (MAX, MIN) } else { (MIN, MAX) };
                    raw(a, b)
                })
                .collect(),
            random_block(n, n as u64),
            random_block(n, 7 * n as u64 + 1),
        ]
    }

    fn oracle(fft: &FixedFft, input: &[CQ15], inverse: bool) -> Vec<CQ15> {
        let mut out = vec![CQ15::ZERO; input.len()];
        fft.transform_scalar(input, &mut out, inverse);
        out
    }

    fn every_core() -> impl Iterator<Item = (usize, FixedFft)> {
        (3..=12).map(|log2| 1usize << log2).flat_map(|n| {
            [FftScaling::for_size(n), UNSCALED]
                .into_iter()
                .flat_map(move |scaling| {
                    let fft = FixedFft::with_scaling(n, scaling).unwrap();
                    Isa::tiers().iter().map(move |&isa| {
                        let mut fft = fft.clone();
                        fft.lanes.isa = isa;
                        fft
                    })
                })
                .map(move |fft| (n, fft))
        })
    }

    #[test]
    fn one_lane_matches_scalar_core_at_every_size() {
        for (n, fft) in every_core() {
            for input in inputs(n) {
                for inverse in [false, true] {
                    let mut got = vec![CQ15::ZERO; n];
                    fft.transform_into(&input, &mut got, inverse).unwrap();
                    assert!(
                        got == oracle(&fft, &input, inverse),
                        "n={n} inverse={inverse} {} {:?}",
                        fft.lanes.isa.name(),
                        fft.scaling()
                    );
                }
            }
        }
    }

    /// Any frame count: whole groups of eight in the lanes, the rest
    /// one lane each, all equal to the scalar core.
    #[test]
    fn batch_matches_scalar_core_at_every_size() {
        for (n, fft) in every_core() {
            // Strided input (room for a CP-like gap) and output.
            let (in_stride, out_stride) = (n + n / 4, n + 3);
            for frames in [FFT_LANES, 2 * FFT_LANES + 3, 5] {
                let symbols: Vec<Vec<CQ15>> = (0..frames)
                    .map(|k| inputs(n).swap_remove(k % 5))
                    .map(|mut v| {
                        v.rotate_left(3);
                        v
                    })
                    .collect();
                let mut input = vec![raw(1 << 20, 0); frames * in_stride];
                for (k, s) in symbols.iter().enumerate() {
                    input[k * in_stride..k * in_stride + n].copy_from_slice(s);
                }
                for inverse in [false, true] {
                    let mut out = vec![CQ15::ZERO; frames * out_stride];
                    let run = if inverse { FixedFft::ifft_batch_into } else { FixedFft::fft_batch_into };
                    run(&fft, &input, in_stride, &mut out, out_stride, frames).unwrap();
                    for (k, s) in symbols.iter().enumerate() {
                        assert!(
                            out[k * out_stride..k * out_stride + n] == oracle(&fft, s, inverse)[..],
                            "n={n} frames={frames} symbol {k} inverse={inverse} {} {:?}",
                            fft.lanes.isa.name(),
                            fft.scaling()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn off_bus_input_takes_the_scalar_core() {
        for (n, fft) in every_core().filter(|(n, _)| *n <= 256) {
            let mut wide = random_block(n, 3);
            wide[n / 3] = raw(40_000, -70_000);
            for inverse in [false, true] {
                let mut got = vec![CQ15::ZERO; n];
                fft.transform_into(&wide, &mut got, inverse).unwrap();
                assert_eq!(got, oracle(&fft, &wide, inverse), "n={n}");
                // One off-bus symbol among bus symbols in a group.
                let mut input = random_block(FFT_LANES * n, 5);
                input[5 * n..6 * n].copy_from_slice(&wide);
                let mut out = vec![CQ15::ZERO; FFT_LANES * n];
                let run = if inverse { FixedFft::ifft_batch_into } else { FixedFft::fft_batch_into };
                run(&fft, &input, n, &mut out, n, FFT_LANES).unwrap();
                for (got, want) in out.chunks(n).zip(input.chunks(n)) {
                    assert_eq!(got, oracle(&fft, want, inverse), "n={n}");
                }
            }
        }
    }

    #[test]
    fn batch_rejects_short_buffers_and_strides() {
        let fft = FixedFft::new(64).unwrap();
        let input = vec![CQ15::ZERO; 8 * 64];
        let mut out = vec![CQ15::ZERO; 8 * 64];
        assert_eq!(
            fft.fft_batch_into(&input, 63, &mut out, 64, 8),
            Err(FftError::LengthMismatch { expected: 64, got: 63 })
        );
        assert_eq!(
            fft.fft_batch_into(&input[1..], 64, &mut out, 64, 8),
            Err(FftError::LengthMismatch { expected: 512, got: 511 })
        );
        assert_eq!(
            fft.ifft_batch_into(&input, 64, &mut out, 65, 8),
            Err(FftError::LengthMismatch { expected: 519, got: 512 })
        );
        assert_eq!(
            fft.fft_batch_into(&input, 64, &mut out, 64, 9),
            Err(FftError::LengthMismatch { expected: 576, got: 512 })
        );
        assert_eq!(fft.fft_batch_into(&[], 64, &mut [], 64, 0), Ok(()));
    }

    /// The headroom argument's premise: no quantized twiddle exceeds
    /// magnitude `1 + 2⁻¹⁵`.
    #[test]
    fn twiddles_stay_within_the_headroom_bound() {
        for log2 in 3..=12 {
            let fft = FixedFft::new(1 << log2).unwrap();
            for w in &fft.twiddles {
                let (re, im) = (w.re.raw(), w.im.raw());
                assert!(re * re + im * im <= (MAX + 2) * (MAX + 2), "{w}");
            }
        }
    }

    #[test]
    fn default_scaling_values() {
        assert_eq!(FftScaling::for_size(64), FftScaling { forward_shift: 4, inverse_shift: 5 });
        assert_eq!(FftScaling::for_size(512), FftScaling { forward_shift: 5, inverse_shift: 8 });
    }
}
