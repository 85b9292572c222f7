//! Zero-forcing MIMO detection and the SISO per-carrier equalizer.

use std::error::Error;
use std::fmt;

use mimo_chanest::FxMat4;
use mimo_fixed::{CFx, Fx, CQ15, CQ16, SAMPLE_BITS};

/// Errors from the detection stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DetectError {
    /// Transmit-stream index out of range (must be 0..4).
    BadStreamIndex(usize),
    /// Carrier counts disagree between streams and the estimate.
    CarrierMismatch {
        /// Carriers in the channel estimate.
        expected: usize,
        /// Carriers supplied.
        got: usize,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::BadStreamIndex(k) => {
                write!(f, "transmit-stream index {k} out of range 0..4")
            }
            DetectError::CarrierMismatch { expected, got } => {
                write!(f, "carrier count {got} does not match estimate ({expected})")
            }
        }
    }
}

impl Error for DetectError {}

/// Carriers per ZF lane step — one AVX2 register of `i32`.
const ZF_LANES: usize = 8;

/// Signed width `H⁻¹` entries (raw Q.16) must fit to enter the lanes:
/// an `i32`.
const ZF_H_BITS: u32 = 32;

/// Signed width received values (raw Q1.15) must fit to enter the
/// lanes: 31 bits, so the Q1.15 → Q.16 widening fits an `i32`.
const ZF_RX_BITS: u32 = 31;

/// The zero-forcing MIMO decoder: per subcarrier, the received vector
/// (one value per RX antenna) is multiplied by the pre-computed `H⁻¹`
/// — "equalization is performed on a carrier-per-carrier basis".
///
/// The one kernel, [`ZfDetector::detect_stream_into`], computes one
/// row of `y = H⁻¹·r` for every carrier, so each spatial channel's
/// worker computes exactly its own stream. It runs eight carriers per
/// step on `i32` lanes with `i64` products (built for AVX2 when this
/// CPU has it, portable otherwise), bit-identical to the scalar
/// per-carrier loop it is checked against. That loop also serves any
/// eight-carrier step whose `H⁻¹` row holds an entry outside the `i32`
/// range (at or above 2³¹, or below −2³¹), or whose received values
/// leave `[−2³⁰, 2³⁰)`; the range is checked on every call.
///
/// # Examples
///
/// ```
/// use mimo_chanest::Mat4;
/// use mimo_detect::ZfDetector;
/// use mimo_fixed::CQ15;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Identity channel: detection passes values through.
/// let h_inv = vec![Mat4::identity().to_fixed(); 3];
/// let antenna = vec![CQ15::from_f64(0.25, 0.0); 3];
/// let rx = [antenna.as_slice(); 4];
/// let mut stream = vec![CQ15::ZERO; 3];
/// ZfDetector::new().detect_stream_into(&h_inv, &rx, 0, &mut stream)?;
/// assert!((stream[0].re.to_f64() - 0.25).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ZfDetector {
    /// Whether the AVX2 build of the lane body runs, from detection at
    /// construction.
    avx2: bool,
}

impl Default for ZfDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl ZfDetector {
    /// Creates the detector on the fastest lane build this CPU runs.
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Self { avx2 }
    }

    /// Detects a single transmit stream — row `stream` of the
    /// per-carrier `y = H⁻¹ · r` product — into a caller-provided
    /// buffer: `out[s] = Σ_j H⁻¹[s](stream, j) · rx[j][s]`, each
    /// product and the sum in Q.16, the result rounded to Q1.15 and
    /// saturated to the 16-bit bus. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] on shape mismatches.
    // phylint: hot
    pub fn detect_stream_into(
        &self,
        h_inv: &[FxMat4],
        rx: &[&[CQ15]; 4],
        stream: usize,
        out: &mut [CQ15],
    ) -> Result<(), DetectError> {
        if stream >= 4 {
            return Err(DetectError::BadStreamIndex(stream));
        }
        for antenna in rx {
            if antenna.len() != h_inv.len() {
                return Err(DetectError::CarrierMismatch {
                    expected: h_inv.len(),
                    got: antenna.len(),
                });
            }
        }
        if out.len() != h_inv.len() {
            return Err(DetectError::CarrierMismatch {
                expected: h_inv.len(),
                got: out.len(),
            });
        }
        #[cfg(target_arch = "x86_64")]
        if self.avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was detected on this CPU just above.
            unsafe { detect_avx2(h_inv, rx, stream, out) };
            return Ok(());
        }
        detect_lanes(h_inv, rx, stream, out);
        Ok(())
    }
}

/// The scalar per-carrier loop: the oracle the lanes are checked
/// against, and the path for inputs beyond the lane limits.
fn detect_scalar(h_inv: &[FxMat4], rx: &[&[CQ15]; 4], stream: usize, out: &mut [CQ15]) {
    for (s, inv) in h_inv.iter().enumerate() {
        let mut acc: CQ16 = CFx::ZERO;
        for (j, antenna) in rx.iter().enumerate() {
            let r: CQ16 = antenna[s].convert();
            acc += inv[(stream, j)] * r;
        }
        let narrow: CFx<15> = acc.convert();
        out[s] = narrow.saturate_bits(SAMPLE_BITS);
    }
}

/// `raw` offset by half the range of a signed `bits`-wide word: below
/// `2^bits` exactly when `raw` fits that word, so an OR over many
/// offsets checks them all at once.
#[inline(always)]
fn biased(raw: i64, bits: u32) -> u64 {
    (raw as u64).wrapping_add(1 << (bits - 1))
}

/// `p / 2¹⁶` rounded half away from zero — `Fx::<16>::mul`'s rounding.
/// `p >> 63` is −1 for negative `p`, turning round-half-up into
/// round-half-away: `⌈(p − h)/2¹⁶⌉ = ⌊(p + h − 1)/2¹⁶⌋` for `h = 2¹⁵`.
/// The floor is taken with a logical shift, which AVX2 has for 64-bit
/// lanes (it lacks the arithmetic one): flipping the sign bit adds 2⁶³
/// in `u64`, so the shift yields `⌊q/2¹⁶⌋ + 2⁴⁷`.
#[inline(always)]
fn round_q16(p: i64) -> i64 {
    let q = p + (1 << 15) + (p >> 63);
    (((q as u64) ^ (1 << 63)) >> 16) as i64 - (1 << 47)
}

/// The lane body: row `stream` of `H⁻¹·r` for [`ZF_LANES`] carriers
/// per step. Each step gathers its inputs into `i32` lanes and checks
/// their range on the way; a step with an `H⁻¹` entry outside
/// [`ZF_H_BITS`] signed bits (at or above 2³¹, or below −2³¹) or a
/// received value outside [`ZF_RX_BITS`] runs the scalar loop
/// instead. Within range every product is at most 2⁶² in magnitude
/// and fits an `i64`, and so does the sum of eight rounded products.
/// A last partial step runs on zero-filled lanes and writes back only
/// its carriers.
#[inline(always)]
fn detect_lanes(h_inv: &[FxMat4], rx: &[&[CQ15]; 4], stream: usize, out: &mut [CQ15]) {
    for (step, (invs, dst)) in h_inv.chunks(ZF_LANES).zip(out.chunks_mut(ZF_LANES)).enumerate() {
        let first = step * ZF_LANES;
        let rx: [&[CQ15]; 4] = std::array::from_fn(|j| &rx[j][first..first + invs.len()]);
        let (mut hr, mut hi) = ([[0i32; ZF_LANES]; 4], [[0i32; ZF_LANES]; 4]);
        let (mut rr, mut ri) = ([[0i32; ZF_LANES]; 4], [[0i32; ZF_LANES]; 4]);
        let (mut h_spread, mut r_spread) = (0u64, 0u64);
        // The casts are exact once the spreads pass the range check
        // below; `<< 1` is the Q1.15 → Q.16 widening.
        for (k, inv) in invs.iter().enumerate() {
            for j in 0..4 {
                let h = inv[(stream, j)];
                h_spread |= biased(h.re.raw(), ZF_H_BITS) | biased(h.im.raw(), ZF_H_BITS);
                hr[j][k] = h.re.raw() as i32;
                hi[j][k] = h.im.raw() as i32;
            }
        }
        for (j, antenna) in rx.iter().enumerate() {
            for (k, r) in antenna.iter().enumerate() {
                r_spread |= biased(r.re.raw(), ZF_RX_BITS) | biased(r.im.raw(), ZF_RX_BITS);
                rr[j][k] = (r.re.raw() << 1) as i32;
                ri[j][k] = (r.im.raw() << 1) as i32;
            }
        }
        if h_spread >> ZF_H_BITS != 0 || r_spread >> ZF_RX_BITS != 0 {
            detect_scalar(invs, &rx, stream, dst);
            continue;
        }
        let (mut acc_re, mut acc_im) = ([0i64; ZF_LANES], [0i64; ZF_LANES]);
        for j in 0..4 {
            for k in 0..ZF_LANES {
                let (a, b) = (i64::from(hr[j][k]), i64::from(hi[j][k]));
                let (c, d) = (i64::from(rr[j][k]), i64::from(ri[j][k]));
                acc_re[k] += round_q16(a * c) - round_q16(b * d);
                acc_im[k] += round_q16(a * d) + round_q16(b * c);
            }
        }
        let bus = 1i64 << (SAMPLE_BITS - 1);
        // Q.16 → Q1.15 with half-away rounding, then the 16-bit bus.
        let narrow = |v: i64| Fx::from_raw(((v + 1 + (v >> 63)) >> 1).clamp(-bus, bus - 1));
        for (k, o) in dst.iter_mut().enumerate() {
            *o = CFx::new(narrow(acc_re[k]), narrow(acc_im[k]));
        }
    }
}

/// [`detect_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`detect_stream_into` checks `is_x86_feature_detected!` before every
// call). The body is safe code.
unsafe fn detect_avx2(h_inv: &[FxMat4], rx: &[&[CQ15]; 4], stream: usize, out: &mut [CQ15]) {
    detect_lanes(h_inv, rx, stream, out)
}
// phylint: end-hot

/// The SISO baseline equalizer: "the corresponding channel estimate is
/// read from the channel estimation memory block and equalization is
/// performed on a carrier-per-carrier basis via a single complex
/// multiplication."
///
/// Construction pre-computes `1/h` per carrier so the run-time work is
/// exactly one complex multiply, as in the hardware.
#[derive(Debug, Clone)]
pub struct SisoEqualizer {
    inv_h: Vec<CQ16>,
}

impl SisoEqualizer {
    /// Builds the equalizer from per-carrier channel estimates.
    /// Carriers whose estimate is numerically zero get a zero
    /// coefficient (data on them is erased rather than amplified).
    pub fn new(h: &[CQ16]) -> Self {
        let inv_h = h
            .iter()
            .map(|&v| {
                let d = v.norm_sqr();
                if d.raw() == 0 {
                    CFx::ZERO
                } else {
                    let c = v.conj();
                    CFx::new(c.re.div(d), c.im.div(d))
                }
            })
            .collect();
        Self { inv_h }
    }

    /// Number of carriers.
    pub fn len(&self) -> usize {
        self.inv_h.len()
    }

    /// `true` if built over zero carriers.
    pub fn is_empty(&self) -> bool {
        self.inv_h.is_empty()
    }

    /// Equalizes one symbol's occupied carriers into a caller-provided
    /// buffer — the per-symbol hot-path form the receiver workspaces
    /// use.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::CarrierMismatch`] on length mismatch.
    pub fn equalize_into(&self, carriers: &[CQ15], out: &mut [CQ15]) -> Result<(), DetectError> {
        if carriers.len() != self.inv_h.len() {
            return Err(DetectError::CarrierMismatch {
                expected: self.inv_h.len(),
                got: carriers.len(),
            });
        }
        if out.len() != self.inv_h.len() {
            return Err(DetectError::CarrierMismatch {
                expected: self.inv_h.len(),
                got: out.len(),
            });
        }
        for ((dst, &r), &coeff) in out.iter_mut().zip(carriers).zip(&self.inv_h) {
            let wide: CQ16 = r.convert();
            let eq = wide * coeff;
            let narrow: CFx<15> = eq.convert();
            *dst = narrow.saturate_bits(SAMPLE_BITS);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_chanest::{CordicQrd, Mat4};
    use mimo_fixed::Cf64;

    /// All four streams through `detect_stream_into`, `[tx_stream][s]`.
    fn detect_all(h_inv: &[FxMat4], rx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        let views: [&[CQ15]; 4] = std::array::from_fn(|a| rx[a].as_slice());
        (0..4)
            .map(|k| {
                let mut out = vec![CQ15::ZERO; h_inv.len()];
                ZfDetector::new()
                    .detect_stream_into(h_inv, &views, k, &mut out)
                    .unwrap();
                out
            })
            .collect()
    }

    #[test]
    fn identity_channel_passthrough() {
        let h_inv = vec![Mat4::identity().to_fixed(); 5];
        let rx: Vec<Vec<CQ15>> = (0..4)
            .map(|a| (0..5).map(|s| CQ15::from_f64(0.1 * (a + s) as f64, -0.05)).collect())
            .collect();
        let streams = detect_all(&h_inv, &rx);
        for (a, stream) in streams.iter().enumerate() {
            for (s, got) in stream.iter().enumerate() {
                let want = Cf64::from_fixed(rx[a][s]);
                assert!((Cf64::from_fixed(*got) - want).norm() < 1e-3);
            }
        }
    }

    #[test]
    fn recovers_streams_through_mixing_channel() {
        // x -> H x; detector applies H^-1 from the real QRD pipeline.
        let h = Mat4::from_fn(|r, c| {
            if r == c {
                Cf64::new(0.8, -0.1)
            } else {
                Cf64::new(0.15 * (r as f64 - c as f64), 0.1)
            }
        });
        let x: Vec<[Cf64; 4]> = (0..8)
            .map(|s| {
                [
                    Cf64::new(0.2, 0.1 * s as f64 / 8.0),
                    Cf64::new(-0.15, 0.2),
                    Cf64::new(0.1, -0.1),
                    Cf64::new(-0.05, -0.15),
                ]
            })
            .collect();
        // Received r = H x per carrier.
        let rx: Vec<Vec<CQ15>> = (0..4)
            .map(|i| {
                x.iter()
                    .map(|xv| {
                        let r = h.mul_vec(xv)[i];
                        r.to_fixed::<15>().saturate_bits(16)
                    })
                    .collect()
            })
            .collect();
        // Invert via the fixed-point QRD pipeline.
        let qrd = CordicQrd::new();
        let decomp = qrd.decompose(&h.to_fixed());
        let r_inv = mimo_chanest::invert_upper_triangular(&decomp.r).unwrap();
        let h_inv = r_inv.mul_mat(&decomp.q_h);
        let h_invs = vec![h_inv; 8];

        let streams = detect_all(&h_invs, &rx);
        for (k, stream) in streams.iter().enumerate() {
            for (s, got) in stream.iter().enumerate() {
                let err = (Cf64::from_fixed(*got) - x[s][k]).norm();
                assert!(err < 0.02, "stream {k} carrier {s}: err {err}");
            }
        }
    }

    #[test]
    fn shape_errors() {
        let det = ZfDetector::new();
        let h_inv = vec![Mat4::identity().to_fixed(); 2];
        let (two, five) = (vec![CQ15::ZERO; 2], vec![CQ15::ZERO; 5]);
        let mut out = vec![CQ15::ZERO; 2];
        assert!(matches!(
            det.detect_stream_into(&h_inv, &[&two; 4], 4, &mut out),
            Err(DetectError::BadStreamIndex(4))
        ));
        assert!(matches!(
            det.detect_stream_into(&h_inv, &[&two, &two, &five, &two], 0, &mut out),
            Err(DetectError::CarrierMismatch { expected: 2, got: 5 })
        ));
        assert!(matches!(
            det.detect_stream_into(&h_inv, &[&two; 4], 0, &mut five.clone()),
            Err(DetectError::CarrierMismatch { expected: 2, got: 5 })
        ));
    }

    /// Every lane build this CPU runs: portable always, AVX2 when
    /// detected.
    fn builds() -> Vec<ZfDetector> {
        let detected = ZfDetector::new();
        let mut out = vec![ZfDetector { avx2: false }];
        if detected.avx2 {
            out.push(detected);
        }
        out
    }

    /// Deterministic xorshift words in `[-limit, limit)`.
    fn words(seed: u64, limit: i64) -> impl FnMut() -> i64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % (2 * limit as u64)) as i64 - limit
        }
    }

    fn cfx<const F: u32>(re: i64, im: i64) -> CFx<F> {
        CFx::new(Fx::from_raw(re), Fx::from_raw(im))
    }

    /// Random `H⁻¹` of `carriers` matrices and bus-valued receive
    /// vectors, with `extreme` planted at a few entries.
    fn case(carriers: usize, seed: u64, extreme: i64) -> (Vec<FxMat4>, Vec<Vec<CQ15>>) {
        let mut h = words(seed, 1 << 31);
        let mut h_inv: Vec<FxMat4> = (0..carriers)
            .map(|_| FxMat4::from_fn(|_, _| cfx(h(), h())))
            .collect();
        for (s, inv) in h_inv.iter_mut().enumerate().step_by(3) {
            for row in 0..4 {
                inv[(row, (s + row) % 4)] = cfx(extreme, extreme);
            }
        }
        let mut r = words(seed + 1, 1 << 15);
        let rx = (0..4)
            .map(|_| (0..carriers).map(|_| cfx(r(), r())).collect())
            .collect();
        (h_inv, rx)
    }

    /// Whether every input of row `stream` is within the lane range.
    fn within_limits(h_inv: &[FxMat4], rx: &[Vec<CQ15>], stream: usize) -> bool {
        let fits = |c: CFx<16>, bits: u32| {
            let range = -(1i64 << (bits - 1))..1 << (bits - 1);
            range.contains(&c.re.raw()) && range.contains(&c.im.raw())
        };
        h_inv.iter().all(|inv| (0..4).all(|j| fits(inv[(stream, j)], ZF_H_BITS)))
            && rx.iter().flatten().all(|&c| fits(c.convert(), ZF_RX_BITS + 1))
    }

    /// `H⁻¹` entries that are odd multiples of 2¹⁴: against an odd
    /// received value every product lands exactly halfway between two
    /// Q.16 steps, so the rounding direction of ties decides the bits.
    fn tie_case(carriers: usize) -> (Vec<FxMat4>, Vec<Vec<CQ15>>) {
        let mut odd = words(carriers as u64 + 77, 64);
        let h_inv = (0..carriers)
            .map(|_| FxMat4::from_fn(|_, _| cfx((2 * odd() + 1) << 14, (2 * odd() + 1) << 14)))
            .collect();
        let mut r = words(carriers as u64 + 78, 1 << 15);
        let rx = (0..4)
            .map(|_| (0..carriers).map(|_| cfx(r() | 1, r() | 1)).collect())
            .collect();
        (h_inv, rx)
    }

    fn assert_lanes_match_scalar(h_inv: &[FxMat4], rx: &[Vec<CQ15>], what: &str) {
        let views: [&[CQ15]; 4] = std::array::from_fn(|a| rx[a].as_slice());
        for det in builds() {
            for stream in 0..4 {
                let mut want = vec![CQ15::ZERO; h_inv.len()];
                detect_scalar(h_inv, &views, stream, &mut want);
                let mut got = vec![CQ15::ZERO; h_inv.len()];
                det.detect_stream_into(h_inv, &views, stream, &mut got).unwrap();
                assert_eq!(got, want, "{what}, stream {stream}, avx2 {}", det.avx2);
            }
        }
    }

    #[test]
    fn lanes_match_scalar_loop_on_every_carrier_count() {
        let max = (1 << 31) - 1;
        for carriers in (1..=17).chain([48]) {
            let (h_inv, rx) = case(carriers, carriers as u64, max);
            assert!((0..4).all(|k| within_limits(&h_inv, &rx, k)));
            assert_lanes_match_scalar(&h_inv, &rx, &format!("{carriers} carriers"));
            let (ties, rx) = tie_case(carriers);
            assert_lanes_match_scalar(&ties, &rx, &format!("{carriers} carriers, ties"));
            // The i32 minimum is in range too.
            let (h_min, rx) = case(carriers, carriers as u64 + 50, -(1 << 31));
            assert!((0..4).all(|k| within_limits(&h_min, &rx, k)));
            assert_lanes_match_scalar(&h_min, &rx, &format!("{carriers} carriers, -2^31"));
            // Bus rails on the receive side.
            let rails: Vec<Vec<CQ15>> = (0..4)
                .map(|a| {
                    (0..carriers)
                        .map(|s| {
                            let v = if (a + s) % 2 == 0 { (1 << 15) - 1 } else { -(1 << 15) };
                            cfx(v, -v - 1)
                        })
                        .collect()
                })
                .collect();
            assert_lanes_match_scalar(&h_inv, &rails, &format!("{carriers} carriers, rails"));
        }
    }

    #[test]
    fn entries_beyond_the_lane_limits_take_the_scalar_loop() {
        for carriers in [1, 9, 48] {
            let (h_inv, rx) = case(carriers, 99 + carriers as u64, 1 << 31);
            assert!((0..4).all(|k| !within_limits(&h_inv, &rx, k)));
            assert_lanes_match_scalar(&h_inv, &rx, &format!("2^31 entry, {carriers} carriers"));
            let (h_inv, mut rx) = case(carriers, 7, 1 << 20);
            rx[2][carriers / 2] = cfx(1 << 30, 5);
            assert!(!within_limits(&h_inv, &rx, 0));
            assert_lanes_match_scalar(&h_inv, &rx, &format!("2^30 rx, {carriers} carriers"));
        }
    }

    #[test]
    fn siso_equalizer_inverts_scalar_channel() {
        let h: Vec<CQ16> = (0..6)
            .map(|i| CFx::from_f64(0.5 + 0.05 * i as f64, -0.2))
            .collect();
        let eq = SisoEqualizer::new(&h);
        let tx = CQ15::from_f64(0.25, -0.125);
        let rx: Vec<CQ15> = h
            .iter()
            .map(|&hh| {
                let wide: CQ16 = tx.convert();
                let through = wide * hh;
                let narrow: CFx<15> = through.convert();
                narrow.saturate_bits(16)
            })
            .collect();
        let mut out = vec![CQ15::ZERO; rx.len()];
        eq.equalize_into(&rx, &mut out).unwrap();
        for got in out {
            assert!((Cf64::from_fixed(got) - Cf64::from_fixed(tx)).norm() < 5e-3);
        }
    }

    #[test]
    fn siso_zero_carrier_erases_not_explodes() {
        let eq = SisoEqualizer::new(&[CFx::ZERO, CFx::ONE]);
        let mut out = [CQ15::ZERO; 2];
        eq.equalize_into(&[CQ15::from_f64(0.3, 0.3), CQ15::from_f64(0.3, 0.3)], &mut out)
            .unwrap();
        assert!(out[0].is_zero());
        assert!(!out[1].is_zero());
    }
}
