//! Zero-forcing MIMO detection.

use std::error::Error;
use std::fmt;

use mimo_chanest::FxMat4;
use mimo_fixed::{
    bus_carrier, lane_groups, set_bus_carrier, stage_bus, unstage_bus, CFx, Isa, Lanes, CQ15, CQ16,
    LANES, SAMPLE_BITS,
};

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

/// Signed width `H⁻¹` entries (raw Q.16) must fit to enter the lanes:
/// an `i32`.
const ZF_H_BITS: u32 = 32;

/// Row `k` of `H⁻¹` for one lane group: `re[j][l]`/`im[j][l]` hold
/// entry `(k, j)` of carrier `g·LANES + l`, raw Q.16.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RowGroup {
    re: [Lanes; 4],
    im: [Lanes; 4],
}

/// The per-burst `H⁻¹` lane table the zero-forcing lanes read: every
/// row of every carrier's inverse, staged as `i32` lane groups and
/// range-checked once per burst by [`ZfTable::load`] instead of once
/// per symbol and stream.
///
/// A carrier with an entry outside the `i32` range (at or above 2³¹,
/// or below −2³¹) is flagged when the table is loaded: its lanes stay
/// zero, and [`ZfDetector::detect_bus`] computes it on the scalar path
/// from the matrix the table keeps for it.
#[derive(Debug, Clone, Default)]
pub struct ZfTable {
    carriers: usize,
    /// Row `k` of lane group `g` at `rows[k · groups + g]`.
    rows: Vec<RowGroup>,
    /// The flagged carriers, ascending, with their inverses.
    scalar: Vec<(usize, FxMat4)>,
}

impl ZfTable {
    /// An empty table, to be filled by [`ZfTable::load`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one inverse per carrier, in carrier order, replacing the
    /// table's contents. The buffers keep their capacity, so a
    /// receiver that reuses one table loads every burst without
    /// allocating once the first has sized it.
    pub fn load(&mut self, h_inv: &[FxMat4]) {
        let groups = lane_groups(h_inv.len());
        self.carriers = h_inv.len();
        self.rows.clear();
        self.rows.resize(4 * groups, RowGroup::default());
        self.scalar.clear();
        for (c, inv) in h_inv.iter().enumerate() {
            let (g, lane) = (c / LANES, c % LANES);
            let mut admitted = true;
            for k in 0..4 {
                admitted &= stage_row(inv, k, &mut self.rows[k * groups + g], lane);
            }
            if !admitted {
                for k in 0..4 {
                    let row = &mut self.rows[k * groups + g];
                    for j in 0..4 {
                        (row.re[j][lane], row.im[j][lane]) = (0, 0);
                    }
                }
                self.scalar.push((c, *inv));
            }
        }
    }
}

/// Row `k` of `inv` into lane `lane` of `row`. Returns whether every
/// entry of the row fits [`ZF_H_BITS`] signed bits; the lane holds the
/// row's words only then.
#[inline]
fn stage_row(inv: &FxMat4, k: usize, row: &mut RowGroup, lane: usize) -> bool {
    let mut spread = 0u64;
    for j in 0..4 {
        let h = inv[(k, j)];
        spread |= biased(h.re.raw(), ZF_H_BITS) | biased(h.im.raw(), ZF_H_BITS);
        row.re[j][lane] = h.re.raw() as i32;
        row.im[j][lane] = h.im.raw() as i32;
    }
    spread >> ZF_H_BITS == 0
}

/// The zero-forcing MIMO decoder: per subcarrier, the received vector
/// (one value per RX antenna) is multiplied by the pre-computed `H⁻¹`
/// — "equalization is performed on a carrier-per-carrier basis".
///
/// The one kernel, [`ZfDetector::detect_bus`], computes one row of
/// `y = H⁻¹·r` for every carrier of a symbol held as bus-word lane
/// groups ([`mimo_fixed::BusLanes`]), reading `H⁻¹` from the burst's
/// [`ZfTable`], so each spatial channel's worker computes exactly its
/// own stream. It runs eight carriers per step on `i32` lanes with
/// `i64` products (the build of the detector's [`Isa`] tier),
/// bit-identical to the scalar per-carrier loop it is checked against,
/// which also computes the carriers the table flagged.
///
/// [`ZfDetector::detect_stream_into`] is the same kernel on [`CQ15`]
/// slices: it stages `H⁻¹` and the received values of each lane group
/// on the stack, runs the lanes and unstages the result. A received
/// value off the 16-bit bus sends its lane group to the scalar loop.
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
    /// The CPU tier the lane body dispatches on.
    isa: Isa,
}

impl Default for ZfDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl ZfDetector {
    /// Creates the detector on the fastest lane build this CPU runs.
    pub fn new() -> Self {
        Self {
            isa: Isa::detected(),
        }
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
        for got in rx.iter().map(|a| a.len()).chain([out.len()]) {
            if got != h_inv.len() {
                return Err(DetectError::CarrierMismatch {
                    expected: h_inv.len(),
                    got,
                });
            }
        }
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            unsafe { staged_avx2(h_inv, rx, stream, out) };
            return Ok(());
        }
        detect_staged(h_inv, rx, stream, out);
        Ok(())
    }

    /// Row `stream` of `y = H⁻¹·r` for every carrier of one symbol on
    /// bus-word lane groups: `rx_re[j]`/`rx_im[j]` hold antenna `j`'s
    /// carriers and `out_re`/`out_im` receive the stream's, one lane
    /// group per [`LANES`] carriers of `table`. The arithmetic is that
    /// of [`ZfDetector::detect_stream_into`]. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::BadStreamIndex`] for a stream beyond 3,
    /// and [`DetectError::CarrierMismatch`], in lane groups, when a
    /// buffer does not hold the table's lane groups.
    pub fn detect_bus(
        &self,
        table: &ZfTable,
        rx_re: &[&[Lanes]; 4],
        rx_im: &[&[Lanes]; 4],
        stream: usize,
        out_re: &mut [Lanes],
        out_im: &mut [Lanes],
    ) -> Result<(), DetectError> {
        if stream >= 4 {
            return Err(DetectError::BadStreamIndex(stream));
        }
        let groups = lane_groups(table.carriers);
        let lens = rx_re.iter().chain(rx_im).map(|a| a.len());
        for got in lens.chain([out_re.len(), out_im.len()]) {
            if got != groups {
                return Err(DetectError::CarrierMismatch {
                    expected: groups,
                    got,
                });
            }
        }
        let rows = &table.rows[stream * groups..(stream + 1) * groups];
        self.lanes(rows, rx_re, rx_im, out_re, out_im);
        for (c, inv) in &table.scalar {
            let y = detect_carrier(inv, |j| bus_carrier(rx_re[j], rx_im[j], *c), stream);
            set_bus_carrier(out_re, out_im, *c, y);
        }
        Ok(())
    }

    /// [`zf_lanes`] on the build of the detector's tier.
    #[inline]
    fn lanes(
        &self,
        rows: &[RowGroup],
        rx_re: &[&[Lanes]; 4],
        rx_im: &[&[Lanes]; 4],
        out_re: &mut [Lanes],
        out_im: &mut [Lanes],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            unsafe { zf_avx2(rows, rx_re, rx_im, out_re, out_im) };
            return;
        }
        zf_lanes(rows, rx_re, rx_im, out_re, out_im);
    }
}

/// Row `stream` of `inv · r` for one carrier, `r(j)` its value at
/// antenna `j`: the scalar oracle of the lanes.
#[inline]
fn detect_carrier(inv: &FxMat4, r: impl Fn(usize) -> CQ15, stream: usize) -> CQ15 {
    let mut acc: CQ16 = CFx::ZERO;
    for j in 0..4 {
        let r: CQ16 = r(j).convert();
        acc += inv[(stream, j)] * r;
    }
    let narrow: CFx<15> = acc.convert();
    narrow.saturate_bits(SAMPLE_BITS)
}

/// The scalar per-carrier loop: the oracle the lanes are checked
/// against, and the path for received values off the bus.
fn detect_scalar(h_inv: &[FxMat4], rx: &[&[CQ15]; 4], stream: usize, out: &mut [CQ15]) {
    for (s, (inv, o)) in h_inv.iter().zip(out).enumerate() {
        *o = detect_carrier(inv, |j| rx[j][s], stream);
    }
}

/// `raw` offset by half the range of a signed `bits`-wide word: below
/// `2^bits` exactly when `raw` fits that word.
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

/// The lane body: one row of `H⁻¹·r` for [`LANES`] carriers per step,
/// `rows[g]` against lane group `g` of every antenna. Table entries fit
/// `i32` and received bus words widen to Q.16 below 2¹⁷, so every
/// product is below 2⁴⁸ and the sum of eight rounded products fits an
/// `i64` with room to spare.
#[inline(always)]
fn zf_lanes(
    rows: &[RowGroup],
    rx_re: &[&[Lanes]; 4],
    rx_im: &[&[Lanes]; 4],
    out_re: &mut [Lanes],
    out_im: &mut [Lanes],
) {
    let n = rows.len();
    let rx_re: [&[Lanes]; 4] = std::array::from_fn(|j| &rx_re[j][..n]);
    let rx_im: [&[Lanes]; 4] = std::array::from_fn(|j| &rx_im[j][..n]);
    let bus = 1i64 << (SAMPLE_BITS - 1);
    for (g, (row, (o_re, o_im))) in rows.iter().zip(out_re.iter_mut().zip(out_im.iter_mut())).enumerate() {
        let (mut acc_re, mut acc_im) = ([0i64; LANES], [0i64; LANES]);
        for j in 0..4 {
            let (rr, ri) = (&rx_re[j][g], &rx_im[j][g]);
            for k in 0..LANES {
                let (a, b) = (i64::from(row.re[j][k]), i64::from(row.im[j][k]));
                // `<< 1` is the Q1.15 → Q.16 widening.
                let (c, d) = (i64::from(rr[k]) << 1, i64::from(ri[k]) << 1);
                acc_re[k] += round_q16(a * c) - round_q16(b * d);
                acc_im[k] += round_q16(a * d) + round_q16(b * c);
            }
        }
        // Q.16 → Q1.15 with half-away rounding, then the 16-bit bus.
        let narrow = |v: i64| ((v + 1 + (v >> 63)) >> 1).clamp(-bus, bus - 1) as i32;
        for k in 0..LANES {
            o_re[k] = narrow(acc_re[k]);
            o_im[k] = narrow(acc_im[k]);
        }
    }
}

/// The [`CQ15`] entry point's body: each lane group's received values
/// and `H⁻¹` row staged on the stack, [`zf_lanes`] on them, the result
/// unstaged. A group with a received value off the bus runs the scalar
/// loop; a carrier whose row leaves the lanes' range is computed on the
/// lanes from wrapped words, then overwritten by the scalar loop.
#[inline(always)]
fn detect_staged(h_inv: &[FxMat4], rx: &[&[CQ15]; 4], stream: usize, out: &mut [CQ15]) {
    for (step, (invs, dst)) in h_inv.chunks(LANES).zip(out.chunks_mut(LANES)).enumerate() {
        let first = step * LANES;
        let rx: [&[CQ15]; 4] = std::array::from_fn(|j| &rx[j][first..first + invs.len()]);
        let (mut rx_re, mut rx_im) = ([[[0; LANES]; 1]; 4], [[[0; LANES]; 1]; 4]);
        if !(0..4).all(|j| stage_bus(rx[j], &mut rx_re[j], &mut rx_im[j])) {
            detect_scalar(invs, &rx, stream, dst);
            continue;
        }
        let mut row = [RowGroup::default()];
        let mut flagged = 0u8;
        for (c, inv) in invs.iter().enumerate() {
            if !stage_row(inv, stream, &mut row[0], c) {
                flagged |= 1 << c;
            }
        }
        let (mut out_re, mut out_im) = ([[0; LANES]], [[0; LANES]]);
        let rx_re: [&[Lanes]; 4] = std::array::from_fn(|j| rx_re[j].as_slice());
        let rx_im: [&[Lanes]; 4] = std::array::from_fn(|j| rx_im[j].as_slice());
        zf_lanes(&row, &rx_re, &rx_im, &mut out_re, &mut out_im);
        unstage_bus(&out_re, &out_im, dst);
        for (c, o) in dst.iter_mut().enumerate().filter(|&(c, _)| flagged >> c & 1 != 0) {
            *o = detect_carrier(&invs[c], |j| rx[j][c], stream);
        }
    }
}

/// [`detect_staged`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`detect_stream_into` calls this only when its `Isa` answers
// `avx2()`, the tier invariant). The body is safe code.
unsafe fn staged_avx2(h_inv: &[FxMat4], rx: &[&[CQ15]; 4], stream: usize, out: &mut [CQ15]) {
    detect_staged(h_inv, rx, stream, out)
}

/// [`zf_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`ZfDetector::lanes` calls this only when its `Isa` answers `avx2()`,
// the tier invariant). The body is safe code.
unsafe fn zf_avx2(
    rows: &[RowGroup],
    rx_re: &[&[Lanes]; 4],
    rx_im: &[&[Lanes]; 4],
    out_re: &mut [Lanes],
    out_im: &mut [Lanes],
) {
    zf_lanes(rows, rx_re, rx_im, out_re, out_im)
}
// phylint: end-hot

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_chanest::{CordicQrd, Mat4};
    use mimo_fixed::{BusLanes, Cf64, Fx};

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
    fn lane_entry_shape_errors() {
        let det = ZfDetector::new();
        let mut table = ZfTable::new();
        table.load(&vec![Mat4::identity().to_fixed(); 9]);
        assert_eq!(table.carriers, 9);
        let (two, one) = (BusLanes::zeroed(2), BusLanes::zeroed(1));
        let rx = [two.re.as_slice(); 4];
        let mut out = BusLanes::zeroed(2);
        assert_eq!(
            det.detect_bus(&table, &rx, &rx, 4, &mut out.re, &mut out.im),
            Err(DetectError::BadStreamIndex(4))
        );
        let short = [two.re.as_slice(), one.re.as_slice(), two.re.as_slice(), two.re.as_slice()];
        assert_eq!(
            det.detect_bus(&table, &short, &rx, 0, &mut out.re, &mut out.im),
            Err(DetectError::CarrierMismatch { expected: 2, got: 1 })
        );
        let mut narrow = BusLanes::zeroed(1);
        assert_eq!(
            det.detect_bus(&table, &rx, &rx, 0, &mut narrow.re, &mut narrow.im),
            Err(DetectError::CarrierMismatch { expected: 2, got: 1 })
        );
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
            && rx.iter().flatten().all(|&c| mimo_fixed::on_bus(c))
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

    /// Both entry points on every tier against the scalar loop: the
    /// [`CQ15`] one always, the lane one through a loaded [`ZfTable`]
    /// whenever the received values are bus words.
    fn assert_lanes_match_scalar(h_inv: &[FxMat4], rx: &[Vec<CQ15>], what: &str) {
        let views: [&[CQ15]; 4] = std::array::from_fn(|a| rx[a].as_slice());
        let groups = lane_groups(h_inv.len());
        let mut table = ZfTable::new();
        table.load(h_inv);
        let bus: Vec<BusLanes> = rx
            .iter()
            .map(|a| {
                let mut lanes = BusLanes::zeroed(groups);
                stage_bus(a, &mut lanes.re, &mut lanes.im).then_some(lanes)
            })
            .collect::<Option<_>>()
            .unwrap_or_default();
        for &isa in Isa::tiers() {
            let det = ZfDetector { isa };
            for stream in 0..4 {
                let mut want = vec![CQ15::ZERO; h_inv.len()];
                detect_scalar(h_inv, &views, stream, &mut want);
                let mut got = vec![CQ15::ZERO; h_inv.len()];
                det.detect_stream_into(h_inv, &views, stream, &mut got).unwrap();
                assert_eq!(got, want, "{what}, stream {stream}, {}", isa.name());
                if bus.is_empty() {
                    continue;
                }
                let rx_re: [&[Lanes]; 4] = std::array::from_fn(|a| bus[a].re.as_slice());
                let rx_im: [&[Lanes]; 4] = std::array::from_fn(|a| bus[a].im.as_slice());
                let mut out = BusLanes::zeroed(groups);
                det.detect_bus(&table, &rx_re, &rx_im, stream, &mut out.re, &mut out.im)
                    .unwrap();
                unstage_bus(&out.re, &out.im, &mut got);
                assert_eq!(got, want, "{what}, lanes, stream {stream}, {}", isa.name());
                // Padding lanes stay zero for the next stage.
                let tail = h_inv.len() % LANES;
                if tail != 0 {
                    assert_eq!(out.re[groups - 1][tail..], out.im[groups - 1][tail..]);
                    assert!(out.re[groups - 1][tail..].iter().all(|&w| w == 0), "{what}");
                }
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
            let mut table = ZfTable::new();
            table.load(&h_inv);
            let flagged: Vec<usize> = table.scalar.iter().map(|&(c, _)| c).collect();
            assert_eq!(flagged, (0..carriers).step_by(3).collect::<Vec<_>>());
            assert_lanes_match_scalar(&h_inv, &rx, &format!("2^31 entry, {carriers} carriers"));
            let (h_inv, mut rx) = case(carriers, 7, 1 << 20);
            rx[2][carriers / 2] = cfx(1 << 30, 5);
            assert!(!within_limits(&h_inv, &rx, 0));
            assert_lanes_match_scalar(&h_inv, &rx, &format!("2^30 rx, {carriers} carriers"));
        }
    }
}
