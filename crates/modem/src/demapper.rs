//! The decoder-multiplexer symbol demapper (hard and soft).

use mimo_coding::{Llr, HARD_LLR, LLR_MAX};
use mimo_fixed::{CQ15, Cf64};

use crate::mapper::SymbolMapper;
use crate::modulation::Modulation;

/// LLR units produced per constellation-unit of distance: a symbol one
/// level-spacing away from a decision boundary yields ±2·this.
const LLR_UNIT: f64 = 16.0;

/// The receiver's symbol demapper.
///
/// Hard demapping models the paper's decoder-multiplexer: each axis is
/// sliced against the level thresholds and the Gray bits read off.
/// Soft demapping produces max-log piecewise-linear LLRs per coded bit
/// (the standard simplification that hardware soft demappers use for
/// Gray-mapped QAM).
///
/// The receiver's payload pass, [`SymbolDemapper::demap_scatter_into`],
/// does both in one walk: each axis is divided by the level unit once,
/// and that quotient yields the soft (or hard) LLRs, the nearest level
/// and, from it, the error-vector sums — no second slice and no
/// re-mapping of hard bits.
///
/// # Examples
///
/// ```
/// use mimo_modem::{Modulation, SymbolDemapper, SymbolMapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mapper = SymbolMapper::new(Modulation::Qam16)?;
/// let demapper = SymbolDemapper::matched_to(&mapper);
/// let bits = vec![1, 0, 1, 1, 0, 0, 0, 1];
/// let mut symbols = vec![Default::default(); 2];
/// mapper.map_bits_into(&bits, &mut symbols)?;
/// let mut hard = vec![0; 8];
/// demapper.hard_demap_into(&symbols, &mut hard);
/// assert_eq!(hard, bits);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolDemapper {
    modulation: Modulation,
    /// Distance between adjacent constellation levels / 2.
    unit: f64,
    /// The mapper's I coordinate of level index `i` (level
    /// `2i − (L − 1)`), as the f64 the EVM measures against.
    re_points: [f64; 8],
    /// The same for the Q coordinate (entry 0 only, and zero, for
    /// BPSK).
    im_points: [f64; 8],
}

impl SymbolDemapper {
    /// Creates a demapper whose thresholds match a specific mapper
    /// (same modulation and scale).
    pub fn matched_to(mapper: &SymbolMapper) -> Self {
        let modulation = mapper.modulation();
        let lut = mapper.lut();
        // LUT addresses are the I axis's Gray bits above the Q axis's;
        // every coordinate depends on its own axis only.
        let q_bits = modulation.bits_per_symbol() - modulation.bits_per_axis();
        let mut re_points = [0.0; 8];
        let mut im_points = [0.0; 8];
        for i in 0..modulation.levels_per_axis() {
            let gray = i ^ (i >> 1);
            re_points[i] = Cf64::from_fixed(lut[gray << q_bits]).re;
            if q_bits > 0 {
                im_points[i] = Cf64::from_fixed(lut[gray]).im;
            }
        }
        Self {
            modulation,
            unit: mapper.scale() / modulation.norm_factor().sqrt(),
            re_points,
            im_points,
        }
    }

    /// The modulation this demapper slices.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Hard decision: nearest constellation point, Gray bits out, into
    /// a caller-provided buffer of exactly
    /// `symbols.len() * bits_per_symbol` bits.
    ///
    /// # Panics
    ///
    /// Panics on a wrong-size output buffer (this is an internal hot
    /// path; the workspace sizes buffers from the configuration).
    pub fn hard_demap_into(&self, symbols: &[CQ15], out: &mut [u8]) {
        let bps = self.modulation.bits_per_symbol();
        assert_eq!(out.len(), symbols.len() * bps, "demap buffer size");
        let half = self.modulation.bits_per_axis();
        for (&sym, bits) in symbols.iter().zip(out.chunks_exact_mut(bps)) {
            let c = Cf64::from_fixed(sym);
            match self.modulation {
                Modulation::Bpsk => {
                    self.axis_hard_bits_into(c.re, bits);
                }
                _ => {
                    let (i_bits, q_bits) = bits.split_at_mut(half);
                    self.axis_hard_bits_into(c.re, i_bits);
                    self.axis_hard_bits_into(c.im, q_bits);
                }
            }
        }
    }

    /// Fused soft demap: demaps each symbol and scatters its LLRs
    /// through a precomputed map (demapped bit `k` of the block lands
    /// at `out[map[k]]`), collapsing the receiver's
    /// demap→deinterleave→depuncture walk into one pass. Positions of
    /// `out` that `map` never names are left untouched, so a pre-zeroed
    /// buffer keeps zero-LLR puncture erasures for free. The soft,
    /// no-EVM case of [`SymbolDemapper::demap_scatter_into`].
    ///
    /// # Panics
    ///
    /// Panics unless `map` covers exactly
    /// `symbols.len() * bits_per_symbol` demapped bits, or when a map
    /// entry falls outside `out` (the workspace sizes both from the
    /// operating point).
    pub fn soft_demap_scatter_into(&self, symbols: &[CQ15], map: &[u32], out: &mut [Llr]) {
        self.scatter_pass::<false>(symbols, map, true, out);
    }

    /// The receiver's one-pass demap: each symbol's LLRs — max-log soft
    /// values, or ±[`HARD_LLR`] from the nearest point's Gray bits when
    /// `soft` is off — scattered through `map` as in
    /// [`SymbolDemapper::soft_demap_scatter_into`], plus the symbols'
    /// error-vector sums against their nearest constellation points,
    /// accumulated in symbol order from zero:
    /// `(Σ |x − p̂|², Σ |p̂|²)`. The nearest point is the mapper LUT
    /// entry that [`SymbolDemapper::hard_demap_into`]'s bits address.
    ///
    /// # Panics
    ///
    /// As [`SymbolDemapper::soft_demap_scatter_into`].
    pub fn demap_scatter_into(
        &self,
        symbols: &[CQ15],
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
    ) -> (f64, f64) {
        self.scatter_pass::<true>(symbols, map, soft, out)
    }

    /// The one demap kernel behind both scatter entry points; `EVM`
    /// adds the nearest-point error sums (hard LLRs always slice). One
    /// monomorphized body per modulation, so the per-axis bit loops
    /// unroll.
    fn scatter_pass<const EVM: bool>(
        &self,
        symbols: &[CQ15],
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
    ) -> (f64, f64) {
        match self.modulation {
            Modulation::Bpsk => self.scatter_axes::<EVM, 1, false>(symbols, map, soft, out),
            Modulation::Qpsk => self.scatter_axes::<EVM, 1, true>(symbols, map, soft, out),
            Modulation::Qam16 => self.scatter_axes::<EVM, 2, true>(symbols, map, soft, out),
            Modulation::Qam64 => self.scatter_axes::<EVM, 3, true>(symbols, map, soft, out),
        }
    }

    /// [`SymbolDemapper::scatter_pass`] at `B` bits per axis, with a Q
    /// axis when `IQ` is set.
    // phylint: hot
    fn scatter_axes<const EVM: bool, const B: usize, const IQ: bool>(
        &self,
        symbols: &[CQ15],
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
    ) -> (f64, f64) {
        let bps = if IQ { 2 * B } else { B };
        debug_assert_eq!(bps, self.modulation.bits_per_symbol());
        assert_eq!(map.len(), symbols.len() * bps, "scatter map size");
        let (mut num, mut den) = (0.0, 0.0);
        let mut llrs = [0 as Llr; 8];
        for (&sym, positions) in symbols.iter().zip(map.chunks_exact(bps)) {
            let c = Cf64::from_fixed(sym);
            let nearest = self.demap_symbol::<B, IQ>(c, soft, EVM || !soft, &mut llrs);
            if EVM {
                num += (c - nearest).norm_sqr();
                den += nearest.norm_sqr();
            }
            for (&pos, &l) in positions.iter().zip(&llrs[..bps]) {
                out[pos as usize] = l;
            }
        }
        (num, den)
    }

    /// One symbol of the demap pass: writes its LLRs (soft or hard)
    /// into `llrs` and, when `slice` is set, returns its nearest
    /// constellation point (else the origin).
    #[inline(always)]
    fn demap_symbol<const B: usize, const IQ: bool>(
        &self,
        c: Cf64,
        soft: bool,
        slice: bool,
        llrs: &mut [Llr; 8],
    ) -> Cf64 {
        let (i_llrs, q_llrs) = llrs.split_at_mut(B);
        let i = self.demap_axis::<B>(c.re, soft, slice, i_llrs);
        let q = if IQ {
            self.demap_axis::<B>(c.im, soft, slice, q_llrs)
        } else {
            0
        };
        Cf64::new(self.re_points[i], self.im_points[q])
    }

    /// One axis of `B` bits: `n = x / unit` once, then the max-log soft
    /// LLRs (MSB first, transmission order) and, when `slice` is set,
    /// the index of the nearest odd level, whose Gray bits become the
    /// hard LLRs when `soft` is off.
    ///
    /// The soft recursion for Gray-mapped PAM with L = 2^B levels:
    /// `m_0 = −n` (sign bit), then `m_k = |m_{k−1}| − L/2^k` for the
    /// interior bits. The nearest level index is
    /// `round((n + L − 1) / 2)` clamped to `0..L`.
    #[inline(always)]
    fn demap_axis<const B: usize>(
        &self,
        x: f64,
        soft: bool,
        slice: bool,
        llrs: &mut [Llr],
    ) -> usize {
        let n = x / self.unit;
        let levels = 1usize << B;
        if soft {
            let mut m = -n;
            for (k, out) in llrs[..B].iter_mut().enumerate() {
                if k > 0 {
                    m = m.abs() - (levels >> k) as f64;
                }
                *out = round_half_away((m * LLR_UNIT).clamp(-LLR_MAX_F64, LLR_MAX_F64));
            }
        }
        if !slice {
            return 0;
        }
        let top = (levels - 1) as f64;
        let index = round_half_away(((n + top) / 2.0).clamp(0.0, top)) as usize;
        if !soft {
            let gray = index ^ (index >> 1);
            for (k, out) in llrs[..B].iter_mut().enumerate() {
                *out = if (gray >> (B - 1 - k)) & 1 == 0 {
                    HARD_LLR
                } else {
                    -HARD_LLR
                };
            }
        }
        index
    }
    // phylint: end-hot

    /// Slices one axis to the nearest odd level and writes its Gray
    /// bits (MSB first) into `bits`.
    fn axis_hard_bits_into(&self, x: f64, bits: &mut [u8]) {
        let l = self.modulation.levels_per_axis() as i32;
        let normalized = x / self.unit;
        // Nearest odd level: round((v + L-1)/2) indexes 0..L-1.
        let idx = (((normalized + (l - 1) as f64) / 2.0).round() as i32).clamp(0, l - 1);
        let level = 2 * idx - (l - 1);
        self.modulation.level_to_gray_bits_into(level, bits);
    }
}

/// [`LLR_MAX`] as the f64 the soft values are clamped to before
/// rounding: its bounds are integers, so clamping first and rounding
/// after equals rounding first and clamping after.
const LLR_MAX_F64: f64 = LLR_MAX as f64;

/// `f64::round` (half away from zero) for `|v| < 2³¹`, inline: the
/// fractional part `v − trunc(v)` of a double is exact, so comparing it
/// with ±½ decides exactly where the library call would.
#[inline(always)]
fn round_half_away(v: f64) -> i32 {
    let t = v as i32;
    let frac = v - f64::from(t);
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_coding::hard_to_llr;
    use mimo_fixed::Q15;

    fn hard_demap(demapper: &SymbolDemapper, symbols: &[CQ15]) -> Vec<u8> {
        let mut out = vec![0u8; symbols.len() * demapper.modulation().bits_per_symbol()];
        demapper.hard_demap_into(symbols, &mut out);
        out
    }

    fn soft_demap(demapper: &SymbolDemapper, symbols: &[CQ15]) -> Vec<Llr> {
        let n = symbols.len() * demapper.modulation().bits_per_symbol();
        let identity: Vec<u32> = (0..n as u32).collect();
        let mut out = vec![0 as Llr; n];
        demapper.soft_demap_scatter_into(symbols, &identity, &mut out);
        out
    }

    fn exhaustive_bits(m: Modulation) -> Vec<Vec<u8>> {
        let bps = m.bits_per_symbol();
        (0..1usize << bps)
            .map(|v| (0..bps).map(|i| ((v >> (bps - 1 - i)) & 1) as u8).collect())
            .collect()
    }

    #[test]
    fn hard_roundtrip_every_point_every_modulation() {
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            let demapper = SymbolDemapper::matched_to(&mapper);
            for bits in exhaustive_bits(m) {
                let sym = mapper.map_bits(&bits).unwrap();
                assert_eq!(hard_demap(&demapper, &sym), bits, "{m} {bits:?}");
            }
        }
    }

    #[test]
    fn soft_sign_agrees_with_hard_for_clean_symbols() {
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            let demapper = SymbolDemapper::matched_to(&mapper);
            for bits in exhaustive_bits(m) {
                let sym = mapper.map_bits(&bits).unwrap();
                let soft = soft_demap(&demapper, &sym);
                let hard: Vec<u8> = soft.iter().map(|&l| u8::from(l < 0)).collect();
                assert_eq!(hard, bits, "{m} {bits:?}");
            }
        }
    }

    #[test]
    fn soft_magnitude_reflects_distance_from_boundary() {
        let mapper = SymbolMapper::new(Modulation::Qam16).unwrap();
        let demapper = SymbolDemapper::matched_to(&mapper);
        let unit = mapper.scale() / 10f64.sqrt();
        // A symbol right on the I decision boundary -> near-zero LLR.
        let on_boundary = CQ15::from_f64(0.0, unit);
        let llr = soft_demap(&demapper, &[on_boundary]);
        assert!(llr[0].abs() <= 1, "boundary symbol must be uncertain: {llr:?}");
        // A deep corner symbol -> confident LLR on the sign bit.
        let corner = CQ15::from_f64(3.0 * unit, 3.0 * unit);
        let llr = soft_demap(&demapper, &[corner]);
        assert!(llr[0] < -32, "deep symbol must be confident: {llr:?}");
    }

    #[test]
    fn noisy_symbols_still_slice_to_nearest() {
        let mapper = SymbolMapper::new(Modulation::Qam64).unwrap();
        let demapper = SymbolDemapper::matched_to(&mapper);
        let unit = mapper.scale() / 42f64.sqrt();
        for bits in exhaustive_bits(Modulation::Qam64) {
            let sym = mapper.map_bits(&bits).unwrap()[0];
            // Perturb by 0.4 of a level spacing: still nearest.
            let noisy = CQ15::from_f64(
                sym.re.to_f64() + 0.4 * unit,
                sym.im.to_f64() - 0.4 * unit,
            );
            assert_eq!(hard_demap(&demapper, &[noisy]), bits);
        }
    }

    #[test]
    fn scatter_demap_equals_soft_demap_through_the_map() {
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            let demapper = SymbolDemapper::matched_to(&mapper);
            let bps = m.bits_per_symbol();
            // Eight symbols through a stride-rotation map into a wider
            // buffer with interspersed never-written erasure slots.
            let bits: Vec<u8> = (0..8 * bps).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect();
            let symbols = mapper.map_bits(&bits).unwrap();
            let n = 8 * bps;
            let map: Vec<u32> = (0..n).map(|k| (2 * ((k * 7) % n)) as u32).collect();
            let mut out = vec![0 as Llr; 2 * n];
            demapper.soft_demap_scatter_into(&symbols, &map, &mut out);
            let soft = soft_demap(&demapper, &symbols);
            let mut expect = vec![0 as Llr; 2 * n];
            for (k, &l) in soft.iter().enumerate() {
                expect[map[k] as usize] = l;
            }
            assert_eq!(out, expect, "{m}");
        }
    }

    /// [`SymbolDemapper::demap_symbol`] at `d`'s modulation.
    fn demap_one(d: &SymbolDemapper, c: Cf64, soft: bool, llrs: &mut [Llr; 8]) -> Cf64 {
        match d.modulation {
            Modulation::Bpsk => d.demap_symbol::<1, false>(c, soft, true, llrs),
            Modulation::Qpsk => d.demap_symbol::<1, true>(c, soft, true, llrs),
            Modulation::Qam16 => d.demap_symbol::<2, true>(c, soft, true, llrs),
            Modulation::Qam64 => d.demap_symbol::<3, true>(c, soft, true, llrs),
        }
    }

    /// The soft demap before the one-pass kernel (`f64::round` per
    /// LLR): the oracle of the inline rounding.
    fn oracle_soft_llrs(d: &SymbolDemapper, c: Cf64) -> Vec<Llr> {
        let axes: &[f64] = match d.modulation {
            Modulation::Bpsk => &[c.re],
            _ => &[c.re, c.im],
        };
        let l = d.modulation.levels_per_axis() as f64;
        let mut out = Vec::new();
        for &x in axes {
            let mut m = -x / d.unit;
            for k in 0..d.modulation.bits_per_axis() {
                if k > 0 {
                    m = m.abs() - l / (1 << k) as f64;
                }
                let scaled = (m * LLR_UNIT).round() as i64;
                out.push(scaled.clamp(-(LLR_MAX as i64), LLR_MAX as i64) as Llr);
            }
        }
        out
    }

    /// The EVM measurement before the one-pass kernel: hard demap,
    /// re-map the bits through the mapper LUT, accumulate.
    fn oracle_evm(mapper: &SymbolMapper, d: &SymbolDemapper, symbols: &[CQ15]) -> (f64, f64) {
        let hard = hard_demap(d, symbols);
        let mut points = vec![CQ15::ZERO; symbols.len()];
        mapper.map_bits_into(&hard, &mut points).unwrap();
        let (mut num, mut den) = (0.0, 0.0);
        for (&got, &want) in symbols.iter().zip(&points) {
            num += (Cf64::from_fixed(got) - Cf64::from_fixed(want)).norm_sqr();
            den += Cf64::from_fixed(want).norm_sqr();
        }
        (num, den)
    }

    /// Every raw 16-bit value on the I axis, each also once on the Q
    /// axis (an odd multiplier permutes the values), through the
    /// one-pass kernel against the separate passes it replaces: soft
    /// LLRs, hard LLRs, the nearest point and the EVM sums, bit for bit.
    #[test]
    fn one_pass_demap_matches_the_separate_passes_on_every_axis_value() {
        let symbols: Vec<CQ15> = (0..=u16::MAX)
            .map(|r| {
                let q = r.wrapping_mul(40_503).wrapping_add(12_345);
                CQ15::new(
                    Q15::from_raw(i64::from(r as i16)),
                    Q15::from_raw(i64::from(q as i16)),
                )
            })
            .collect();
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            let d = SymbolDemapper::matched_to(&mapper);
            let bps = m.bits_per_symbol();
            let hard = hard_demap(&d, &symbols);
            let mut llrs = [0 as Llr; 8];
            for (&sym, bits) in symbols.iter().zip(hard.chunks_exact(bps)) {
                let c = Cf64::from_fixed(sym);
                let nearest = demap_one(&d, c, true, &mut llrs);
                assert_eq!(llrs[..bps], oracle_soft_llrs(&d, c)[..], "{m} {sym:?}");
                let addr = bits.iter().fold(0, |a, &b| (a << 1) | usize::from(b));
                let want = Cf64::from_fixed(mapper.lut()[addr]);
                assert_eq!(nearest.re.to_bits(), want.re.to_bits(), "{m} {sym:?}");
                assert_eq!(nearest.im.to_bits(), want.im.to_bits(), "{m} {sym:?}");
                demap_one(&d, c, false, &mut llrs);
                let hard_llrs: Vec<Llr> = bits.iter().map(|&b| hard_to_llr(b)).collect();
                assert_eq!(llrs[..bps], hard_llrs[..], "{m} {sym:?}");
            }
            // Whole 48-carrier symbols through the scatter entry points.
            for block in symbols.chunks(48) {
                let n = block.len() * bps;
                let identity: Vec<u32> = (0..n as u32).collect();
                let mut one_pass = vec![0 as Llr; n];
                let (num, den) = d.demap_scatter_into(block, &identity, true, &mut one_pass);
                let (want_num, want_den) = oracle_evm(&mapper, &d, block);
                assert_eq!(num.to_bits(), want_num.to_bits(), "{m}");
                assert_eq!(den.to_bits(), want_den.to_bits(), "{m}");
                assert_eq!(one_pass, soft_demap(&d, block), "{m}");
                let mut hard_pass = vec![0 as Llr; n];
                let sums = d.demap_scatter_into(block, &identity, false, &mut hard_pass);
                assert_eq!(sums, (num, den), "{m}");
                let hard_bits = hard_demap(&d, block);
                let want: Vec<Llr> = hard_bits.iter().map(|&b| hard_to_llr(b)).collect();
                assert_eq!(hard_pass, want, "{m}");
            }
        }
    }

    #[test]
    fn extreme_inputs_clamp_not_panic() {
        let demapper = SymbolDemapper::matched_to(&SymbolMapper::new(Modulation::Qam16).unwrap());
        let far = CQ15::from_f64(0.99, -0.99);
        let bits = hard_demap(&demapper, &[far]);
        assert_eq!(bits.len(), 4);
        let soft = soft_demap(&demapper, &[far]);
        assert!(soft.iter().all(|&l| l.abs() <= 1024));
    }
}
