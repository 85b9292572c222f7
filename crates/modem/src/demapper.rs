//! The decoder-multiplexer symbol demapper (hard and soft).

use mimo_coding::{Llr, HARD_LLR, LLR_MAX};
use mimo_fixed::{bus_carrier, lane_groups, stage_bus, Cf64, Isa, Lanes, CQ15, LANES};

use crate::mapper::SymbolMapper;
use crate::modulation::Modulation;

/// LLR units produced per constellation-unit of distance: a symbol one
/// level-spacing away from a decision boundary yields ±2·this.
const LLR_UNIT: f64 = 16.0;

/// Lane groups [`SymbolDemapper::soft_demap_scatter_into`] stages on
/// the stack at a time.
const STAGE_GROUPS: usize = 8;

/// The receiver's symbol demapper.
///
/// Hard demapping models the paper's decoder-multiplexer: each axis is
/// sliced against the level thresholds and the Gray bits read off.
/// Soft demapping produces max-log piecewise-linear LLRs per coded bit
/// (the standard simplification that hardware soft demappers use for
/// Gray-mapped QAM).
///
/// The receiver's payload pass does both in one walk: each axis is
/// divided by the level unit once, and that quotient yields the soft
/// (or hard) LLRs, the nearest level and, from it, the error-vector
/// sums — no second slice and no re-mapping of hard bits.
///
/// One kernel runs that pass, [`SymbolDemapper::demap_bus_scatter_into`],
/// on a symbol held as bus-word lane groups
/// ([`mimo_fixed::BusLanes`]). It dispatches on the demapper's [`Isa`]
/// tier: the AVX2 body computes `raw·2⁻¹⁵ / unit`, the clamped
/// half-away LLR rounds and the nearest level four carriers at a time
/// on `f64` lanes, looks the points up by gather and forms each
/// carrier's error and point energy there too; the plain body runs the
/// same arithmetic carrier by carrier. Both then add the energies in
/// carrier order and scatter the LLRs, so every tier gives the same
/// bits. [`SymbolDemapper::soft_demap_scatter_into`] is the same
/// kernel's soft, no-EVM pass on [`CQ15`] slices: it stages the
/// carriers on the stack (a block with a carrier off the 16-bit bus
/// goes to the plain body).
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
    /// The hard LLRs of level index `i` of one axis, MSB first: the
    /// Gray bits of `i` as ±[`HARD_LLR`].
    hard: [[Llr; 3]; 8],
    /// The CPU tier the lane kernel dispatches on.
    isa: Isa,
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
        let b = modulation.bits_per_axis();
        let mut hard = [[0; 3]; 8];
        for (i, llrs) in hard.iter_mut().enumerate().take(modulation.levels_per_axis()) {
            let gray = i ^ (i >> 1);
            for (k, l) in llrs[..b].iter_mut().enumerate() {
                *l = if (gray >> (b - 1 - k)) & 1 == 0 {
                    HARD_LLR
                } else {
                    -HARD_LLR
                };
            }
        }
        Self {
            modulation,
            unit: mapper.scale() / modulation.norm_factor().sqrt(),
            re_points,
            im_points,
            hard,
            isa: Isa::detected(),
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
    /// no-EVM case of [`SymbolDemapper::demap_bus_scatter_into`] on
    /// [`CQ15`] slices, with the same LLRs.
    ///
    /// # Panics
    ///
    /// Panics unless `map` covers exactly
    /// `symbols.len() * bits_per_symbol` demapped bits, or when a map
    /// entry falls outside `out` (the workspace sizes both from the
    /// operating point).
    pub fn soft_demap_scatter_into(&self, symbols: &[CQ15], map: &[u32], out: &mut [Llr]) {
        let bps = self.modulation.bits_per_symbol();
        assert_eq!(map.len(), symbols.len() * bps, "scatter map size");
        let block = STAGE_GROUPS * LANES;
        let zero = (0.0, 0.0);
        for (chunk, map) in symbols.chunks(block).zip(map.chunks(block * bps)) {
            let (mut re, mut im) = ([[0; LANES]; STAGE_GROUPS], [[0; LANES]; STAGE_GROUPS]);
            if stage_bus(chunk, &mut re, &mut im) {
                self.bus_pass::<false>(&re, &im, chunk.len(), map, true, out, zero);
                continue;
            }
            let carrier = |c: usize| Cf64::from_fixed(chunk[c]);
            match self.modulation {
                Modulation::Bpsk => self.plain::<false, 1, false>(carrier, map, true, out, zero),
                Modulation::Qpsk => self.plain::<false, 1, true>(carrier, map, true, out, zero),
                Modulation::Qam16 => self.plain::<false, 2, true>(carrier, map, true, out, zero),
                Modulation::Qam64 => self.plain::<false, 3, true>(carrier, map, true, out, zero),
            };
        }
    }

    /// The receiver's one-pass demap, on a symbol held as bus-word lane
    /// groups: carrier `c` of the `n` in lane `c % LANES` of group
    /// `c / LANES` of `re`/`im`. Each carrier's LLRs — max-log soft
    /// values, or ±[`HARD_LLR`] from the nearest point's Gray bits when
    /// `soft` is off — are scattered through `map` as in
    /// [`SymbolDemapper::soft_demap_scatter_into`], and the carriers'
    /// error-vector sums against their nearest constellation points are
    /// accumulated in carrier order from zero and returned:
    /// `(Σ |x − p̂|², Σ |p̂|²)`. The nearest point is the mapper LUT
    /// entry that [`SymbolDemapper::hard_demap_into`]'s bits address.
    /// Runs the AVX2 body on that tier and the plain body otherwise
    /// (type docs). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics unless `map` covers exactly `n * bits_per_symbol`
    /// demapped bits and `re`/`im` hold the `n` carriers, or when a map
    /// entry falls outside `out`.
    pub fn demap_bus_scatter_into(
        &self,
        re: &[Lanes],
        im: &[Lanes],
        n: usize,
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
    ) -> (f64, f64) {
        self.bus_pass::<true>(re, im, n, map, soft, out, (0.0, 0.0))
    }

    /// The lane kernel at this demapper's modulation: `n` carriers of
    /// `re`/`im`, error sums added onto `sums`.
    #[expect(clippy::too_many_arguments, reason = "one argument per pass input")]
    fn bus_pass<const EVM: bool>(
        &self,
        re: &[Lanes],
        im: &[Lanes],
        n: usize,
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
        sums: (f64, f64),
    ) -> (f64, f64) {
        let bps = self.modulation.bits_per_symbol();
        assert_eq!(map.len(), n * bps, "scatter map size");
        let groups = lane_groups(n);
        let (re, im) = (&re[..groups], &im[..groups]);
        match self.modulation {
            Modulation::Bpsk => self.bus_axes::<EVM, 1, false>(re, im, map, soft, out, sums),
            Modulation::Qpsk => self.bus_axes::<EVM, 1, true>(re, im, map, soft, out, sums),
            Modulation::Qam16 => self.bus_axes::<EVM, 2, true>(re, im, map, soft, out, sums),
            Modulation::Qam64 => self.bus_axes::<EVM, 3, true>(re, im, map, soft, out, sums),
        }
    }

    // phylint: hot
    /// [`SymbolDemapper::bus_pass`] at `B` bits per axis, with a Q axis
    /// when `IQ` is set, on the build of the demapper's tier. `map`
    /// holds the carriers' bit positions, `bps` per carrier.
    #[inline]
    fn bus_axes<const EVM: bool, const B: usize, const IQ: bool>(
        &self,
        re: &[Lanes],
        im: &[Lanes],
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
        sums: (f64, f64),
    ) -> (f64, f64) {
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { self.bus_avx2::<EVM, B, IQ>(re, im, map, soft, out, sums) };
        }
        let carrier = |c: usize| {
            let v = bus_carrier(re, im, c);
            Cf64::from_fixed(v)
        };
        self.plain::<EVM, B, IQ>(carrier, map, soft, out, sums)
    }

    /// The plain body: carrier `c` is `carrier(c)`; its LLRs (soft, or
    /// hard from the nearest point's Gray bits) land at its `bps`
    /// positions of `map`, and with `EVM` its error and point energy
    /// are added onto `sums` in carrier order. One monomorphized body
    /// per modulation, so the per-axis bit loops unroll.
    #[inline(always)]
    fn plain<const EVM: bool, const B: usize, const IQ: bool>(
        &self,
        carrier: impl Fn(usize) -> Cf64,
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
        (mut num, mut den): (f64, f64),
    ) -> (f64, f64) {
        let bps = if IQ { 2 * B } else { B };
        debug_assert_eq!(bps, self.modulation.bits_per_symbol());
        let mut llrs = [0 as Llr; 8];
        for (c, positions) in map.chunks_exact(bps).enumerate() {
            let x = carrier(c);
            let nearest = self.demap_symbol::<B, IQ>(x, soft, EVM || !soft, &mut llrs);
            if EVM {
                num += (x - nearest).norm_sqr();
                den += nearest.norm_sqr();
            }
            for (&pos, &l) in positions.iter().zip(&llrs[..bps]) {
                out[pos as usize] = l;
            }
        }
        (num, den)
    }

    /// The AVX2 body: per lane group, two halves of four carriers on
    /// `f64` lanes compute `n = raw·2⁻¹⁵ / unit` per axis, the max-log
    /// LLR recursion with its clamp and half-away rounding, the nearest
    /// level (`(n + L − 1)·½` clamped and rounded), the points by
    /// gather and each carrier's `|x − p̂|²` and `|p̂|²`. Every lane
    /// operation is the IEEE operation the plain body makes (`·½` is
    /// exactly `/2`, and the two clamps agree on every value they can
    /// meet), so the lanes hold the plain body's values. The energies
    /// are then added and the LLRs scattered carrier by carrier.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers must have verified AVX2 support at run time
    // (`bus_axes` calls this only when its `Isa` answers `avx2()`, the
    // tier invariant). Every load reads four `i32` at offset 0 or 4 of
    // an eight-lane group, every store writes four words at offset 0 or
    // 4 of an eight-word local array, and every gather index is a level
    // clamped to `0..L` of an eight-entry point table: all in bounds.
    unsafe fn bus_avx2<const EVM: bool, const B: usize, const IQ: bool>(
        &self,
        re: &[Lanes],
        im: &[Lanes],
        map: &[u32],
        soft: bool,
        out: &mut [Llr],
        (mut num, mut den): (f64, f64),
    ) -> (f64, f64) {
        use std::arch::x86_64::*;
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let bps = if IQ { 2 * B } else { B };
        let axes = if IQ { 2 } else { 1 };
        let levels = 1usize << B;
        let scale = _mm256_set1_pd(1.0 / 32768.0);
        let unit = _mm256_set1_pd(self.unit);
        let sign = _mm256_set1_pd(-0.0);
        let (half, neg_half) = (_mm256_set1_pd(0.5), _mm256_set1_pd(-0.5));
        let (zero, one) = (_mm256_setzero_pd(), _mm256_set1_pd(1.0));
        let (llr_max, llr_unit) = (_mm256_set1_pd(LLR_MAX_F64), _mm256_set1_pd(LLR_UNIT));
        let top = _mm256_set1_pd((levels - 1) as f64);
        let points = [&self.re_points, &self.im_points];
        let im_point = _mm256_set1_pd(self.im_points[0]);
        // `round_half_away` on four lanes of `|v| < 2³¹`.
        let round = |v: __m256d| {
            let t = _mm256_round_pd::<TRUNC>(v);
            let frac = _mm256_sub_pd(v, t);
            let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(frac, half), one);
            let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(frac, neg_half), one);
            _mm256_cvtpd_epi32(_mm256_sub_pd(_mm256_add_pd(t, up), down))
        };
        for ((r, i), positions) in re.iter().zip(im).zip(map.chunks(LANES * bps)) {
            let mut llr = [[0i32; LANES]; 6];
            let mut index = [[0i32; LANES]; 2];
            let (mut err, mut energy) = ([0f64; LANES], [0f64; LANES]);
            for h in (0..LANES).step_by(4) {
                let load = |w: &Lanes| {
                    let words = _mm_loadu_si128(w[h..].as_ptr().cast());
                    _mm256_mul_pd(_mm256_cvtepi32_pd(words), scale)
                };
                let x = [load(r), load(i)];
                let mut p = [zero, im_point];
                for a in 0..axes {
                    let n = _mm256_div_pd(x[a], unit);
                    if soft {
                        let mut m = _mm256_xor_pd(n, sign);
                        for k in 0..B {
                            if k > 0 {
                                let step = _mm256_set1_pd((levels >> k) as f64);
                                m = _mm256_sub_pd(_mm256_andnot_pd(sign, m), step);
                            }
                            let v = _mm256_mul_pd(m, llr_unit);
                            let v = _mm256_max_pd(_mm256_min_pd(v, llr_max), _mm256_xor_pd(llr_max, sign));
                            _mm_storeu_si128(llr[a * B + k][h..].as_mut_ptr().cast(), round(v));
                        }
                    }
                    if EVM || !soft {
                        let s = _mm256_mul_pd(_mm256_add_pd(n, top), half);
                        let s = _mm256_max_pd(_mm256_min_pd(s, top), zero);
                        let t = _mm256_round_pd::<TRUNC>(s);
                        let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_sub_pd(s, t), half), one);
                        let level = _mm256_cvttpd_epi32(_mm256_add_pd(t, up));
                        _mm_storeu_si128(index[a][h..].as_mut_ptr().cast(), level);
                        if EVM {
                            p[a] = _mm256_i32gather_pd::<8>(points[a].as_ptr(), level);
                        }
                    }
                }
                if EVM {
                    let (dr, di) = (_mm256_sub_pd(x[0], p[0]), _mm256_sub_pd(x[1], p[1]));
                    let e = _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
                    let q = _mm256_add_pd(_mm256_mul_pd(p[0], p[0]), _mm256_mul_pd(p[1], p[1]));
                    _mm256_storeu_pd(err[h..].as_mut_ptr(), e);
                    _mm256_storeu_pd(energy[h..].as_mut_ptr(), q);
                }
            }
            for (c, pos) in positions.chunks_exact(bps).enumerate() {
                if EVM {
                    num += err[c];
                    den += energy[c];
                }
                if soft {
                    for (k, &at) in pos.iter().enumerate() {
                        out[at as usize] = llr[k][c];
                    }
                } else {
                    for (a, pos) in pos.chunks_exact(B).enumerate() {
                        let hard = &self.hard[index[a][c] as usize];
                        for (&at, &l) in pos.iter().zip(hard) {
                            out[at as usize] = l;
                        }
                    }
                }
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
    use mimo_fixed::{BusLanes, Q15};

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
        let symbols = every_axis_value();
        for (m, &isa) in Modulation::ALL.into_iter().flat_map(|m| Isa::tiers().iter().map(move |i| (m, i))) {
            let mapper = SymbolMapper::new(m).unwrap();
            let d = SymbolDemapper {
                isa,
                ..SymbolDemapper::matched_to(&mapper)
            };
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
            // Whole 48-carrier symbols through the lane entry, soft and
            // hard, against the soft pass, the hard pass and the EVM
            // re-map.
            for block in symbols.chunks(48) {
                let n = block.len() * bps;
                let identity: Vec<u32> = (0..n as u32).collect();
                let (want_num, want_den) = oracle_evm(&mapper, &d, block);
                let hard_bits = hard_demap(&d, block);
                let hard_llrs: Vec<Llr> = hard_bits.iter().map(|&b| hard_to_llr(b)).collect();
                let lanes = staged(block);
                for (soft, want) in [(true, soft_demap(&d, block)), (false, hard_llrs)] {
                    let mut got = vec![0 as Llr; n];
                    let sums = d.demap_bus_scatter_into(&lanes.re, &lanes.im, block.len(), &identity, soft, &mut got);
                    assert_eq!(got, want, "{m} {} soft {soft}", isa.name());
                    assert_eq!(sums.0.to_bits(), want_num.to_bits(), "{m} {}", isa.name());
                    assert_eq!(sums.1.to_bits(), want_den.to_bits(), "{m} {}", isa.name());
                }
            }
        }
    }

    /// `symbols` as bus-word lane groups.
    fn staged(symbols: &[CQ15]) -> BusLanes {
        let mut lanes = BusLanes::zeroed(lane_groups(symbols.len()));
        assert!(stage_bus(symbols, &mut lanes.re, &mut lanes.im));
        lanes
    }

    /// Deterministic xorshift words.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// A random scatter map of `n` bits into `2n` slots (a permutation
    /// of the even slots; odd slots are never written).
    fn random_map(n: usize, seed: u64) -> Vec<u32> {
        let mut next = xorshift(seed);
        let mut map: Vec<u32> = (0..n as u32).map(|k| 2 * k).collect();
        for k in (1..n).rev() {
            map.swap(k, (next() % (k as u64 + 1)) as usize);
        }
        map
    }

    /// The lane kernel on every tier against the plain body on the
    /// samples as they stand (`Cf64::from_fixed` per carrier), at every
    /// modulation, soft and hard: the LLRs through a random map and the
    /// bits of both error sums. `d` may carry any level unit.
    fn assert_lane_kernel_matches_plain(d: &SymbolDemapper, symbols: &[CQ15], seed: u64, what: &str) {
        let bps = d.modulation.bits_per_symbol();
        let n = symbols.len() * bps;
        let map = random_map(n, seed);
        let lanes = staged(symbols);
        for soft in [true, false] {
            let mut want = vec![0 as Llr; 2 * n];
            let carrier = |c: usize| Cf64::from_fixed(symbols[c]);
            let zero = (0.0, 0.0);
            let want_sums = match d.modulation {
                Modulation::Bpsk => d.plain::<true, 1, false>(carrier, &map, soft, &mut want, zero),
                Modulation::Qpsk => d.plain::<true, 1, true>(carrier, &map, soft, &mut want, zero),
                Modulation::Qam16 => d.plain::<true, 2, true>(carrier, &map, soft, &mut want, zero),
                Modulation::Qam64 => d.plain::<true, 3, true>(carrier, &map, soft, &mut want, zero),
            };
            for &isa in Isa::tiers() {
                let lane_d = SymbolDemapper { isa, ..d.clone() };
                let tier = isa.name();
                let mut got = vec![0 as Llr; 2 * n];
                let sums = lane_d.demap_bus_scatter_into(&lanes.re, &lanes.im, symbols.len(), &map, soft, &mut got);
                assert_eq!(got, want, "{what}, {tier}, soft {soft}");
                assert_eq!(sums.0.to_bits(), want_sums.0.to_bits(), "{what}, {tier}, soft {soft}");
                assert_eq!(sums.1.to_bits(), want_sums.1.to_bits(), "{what}, {tier}, soft {soft}");
                // The CQ15 entry stages onto the same kernel.
                if soft {
                    let mut soft_only = vec![0 as Llr; 2 * n];
                    lane_d.soft_demap_scatter_into(symbols, &map, &mut soft_only);
                    assert_eq!(soft_only, want, "{what}, {tier}, soft-only entry");
                }
            }
        }
    }

    /// Every raw bus word on the I axis (the Q axis permuted), from
    /// −32768 to 32767, in 48-carrier symbols and a last partial lane
    /// group, through the lane kernel at the matched level unit.
    #[test]
    fn lane_kernel_matches_the_plain_body_on_every_bus_word() {
        let symbols = every_axis_value();
        for m in Modulation::ALL {
            let d = SymbolDemapper::matched_to(&SymbolMapper::new(m).unwrap());
            for (b, block) in symbols.chunks(48).enumerate().step_by(7) {
                assert_lane_kernel_matches_plain(&d, block, b as u64, &format!("{m} block {b}"));
            }
            let tail = &symbols[symbols.len() - 13..];
            assert_lane_kernel_matches_plain(&d, tail, 5, &format!("{m} 13 carriers"));
            let rails = [(-32_768, 32_767), (32_767, -32_768), (-32_768, -32_768), (32_767, 32_767), (0, 0)]
                .map(|(r, q)| CQ15::new(Q15::from_raw(r), Q15::from_raw(q)));
            assert_lane_kernel_matches_plain(&d, &rails, 6, &format!("{m} bus rails"));
        }
    }

    /// A level unit of 2⁻¹⁰ makes `n = raw / 32` exact: odd raw words
    /// put the LLR `16·m` exactly on a half, multiples of 64 put the
    /// level `(n + L − 1)·½` exactly on a half, and words beyond ±2048
    /// push the LLRs past ±[`LLR_MAX`] into the clamp.
    #[test]
    fn lane_kernel_matches_the_plain_body_at_ties_and_the_llr_bound() {
        let symbols = every_axis_value();
        for m in Modulation::ALL {
            let d = SymbolDemapper {
                unit: 1.0 / 1024.0,
                ..SymbolDemapper::matched_to(&SymbolMapper::new(m).unwrap())
            };
            let mut llrs = [0 as Llr; 8];
            let top = (d.modulation.levels_per_axis() - 1) as f64;
            let (mut clamped, mut llr_ties, mut level_ties) = (0, 0, 0);
            for &c in &symbols {
                let x = Cf64::from_fixed(c);
                demap_one(&d, x, true, &mut llrs);
                clamped += llrs.iter().filter(|l| l.abs() == LLR_MAX).count();
                let n = x.re / d.unit;
                llr_ties += usize::from((16.0 * n).fract().abs() == 0.5);
                level_ties += usize::from(((n + top) / 2.0).fract() == 0.5 && n.abs() < top);
            }
            // Every interior level boundary is hit exactly once on I.
            assert!(clamped > 1000 && llr_ties > 1000, "{m}: {clamped} clamped, {llr_ties} LLR ties");
            assert_eq!(level_ties, top as usize, "{m}: level ties");
            for (b, block) in symbols.chunks(48).enumerate() {
                assert_lane_kernel_matches_plain(&d, block, b as u64, &format!("{m} unit 2^-10 block {b}"));
            }
        }
    }

    /// Every raw 16-bit value on the I axis, each also once on the Q
    /// axis (an odd multiplier permutes the values).
    fn every_axis_value() -> Vec<CQ15> {
        (0..=u16::MAX)
            .map(|r| {
                let q = r.wrapping_mul(40_503).wrapping_add(12_345);
                CQ15::new(
                    Q15::from_raw(i64::from(r as i16)),
                    Q15::from_raw(i64::from(q as i16)),
                )
            })
            .collect()
    }

    /// Symbols off the 16-bit bus take the plain body through the
    /// [`CQ15`] entry, with the LLRs of the oracle pass.
    #[test]
    fn off_bus_symbols_take_the_plain_body() {
        let d = SymbolDemapper::matched_to(&SymbolMapper::new(Modulation::Qam16).unwrap());
        // One block, and the second of three staging blocks.
        for (len, at) in [(40, 17), (150, 70)] {
            let mut symbols = every_axis_value()[..len].to_vec();
            symbols[at] = CQ15::new(Q15::from_raw(1 << 16), Q15::from_raw(-(1 << 20)));
            let want: Vec<Llr> = symbols.iter().flat_map(|&c| oracle_soft_llrs(&d, Cf64::from_fixed(c))).collect();
            assert_eq!(soft_demap(&d, &symbols), want, "{len} symbols");
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
