//! The decoder-multiplexer symbol demapper (hard and soft).

use mimo_coding::{Llr, LLR_MAX};
use mimo_fixed::{CQ15, Cf64};

use crate::mapper::{ModemError, SymbolMapper};
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
/// # Examples
///
/// ```
/// use mimo_modem::{Modulation, SymbolDemapper, SymbolMapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mapper = SymbolMapper::new(Modulation::Qam16)?;
/// let demapper = SymbolDemapper::new(Modulation::Qam16)?;
/// let bits = vec![1, 0, 1, 1, 0, 0, 0, 1];
/// let symbols = mapper.map_bits(&bits)?;
/// assert_eq!(demapper.hard_demap(&symbols), bits);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolDemapper {
    modulation: Modulation,
    /// Distance between adjacent constellation levels / 2.
    unit: f64,
}

impl SymbolDemapper {
    /// Creates a demapper with the default constellation scale.
    ///
    /// # Errors
    ///
    /// Mirrors [`SymbolMapper::new`]; never fails for the default.
    pub fn new(modulation: Modulation) -> Result<Self, ModemError> {
        let mapper = SymbolMapper::new(modulation)?;
        Ok(Self::matched_to(&mapper))
    }

    /// Creates a demapper whose thresholds match a specific mapper
    /// (same modulation and scale).
    pub fn matched_to(mapper: &SymbolMapper) -> Self {
        Self {
            modulation: mapper.modulation(),
            unit: mapper.scale() / mapper.modulation().norm_factor().sqrt(),
        }
    }

    /// The modulation this demapper slices.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Re-points this demapper at a different mapper's constellation
    /// in place (no allocation): the per-burst rate reconfiguration
    /// counterpart of [`SymbolMapper::reconfigure`].
    pub fn reconfigure_matched_to(&mut self, mapper: &SymbolMapper) {
        *self = Self::matched_to(mapper);
    }

    /// Hard decision: nearest constellation point, Gray bits out.
    /// Output length is `symbols.len() * bits_per_symbol`.
    pub fn hard_demap(&self, symbols: &[CQ15]) -> Vec<u8> {
        let bps = self.modulation.bits_per_symbol();
        let mut out = vec![0u8; symbols.len() * bps];
        self.hard_demap_into(symbols, &mut out);
        out
    }

    /// Soft decision: one LLR per coded bit, positive = bit 0 likelier.
    /// Output length is `symbols.len() * bits_per_symbol`.
    pub fn soft_demap(&self, symbols: &[CQ15]) -> Vec<Llr> {
        let bps = self.modulation.bits_per_symbol();
        let mut out = vec![0 as Llr; symbols.len() * bps];
        self.soft_demap_into(symbols, &mut out);
        out
    }

    /// Allocation-free [`SymbolDemapper::hard_demap`] into a
    /// caller-provided buffer of exactly
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

    /// Allocation-free [`SymbolDemapper::soft_demap`] into a
    /// caller-provided buffer of exactly
    /// `symbols.len() * bits_per_symbol` LLRs.
    ///
    /// # Panics
    ///
    /// Panics on a wrong-size output buffer.
    pub fn soft_demap_into(&self, symbols: &[CQ15], out: &mut [Llr]) {
        let bps = self.modulation.bits_per_symbol();
        assert_eq!(out.len(), symbols.len() * bps, "demap buffer size");
        let half = self.modulation.bits_per_axis();
        for (&sym, llrs) in symbols.iter().zip(out.chunks_exact_mut(bps)) {
            let c = Cf64::from_fixed(sym);
            match self.modulation {
                Modulation::Bpsk => {
                    self.axis_soft_llrs_into(c.re, llrs);
                }
                _ => {
                    let (i_llrs, q_llrs) = llrs.split_at_mut(half);
                    self.axis_soft_llrs_into(c.re, i_llrs);
                    self.axis_soft_llrs_into(c.im, q_llrs);
                }
            }
        }
    }

    /// Fused soft demap: demaps each symbol and scatters its LLRs
    /// through a precomputed map (demapped bit `k` of the block lands
    /// at `out[map[k]]`), collapsing the receiver's
    /// demap→deinterleave→depuncture walk into one pass. Positions of
    /// `out` that `map` never names are left untouched, so a pre-zeroed
    /// buffer keeps zero-LLR puncture erasures for free.
    ///
    /// # Panics
    ///
    /// Panics unless `map` covers exactly
    /// `symbols.len() * bits_per_symbol` demapped bits, or when a map
    /// entry falls outside `out` (the workspace sizes both from the
    /// operating point).
    // phylint: hot
    pub fn soft_demap_scatter_into(&self, symbols: &[CQ15], map: &[u32], out: &mut [Llr]) {
        let bps = self.modulation.bits_per_symbol();
        assert_eq!(map.len(), symbols.len() * bps, "scatter map size");
        let half = self.modulation.bits_per_axis();
        let mut llrs = [0 as Llr; 8];
        for (&sym, positions) in symbols.iter().zip(map.chunks_exact(bps)) {
            let c = Cf64::from_fixed(sym);
            match self.modulation {
                Modulation::Bpsk => self.axis_soft_llrs_into(c.re, &mut llrs[..1]),
                _ => {
                    let (i_llrs, q_llrs) = llrs[..bps].split_at_mut(half);
                    self.axis_soft_llrs_into(c.re, i_llrs);
                    self.axis_soft_llrs_into(c.im, q_llrs);
                }
            }
            for (&pos, &l) in positions.iter().zip(&llrs[..bps]) {
                out[pos as usize] = l;
            }
        }
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

    /// Max-log LLRs for one axis, MSB-first (transmission order),
    /// written into `llrs`.
    ///
    /// The recursion for Gray-mapped PAM with L = 2^n levels:
    /// `m_0 = −x/unit` (sign bit), then
    /// `m_k = |m_{k−1}| − L/2^k` for the interior bits.
    fn axis_soft_llrs_into(&self, x: f64, llrs: &mut [Llr]) {
        let n = self.modulation.bits_per_axis();
        debug_assert_eq!(llrs.len(), n);
        let l = self.modulation.levels_per_axis() as f64;
        let mut m = -x / self.unit;
        for (k, out) in llrs.iter_mut().enumerate() {
            if k > 0 {
                m = m.abs() - l / (1 << k) as f64;
            }
            let scaled = (m * LLR_UNIT).round() as i64;
            *out = scaled.clamp(-(LLR_MAX as i64), LLR_MAX as i64) as Llr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_coding::llr_to_hard;

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
                assert_eq!(demapper.hard_demap(&sym), bits, "{m} {bits:?}");
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
                let soft = demapper.soft_demap(&sym);
                let hard: Vec<u8> = soft.iter().map(|&l| llr_to_hard(l)).collect();
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
        let llr = demapper.soft_demap(&[on_boundary]);
        assert!(llr[0].abs() <= 1, "boundary symbol must be uncertain: {llr:?}");
        // A deep corner symbol -> confident LLR on the sign bit.
        let corner = CQ15::from_f64(3.0 * unit, 3.0 * unit);
        let llr = demapper.soft_demap(&[corner]);
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
            assert_eq!(demapper.hard_demap(&[noisy]), bits);
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
            let soft = demapper.soft_demap(&symbols);
            let mut expect = vec![0 as Llr; 2 * n];
            for (k, &l) in soft.iter().enumerate() {
                expect[map[k] as usize] = l;
            }
            assert_eq!(out, expect, "{m}");
        }
    }

    #[test]
    fn extreme_inputs_clamp_not_panic() {
        let demapper = SymbolDemapper::new(Modulation::Qam16).unwrap();
        let far = CQ15::from_f64(0.99, -0.99);
        let bits = demapper.hard_demap(&[far]);
        assert_eq!(bits.len(), 4);
        let soft = demapper.soft_demap(&[far]);
        assert!(soft.iter().all(|&l| l.abs() <= 1024));
    }
}
