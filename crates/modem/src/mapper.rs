//! The symbol-mapper look-up memory.

use std::error::Error;
use std::fmt;

use mimo_fixed::{CQ15, SAMPLE_BITS};

use crate::modulation::Modulation;
use crate::CONSTELLATION_SCALE;

/// Errors from the mapper/demapper.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ModemError {
    /// Bit-stream length is not a multiple of bits-per-symbol.
    RaggedBits {
        /// Supplied length.
        got: usize,
        /// Required multiple.
        multiple: usize,
    },
    /// Scale must be positive and at most 0.9 (headroom for 64-QAM).
    BadScale(f64),
}

impl fmt::Display for ModemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModemError::RaggedBits { got, multiple } => {
                write!(f, "bit count {got} is not a multiple of {multiple}")
            }
            ModemError::BadScale(s) => write!(f, "constellation scale {s} out of (0, 0.9]"),
        }
    }
}

impl Error for ModemError {}

/// The transmitter's symbol mapper: a LUT addressed by interleaved
/// coded bits, returning Q1.15 I/Q constellation points.
///
/// The paper duplicates this ROM once and uses both ports of each of
/// the two RAMs to serve all four channels; [`SymbolMapper::lut`]
/// returns the exact ROM contents so the FPGA model can count its
/// memory bits.
///
/// # Examples
///
/// ```
/// use mimo_modem::{Modulation, SymbolMapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mapper = SymbolMapper::new(Modulation::Qpsk)?;
/// let symbols = mapper.map_bits(&[0, 0, 1, 1])?;
/// assert_eq!(symbols.len(), 2);
/// // Bit pattern 00 -> most-negative corner; 11 -> most-positive.
/// assert!(symbols[0].re.to_f64() < 0.0 && symbols[0].im.to_f64() < 0.0);
/// assert!(symbols[1].re.to_f64() > 0.0 && symbols[1].im.to_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolMapper {
    modulation: Modulation,
    scale: f64,
    lut: Vec<CQ15>,
}

impl SymbolMapper {
    /// Creates a mapper with the default constellation backoff
    /// ([`CONSTELLATION_SCALE`]).
    ///
    /// # Errors
    ///
    /// Never fails for the default scale; the `Result` mirrors
    /// [`SymbolMapper::with_scale`].
    pub fn new(modulation: Modulation) -> Result<Self, ModemError> {
        Self::with_scale(modulation, CONSTELLATION_SCALE)
    }

    /// Creates a mapper with an explicit full-scale backoff. The RMS of
    /// the constellation equals `scale` for every modulation.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::BadScale`] outside `(0, 0.9]` (64-QAM
    /// corners would clip the 16-bit bus beyond 0.9·√(49/21)).
    pub fn with_scale(modulation: Modulation, scale: f64) -> Result<Self, ModemError> {
        if !(scale > 0.0 && scale <= 0.9) {
            return Err(ModemError::BadScale(scale));
        }
        // Capacity for the widest LUT (64-QAM) up front, so later
        // in-place reconfiguration never reallocates.
        let mut mapper = Self {
            modulation,
            scale,
            lut: Vec::with_capacity(1 << Modulation::Qam64.bits_per_symbol()),
        };
        mapper.fill_lut();
        Ok(mapper)
    }

    fn fill_lut(&mut self) {
        let bps = self.modulation.bits_per_symbol();
        self.lut.clear();
        let mut bits = [0u8; 8];
        for addr in 0..1usize << bps {
            for (i, bit) in bits[..bps].iter_mut().enumerate() {
                *bit = ((addr >> (bps - 1 - i)) & 1) as u8;
            }
            self.lut
                .push(Self::map_one(self.modulation, self.scale, &bits[..bps]));
        }
    }

    fn map_one(modulation: Modulation, scale: f64, bits: &[u8]) -> CQ15 {
        let unit = scale / modulation.norm_factor().sqrt();
        match modulation {
            Modulation::Bpsk => {
                let level = modulation.gray_bits_to_level(&bits[..1]);
                CQ15::from_f64(level as f64 * unit, 0.0)
            }
            _ => {
                let half = modulation.bits_per_axis();
                let i_level = modulation.gray_bits_to_level(&bits[..half]);
                let q_level = modulation.gray_bits_to_level(&bits[half..]);
                CQ15::from_f64(i_level as f64 * unit, q_level as f64 * unit)
                    .saturate_bits(SAMPLE_BITS)
            }
        }
    }

    /// The modulation this mapper implements.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The configured constellation scale (RMS amplitude).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The ROM contents: `2^bits_per_symbol` I/Q words. Address bits
    /// are the coded bits in transmission order, MSB first.
    pub fn lut(&self) -> &[CQ15] {
        &self.lut
    }

    /// Maps a bit stream to constellation symbols.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::RaggedBits`] unless the length is a
    /// multiple of [`Modulation::bits_per_symbol`].
    // phylint: allow(test_only_api) -- oracle: tests/golden_vectors.rs
    pub fn map_bits(&self, bits: &[u8]) -> Result<Vec<CQ15>, ModemError> {
        let bps = self.modulation.bits_per_symbol();
        if !bits.len().is_multiple_of(bps) {
            return Err(ModemError::RaggedBits {
                got: bits.len(),
                multiple: bps,
            });
        }
        let mut out = vec![CQ15::ZERO; bits.len() / bps];
        self.map_bits_into(bits, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`SymbolMapper::map_bits`] into a
    /// caller-provided buffer of exactly
    /// `bits.len() / bits_per_symbol` symbols.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::RaggedBits`] on a ragged bit stream or a
    /// mismatched output length.
    pub fn map_bits_into(&self, bits: &[u8], out: &mut [CQ15]) -> Result<(), ModemError> {
        let bps = self.modulation.bits_per_symbol();
        if !bits.len().is_multiple_of(bps) || out.len() * bps != bits.len() {
            return Err(ModemError::RaggedBits {
                got: bits.len(),
                multiple: bps,
            });
        }
        for (group, sym) in bits.chunks_exact(bps).zip(out.iter_mut()) {
            let mut addr = 0usize;
            for &b in group {
                addr = (addr << 1) | usize::from(b & 1);
            }
            *sym = self.lut[addr];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fixed::Cf64;

    #[test]
    fn lut_sizes_match_address_widths() {
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            assert_eq!(mapper.lut().len(), 1 << m.bits_per_symbol(), "{m}");
        }
    }

    #[test]
    fn average_power_is_scale_squared() {
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            let avg: f64 = mapper
                .lut()
                .iter()
                .map(|&p| Cf64::from_fixed(p).norm_sqr())
                .sum::<f64>()
                / mapper.lut().len() as f64;
            let expect = CONSTELLATION_SCALE * CONSTELLATION_SCALE;
            assert!(
                (avg - expect).abs() < 1e-3,
                "{m}: avg power {avg}, want {expect}"
            );
        }
    }

    #[test]
    fn bpsk_is_antipodal_on_i_axis() {
        let mapper = SymbolMapper::new(Modulation::Bpsk).unwrap();
        let zero = Cf64::from_fixed(mapper.lut()[0]);
        let one = Cf64::from_fixed(mapper.lut()[1]);
        assert!(zero.re < 0.0 && one.re > 0.0);
        assert_eq!(zero.im, 0.0);
        assert!((zero.re + one.re).abs() < 1e-6);
    }

    #[test]
    fn qam16_corner_points() {
        let mapper = SymbolMapper::new(Modulation::Qam16).unwrap();
        // 0000 -> I=-3, Q=-3 (most negative corner).
        let corner = Cf64::from_fixed(mapper.map_bits(&[0, 0, 0, 0]).unwrap()[0]);
        let unit = CONSTELLATION_SCALE / 10f64.sqrt();
        assert!((corner.re - -3.0 * unit).abs() < 1e-4);
        assert!((corner.im - -3.0 * unit).abs() < 1e-4);
        // 1010 -> I=+3, Q=+3.
        let corner = Cf64::from_fixed(mapper.map_bits(&[1, 0, 1, 0]).unwrap()[0]);
        assert!((corner.re - 3.0 * unit).abs() < 1e-4);
        assert!((corner.im - 3.0 * unit).abs() < 1e-4);
    }

    #[test]
    fn all_constellation_points_fit_the_bus() {
        for m in Modulation::ALL {
            let mapper = SymbolMapper::new(m).unwrap();
            for &p in mapper.lut() {
                assert!(p.fits_bits(16), "{m}: {p:?}");
            }
        }
    }

    #[test]
    fn ragged_input_rejected() {
        let mapper = SymbolMapper::new(Modulation::Qam16).unwrap();
        assert!(matches!(
            mapper.map_bits(&[1, 0, 1]),
            Err(ModemError::RaggedBits { got: 3, multiple: 4 })
        ));
    }

    #[test]
    fn bad_scale_rejected() {
        assert!(SymbolMapper::with_scale(Modulation::Qam64, 0.0).is_err());
        assert!(SymbolMapper::with_scale(Modulation::Qam64, 1.5).is_err());
        assert!(SymbolMapper::with_scale(Modulation::Qam64, 0.9).is_ok());
    }
}
