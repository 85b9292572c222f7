//! Modulation schemes and their Gray-coded axis mappings.

use std::fmt;

/// The modulation schemes supported by the transceiver. The paper's
/// symbol-mapper LUT address width selects among exactly these: "1-bit
/// [for BPSK], 2-bit for QPSK, 4-bit for 16-QAM and 6-bit for 64-QAM".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modulation {
    /// Binary phase-shift keying, 1 bit/subcarrier.
    Bpsk,
    /// Quadrature phase-shift keying, 2 bits/subcarrier.
    Qpsk,
    /// 16-point quadrature amplitude modulation, 4 bits/subcarrier.
    #[default]
    Qam16,
    /// 64-point quadrature amplitude modulation, 6 bits/subcarrier.
    Qam64,
}

impl Modulation {
    /// All supported schemes, in increasing spectral efficiency.
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Bits carried per subcarrier (the mapper LUT address width).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Bits mapped onto each of the I and Q axes (BPSK uses I only).
    pub fn bits_per_axis(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            other => other.bits_per_symbol() / 2,
        }
    }

    /// The 802.11a power normalization denominator: constellation
    /// points are odd integers divided by √(this).
    pub fn norm_factor(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 2.0,
            Modulation::Qam16 => 10.0,
            Modulation::Qam64 => 42.0,
        }
    }

    /// Number of amplitude levels per axis.
    pub fn levels_per_axis(self) -> usize {
        1 << self.bits_per_axis()
    }

    /// Decodes Gray-coded axis bits (MSB first, transmission order)
    /// into the signed odd level `−(L−1) … +(L−1)`.
    ///
    /// This is the content generator for the mapper ROM: 802.11a uses
    /// binary-reflected Gray code along each axis (e.g. 16-QAM I axis:
    /// 00→−3, 01→−1, 11→+1, 10→+3).
    pub fn gray_bits_to_level(self, bits: &[u8]) -> i32 {
        debug_assert_eq!(bits.len(), self.bits_per_axis());
        let mut gray = 0u32;
        for &bit in bits {
            gray = (gray << 1) | u32::from(bit & 1);
        }
        // Binary-reflected Gray decode: fold the shifted value down.
        let mut binary = 0u32;
        let mut g = gray;
        while g != 0 {
            binary ^= g;
            g >>= 1;
        }
        let index = binary as i32;
        2 * index - (self.levels_per_axis() as i32 - 1)
    }

    /// Encodes a signed odd level back into Gray axis bits (MSB first)
    /// in a caller-provided buffer of exactly `bits_per_axis` bits: the
    /// inverse of [`Modulation::gray_bits_to_level`].
    pub fn level_to_gray_bits_into(self, level: i32, bits: &mut [u8]) {
        let index = ((level + self.levels_per_axis() as i32 - 1) / 2) as u32;
        let gray = index ^ (index >> 1);
        let n = self.bits_per_axis();
        debug_assert_eq!(bits.len(), n);
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = ((gray >> (n - 1 - i)) & 1) as u8;
        }
    }
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_symbol_matches_paper_lut_widths() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
    }

    #[test]
    fn gray_mapping_16qam_standard_table() {
        let m = Modulation::Qam16;
        assert_eq!(m.gray_bits_to_level(&[0, 0]), -3);
        assert_eq!(m.gray_bits_to_level(&[0, 1]), -1);
        assert_eq!(m.gray_bits_to_level(&[1, 1]), 1);
        assert_eq!(m.gray_bits_to_level(&[1, 0]), 3);
    }

    #[test]
    fn gray_mapping_64qam_standard_table() {
        let m = Modulation::Qam64;
        let expect = [
            (vec![0, 0, 0], -7),
            (vec![0, 0, 1], -5),
            (vec![0, 1, 1], -3),
            (vec![0, 1, 0], -1),
            (vec![1, 1, 0], 1),
            (vec![1, 1, 1], 3),
            (vec![1, 0, 1], 5),
            (vec![1, 0, 0], 7),
        ];
        for (bits, level) in expect {
            assert_eq!(m.gray_bits_to_level(&bits), level, "{bits:?}");
        }
    }

    #[test]
    fn gray_roundtrip_all_levels() {
        for m in Modulation::ALL {
            let l = m.levels_per_axis() as i32;
            for idx in 0..l {
                let level = 2 * idx - (l - 1);
                let mut bits = vec![0; m.bits_per_axis()];
                m.level_to_gray_bits_into(level, &mut bits);
                assert_eq!(m.gray_bits_to_level(&bits), level, "{m} level {level}");
            }
        }
    }

    #[test]
    fn gray_adjacent_levels_differ_in_one_bit() {
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let l = m.levels_per_axis() as i32;
            for idx in 0..l - 1 {
                let (mut a, mut b) = (vec![0; m.bits_per_axis()], vec![0; m.bits_per_axis()]);
                m.level_to_gray_bits_into(2 * idx - (l - 1), &mut a);
                m.level_to_gray_bits_into(2 * (idx + 1) - (l - 1), &mut b);
                let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(diff, 1, "{m} levels {idx},{}", idx + 1);
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::Qam64.to_string(), "64-QAM");
    }
}
