//! The 802.11a scrambler LFSR (x⁷ + x⁴ + 1) and the pilot polarity
//! sequence derived from it.
//!
//! The receiver "extracts and de-scrambles" the pilot tones (§IV.B):
//! pilot polarities follow the 127-periodic sequence generated by this
//! LFSR seeded with all ones.

/// A self-synchronizing additive scrambler with polynomial
/// x⁷ + x⁴ + 1 (802.11a §17.3.5.4).
///
/// # Examples
///
/// ```
/// use mimo_coding::Scrambler;
///
/// let mut tx = Scrambler::new(0x7F);
/// let mut rx = Scrambler::new(0x7F);
/// let data = vec![1, 0, 1, 1, 0, 0, 1];
/// let mut bits = data.clone();
/// tx.scramble_in_place(&mut bits);
/// rx.scramble_in_place(&mut bits);
/// assert_eq!(bits, data); // XOR twice = identity
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrambler {
    state: u8,
}

impl Scrambler {
    /// Creates a scrambler with a 7-bit seed (0 is replaced by the
    /// standard all-ones seed, since a zero LFSR state is degenerate).
    pub fn new(seed: u8) -> Self {
        let seed = seed & 0x7F;
        Self {
            state: if seed == 0 { 0x7F } else { seed },
        }
    }

    /// Current 7-bit LFSR state.
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Produces the next keystream bit and advances the LFSR.
    pub fn next_bit(&mut self) -> u8 {
        // Feedback = x^7 XOR x^4 (bits 6 and 3 of the state).
        let feedback = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | feedback) & 0x7F;
        feedback
    }

    /// XORs the keystream onto `bits` in place (XOR with the LFSR
    /// stream is its own inverse, so the same call descrambles).
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        for b in bits.iter_mut() {
            *b = (*b & 1) ^ self.next_bit();
        }
    }
}

impl Default for Scrambler {
    fn default() -> Self {
        Self::new(0x7F)
    }
}

/// Pilot polarity for OFDM symbol `symbol_index`: `+1` or `-1`.
///
/// This is the 802.11a sequence `p_{n mod 127}` — the output of the
/// all-ones-seeded scrambler mapped 0 → +1, 1 → −1. Symbol 0 uses
/// `p_0`, and in this transceiver data symbols start at `p_1` (index 0
/// is reserved for the SIGNAL-equivalent position, matching the
/// standard's numbering).
///
/// # Examples
///
/// ```
/// use mimo_coding::pilot_polarity;
/// assert_eq!(pilot_polarity(0), 1);   // p0 = +1
/// assert_eq!(pilot_polarity(127), pilot_polarity(0)); // 127-periodic
/// ```
pub fn pilot_polarity(symbol_index: usize) -> i8 {
    // Generate the canonical 127-bit sequence once per call; cheap and
    // allocation-free relative to a lazy static, and trivially correct.
    let mut s = Scrambler::new(0x7F);
    let mut bit = 0;
    for _ in 0..=(symbol_index % 127) {
        bit = s.next_bit();
    }
    if bit == 0 {
        1
    } else {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keystream_period_is_127() {
        let mut s = Scrambler::new(0x7F);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // Not all zero / not all one.
        assert!(first.contains(&0));
        assert!(first.contains(&1));
    }

    #[test]
    fn keystream_is_balanced() {
        // A maximal-length 7-bit LFSR emits 64 ones and 63 zeros per period.
        let mut s = Scrambler::new(0x7F);
        let ones: u32 = (0..127).map(|_| s.next_bit() as u32).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn scramble_is_involution() {
        let data: Vec<u8> = (0..200).map(|i| ((i * 11) % 3 == 0) as u8).collect();
        let mut a = Scrambler::new(0x5D);
        let mut b = Scrambler::new(0x5D);
        let mut bits = data.clone();
        a.scramble_in_place(&mut bits);
        b.scramble_in_place(&mut bits);
        assert_eq!(bits, data);
    }

    #[test]
    fn zero_seed_is_replaced() {
        let s = Scrambler::new(0);
        assert_eq!(s.state(), 0x7F);
    }

    #[test]
    fn known_prefix_of_standard_sequence() {
        // First bits of the 802.11a all-ones-seed scrambler sequence:
        // 0000 1110 1111 0010 ... (IEEE 802.11a-1999, §17.3.5.4).
        let mut s = Scrambler::new(0x7F);
        let prefix: Vec<u8> = (0..16).map(|_| s.next_bit()).collect();
        assert_eq!(prefix, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn pilot_polarity_follows_sequence() {
        // p0..p4 from the standard: +1 +1 +1 +1 -1 (first four keystream
        // bits are 0, the fifth is 1).
        assert_eq!(pilot_polarity(0), 1);
        assert_eq!(pilot_polarity(1), 1);
        assert_eq!(pilot_polarity(2), 1);
        assert_eq!(pilot_polarity(3), 1);
        assert_eq!(pilot_polarity(4), -1);
        assert_eq!(pilot_polarity(130), pilot_polarity(3));
    }
}
