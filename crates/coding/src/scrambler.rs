//! The 802.11a scrambler LFSR (x⁷ + x⁴ + 1) and the pilot polarity
//! sequence derived from it.
//!
//! The receiver "extracts and de-scrambles" the pilot tones (§IV.B):
//! pilot polarities follow the 127-periodic sequence generated by this
//! LFSR seeded with all ones.
//!
//! Every nonzero 7-bit state lies on the LFSR's one 127-state cycle, so
//! the keystream from any seed is the all-ones sequence read from that
//! seed's phase. One `const`-built table of that sequence serves the
//! packed scramble ([`Scrambler::scramble_words`]), the byte-wise
//! descramble ([`Scrambler::descramble_into`]) and [`pilot_polarity`];
//! [`Scrambler::next_bit`] stays the bit-serial definition they are
//! tested against.

/// Period of the maximal-length x⁷ + x⁴ + 1 keystream.
const PERIOD: usize = 127;

/// The all-ones-seed keystream `p_0, p_1, …` packed LSB-first, run
/// past one period so that a 64-bit window from any phase `< PERIOD`
/// lies inside it (`SEQUENCE` bit `i` is `p_{i mod 127}`); `PHASE[s]`
/// is the phase at which the all-ones LFSR holds state `s` (1..=127),
/// and `STATE[p]` the state at phase `p`.
const SEQUENCE: [u64; 3] = TABLES.0;
const PHASE: [u8; 128] = TABLES.1;
const STATE: [u8; PERIOD] = TABLES.2;

const TABLES: ([u64; 3], [u8; 128], [u8; PERIOD]) = {
    let mut sequence = [0u64; 3];
    let mut phase = [0u8; 128];
    let mut state_at = [0u8; PERIOD];
    let mut state = 0x7Fu8;
    let mut i = 0;
    while i < 64 * 3 {
        if i < PERIOD {
            phase[state as usize] = i as u8;
            state_at[i] = state;
        }
        let feedback = ((state >> 6) ^ (state >> 3)) & 1;
        state = ((state << 1) | feedback) & 0x7F;
        sequence[i / 64] |= (feedback as u64) << (i % 64);
        i += 1;
    }
    (sequence, phase, state_at)
};

/// The 64 keystream bits from phase `p < PERIOD` on, LSB first.
#[inline]
fn window(p: usize) -> u64 {
    let (q, r) = (p / 64, p % 64);
    let pair = u128::from(SEQUENCE[q]) | (u128::from(SEQUENCE[q + 1]) << 64);
    (pair >> r) as u64
}

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

    /// Packed [`Scrambler::scramble_in_place`]: XORs the keystream onto
    /// every bit of `words`, where bit `i` of the stream is bit `i % 64`
    /// of `words[i / 64]` (so an LSB-first byte stream is a
    /// little-endian load of its bytes), and advances 64 bits per word.
    // phylint: hot
    pub fn scramble_words(&mut self, words: &mut [u64]) {
        let mut p = PHASE[usize::from(self.state)] as usize;
        for word in words {
            *word ^= window(p);
            p = (p + 64) % PERIOD;
        }
        self.state = STATE[p];
    }
    // phylint: end-hot

    /// Descrambles a bit-per-byte stream and packs it LSB-first into
    /// bytes in one pass: the same bytes as
    /// [`Scrambler::scramble_in_place`] then
    /// [`bits_to_bytes_into`](crate::bits::bits_to_bytes_into), `out`
    /// cleared first and a final partial byte zero-padded.
    // phylint: hot
    pub fn descramble_into(&mut self, bits: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(bits.len().div_ceil(8));
        let mut p = PHASE[usize::from(self.state)] as usize;
        let (chunks, tail) = bits.as_chunks::<8>();
        for &chunk in chunks {
            let lanes = u64::from_le_bytes(chunk);
            // One 0/1 bit per byte lane; the multiply gathers lane `i`'s
            // bit into bit `56 + i` with no carries between them.
            let packed = (lanes & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080);
            let packed = (packed >> 56) as u8;
            out.push(packed ^ window(p) as u8);
            p = (p + 8) % PERIOD;
        }
        if !tail.is_empty() {
            let packed = tail.iter().rev().fold(0u8, |byte, &b| (byte << 1) | (b & 1));
            let mask = (1u8 << tail.len()) - 1;
            out.push(packed ^ (window(p) as u8 & mask));
            p = (p + tail.len()) % PERIOD;
        }
        self.state = STATE[p];
    }
    // phylint: end-hot
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
    let p = symbol_index % PERIOD;
    if (SEQUENCE[p / 64] >> (p % 64)) & 1 == 0 {
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
