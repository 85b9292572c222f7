//! Bit/byte packing helpers.
//!
//! The bit-per-byte APIs (these helpers, [`crate::Scrambler`]'s
//! bit-serial methods, [`crate::ConvolutionalEncoder`], the Viterbi
//! output and the SIGNAL field) carry one bit per `u8` of value 0 or 1,
//! least-significant bit of each byte first (the 802.11a transmission
//! order). The transmit payload path packs the same order into `u64`
//! words instead: bit `i` of a stream is bit `i % 64` of word `i / 64`,
//! which is a little-endian load of the payload bytes
//! ([`crate::Scrambler::scramble_words`],
//! [`crate::CodeSpec::encode_terminated_words`]).

/// Unpacks bytes into bits, LSB of each byte first.
///
/// # Examples
///
/// ```
/// use mimo_coding::bits::bytes_to_bits;
/// assert_eq!(bytes_to_bits(&[0b0000_0101]), vec![1, 0, 1, 0, 0, 0, 0, 0]);
/// ```
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    bytes_to_bits_append(bytes, &mut out);
    out
}

/// [`bytes_to_bits`] appending to a caller-owned buffer (no allocation
/// once the buffer has grown) — the single owner of the LSB-first bit
/// order.
pub fn bytes_to_bits_append(bytes: &[u8], out: &mut Vec<u8>) {
    out.reserve(bytes.len() * 8);
    for &byte in bytes {
        for bit in 0..8 {
            out.push((byte >> bit) & 1);
        }
    }
}

/// Packs bits (LSB-first per byte) into a caller-owned buffer
/// (cleared first). The final partial byte, if any, is zero-padded in
/// its high bits.
pub fn bits_to_bytes_into(bits: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            debug_assert!(bit <= 1, "bit values must be 0 or 1");
            byte |= (bit & 1) << i;
        }
        out.push(byte);
    }
}

/// Counts positions where two bit slices differ (Hamming distance over
/// the common prefix).
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// CRC-8 (polynomial x⁸+x²+x+1 = 0x07, initial value 0xFF) over a bit
/// stream in transmission order — the frame-header check of the
/// SIGNAL field. The nonzero initial value guarantees an all-zero
/// header (e.g. a silent antenna decoded as zeros) fails the check.
///
/// # Examples
///
/// ```
/// use mimo_coding::bits::crc8_bits;
/// // All-zero input must not produce an all-zero CRC.
/// assert_ne!(crc8_bits(&[0; 20]), 0);
/// ```
pub fn crc8_bits(bits: &[u8]) -> u8 {
    let mut crc: u8 = 0xFF;
    for &bit in bits {
        let fed = (crc >> 7) ^ (bit & 1);
        crc <<= 1;
        if fed != 0 {
            crc ^= 0x07;
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        bits_to_bytes_into(bits, &mut out);
        out
    }

    #[test]
    fn roundtrip_bytes() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(pack(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn lsb_first_order() {
        assert_eq!(bytes_to_bits(&[0x01]), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes_to_bits(&[0x80]), vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn partial_byte_zero_padded() {
        assert_eq!(pack(&[1]), vec![1]);
        assert_eq!(pack(&[0, 1]), vec![2]);
    }

    #[test]
    fn hamming() {
        assert_eq!(hamming_distance(&[0, 1, 1], &[0, 1, 1]), 0);
        assert_eq!(hamming_distance(&[0, 1, 1], &[1, 1, 0]), 2);
    }

    #[test]
    fn crc8_detects_single_bit_flips() {
        let msg: Vec<u8> = (0..20).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let good = crc8_bits(&msg);
        for flip in 0..msg.len() {
            let mut bad = msg.clone();
            bad[flip] ^= 1;
            assert_ne!(crc8_bits(&bad), good, "flip at {flip} undetected");
        }
    }

    #[test]
    fn crc8_known_answer_is_stable() {
        // Pinned so the SIGNAL-field golden vector cannot drift.
        assert_eq!(crc8_bits(&[]), 0xFF);
        assert_eq!(crc8_bits(&[1]), 0xFE);
        assert_eq!(crc8_bits(&[0]), 0xFE ^ 0x07);
    }
}
