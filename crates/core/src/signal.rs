//! The SIGNAL-field frame header: the over-the-air encoding of
//! [`BurstParams`].
//!
//! Every burst begins (after the Fig 2 preamble) with a frame header
//! transmitted on **stream 0 only**, always at the most robust table
//! entry (BPSK r=1/2), so a receiver that knows nothing but the link
//! geometry can decode it before the payload rate is known — the
//! 802.11a SIGNAL/PLCP discipline applied to the paper's 4×4 chain.
//!
//! Bit layout (LSB-first within each field, transmission order):
//!
//! | bits    | field                                   |
//! |---------|-----------------------------------------|
//! | 0–3     | rate index into [`Mcs::ALL`]            |
//! | 4–19    | payload length in bytes (u16)           |
//! | 20–27   | CRC-8 (poly 0x07, init 0xFF) of bits 0–19 |
//!
//! The 28 header bits are convolutionally encoded (terminated, never
//! punctured, never scrambled), interleaved and BPSK-mapped onto the
//! first [`LinkGeometry::header_symbols`](crate::LinkGeometry::header_symbols)
//! OFDM symbols of stream 0; streams 1–3 stay silent until the payload
//! symbols begin.

use crate::error::PhyError;
use crate::mcs::{BurstParams, Mcs};

/// Bits of the rate-index field (4 bits address the 8-entry table with
/// headroom for reserved indices).
pub const SIGNAL_RATE_BITS: usize = 4;

/// Bits of the payload-length field.
pub const SIGNAL_LENGTH_BITS: usize = 16;

/// Bits of the CRC-8 header check.
pub const SIGNAL_CRC_BITS: usize = 8;

/// Total SIGNAL-field information bits (rate + length + CRC).
pub const SIGNAL_BITS: usize = SIGNAL_RATE_BITS + SIGNAL_LENGTH_BITS + SIGNAL_CRC_BITS;

/// Trellis flush bits appended by the terminated encoder (K − 1).
pub(crate) const FLUSH_BITS: usize = 6;

/// Encodes a burst's parameters into the 28 SIGNAL-field information
/// bits, appending to `out` (LSB-first per field, CRC last).
///
/// # Errors
///
/// Returns [`PhyError::PayloadTooLarge`] when `params.length` exceeds
/// the 16-bit length field (the transmitter's `max_payload` bound is
/// tighter still; this guard keeps direct users of the wire format
/// from encoding a wrapped length under a valid CRC).
pub fn encode_signal_field(params: &BurstParams, out: &mut Vec<u8>) -> Result<(), PhyError> {
    if params.length > u16::MAX as usize {
        return Err(PhyError::PayloadTooLarge {
            got: params.length,
            max: u16::MAX as usize,
        });
    }
    let start = out.len();
    let index = params.mcs.index();
    for bit in 0..SIGNAL_RATE_BITS {
        out.push((index >> bit) & 1);
    }
    let len = params.length as u16;
    for bit in 0..SIGNAL_LENGTH_BITS {
        out.push(((len >> bit) & 1) as u8);
    }
    let crc = mimo_coding::bits::crc8_bits(&out[start..start + SIGNAL_RATE_BITS + SIGNAL_LENGTH_BITS]);
    for bit in 0..SIGNAL_CRC_BITS {
        out.push((crc >> bit) & 1);
    }
    Ok(())
}

/// Parses decoded SIGNAL-field bits back into [`BurstParams`],
/// checking the CRC before trusting any field.
///
/// # Errors
///
/// * [`PhyError::HeaderCrc`] when the CRC-8 check fails (the header
///   was corrupted in flight; nothing downstream of it is decoded).
/// * [`PhyError::UnsupportedMcs`] when the CRC passes but the rate
///   index is one of the reserved values 8–15.
/// * [`PhyError::SignalTooShort`] when fewer than [`SIGNAL_BITS`]
///   bits are supplied.
pub fn parse_signal_field(bits: &[u8]) -> Result<BurstParams, PhyError> {
    if bits.len() < SIGNAL_BITS {
        return Err(PhyError::SignalTooShort {
            needed: SIGNAL_BITS,
            got: bits.len(),
        });
    }
    let payload_bits = SIGNAL_RATE_BITS + SIGNAL_LENGTH_BITS;
    let expected = mimo_coding::bits::crc8_bits(&bits[..payload_bits]);
    let mut got = 0u8;
    for (bit, &value) in bits[payload_bits..SIGNAL_BITS].iter().enumerate() {
        got |= (value & 1) << bit;
    }
    if got != expected {
        return Err(PhyError::HeaderCrc { expected, got });
    }
    let mut index = 0u8;
    for (bit, &value) in bits[..SIGNAL_RATE_BITS].iter().enumerate() {
        index |= (value & 1) << bit;
    }
    let mcs = Mcs::from_index(index)?;
    let mut length = 0usize;
    for (bit, &value) in bits[SIGNAL_RATE_BITS..payload_bits].iter().enumerate() {
        length |= usize::from(value & 1) << bit;
    }
    Ok(BurstParams { mcs, length })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_roundtrip_every_mcs() {
        for mcs in Mcs::ALL {
            for length in [0usize, 1, 1500, 32760, 65535] {
                let params = BurstParams { mcs, length };
                let mut bits = Vec::new();
                encode_signal_field(&params, &mut bits).unwrap();
                assert_eq!(bits.len(), SIGNAL_BITS);
                assert_eq!(parse_signal_field(&bits).unwrap(), params, "{mcs} {length}");
            }
        }
    }

    #[test]
    fn golden_vector_is_pinned() {
        // 64-QAM r=3/4 (index 7), 1000 bytes. Rate: 7 = 1110 LSB-first;
        // length: 1000 = 0x03E8.
        let params = BurstParams { mcs: Mcs::Qam64R34, length: 1000 };
        let mut bits = Vec::new();
        encode_signal_field(&params, &mut bits).unwrap();
        let mut expect = vec![1, 1, 1, 0]; // rate index 7
        for bit in 0..16 {
            expect.push(((1000u16 >> bit) & 1) as u8);
        }
        let crc = mimo_coding::bits::crc8_bits(&expect);
        for bit in 0..8 {
            expect.push((crc >> bit) & 1);
        }
        assert_eq!(bits, expect);
        // And the CRC byte itself is stable across refactors.
        assert_eq!(crc, 0x0D, "CRC-8 definition drifted");
    }

    #[test]
    fn crc_failure_is_typed_and_field_corruption_is_caught() {
        let params = BurstParams { mcs: Mcs::Qpsk34, length: 777 };
        let mut bits = Vec::new();
        encode_signal_field(&params, &mut bits).unwrap();
        for flip in 0..SIGNAL_BITS {
            let mut bad = bits.clone();
            bad[flip] ^= 1;
            assert!(
                matches!(parse_signal_field(&bad), Err(PhyError::HeaderCrc { .. })),
                "flip at {flip} not caught"
            );
        }
    }

    #[test]
    fn reserved_rate_index_is_rejected_after_crc_passes() {
        // Hand-build a header with rate index 12 and a *valid* CRC.
        let mut bits = vec![0, 0, 1, 1]; // 12 LSB-first
        bits.extend(std::iter::repeat_n(0, SIGNAL_LENGTH_BITS));
        let crc = mimo_coding::bits::crc8_bits(&bits);
        for bit in 0..8 {
            bits.push((crc >> bit) & 1);
        }
        assert!(matches!(
            parse_signal_field(&bits),
            Err(PhyError::UnsupportedMcs { index: 12, .. })
        ));
    }

    #[test]
    fn all_zero_header_fails_the_crc() {
        // A silent stream 0 decodes to all zeros; the 0xFF CRC init
        // guarantees that is a HeaderCrc error, not a phantom burst.
        assert!(matches!(
            parse_signal_field(&[0; SIGNAL_BITS]),
            Err(PhyError::HeaderCrc { .. })
        ));
    }

    #[test]
    fn short_input_is_a_decode_error() {
        assert_eq!(
            parse_signal_field(&[0; 10]),
            Err(PhyError::SignalTooShort { needed: SIGNAL_BITS, got: 10 })
        );
    }
}
