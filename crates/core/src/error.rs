//! The transceiver's error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the transceiver.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm, so future burst-format errors (new SIGNAL fields,
/// new impairment rejections) are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhyError {
    /// Invalid configuration (message describes the constraint).
    BadConfig(String),
    /// Payload too large for a single burst.
    PayloadTooLarge {
        /// Bytes supplied.
        got: usize,
        /// Maximum burst payload.
        max: usize,
    },
    /// Wrong number of receive streams.
    BadStreamCount {
        /// Streams expected.
        expected: usize,
        /// Streams supplied.
        got: usize,
    },
    /// The time synchroniser found no burst.
    SyncNotFound,
    /// The burst is truncated: samples missing after the located start.
    TruncatedBurst {
        /// Absolute sample index the burst needs samples up to: the
        /// end of the LTS fields, then of the SIGNAL field plus one
        /// payload symbol, then (once the header is known) the burst
        /// end.
        needed: usize,
        /// Absolute sample index the input ends at.
        available: usize,
    },
    /// The SIGNAL-field frame header failed its CRC-8 check: the
    /// header was corrupted in flight, so neither the burst's rate nor
    /// its length can be trusted and no payload is decoded.
    HeaderCrc {
        /// CRC recomputed over the received rate/length fields.
        expected: u8,
        /// CRC carried in the received header.
        got: u8,
    },
    /// The SIGNAL-field rate index passed its CRC but is not a row of
    /// the MCS table (a reserved index, or a peer speaking a newer
    /// table revision).
    UnsupportedMcs {
        /// The rate index received over the air.
        index: u8,
        /// Entries in this receiver's table (valid indices are
        /// `0..table_len`).
        table_len: u8,
    },
    /// Fewer decoded header bits than the SIGNAL field holds.
    SignalTooShort {
        /// SIGNAL-field bits required.
        needed: usize,
        /// Bits supplied.
        got: usize,
    },
    /// The SIGNAL field passed its CRC but announces a payload longer
    /// than one burst can carry.
    SignalLengthTooLarge {
        /// Payload bytes the header announced.
        length: usize,
        /// Maximum burst payload, bytes.
        max: usize,
    },
    /// A stream's Viterbi decode yielded fewer bits than the SIGNAL
    /// field announced for it.
    ShortStream {
        /// Information bits the stream decoded to.
        decoded_bits: usize,
        /// Payload bytes the SIGNAL field assigned to the stream.
        announced_bytes: usize,
    },
    /// The per-symbol core ran past the mother-code LLR buffer reserved
    /// for the burst's announced symbols (an internal invariant of the
    /// receiver's bookkeeping; the burst is lost).
    LlrOverrun {
        /// End of the region the next symbol would have written.
        end: usize,
        /// Length of the reserved LLR buffer.
        len: usize,
    },
    /// A stream's decoded bytes do not fit the round-robin split the
    /// SIGNAL field's length implies (an internal invariant of the
    /// reassembly; the burst is lost).
    StreamSplit {
        /// The stream that ran out of bytes.
        stream: usize,
        /// Bytes that stream decoded.
        got: usize,
        /// Bytes the split assigns to it.
        expected: usize,
    },
    /// Channel estimation / inversion failed.
    Estimation(mimo_chanest::ChanestError),
    /// A coding block (encoder, Viterbi decoder) rejected its input.
    Coding(mimo_coding::CodingError),
    /// The MIMO detector rejected its input.
    Detect(mimo_detect::DetectError),
    /// A receive stage panicked inside
    /// [`BurstPipeline`](crate::BurstPipeline); the message says which.
    /// The repository benchmark (`perfbench/`) matches on this variant.
    Decode(String),
    /// The sample transport reported a discontinuity (dropped frames,
    /// a resync after garbage) while a burst was mid-decode: the burst
    /// in flight is unrecoverable and has been abandoned. The receiver
    /// has already re-armed at the post-gap position — push more
    /// samples to keep going.
    StreamGap {
        /// Samples the transport believes were lost (an estimate when
        /// frame sizes vary; exactness is not required for recovery).
        missing: usize,
    },
    /// The streaming transmitter's bounded packet queue is at capacity.
    /// Drain the queue with
    /// [`StreamingTransmitter::pull_into`](crate::StreamingTransmitter::pull_into)
    /// (or retry after the link drains).
    QueueFull {
        /// The configured queue capacity (bursts).
        capacity: usize,
    },
    /// The receiver's internal stream bookkeeping desynchronised from
    /// the buffered history (an index walked off the retained window —
    /// only reachable through hostile or discontinuous input). The
    /// receiver has re-armed; the burst in flight is lost.
    Desync {
        /// Absolute sample index the burst in flight still reads from.
        window: usize,
        /// Absolute sample index the retained history starts at.
        base: usize,
    },
    /// [`StreamingReceiver::push_samples`](crate::StreamingReceiver::push_samples)
    /// got chunks of different lengths: every antenna must deliver the
    /// same number of samples per push.
    UnequalChunks {
        /// The first antenna whose chunk length differs from antenna 0's.
        antenna: usize,
        /// Antenna 0's chunk length.
        expected: usize,
        /// That antenna's chunk length.
        got: usize,
    },
    /// Reserved for failures of the decode schedule itself rather than
    /// the signal path. No receive path constructs it: a crew helper
    /// that cannot be spawned runs on the caller instead, and a helper
    /// panic unwinds to the caller. The variant stays because the
    /// repository benchmark (`perfbench/`) matches on it.
    Pipeline(String),
}

impl fmt::Display for PhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PhyError::PayloadTooLarge { got, max } => {
                write!(f, "payload of {got} bytes exceeds burst maximum {max}")
            }
            PhyError::BadStreamCount { expected, got } => {
                write!(f, "expected {expected} receive streams, got {got}")
            }
            PhyError::SyncNotFound => write!(f, "no preamble found in the received streams"),
            PhyError::TruncatedBurst { needed, available } => {
                write!(f, "burst truncated: need {needed} samples, have {available}")
            }
            PhyError::HeaderCrc { expected, got } => write!(
                f,
                "SIGNAL header CRC mismatch: computed {expected:#04x}, received {got:#04x}"
            ),
            PhyError::UnsupportedMcs { index, table_len } => write!(
                f,
                "SIGNAL rate index {index} is outside the MCS table (valid: 0..{table_len})"
            ),
            PhyError::SignalTooShort { needed, got } => {
                write!(f, "SIGNAL field needs {needed} bits, got {got}")
            }
            PhyError::SignalLengthTooLarge { length, max } => write!(
                f,
                "SIGNAL length {length} exceeds the {max}-byte burst maximum"
            ),
            PhyError::ShortStream {
                decoded_bits,
                announced_bytes,
            } => write!(
                f,
                "stream decoded {decoded_bits} bits, SIGNAL field announced {announced_bytes} bytes"
            ),
            PhyError::LlrOverrun { end, len } => write!(
                f,
                "symbol pass overran the reserved LLR buffer: region ends at {end}, buffer holds {len}"
            ),
            PhyError::StreamSplit {
                stream,
                got,
                expected,
            } => write!(
                f,
                "stream {stream} decoded {got} bytes, the round-robin split assigns it {expected}"
            ),
            PhyError::Estimation(err) => write!(f, "channel estimation failed: {err}"),
            PhyError::Coding(err) => write!(f, "coding failed: {err}"),
            PhyError::Detect(err) => write!(f, "detection failed: {err}"),
            PhyError::Decode(msg) => write!(f, "decode failed: {msg}"),
            PhyError::StreamGap { missing } => write!(
                f,
                "sample stream discontinuity (~{missing} samples lost) abandoned the burst in flight"
            ),
            PhyError::QueueFull { capacity } => write!(
                f,
                "transmit packet queue full ({capacity} bursts); drain with pull_into"
            ),
            PhyError::Desync { window, base } => write!(
                f,
                "stream bookkeeping desynchronised: burst window at {window} \
                 precedes retained history (base {base})"
            ),
            PhyError::UnequalChunks {
                antenna,
                expected,
                got,
            } => write!(
                f,
                "push_samples chunk of antenna {antenna} holds {got} samples, \
                 antenna 0's holds {expected}"
            ),
            PhyError::Pipeline(msg) => {
                write!(f, "decode pipeline failure: {msg}")
            }
        }
    }
}

impl Error for PhyError {}

impl From<mimo_chanest::ChanestError> for PhyError {
    fn from(err: mimo_chanest::ChanestError) -> Self {
        PhyError::Estimation(err)
    }
}

impl From<mimo_coding::CodingError> for PhyError {
    fn from(err: mimo_coding::CodingError) -> Self {
        PhyError::Coding(err)
    }
}

impl From<mimo_detect::DetectError> for PhyError {
    fn from(err: mimo_detect::DetectError) -> Self {
        PhyError::Detect(err)
    }
}

impl From<mimo_ofdm::OfdmError> for PhyError {
    fn from(err: mimo_ofdm::OfdmError) -> Self {
        PhyError::BadConfig(err.to_string())
    }
}

impl From<mimo_interleave::InterleaveError> for PhyError {
    fn from(err: mimo_interleave::InterleaveError) -> Self {
        PhyError::BadConfig(err.to_string())
    }
}

impl From<mimo_modem::ModemError> for PhyError {
    fn from(err: mimo_modem::ModemError) -> Self {
        PhyError::BadConfig(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = PhyError::PayloadTooLarge { got: 9000, max: 4096 };
        assert!(err.to_string().contains("9000"));
        assert!(PhyError::SyncNotFound.to_string().contains("preamble"));
        let crc = PhyError::HeaderCrc { expected: 0xAB, got: 0x12 };
        assert!(crc.to_string().contains("0xab"), "{crc}");
        assert!(crc.to_string().contains("0x12"), "{crc}");
        let mcs = PhyError::UnsupportedMcs { index: 12, table_len: 8 };
        assert!(mcs.to_string().contains("12"), "{mcs}");
        assert!(mcs.to_string().contains("0..8"), "{mcs}");
        let short = PhyError::SignalTooShort { needed: 28, got: 10 };
        assert!(short.to_string().contains("28") && short.to_string().contains("10"), "{short}");
        let long = PhyError::SignalLengthTooLarge { length: 40000, max: 32760 };
        assert!(long.to_string().contains("40000"), "{long}");
        assert!(long.to_string().contains("32760"), "{long}");
        let stream = PhyError::ShortStream { decoded_bits: 96, announced_bytes: 13 };
        assert!(stream.to_string().contains("96 bits"), "{stream}");
        assert!(stream.to_string().contains("13 bytes"), "{stream}");
        let gap = PhyError::StreamGap { missing: 1280 };
        assert!(gap.to_string().contains("1280"), "{gap}");
        assert!(gap.to_string().contains("discontinuity"), "{gap}");
        let desync = PhyError::Desync { window: 640, base: 800 };
        assert!(desync.to_string().contains("desynchronised"), "{desync}");
        let text = desync.to_string();
        assert!(text.contains("640") && text.contains("800"), "{desync}");
        let ragged = PhyError::UnequalChunks { antenna: 2, expected: 97, got: 96 };
        assert!(ragged.to_string().contains("antenna 2"), "{ragged}");
        assert!(ragged.to_string().contains("96") && ragged.to_string().contains("97"), "{ragged}");
        let overrun = PhyError::LlrOverrun { end: 576, len: 480 };
        let text = overrun.to_string();
        assert!(text.contains("576") && text.contains("480"), "{overrun}");
        let split = PhyError::StreamSplit { stream: 3, got: 9, expected: 10 };
        let text = split.to_string();
        assert!(text.contains("stream 3") && text.contains('9') && text.contains("10"), "{split}");
        let full = PhyError::QueueFull { capacity: 8 };
        assert!(full.to_string().contains('8'), "{full}");
        assert!(full.to_string().contains("queue full"), "{full}");
        let pipe = PhyError::Pipeline("spawn failed".into());
        assert!(pipe.to_string().contains("pipeline"), "{pipe}");
        assert!(pipe.to_string().contains("spawn failed"), "{pipe}");
    }

    #[test]
    fn conversions_preserve_detail() {
        let src = mimo_chanest::ChanestError::SingularChannel { diagonal: 1 };
        let err: PhyError = src.into();
        assert!(err.to_string().contains("singular"));
    }

    /// Every subsystem error that crosses into `PhyError` keeps its
    /// payload readable through the conversion — this audits the
    /// Display impl of each `#[non_exhaustive]` subsystem enum at the
    /// same time.
    #[test]
    fn every_subsystem_conversion_keeps_its_display_payload() {
        let coding: PhyError = mimo_coding::CodingError::BadConstraintLength(11).into();
        assert!(coding.to_string().contains("11"), "{coding}");
        assert_eq!(
            coding,
            PhyError::Coding(mimo_coding::CodingError::BadConstraintLength(11))
        );

        let detect: PhyError = mimo_detect::DetectError::BadStreamIndex(5).into();
        assert!(detect.to_string().contains("index 5"), "{detect}");
        assert_eq!(
            detect,
            PhyError::Detect(mimo_detect::DetectError::BadStreamIndex(5))
        );

        let ofdm: PhyError = mimo_ofdm::OfdmError::UnsupportedFftSize(100).into();
        assert!(ofdm.to_string().contains("100"), "{ofdm}");
        assert!(matches!(ofdm, PhyError::BadConfig(_)), "{ofdm:?}");

        let il: PhyError = mimo_interleave::InterleaveError::BadBlockSize(7).into();
        assert!(il.to_string().contains("7"), "{il}");
        assert!(il.to_string().contains("16"), "{il}");

        let modem: PhyError = mimo_modem::ModemError::BadScale(1.5).into();
        assert!(modem.to_string().contains("1.5"), "{modem}");

        let chanest: PhyError = mimo_chanest::ChanestError::UnsupportedFftSize(48).into();
        assert!(chanest.to_string().contains("48"), "{chanest}");
        assert_eq!(
            chanest,
            PhyError::Estimation(mimo_chanest::ChanestError::UnsupportedFftSize(48))
        );
    }
}
