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
        /// Samples required from the sync point.
        needed: usize,
        /// Samples available.
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
    /// Channel estimation / inversion failed.
    Estimation(String),
    /// Decoding failed (frame fields implausible or coding error).
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
    Desync(String),
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
            PhyError::Estimation(msg) => write!(f, "channel estimation failed: {msg}"),
            PhyError::Decode(msg) => write!(f, "decode failed: {msg}"),
            PhyError::StreamGap { missing } => write!(
                f,
                "sample stream discontinuity (~{missing} samples lost) abandoned the burst in flight"
            ),
            PhyError::QueueFull { capacity } => write!(
                f,
                "transmit packet queue full ({capacity} bursts); drain with pull_into"
            ),
            PhyError::Desync(msg) => {
                write!(f, "stream bookkeeping desynchronised: {msg}")
            }
            PhyError::Pipeline(msg) => {
                write!(f, "decode pipeline failure: {msg}")
            }
        }
    }
}

impl Error for PhyError {}

impl From<mimo_chanest::ChanestError> for PhyError {
    fn from(err: mimo_chanest::ChanestError) -> Self {
        PhyError::Estimation(err.to_string())
    }
}

impl From<mimo_coding::CodingError> for PhyError {
    fn from(err: mimo_coding::CodingError) -> Self {
        PhyError::Decode(err.to_string())
    }
}

impl From<mimo_detect::DetectError> for PhyError {
    fn from(err: mimo_detect::DetectError) -> Self {
        PhyError::Decode(err.to_string())
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
        let gap = PhyError::StreamGap { missing: 1280 };
        assert!(gap.to_string().contains("1280"), "{gap}");
        assert!(gap.to_string().contains("discontinuity"), "{gap}");
        let desync = PhyError::Desync("estimation window left the history".into());
        assert!(desync.to_string().contains("desynchronised"), "{desync}");
        assert!(desync.to_string().contains("history"), "{desync}");
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
        assert!(matches!(coding, PhyError::Decode(_)), "{coding:?}");

        let detect: PhyError = mimo_detect::DetectError::BadStreamIndex(5).into();
        assert!(detect.to_string().contains("index 5"), "{detect}");
        assert!(matches!(detect, PhyError::Decode(_)), "{detect:?}");

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
        assert!(matches!(chanest, PhyError::Estimation(_)), "{chanest:?}");
    }
}
