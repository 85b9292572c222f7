//! Transport-layer error type.

use std::fmt;

/// Errors surfaced by carriers, the frame codec and the linked
/// endpoints.
///
/// Faults the link is *designed* to absorb (CRC failures, sequence
/// gaps, garbage between frames) are **not** errors — they come back
/// as events/statistics from the receiving endpoint. `TransportError`
/// is reserved for conditions the caller must act on: flow control,
/// a dead peer, OS failures, or misuse of the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// The carrier cannot accept the frame right now (bounded ring
    /// full, socket send buffer full). Nothing was sent; retry the
    /// same frame after the peer drains.
    Backpressure,
    /// The peer end of the carrier is gone (EOF / broken pipe).
    Closed,
    /// An OS-level I/O failure other than flow control or peer loss.
    Io(String),
    /// The chunk handed to the encoder cannot be framed (stream count
    /// or length outside the codec's limits, ragged chunk lengths).
    BadFrame(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Backpressure => {
                write!(f, "carrier is full; retry the frame after the peer drains")
            }
            Self::Closed => write!(f, "peer closed the carrier"),
            Self::Io(msg) => write!(f, "carrier I/O failed: {msg}"),
            Self::BadFrame(msg) => write!(f, "chunk cannot be framed: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    /// Maps OS errors onto the transport taxonomy: `WouldBlock` is
    /// flow control, pipe/connection loss is [`TransportError::Closed`],
    /// anything else is [`TransportError::Io`].
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock => Self::Backpressure,
            ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof => Self::Closed,
            _ => Self::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    #[test]
    fn io_errors_map_onto_the_transport_taxonomy() {
        let bp: TransportError = Error::from(ErrorKind::WouldBlock).into();
        assert_eq!(bp, TransportError::Backpressure);
        let closed: TransportError = Error::from(ErrorKind::BrokenPipe).into();
        assert_eq!(closed, TransportError::Closed);
        let io: TransportError = Error::from(ErrorKind::PermissionDenied).into();
        assert!(matches!(io, TransportError::Io(_)));
    }

    #[test]
    fn display_messages_are_informative() {
        let errs: Vec<TransportError> = vec![
            TransportError::Backpressure,
            TransportError::Closed,
            TransportError::Io("fd 7 revoked".into()),
            TransportError::BadFrame("9 streams exceeds the codec limit".into()),
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(msg.len() > 10, "{e:?} renders too tersely: {msg}");
        }
    }
}
