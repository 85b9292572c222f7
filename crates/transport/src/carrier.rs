//! Carriers: the byte pipes encoded frames travel over.
//!
//! A [`Carrier`] moves opaque byte blocks with two promises:
//!
//! 1. **Send atomicity** — [`Carrier::send`] either accepts the whole
//!    frame for eventual delivery or rejects it with
//!    [`TransportError::Backpressure`] having sent nothing. Accepted
//!    frames are never interleaved with each other (delivery itself
//!    may still be cut short by real faults — that is what the frame
//!    CRC and resync scanner are for).
//! 2. **Non-blocking receive** — [`Carrier::recv`] appends whatever
//!    bytes are available now and returns their count; `0` means "try
//!    again later", not end of stream (a dead peer is
//!    [`TransportError::Closed`]).
//!
//! Two families are provided: bounded in-memory duplex pairs
//! ([`MemoryDuplex::pair`]) for deterministic in-process tests, and
//! non-blocking byte streams ([`StreamCarrier`]) for `UnixStream` /
//! `TcpStream` sockets.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

use crate::error::TransportError;

/// Bytes pulled from a stream per [`Carrier::recv`] read syscall.
const READ_CHUNK: usize = 16 * 1024;

/// A byte pipe for encoded frames. See the module docs for the
/// contract.
pub trait Carrier {
    /// Sends one encoded frame: all-or-nothing.
    ///
    /// # Errors
    ///
    /// [`TransportError::Backpressure`] when the pipe is full (retry
    /// the same frame later); [`TransportError::Closed`] when the peer
    /// is gone; [`TransportError::Io`] on OS failures.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Appends available bytes to `buf`, returning how many arrived
    /// (`0` = none right now).
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the peer is gone and no bytes
    /// remain; [`TransportError::Io`] on OS failures.
    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError>;
}

/// One direction of an in-memory link: a bounded byte ring.
#[derive(Debug)]
struct Ring {
    bytes: VecDeque<u8>,
    capacity: usize,
}

/// One endpoint of a bounded in-memory duplex link.
///
/// [`MemoryDuplex::pair`] returns two endpoints wired head-to-tail:
/// bytes sent on one appear on the other. Each direction holds at most
/// `capacity` bytes; a send that would overflow fails with
/// [`TransportError::Backpressure`] and sends nothing, which is
/// exactly the flow-control behaviour the linked endpoints must
/// handle. Fully deterministic — the single-threaded soak tests drive
/// both ends by turns.
///
/// # Examples
///
/// ```
/// use mimo_transport::{Carrier, MemoryDuplex};
///
/// let (mut a, mut b) = MemoryDuplex::pair(64);
/// a.send(b"hello").unwrap();
/// let mut got = Vec::new();
/// assert_eq!(b.recv(&mut got).unwrap(), 5);
/// assert_eq!(got, b"hello");
/// ```
#[derive(Debug)]
pub struct MemoryDuplex {
    tx: Arc<Mutex<Ring>>,
    rx: Arc<Mutex<Ring>>,
}

impl MemoryDuplex {
    /// Creates a connected pair; each direction buffers up to
    /// `capacity` bytes.
    pub fn pair(capacity: usize) -> (Self, Self) {
        let ab = Arc::new(Mutex::new(Ring {
            bytes: VecDeque::new(),
            capacity,
        }));
        let ba = Arc::new(Mutex::new(Ring {
            bytes: VecDeque::new(),
            capacity,
        }));
        (
            Self {
                tx: Arc::clone(&ab),
                rx: Arc::clone(&ba),
            },
            Self { tx: ba, rx: ab },
        )
    }

    /// Bytes waiting to be received on this endpoint.
    pub fn pending(&self) -> usize {
        self.rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .bytes
            .len()
    }
}

impl Carrier for MemoryDuplex {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        // Peer gone: only our two handles on the outbound ring remain.
        if Arc::strong_count(&self.tx) < 2 {
            return Err(TransportError::Closed);
        }
        let mut ring = self
            .tx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.bytes.len() + frame.len() > ring.capacity {
            return Err(TransportError::Backpressure);
        }
        ring.bytes.extend(frame);
        Ok(())
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        let mut ring = self
            .rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = ring.bytes.len();
        if n == 0 {
            if Arc::strong_count(&self.rx) < 2 {
                return Err(TransportError::Closed);
            }
            return Ok(0);
        }
        buf.extend(ring.bytes.drain(..));
        Ok(n)
    }
}

/// A carrier over any non-blocking byte stream — `UnixStream`,
/// `TcpStream`, or anything else `Read + Write`.
///
/// The stream **must already be in non-blocking mode** (use
/// [`StreamCarrier::unix`] / [`StreamCarrier::tcp`], which arrange
/// it); a blocking stream would stall the polling loops. Send
/// atomicity over a kernel socket buffer is kept by an internal
/// spill buffer: a frame cut short by `WouldBlock` mid-write is
/// accepted and its tail drained ahead of any later frame, so frames
/// never interleave on the wire.
#[derive(Debug)]
pub struct StreamCarrier<T: Read + Write> {
    stream: T,
    /// Tail of a partially written frame, drained before new sends.
    pending: Vec<u8>,
}

impl StreamCarrier<std::os::unix::net::UnixStream> {
    /// Wraps a Unix-domain socket, switching it to non-blocking mode.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the mode switch fails.
    pub fn unix(stream: std::os::unix::net::UnixStream) -> Result<Self, TransportError> {
        stream.set_nonblocking(true)?;
        Ok(Self::from_nonblocking(stream))
    }
}

impl StreamCarrier<std::net::TcpStream> {
    /// Wraps a TCP socket, switching it to non-blocking mode (and
    /// disabling Nagle, which would add pacing latency to small
    /// frames).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the mode switch fails.
    pub fn tcp(stream: std::net::TcpStream) -> Result<Self, TransportError> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self::from_nonblocking(stream))
    }
}

impl<T: Read + Write> StreamCarrier<T> {
    /// Wraps a stream the caller has already made non-blocking.
    pub fn from_nonblocking(stream: T) -> Self {
        Self {
            stream,
            pending: Vec::new(),
        }
    }

    /// Writes as much of `bytes` as the socket accepts, returning the
    /// count written; `WouldBlock` maps to `Ok(written so far)`.
    fn write_some(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(written)
    }

    /// Drains the spill buffer; `Ok(true)` when it is empty.
    fn flush_pending(&mut self) -> Result<bool, TransportError> {
        if self.pending.is_empty() {
            return Ok(true);
        }
        let pending = std::mem::take(&mut self.pending);
        let n = self.write_some(&pending)?;
        if n < pending.len() {
            self.pending = pending[n..].to_vec();
            return Ok(false);
        }
        Ok(true)
    }
}

impl<T: Read + Write> Carrier for StreamCarrier<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if !self.flush_pending()? {
            return Err(TransportError::Backpressure);
        }
        let n = self.write_some(frame)?;
        if n == 0 {
            return Err(TransportError::Backpressure);
        }
        if n < frame.len() {
            // Accepted: the tail goes out ahead of the next frame.
            self.pending = frame[n..].to_vec();
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        // Opportunistically finish a spilled frame while polling.
        self.flush_pending()?;
        let mut total = 0;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if total == 0 {
                        return Err(TransportError::Closed);
                    }
                    return Ok(total);
                }
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(total),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pair_moves_bytes_both_ways() {
        let (mut a, mut b) = MemoryDuplex::pair(1024);
        a.send(&[1, 2, 3]).unwrap();
        b.send(&[9]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv(&mut buf).unwrap(), 3);
        assert_eq!(a.recv(&mut buf).unwrap(), 1);
        assert_eq!(buf, vec![1, 2, 3, 9]);
        assert_eq!(a.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn memory_pair_backpressures_at_capacity_without_partial_sends() {
        let (mut a, mut b) = MemoryDuplex::pair(10);
        a.send(&[0; 8]).unwrap();
        assert_eq!(a.send(&[0; 3]), Err(TransportError::Backpressure));
        assert_eq!(b.pending(), 8, "rejected send must leave nothing behind");
        a.send(&[0; 2]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv(&mut buf).unwrap(), 10);
        a.send(&[0; 3]).unwrap();
    }

    #[test]
    fn dropped_peer_reports_closed() {
        let (mut a, b) = MemoryDuplex::pair(64);
        drop(b);
        assert_eq!(a.send(&[1]), Err(TransportError::Closed));
        let mut buf = Vec::new();
        assert_eq!(a.recv(&mut buf), Err(TransportError::Closed));
    }

    #[test]
    fn unix_socket_carrier_roundtrips() {
        let (left, right) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut a = StreamCarrier::unix(left).unwrap();
        let mut b = StreamCarrier::unix(right).unwrap();
        a.send(b"over the wire").unwrap();
        let mut buf = Vec::new();
        // Non-blocking: the bytes may take a beat to traverse the
        // kernel buffer, but a socketpair delivers immediately.
        assert_eq!(b.recv(&mut buf).unwrap(), 13);
        assert_eq!(buf, b"over the wire");
        assert_eq!(b.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn unix_socket_closed_peer_is_detected() {
        let (left, right) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut a = StreamCarrier::unix(left).unwrap();
        drop(right);
        let mut buf = Vec::new();
        assert_eq!(a.recv(&mut buf), Err(TransportError::Closed));
    }

    #[test]
    fn stream_carrier_spills_and_preserves_frame_order() {
        // A Write impl that accepts at most 4 bytes per call and
        // blocks every other call, forcing the spill path.
        struct Choked {
            accepted: Vec<u8>,
            budget: usize,
        }
        impl Write for Choked {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    self.budget = 4;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = b.len().min(self.budget);
                self.budget = 0;
                self.accepted.extend_from_slice(&b[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl Read for Choked {
            fn read(&mut self, _b: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }

        let mut c = StreamCarrier::from_nonblocking(Choked {
            accepted: Vec::new(),
            budget: 4,
        });
        c.send(b"AAAAAAAA").unwrap(); // 4 written, 4 spilled
        // Spill must drain before the next frame may start.
        let mut attempts = 0;
        loop {
            match c.send(b"BBBB") {
                Ok(()) => break,
                Err(TransportError::Backpressure) => attempts += 1,
                Err(e) => panic!("{e}"),
            }
            assert!(attempts < 10);
        }
        let mut sink = c.stream.accepted.clone();
        // Whatever arrived, As strictly precede Bs.
        sink.dedup();
        assert_eq!(sink, b"AB");
    }
}
