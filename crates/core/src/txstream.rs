//! The streaming (paced chunk) transmitter — the TX dual of the
//! chunk-driven [`StreamingReceiver`](crate::StreamingReceiver).
//!
//! The batch transmitter emits whole in-memory bursts; real links
//! (DMA engines, serial sample transports, the paper's JESD204A
//! converters) consume **paced sample chunks**. [`StreamingTransmitter`]
//! closes that gap: packets go in through a queue
//! ([`StreamingTransmitter::enqueue_with`]), and fixed-cadence
//! per-antenna CQ15 chunks come out through
//! [`StreamingTransmitter::pull_into`] — preamble, SIGNAL header and
//! payload symbols of each queued burst in order, back to back (with
//! an optional inter-burst guard of silent samples), and silence when
//! the queue is empty.
//!
//! The emitted sample sequence is **bit-identical** to concatenating
//! the batch [`MimoTransmitter::transmit_burst_with`] outputs: pacing
//! only re-chunks, it never re-encodes. That makes the pair
//! `StreamingTransmitter → (any chunking) → StreamingReceiver` a full
//! software duplex over one sample stream — the shape the framed
//! sample-transport layer (`mimo_transport`) carries over rings,
//! files and sockets.
//!
//! # Examples
//!
//! ```
//! use mimo_core::{
//!     LinkGeometry, Mcs, StreamingReceiver, StreamingTransmitter,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut tx = StreamingTransmitter::from_geometry(LinkGeometry::mimo())?;
//! let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo())?;
//! let payload: Vec<u8> = (0..96).map(|i| (i * 11) as u8).collect();
//! tx.enqueue_with(Mcs::Qpsk12, &payload)?;
//! tx.enqueue_with(Mcs::Qam64R34, &payload)?;
//!
//! // Drain the transmitter in 160-sample chunks straight into the
//! // receiver, like a DMA engine moving pages.
//! let mut chunk: Vec<Vec<_>> = Vec::new();
//! let mut got = Vec::new();
//! while tx.pull_into(&mut chunk, 160)? > 0 {
//!     if let Some(b) = rx.push_samples(&chunk)? {
//!         got.push(b);
//!     }
//! }
//! if let Some(b) = rx.flush()? {
//!     got.push(b);
//! }
//! assert_eq!(got.len(), 2);
//! assert_eq!(got[0].result.diagnostics.mcs, Mcs::Qpsk12);
//! assert_eq!(got[1].result.diagnostics.mcs, Mcs::Qam64R34);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use mimo_fixed::CQ15;

use crate::config::{LinkGeometry, PhyConfig};
use crate::error::PhyError;
use crate::mcs::Mcs;
use crate::tx::{MimoTransmitter, TxBurst};

/// The paced 4×4 chunk producer: a packet queue drained as equal-length
/// per-antenna sample chunks. See the module docs.
#[derive(Debug)]
pub struct StreamingTransmitter {
    tx: MimoTransmitter,
    /// Encoded bursts awaiting their turn on the air.
    queue: VecDeque<TxBurst>,
    /// The burst currently draining and the per-antenna sample offset
    /// already emitted from it.
    current: Option<(TxBurst, usize)>,
    /// Silent samples inserted between consecutive bursts.
    guard: usize,
    /// Silent samples still owed before the next burst may start.
    guard_remaining: usize,
    /// Absolute samples emitted so far (per antenna).
    emitted: usize,
    /// Bound on `queue` length (`None` = unbounded, the historical
    /// behaviour). The burst mid-drain does not count against it.
    capacity: Option<usize>,
    /// High-water mark of the queue length (bounded-memory evidence).
    max_queue_depth: usize,
}

impl StreamingTransmitter {
    /// Builds the streaming transmitter from a configuration, like
    /// [`MimoTransmitter::new`].
    ///
    /// # Errors
    ///
    /// Identical to [`MimoTransmitter::new`].
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        Ok(Self {
            tx: MimoTransmitter::new(cfg)?,
            queue: VecDeque::new(),
            current: None,
            guard: 0,
            guard_remaining: 0,
            emitted: 0,
            capacity: None,
            max_queue_depth: 0,
        })
    }

    /// Builds the streaming transmitter from the static link geometry
    /// alone.
    ///
    /// # Errors
    ///
    /// Identical to [`StreamingTransmitter::new`].
    pub fn from_geometry(geometry: LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// Sets the inter-burst guard: `samples` of silence emitted
    /// between the end of one burst and the start of the next (zero by
    /// default — gapless back-to-back bursts).
    #[must_use]
    pub fn with_guard_samples(mut self, samples: usize) -> Self {
        self.guard = samples;
        self
    }

    /// Bounds the packet queue at `bursts` encoded bursts (the burst
    /// mid-drain is not counted). A full queue makes
    /// [`StreamingTransmitter::enqueue_with`] fail with a typed
    /// [`PhyError::QueueFull`], so the transmitter's memory is
    /// bounded: at most `bursts + 1` encoded bursts exist at any
    /// instant.
    ///
    /// Zero is clamped to one (a queue that can hold nothing would
    /// make every enqueue fail).
    #[must_use]
    pub fn with_queue_capacity(mut self, bursts: usize) -> Self {
        self.capacity = Some(bursts.max(1));
        self
    }

    /// The deepest the packet queue has ever been — with a bounded
    /// queue this never exceeds the configured capacity.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Abandons the burst currently mid-drain, if any, so the next
    /// pull starts at the following queued burst (plus guard). Used by
    /// supervised links on reconnect: the peer lost the burst's head,
    /// so its tail is dead air — better spent on the next burst.
    /// Returns `true` when a burst was actually dropped.
    pub fn abandon_current(&mut self) -> bool {
        let had = self.current.is_some();
        if had {
            self.current = None;
            self.guard_remaining = self.guard;
        }
        had
    }

    /// The static link geometry in use.
    pub fn geometry(&self) -> &LinkGeometry {
        self.tx.config().geometry()
    }

    /// The MCS used by [`StreamingTransmitter::enqueue`].
    pub fn default_mcs(&self) -> Mcs {
        self.tx.default_mcs()
    }

    /// `true` when nothing is queued and no burst is mid-drain: the
    /// next [`StreamingTransmitter::pull_into`] returns zero samples.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    /// Absolute samples emitted so far (per antenna), guards included.
    pub fn position(&self) -> usize {
        self.emitted
    }

    /// Queues one packet at the default MCS.
    ///
    /// # Errors
    ///
    /// Identical to [`StreamingTransmitter::enqueue_with`].
    // phylint: allow(test_only_api) -- test support: crates/transport/src/link.rs
    pub fn enqueue(&mut self, payload: &[u8]) -> Result<(), PhyError> {
        self.enqueue_with(self.tx.default_mcs(), payload)
    }

    /// Queues one packet at an explicit MCS: the burst is encoded now
    /// (preamble + SIGNAL header + payload symbols, exactly
    /// [`MimoTransmitter::transmit_burst_with`]) and paced out by
    /// subsequent [`StreamingTransmitter::pull_into`] calls.
    ///
    /// # Errors
    ///
    /// Identical to [`MimoTransmitter::transmit_burst_with`], plus
    /// [`PhyError::QueueFull`] when a bounded queue is at capacity (a
    /// rejected enqueue has no side effect — retry the same packet after
    /// pulling).
    pub fn enqueue_with(&mut self, mcs: Mcs, payload: &[u8]) -> Result<(), PhyError> {
        if let Some(capacity) = self.capacity {
            if self.queue.len() >= capacity {
                return Err(PhyError::QueueFull { capacity });
            }
        }
        let burst = self.tx.transmit_burst_with(mcs, payload)?;
        self.queue.push_back(burst);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        Ok(())
    }

    /// Pulls the next paced chunk: resizes `out` to one vector per
    /// antenna, clears each (capacity is reused — zero allocation at
    /// steady state) and fills them with up to `max_samples` samples
    /// of the draining burst stream, crossing burst boundaries and
    /// guard silence as needed. Returns the samples produced per
    /// antenna; `0` means the queue is idle.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` reserves room for pacing errors
    /// (e.g. a future clocked mode) without an API break.
    pub fn pull_into(
        &mut self,
        out: &mut Vec<Vec<CQ15>>,
        max_samples: usize,
    ) -> Result<usize, PhyError> {
        let n_streams = self.geometry().n_streams();
        out.resize_with(n_streams, Vec::new);
        for o in out.iter_mut() {
            o.clear();
        }
        // phylint: hot
        let mut produced = 0;
        while produced < max_samples {
            if let Some((burst, offset)) = self.current.as_mut() {
                let len = burst.streams[0].len();
                let take = (len - *offset).min(max_samples - produced);
                for (o, s) in out.iter_mut().zip(&burst.streams) {
                    o.extend_from_slice(&s[*offset..*offset + take]);
                }
                *offset += take;
                produced += take;
                if *offset == len {
                    self.current = None;
                    self.guard_remaining = self.guard;
                }
            } else if self.queue.is_empty() {
                break;
            } else if self.guard_remaining > 0 {
                let take = self.guard_remaining.min(max_samples - produced);
                for o in out.iter_mut() {
                    o.extend(std::iter::repeat_n(CQ15::ZERO, take));
                }
                self.guard_remaining -= take;
                produced += take;
            } else {
                self.current = self.queue.pop_front().map(|b| (b, 0));
            }
        }
        self.emitted += produced;
        Ok(produced)
        // phylint: end-hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamingReceiver;

    /// Drains `tx` in `chunk`-sample pulls and concatenates.
    fn drain(tx: &mut StreamingTransmitter, chunk: usize) -> Vec<Vec<CQ15>> {
        let mut streams = vec![Vec::new(); tx.geometry().n_streams()];
        let mut buf = Vec::new();
        while tx.pull_into(&mut buf, chunk).unwrap() > 0 {
            for (s, c) in streams.iter_mut().zip(&buf) {
                s.extend_from_slice(c);
            }
        }
        streams
    }

    #[test]
    fn paced_output_is_bit_identical_to_batch_concatenation() {
        let batch = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let payload_a: Vec<u8> = (0..60).map(|i| i as u8).collect();
        let payload_b: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let mut expect = batch.transmit_burst_with(Mcs::Bpsk12, &payload_a).unwrap().streams;
        let b = batch.transmit_burst_with(Mcs::Qam64R34, &payload_b).unwrap();
        for (e, s) in expect.iter_mut().zip(&b.streams) {
            e.extend_from_slice(s);
        }

        for chunk in [1usize, 7, 160, 4096] {
            let mut tx =
                StreamingTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
            tx.enqueue_with(Mcs::Bpsk12, &payload_a).unwrap();
            tx.enqueue_with(Mcs::Qam64R34, &payload_b).unwrap();
            let got = drain(&mut tx, chunk);
            assert_eq!(got, expect, "chunk {chunk}");
            assert!(tx.is_idle());
            assert_eq!(tx.position(), expect[0].len());
        }
    }

    #[test]
    fn guard_inserts_silence_between_bursts_only() {
        let mut tx = StreamingTransmitter::new(PhyConfig::paper_synthesis())
            .unwrap()
            .with_guard_samples(100);
        tx.enqueue(&[1, 2, 3]).unwrap();
        tx.enqueue(&[4, 5, 6]).unwrap();
        let batch = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let one = batch.transmit_burst(&[1, 2, 3]).unwrap().len_samples();
        let got = drain(&mut tx, 64);
        // burst + guard + burst; no trailing guard after the last one.
        assert_eq!(got[0].len(), 2 * one + 100);
        assert!(got[0][one..one + 100].iter().all(|s| s.is_zero()));
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let mut bursts = Vec::new();
        let views: Vec<&[CQ15]> = got.iter().map(Vec::as_slice).collect();
        if let Some(b) = rx.push_samples(&views).unwrap() {
            bursts.push(b);
        }
        while let Some(b) = rx.poll().unwrap() {
            bursts.push(b);
        }
        if let Some(b) = rx.flush().unwrap() {
            bursts.push(b);
        }
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].result.payload, vec![1, 2, 3]);
        assert_eq!(bursts[1].result.payload, vec![4, 5, 6]);
    }

    #[test]
    fn bounded_queue_rejects_with_typed_queue_full() {
        let mut tx = StreamingTransmitter::from_geometry(LinkGeometry::mimo())
            .unwrap()
            .with_queue_capacity(2);
        tx.enqueue(&[1]).unwrap();
        tx.enqueue(&[2]).unwrap();
        assert!(matches!(
            tx.enqueue(&[3]),
            Err(PhyError::QueueFull { capacity: 2 })
        ));
        // A rejected enqueue has no side effect: the queue never held
        // more than the two accepted bursts.
        assert_eq!(tx.max_queue_depth(), 2);
        let mut buf = Vec::new();
        // Start draining: the head burst moves out of the queue, so a
        // slot frees up even before it finishes.
        assert!(tx.pull_into(&mut buf, 16).unwrap() > 0);
        tx.enqueue(&[3]).unwrap();
        assert_eq!(tx.max_queue_depth(), 2);
    }

    #[test]
    fn abandon_current_skips_to_the_next_burst() {
        let mut tx = StreamingTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
        tx.enqueue(&[7; 16]).unwrap();
        tx.enqueue(&[9; 16]).unwrap();
        let mut buf = Vec::new();
        tx.pull_into(&mut buf, 100).unwrap(); // burst 1 mid-drain
        assert!(tx.abandon_current());
        assert!(!tx.abandon_current(), "nothing left to abandon twice");
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let mut bursts = Vec::new();
        while tx.pull_into(&mut buf, 160).unwrap() > 0 {
            if let Some(b) = rx.push_samples(&buf).unwrap() {
                bursts.push(b);
            }
        }
        if let Some(b) = rx.flush().unwrap() {
            bursts.push(b);
        }
        // Only the second burst survives; the abandoned head's tail
        // never hits the air, so the receiver sees one clean burst.
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].result.payload, vec![9u8; 16]);
    }

    #[test]
    fn idle_transmitter_produces_nothing() {
        let mut tx = StreamingTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
        let mut buf = Vec::new();
        assert_eq!(tx.pull_into(&mut buf, 512).unwrap(), 0);
        assert!(buf.iter().all(Vec::is_empty));
        assert!(tx.is_idle());
    }
}
