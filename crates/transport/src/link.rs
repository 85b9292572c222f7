//! The linked endpoints: a [`StreamingTransmitter`] feeding a carrier
//! as framed chunks, and a carrier feeding a [`StreamingReceiver`]
//! with full fault accounting and self-healing.
//!
//! [`SampleSender`] paces queued packets out of the streaming
//! transmitter in fixed-size chunks, frames each with a sequence
//! number and CRC, and pushes the frames down its carrier, absorbing
//! backpressure by retrying the same frame.
//!
//! [`SampleReceiver`] pulls bytes from its carrier through the
//! resynchronising [`FrameDecoder`], classifies each frame's sequence
//! number, converts sequence gaps into
//! [`StreamingReceiver::notify_gap`] calls (so the PHY abandons any
//! burst the gap cut through and re-arms), drops stale
//! duplicates/late frames, and feeds everything else into the PHY.
//! Every abnormal condition surfaces as a typed [`LinkEvent`] and a
//! counter in [`LinkStats`] — nothing panics, nothing is silently
//! swallowed, and the receiver keeps decoding whatever bursts survive.
//!
//! # The control plane
//!
//! Beside the data frames both endpoints speak the fixed-length
//! control frames of [`ControlMsg`] (same carrier — every carrier is
//! duplex). Three protocols ride on it, all opt-in and all built from
//! **cumulative** values so lost/duplicated/reordered control frames
//! are self-healing:
//!
//! * **Flow control** ([`SampleSender::with_flow_control`] /
//!   [`SampleReceiver::with_flow_control`]): the receiver grants
//!   cumulative sample credits as it consumes frames; the sender stops
//!   pulling from the transmitter when the window is exhausted
//!   (counted as [`SenderStats::credit_stalls`]). With the
//!   transmitter's bounded packet queue
//!   ([`StreamingTransmitter::with_queue_capacity`]) this bounds
//!   memory end-to-end. See [`crate::flow`].
//! * **Liveness**: either endpoint can emit
//!   [`ControlMsg::Heartbeat`] frames carrying its cumulative sample
//!   position; the supervisors in [`crate::supervisor`] use wire
//!   activity plus heartbeats to declare a peer dead.
//! * **Sessions**: a (re)connecting sender opens with
//!   [`ControlMsg::Hello`] carrying a session nonce and gates data
//!   until the receiver answers [`ControlMsg::Reset`]. The receiver's
//!   HELLO handler abandons any burst in flight via the typed
//!   [`StreamingReceiver::notify_gap`] path, rewinds its sequence
//!   tracker and credit grantor, and replies — so a mid-burst
//!   reconnect is a typed loss, never corruption.
//!   [`ControlMsg::Bye`] closes a session cleanly, carrying the final
//!   sent position for end-of-run ledger cross-checks.

use std::collections::VecDeque;
use std::mem;

use mimo_core::{PhyError, ReceivedBurst, StreamingReceiver, StreamingTransmitter};
use mimo_fixed::CQ15;

use crate::carrier::Carrier;
use crate::error::TransportError;
use crate::flow::{CreditGrantor, CreditWindow};
use crate::frame::{encode_control, encode_frame, ControlMsg, DecodeEvent, FrameDecoder, MAX_FRAME_SAMPLES};
use crate::seq::{SeqStatus, SeqTracker};

/// Sender-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Frames handed to the carrier.
    pub frames_sent: u64,
    /// Samples per antenna framed and sent.
    pub samples_sent: u64,
    /// Sends refused by carrier backpressure (each later retried).
    pub backpressure: u64,
    /// Pumps that pulled nothing because the credit window was
    /// exhausted (flow control only).
    pub credit_stalls: u64,
    /// Control frames handed to the carrier.
    pub control_sent: u64,
    /// Control frames absorbed from the reverse plane.
    pub control_rcvd: u64,
    /// CREDIT grants folded into the window.
    pub credits_rcvd: u64,
    /// RESET acknowledgements that completed a handshake.
    pub resets_rcvd: u64,
}

/// The framing producer endpoint. See the module docs.
#[derive(Debug)]
pub struct SampleSender<C> {
    carrier: C,
    tx: StreamingTransmitter,
    chunk_samples: usize,
    seq: u32,
    chunk: Vec<Vec<CQ15>>,
    frame: Vec<u8>,
    /// `frame` holds an encoded frame the carrier has not accepted.
    frame_pending: bool,
    /// Reverse-plane decoder (CREDIT/RESET/HEARTBEAT from the peer).
    ctl: FrameDecoder,
    ctl_seq: u32,
    /// Encoded control frames the carrier has not accepted yet.
    ctl_queue: VecDeque<Vec<u8>>,
    ctl_io: Vec<u8>,
    credits: Option<CreditWindow>,
    /// Session nonce sent in HELLO, cleared by the matching RESET;
    /// data frames are gated while this is set.
    awaiting: Option<u64>,
    /// Monotone count of reverse-plane reads that produced bytes —
    /// the supervisor's watchdog input.
    activity: u64,
    stats: SenderStats,
}

impl<C: Carrier> SampleSender<C> {
    /// Wraps a streaming transmitter and a carrier; each frame carries
    /// `chunk_samples` samples per antenna (the pacing quantum).
    ///
    /// # Errors
    ///
    /// [`TransportError::BadFrame`] when `chunk_samples` is zero or
    /// exceeds [`MAX_FRAME_SAMPLES`].
    pub fn new(
        tx: StreamingTransmitter,
        carrier: C,
        chunk_samples: usize,
    ) -> Result<Self, TransportError> {
        if chunk_samples == 0 || chunk_samples > MAX_FRAME_SAMPLES {
            return Err(TransportError::BadFrame(format!(
                "chunk of {chunk_samples} samples outside 1..={MAX_FRAME_SAMPLES}"
            )));
        }
        Ok(Self {
            carrier,
            tx,
            chunk_samples,
            seq: 0,
            chunk: Vec::new(),
            frame: Vec::new(),
            frame_pending: false,
            ctl: FrameDecoder::new(),
            ctl_seq: 0,
            ctl_queue: VecDeque::new(),
            ctl_io: Vec::new(),
            credits: None,
            awaiting: None,
            activity: 0,
            stats: SenderStats::default(),
        })
    }

    /// Enables credit flow control with `initial_window` samples of
    /// pre-granted allowance (must match the peer grantor's window).
    /// Pulls are all-or-nothing per chunk, so the window must fit at
    /// least one pacing chunk or the link would deadlock.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadFrame`] when `initial_window` is smaller
    /// than the pacing chunk.
    pub fn with_flow_control(mut self, initial_window: u64) -> Result<Self, TransportError> {
        if initial_window < self.chunk_samples as u64 {
            return Err(TransportError::BadFrame(format!(
                "credit window of {initial_window} cannot fit one {}-sample chunk",
                self.chunk_samples
            )));
        }
        self.credits = Some(CreditWindow::new(initial_window));
        Ok(self)
    }

    /// The wrapped transmitter (e.g. to queue packets via
    /// [`StreamingTransmitter::enqueue_with`]).
    pub fn transmitter_mut(&mut self) -> &mut StreamingTransmitter {
        &mut self.tx
    }

    /// Read access to the wrapped transmitter.
    pub fn transmitter(&self) -> &StreamingTransmitter {
        &self.tx
    }

    /// Sender counters so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// `true` when every queued packet has been framed **and**
    /// accepted by the carrier.
    pub fn is_idle(&self) -> bool {
        !self.frame_pending && self.ctl_queue.is_empty() && self.tx.is_idle()
    }

    /// `true` once the peer has acknowledged the current session (or
    /// no handshake was ever started). Data frames are gated while
    /// `false`.
    pub fn is_established(&self) -> bool {
        self.awaiting.is_none()
    }

    /// Monotone count of reverse-plane reads that produced bytes; a
    /// changing value means the peer is alive.
    pub fn activity(&self) -> u64 {
        self.activity
    }

    /// Encodes and sends a control frame; carrier backpressure parks
    /// it for the next [`SampleSender::pump`].
    ///
    /// # Errors
    ///
    /// Carrier errors other than backpressure.
    pub fn send_control(&mut self, msg: ControlMsg) -> Result<(), TransportError> {
        let mut wire = Vec::with_capacity(crate::frame::CONTROL_FRAME_LEN);
        encode_control(self.ctl_seq, msg, &mut wire);
        self.ctl_seq = self.ctl_seq.wrapping_add(1);
        if !self.ctl_queue.is_empty() {
            self.ctl_queue.push_back(wire);
            return Ok(());
        }
        match self.carrier.send(&wire) {
            Ok(()) => {
                self.stats.control_sent += 1;
                Ok(())
            }
            Err(TransportError::Backpressure) => {
                self.stats.backpressure += 1;
                self.ctl_queue.push_back(wire);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Re-issues the HELLO for a handshake still in flight (the
    /// original may have been eaten by the fault schedule). No-op once
    /// established.
    ///
    /// # Errors
    ///
    /// See [`SampleSender::send_control`].
    pub fn resend_hello(&mut self) -> Result<(), TransportError> {
        if let Some(session) = self.awaiting {
            self.send_control(ControlMsg::Hello { session })?;
        }
        Ok(())
    }

    /// Opens a fresh session: abandons any burst mid-drain (the peer
    /// must never see a headless tail), rewinds sequence numbers and
    /// the credit window, drops stale unsent frames, and sends
    /// HELLO with `session`. Data is gated until the peer's RESET
    /// arrives. Call after [`SampleSender::replace_carrier`] on
    /// reconnect.
    ///
    /// # Errors
    ///
    /// See [`SampleSender::send_control`].
    pub fn begin_session(&mut self, session: u64) -> Result<(), TransportError> {
        self.frame_pending = false;
        self.ctl_queue.clear();
        self.seq = 0;
        self.tx.abandon_current();
        if let Some(w) = &mut self.credits {
            w.reset();
        }
        self.ctl = FrameDecoder::new();
        self.awaiting = Some(session);
        self.send_control(ControlMsg::Hello { session })
    }

    /// Swaps in a fresh carrier (reconnect), returning the old one.
    /// Follow with [`SampleSender::begin_session`] to resync the peer.
    pub fn replace_carrier(&mut self, carrier: C) -> C {
        mem::replace(&mut self.carrier, carrier)
    }

    /// Drains the reverse control plane: folds CREDIT grants into the
    /// window, completes the HELLO/RESET handshake, records peer
    /// heartbeats. Called by [`SampleSender::pump`] whenever flow
    /// control or a handshake is active; call directly when
    /// supervising a plain link.
    ///
    /// # Errors
    ///
    /// Carrier failures ([`TransportError::Closed`],
    /// [`TransportError::Io`]).
    pub fn poll_control(&mut self) -> Result<(), TransportError> {
        loop {
            if let Some(ev) = self.ctl.next_event() {
                if let DecodeEvent::Control(frame) = ev {
                    self.stats.control_rcvd += 1;
                    match frame.msg {
                        ControlMsg::Credit { granted } => {
                            self.stats.credits_rcvd += 1;
                            if let Some(w) = &mut self.credits {
                                w.on_grant(granted);
                            }
                        }
                        ControlMsg::Reset { session } => {
                            if self.awaiting == Some(session) {
                                self.awaiting = None;
                                self.stats.resets_rcvd += 1;
                            }
                        }
                        // Liveness is the activity count above.
                        ControlMsg::Heartbeat { .. } | ControlMsg::Bye { .. } => {}
                        // A peer never HELLOs the sender; data frames,
                        // garbage and CRC noise on the reverse plane
                        // are likewise ignored — cumulative credit
                        // state self-heals past any of it.
                        ControlMsg::Hello { .. } => {}
                    }
                }
                continue;
            }
            self.ctl_io.clear();
            match self.carrier.recv(&mut self.ctl_io) {
                Ok(0) => return Ok(()),
                Ok(_) => {
                    self.activity += 1;
                    self.ctl.push(&self.ctl_io);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Flushes parked control frames. `Ok(true)` when the queue is
    /// empty afterwards.
    fn flush_control(&mut self) -> Result<bool, TransportError> {
        while let Some(wire) = self.ctl_queue.front() {
            match self.carrier.send(wire) {
                Ok(()) => {
                    self.stats.control_sent += 1;
                    self.ctl_queue.pop_front();
                }
                Err(TransportError::Backpressure) => {
                    self.stats.backpressure += 1;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Advances the link by at most one frame: drains the reverse
    /// control plane (when flow control or a handshake is active),
    /// flushes parked control frames, retries a data frame the
    /// carrier previously refused, then — unless gated on the
    /// handshake or out of credit — pulls the next chunk, frames it
    /// and sends it. Returns the samples per antenna newly pulled
    /// from the transmitter (`0` when idle, gated, stalled on credit,
    /// or blocked on backpressure — check [`SampleSender::is_idle`]
    /// to tell apart).
    ///
    /// # Errors
    ///
    /// Carrier errors other than backpressure (which is absorbed into
    /// the retry state) and [`PhyError`]s from pacing, stringified
    /// into [`TransportError::BadFrame`].
    pub fn pump(&mut self) -> Result<usize, TransportError> {
        if self.credits.is_some() || self.awaiting.is_some() {
            self.poll_control()?;
        }
        if !self.flush_control()? {
            return Ok(0);
        }
        if self.frame_pending {
            match self.carrier.send(&self.frame) {
                Ok(()) => {
                    self.frame_pending = false;
                    self.stats.frames_sent += 1;
                }
                Err(TransportError::Backpressure) => {
                    self.stats.backpressure += 1;
                    return Ok(0);
                }
                Err(e) => return Err(e),
            }
        }
        if self.awaiting.is_some() {
            // Data is gated until the peer acknowledges the session.
            return Ok(0);
        }
        if let Some(w) = &self.credits {
            // All-or-nothing: a partial pull would strand samples in
            // `chunk` with no credit to send them — never pull unless
            // a full chunk is spendable.
            if (w.available() as usize) < self.chunk_samples && !self.tx.is_idle() {
                self.stats.credit_stalls += 1;
                return Ok(0);
            }
        }
        let pulled = self
            .tx
            .pull_into(&mut self.chunk, self.chunk_samples)
            .map_err(|e| TransportError::BadFrame(e.to_string()))?;
        if pulled == 0 {
            return Ok(0);
        }
        if let Some(w) = &mut self.credits {
            w.consume(pulled as u64);
        }
        self.frame.clear();
        encode_frame(self.seq, &self.chunk, &mut self.frame)?;
        self.seq = self.seq.wrapping_add(1);
        self.stats.samples_sent += pulled as u64;
        match self.carrier.send(&self.frame) {
            Ok(()) => {
                self.stats.frames_sent += 1;
            }
            Err(TransportError::Backpressure) => {
                self.stats.backpressure += 1;
                self.frame_pending = true;
            }
            Err(e) => return Err(e),
        }
        Ok(pulled)
    }

    /// Consumes the sender, returning the carrier (e.g. to flush a
    /// fault injector or recover a capture file).
    pub fn into_carrier(self) -> C {
        self.carrier
    }
}

/// A link-level abnormality the receiver absorbed and accounted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkFault {
    /// A framed region failed its CRC and was discarded.
    BadCrc,
    /// Bytes skipped while rescanning for a frame boundary.
    Garbage {
        /// Count of discarded bytes.
        bytes: usize,
    },
    /// Frames went missing; the PHY was told to expect a sample gap.
    SeqGap {
        /// Frames lost.
        missing_frames: u32,
        /// Sample-stream gap reported to the PHY (estimated from the
        /// last known chunk size).
        missing_samples: usize,
    },
    /// A duplicate or stalled-and-late frame arrived and was dropped.
    StaleFrame {
        /// Its wire sequence number.
        seq: u32,
    },
    /// A frame's stream count disagrees with the receiver geometry.
    StreamCountMismatch {
        /// Antenna streams the PHY needs.
        expected: usize,
        /// Streams the frame carried.
        got: usize,
    },
}

/// What [`SampleReceiver::poll`] produced.
#[derive(Debug)]
pub enum LinkEvent {
    /// A fully decoded burst.
    Burst(ReceivedBurst),
    /// The PHY reported a typed error (burst abandoned over a gap,
    /// header CRC failure, unsupported rate…) and re-armed; decoding
    /// continues with the next samples.
    Phy(PhyError),
    /// A transport-level fault was absorbed.
    Fault(LinkFault),
    /// A control frame arrived (HELLO means the peer (re)opened a
    /// session; BYE means it finished cleanly at the carried
    /// position).
    Control(ControlMsg),
}

/// Receiver-side counters: the link's health ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Frames accepted and fed to the PHY.
    pub frames_ok: u64,
    /// Samples per antenna fed to the PHY.
    pub samples_ok: u64,
    /// Framed regions rejected by CRC.
    pub crc_errors: u64,
    /// Bytes discarded while resynchronising.
    pub resync_bytes: u64,
    /// Sequence-gap episodes.
    pub gap_events: u64,
    /// Frames lost across all gaps.
    pub missing_frames: u64,
    /// Duplicate/late frames dropped.
    pub stale_frames: u64,
    /// Frames dropped for a stream-count mismatch.
    pub stream_mismatch: u64,
    /// Typed PHY errors surfaced (and recovered from).
    pub phy_errors: u64,
    /// Bursts decoded.
    pub bursts: u64,
    /// Control frames absorbed.
    pub control_frames: u64,
    /// HELLO handshakes honoured (sessions opened or re-opened).
    pub hellos: u64,
    /// Peer heartbeats received.
    pub heartbeats_rcvd: u64,
    /// CREDIT grants put on the wire.
    pub credits_sent: u64,
}

/// The self-healing consumer endpoint. See the module docs.
#[derive(Debug)]
pub struct SampleReceiver<C> {
    carrier: C,
    decoder: FrameDecoder,
    seq: SeqTracker,
    rx: StreamingReceiver,
    /// Samples/stream of the last accepted frame: the gap estimate.
    nominal_chunk: usize,
    pending: VecDeque<LinkEvent>,
    io_buf: Vec<u8>,
    grantor: Option<CreditGrantor>,
    ctl_seq: u32,
    /// Encoded control frames (CREDIT grants, RESET replies,
    /// heartbeats) awaiting the carrier; retried every poll.
    ctl_queue: VecDeque<Vec<u8>>,
    /// The session nonce last honoured with a RESET.
    session: Option<u64>,
    /// The peer's final position from its BYE, if one arrived.
    peer_bye: Option<u64>,
    /// Monotone count of reads that produced bytes.
    activity: u64,
    stats: LinkStats,
}

impl<C: Carrier> SampleReceiver<C> {
    /// Wraps a streaming receiver and a carrier.
    pub fn new(rx: StreamingReceiver, carrier: C) -> Self {
        Self {
            carrier,
            decoder: FrameDecoder::new(),
            seq: SeqTracker::new(),
            rx,
            nominal_chunk: 0,
            pending: VecDeque::new(),
            io_buf: Vec::new(),
            grantor: None,
            ctl_seq: 0,
            ctl_queue: VecDeque::new(),
            session: None,
            peer_bye: None,
            activity: 0,
            stats: LinkStats::default(),
        }
    }

    /// Enables credit granting: up to `window` samples in flight,
    /// announced in steps of `quantum` (see [`crate::flow`]). The
    /// window must match the peer's
    /// [`SampleSender::with_flow_control`] argument.
    pub fn with_flow_control(mut self, window: u64, quantum: u64) -> Self {
        self.grantor = Some(CreditGrantor::new(window, quantum));
        self
    }

    /// Receiver counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The wrapped PHY receiver.
    pub fn receiver(&self) -> &StreamingReceiver {
        &self.rx
    }

    /// Monotone count of reads that produced bytes; a changing value
    /// means the peer is alive.
    pub fn activity(&self) -> u64 {
        self.activity
    }

    /// The final cumulative position the peer announced with BYE
    /// (`None` until a clean shutdown arrives). Cross-check against
    /// [`LinkStats::samples_ok`] on clean runs.
    pub fn peer_final_position(&self) -> Option<u64> {
        self.peer_bye
    }

    /// Queues a control frame (e.g. a liveness heartbeat carrying
    /// [`LinkStats::samples_ok`]); sent during the next polls,
    /// surviving backpressure.
    pub fn send_control(&mut self, msg: ControlMsg) {
        let mut wire = Vec::with_capacity(crate::frame::CONTROL_FRAME_LEN);
        encode_control(self.ctl_seq, msg, &mut wire);
        self.ctl_seq = self.ctl_seq.wrapping_add(1);
        self.ctl_queue.push_back(wire);
    }

    /// Swaps in a fresh carrier (reconnect), returning the old one.
    /// The byte-level decoder restarts (a partial frame from the old
    /// socket must not prefix the new stream); session state waits
    /// for the peer's HELLO.
    pub fn replace_carrier(&mut self, carrier: C) -> C {
        self.decoder = FrameDecoder::new();
        mem::replace(&mut self.carrier, carrier)
    }

    /// Advances the link: flushes queued control frames, drains queued
    /// events, then decoder events, then reads the carrier. `Ok(None)`
    /// means the carrier has nothing right now — poll again after the
    /// peer pumps.
    ///
    /// # Errors
    ///
    /// Carrier failures only ([`TransportError::Closed`],
    /// [`TransportError::Io`]); every decode- and PHY-level problem is
    /// returned as a [`LinkEvent`] instead.
    pub fn poll(&mut self) -> Result<Option<LinkEvent>, TransportError> {
        self.flush_control();
        loop {
            if let Some(e) = self.pending.pop_front() {
                return Ok(Some(e));
            }
            if let Some(ev) = self.decoder.next_event() {
                self.absorb(ev);
                continue;
            }
            self.io_buf.clear();
            match self.carrier.recv(&mut self.io_buf) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    self.activity += 1;
                    self.decoder.push(&self.io_buf);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Declares end-of-stream: flushes the PHY so a burst cut off
    /// mid-decode surfaces (as a [`LinkEvent::Burst`] if the buffered
    /// tail completed it, as a typed [`LinkEvent::Phy`] error if not).
    /// Call after [`SampleReceiver::poll`] has drained the carrier.
    pub fn finish(&mut self) -> Option<LinkEvent> {
        match self.rx.flush() {
            Ok(Some(b)) => {
                self.stats.bursts += 1;
                Some(LinkEvent::Burst(b))
            }
            Ok(None) => None,
            Err(e) => {
                self.stats.phy_errors += 1;
                Some(LinkEvent::Phy(e))
            }
        }
    }

    /// Consumes the receiver, returning the carrier.
    pub fn into_carrier(self) -> C {
        self.carrier
    }

    /// Best-effort drain of the control send queue. Backpressure and
    /// carrier failures leave the queue intact for the next poll —
    /// the forward plane's own recv will surface a dead carrier, and
    /// cumulative grants tolerate arbitrary delay.
    fn flush_control(&mut self) {
        while let Some(wire) = self.ctl_queue.front() {
            match self.carrier.send(wire) {
                Ok(()) => {
                    self.ctl_queue.pop_front();
                }
                Err(_) => return,
            }
        }
    }

    /// Accounts `n` consumed samples with the grantor and queues a
    /// CREDIT announcement when one is due.
    fn credit_delivered(&mut self, n: u64) {
        let Some(g) = &mut self.grantor else { return };
        g.on_delivered(n);
        if let Some(total) = g.due() {
            g.mark_granted(total);
            self.stats.credits_sent += 1;
            self.send_control(ControlMsg::Credit { granted: total });
            self.flush_control();
        }
    }

    /// Handles a peer HELLO: first sighting of a session nonce resets
    /// the link state (abandoning any burst in flight as a typed
    /// loss); every sighting re-sends the RESET acknowledgement,
    /// because the previous one may have been eaten by the wire.
    fn on_hello(&mut self, session: u64) {
        self.stats.hellos += 1;
        if self.session != Some(session) {
            self.session = Some(session);
            self.seq = SeqTracker::new();
            self.ctl_queue.clear();
            if let Some(g) = &mut self.grantor {
                g.reset();
            }
            // A fresh receiver has no stream history to abandon and
            // must keep its absolute position at zero, or a clean
            // handshake would already desync burst positions from a
            // direct-push reference.
            if self.stats.frames_ok > 0 {
                if let Err(e) = self.rx.notify_gap(self.nominal_chunk.max(1)) {
                    self.stats.phy_errors += 1;
                    self.pending.push_back(LinkEvent::Phy(e));
                }
            }
        }
        self.send_control(ControlMsg::Reset { session });
        self.flush_control();
    }

    /// Folds one decoder event into PHY feeds, stats and pending
    /// link events.
    fn absorb(&mut self, ev: DecodeEvent) {
        match ev {
            DecodeEvent::Garbage { bytes } => {
                self.stats.resync_bytes += bytes as u64;
                self.pending
                    .push_back(LinkEvent::Fault(LinkFault::Garbage { bytes }));
            }
            DecodeEvent::BadCrc { .. } => {
                self.stats.crc_errors += 1;
                self.pending.push_back(LinkEvent::Fault(LinkFault::BadCrc));
            }
            DecodeEvent::Control(frame) => {
                self.stats.control_frames += 1;
                match frame.msg {
                    ControlMsg::Hello { session } => self.on_hello(session),
                    ControlMsg::Heartbeat { .. } => {
                        self.stats.heartbeats_rcvd += 1;
                    }
                    ControlMsg::Bye { position } => {
                        self.peer_bye = Some(position);
                    }
                    // CREDIT/RESET travel the other way; arriving here
                    // is harmless noise, surfaced but not acted on.
                    ControlMsg::Credit { .. } | ControlMsg::Reset { .. } => {}
                }
                self.pending.push_back(LinkEvent::Control(frame.msg));
            }
            DecodeEvent::Frame(frame) => {
                match self.seq.classify(frame.seq) {
                    SeqStatus::Stale => {
                        self.stats.stale_frames += 1;
                        self.pending.push_back(LinkEvent::Fault(LinkFault::StaleFrame {
                            seq: frame.seq,
                        }));
                        return;
                    }
                    SeqStatus::Gap { missing } => {
                        self.stats.gap_events += 1;
                        self.stats.missing_frames += u64::from(missing);
                        // Estimate the sample hole from the frame
                        // cadence; never zero so the PHY always knows
                        // the stream is discontinuous.
                        let per_frame = self.nominal_chunk.max(frame.samples()).max(1);
                        let missing_samples = missing as usize * per_frame;
                        self.pending.push_back(LinkEvent::Fault(LinkFault::SeqGap {
                            missing_frames: missing,
                            missing_samples,
                        }));
                        if let Err(e) = self.rx.notify_gap(missing_samples) {
                            self.stats.phy_errors += 1;
                            self.pending.push_back(LinkEvent::Phy(e));
                        }
                        // The lost frames spent the sender's credit;
                        // refund them or the window leaks shut.
                        self.credit_delivered(missing_samples as u64);
                    }
                    SeqStatus::InOrder => {}
                }
                let expected = self.rx.geometry().n_streams();
                if frame.streams.len() != expected {
                    self.stats.stream_mismatch += 1;
                    self.pending
                        .push_back(LinkEvent::Fault(LinkFault::StreamCountMismatch {
                            expected,
                            got: frame.streams.len(),
                        }));
                    return;
                }
                self.nominal_chunk = frame.samples();
                self.stats.frames_ok += 1;
                self.stats.samples_ok += frame.samples() as u64;
                self.credit_delivered(frame.samples() as u64);
                match self.rx.push_samples(&frame.streams) {
                    Ok(Some(burst)) => {
                        self.stats.bursts += 1;
                        self.pending.push_back(LinkEvent::Burst(burst));
                        self.drain_phy();
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.stats.phy_errors += 1;
                        self.pending.push_back(LinkEvent::Phy(e));
                    }
                }
            }
        }
    }

    /// Drains additional bursts the last chunk completed.
    fn drain_phy(&mut self) {
        loop {
            match self.rx.poll() {
                Ok(Some(burst)) => {
                    self.stats.bursts += 1;
                    self.pending.push_back(LinkEvent::Burst(burst));
                }
                Ok(None) => return,
                Err(e) => {
                    self.stats.phy_errors += 1;
                    self.pending.push_back(LinkEvent::Phy(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::MemoryDuplex;
    use mimo_core::LinkGeometry;

    fn endpoints(chunk: usize, capacity: usize) -> (SampleSender<MemoryDuplex>, SampleReceiver<MemoryDuplex>) {
        let (a, b) = MemoryDuplex::pair(capacity);
        let tx = StreamingTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
        let rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        (
            SampleSender::new(tx, a, chunk).unwrap(),
            SampleReceiver::new(rx, b),
        )
    }

    #[test]
    fn clean_link_delivers_a_burst_end_to_end() {
        let (mut tx, mut rx) = endpoints(160, 1 << 20);
        let payload: Vec<u8> = (0..120).map(|i| (i * 3) as u8).collect();
        tx.transmitter_mut().enqueue(&payload).unwrap();
        let mut bursts = Vec::new();
        while !tx.is_idle() {
            tx.pump().unwrap();
            while let Some(ev) = rx.poll().unwrap() {
                match ev {
                    LinkEvent::Burst(b) => bursts.push(b),
                    other => panic!("clean link produced {other:?}"),
                }
            }
        }
        if let Some(LinkEvent::Burst(b)) = rx.finish() {
            bursts.push(b);
        }
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].result.payload, payload);
        assert_eq!(rx.stats().crc_errors, 0);
        assert_eq!(rx.stats().frames_ok, tx.stats().frames_sent);
    }

    #[test]
    fn backpressure_retries_without_loss_or_duplication() {
        // A ring that holds only one frame: the second of each pump
        // pair parks its frame and retries after the poll drains.
        let (mut tx, mut rx) = endpoints(64, 1100);
        tx.transmitter_mut().enqueue(&[7; 40]).unwrap();
        let mut bursts = 0;
        let mut spins = 0;
        while !tx.is_idle() {
            tx.pump().unwrap();
            tx.pump().unwrap();
            while let Some(ev) = rx.poll().unwrap() {
                if let LinkEvent::Burst(_) = ev {
                    bursts += 1;
                }
            }
            spins += 1;
            assert!(spins < 10_000, "link deadlocked under backpressure");
        }
        while let Some(ev) = rx.poll().unwrap() {
            if let LinkEvent::Burst(_) = ev {
                bursts += 1;
            }
        }
        if let Some(LinkEvent::Burst(_)) = rx.finish() {
            bursts += 1;
        }
        assert_eq!(bursts, 1);
        assert!(tx.stats().backpressure > 0, "test must exercise backpressure");
        assert_eq!(rx.stats().frames_ok, tx.stats().frames_sent);
        assert_eq!(rx.stats().stale_frames, 0);
    }

    #[test]
    fn flow_controlled_link_stalls_and_resumes_on_credit() {
        // Window fits exactly two chunks; the receiver only grants
        // more as it consumes, so the sender must stall at least once
        // if the receiver lags a full window behind.
        let (a, b) = MemoryDuplex::pair(1 << 20);
        let tx_phy = StreamingTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
        let rx_phy = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let mut tx = SampleSender::new(tx_phy, a, 64)
            .unwrap()
            .with_flow_control(128)
            .unwrap();
        let mut rx = SampleReceiver::new(rx_phy, b).with_flow_control(128, 64);
        let payload: Vec<u8> = (0..96).map(|i| (i * 7) as u8).collect();
        tx.transmitter_mut().enqueue(&payload).unwrap();
        // Starve the receiver: pump alone until the window jams shut.
        // Without credit gating the sender would drain the whole
        // burst into the (huge) ring right here.
        let mut spins = 0;
        while tx.stats().credit_stalls == 0 {
            tx.pump().unwrap();
            spins += 1;
            assert!(spins < 10_000, "sender never exhausted its window");
            assert!(!tx.is_idle(), "burst fit inside the window; enlarge the payload");
        }
        assert_eq!(tx.stats().samples_sent, 128, "window must cap the un-granted send run");
        // Now let the receiver drain, grant, and the link finish.
        let mut bursts = Vec::new();
        let mut spins = 0;
        while !tx.is_idle() {
            tx.pump().unwrap();
            while let Some(ev) = rx.poll().unwrap() {
                if let LinkEvent::Burst(b) = ev {
                    bursts.push(b);
                }
            }
            spins += 1;
            assert!(spins < 10_000, "flow-controlled link deadlocked");
        }
        if let Some(LinkEvent::Burst(b)) = rx.finish() {
            bursts.push(b);
        }
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].result.payload, payload);
        assert!(tx.stats().credit_stalls > 0, "window never gated the sender");
        assert!(rx.stats().credits_sent > 0, "receiver never granted");
        assert_eq!(rx.stats().frames_ok, tx.stats().frames_sent);
    }

    #[test]
    fn hello_reset_handshake_gates_data_and_resyncs() {
        let (mut tx, mut rx) = endpoints(64, 1 << 20);
        tx.begin_session(0xFEED).unwrap();
        assert!(!tx.is_established());
        tx.transmitter_mut().enqueue(&[9; 32]).unwrap();
        // Data must stay gated until the RESET comes back.
        assert_eq!(tx.pump().unwrap(), 0);
        let mut saw_hello = false;
        while let Some(ev) = rx.poll().unwrap() {
            if let LinkEvent::Control(ControlMsg::Hello { session }) = ev {
                assert_eq!(session, 0xFEED);
                saw_hello = true;
            }
        }
        assert!(saw_hello);
        assert_eq!(rx.stats().hellos, 1);
        // The RESET reply is on the wire; the next pump absorbs it
        // and opens the data path.
        let mut bursts = 0;
        let mut spins = 0;
        while !tx.is_idle() {
            tx.pump().unwrap();
            while let Some(ev) = rx.poll().unwrap() {
                if let LinkEvent::Burst(_) = ev {
                    bursts += 1;
                }
            }
            spins += 1;
            assert!(spins < 10_000, "handshake never completed");
        }
        if let Some(LinkEvent::Burst(_)) = rx.finish() {
            bursts += 1;
        }
        assert!(tx.is_established());
        assert_eq!(tx.stats().resets_rcvd, 1);
        assert_eq!(bursts, 1);
    }

    #[test]
    fn mid_burst_hello_is_a_typed_loss_then_recovery() {
        // Start a burst, interrupt it with a new session (as a
        // reconnect would), and check the receiver reports a typed
        // gap loss and then decodes the re-sent packet cleanly.
        let (mut tx, mut rx) = endpoints(64, 1 << 20);
        tx.transmitter_mut().enqueue(&[3; 48]).unwrap();
        // Push roughly half the burst.
        for _ in 0..4 {
            tx.pump().unwrap();
        }
        while rx.poll().unwrap().is_some() {}
        assert!(rx.stats().frames_ok > 0, "setup: some data must land");
        // Reconnect: new session abandons the mid-drain burst.
        tx.begin_session(0xD1A1).unwrap();
        tx.transmitter_mut().enqueue(&[5; 48]).unwrap();
        let (mut gaps, mut bursts) = (0, 0);
        let mut spins = 0;
        loop {
            tx.pump().unwrap();
            while let Some(ev) = rx.poll().unwrap() {
                match ev {
                    LinkEvent::Phy(PhyError::StreamGap { .. }) => gaps += 1,
                    LinkEvent::Burst(b) => {
                        assert_eq!(b.result.payload, vec![5; 48]);
                        bursts += 1;
                    }
                    _ => {}
                }
            }
            if tx.is_idle() && bursts > 0 {
                break;
            }
            spins += 1;
            assert!(spins < 10_000, "post-reconnect link never recovered");
        }
        assert_eq!(gaps, 1, "mid-burst HELLO must surface exactly one typed loss");
        assert_eq!(bursts, 1);
        assert_eq!(rx.stats().hellos, 1);
    }

    #[test]
    fn bye_carries_the_final_position() {
        let (mut tx, mut rx) = endpoints(64, 1 << 20);
        tx.transmitter_mut().enqueue(&[1; 16]).unwrap();
        while !tx.is_idle() {
            tx.pump().unwrap();
            while rx.poll().unwrap().is_some() {}
        }
        let sent = tx.stats().samples_sent;
        tx.send_control(ControlMsg::Bye { position: sent }).unwrap();
        while rx.poll().unwrap().is_some() {}
        assert_eq!(rx.peer_final_position(), Some(sent));
        assert_eq!(rx.stats().samples_ok, sent);
    }
}
