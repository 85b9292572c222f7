//! Fault-tolerant sample transport for the streaming PHY.
//!
//! The paper's transceiver moves Q1.15 baseband samples between
//! modules over real serial links (the JESD204A converter interfaces
//! and the inter-board transports of FPGA base-station platforms).
//! Real links are hostile: frames get dropped, truncated, bit-flipped,
//! duplicated and stalled — and peers get slow, die silently, and come
//! back. This crate is the digital link layer that lets the software
//! PHY survive all of that:
//!
//! * [`frame`] — the chunk codec: per-antenna CQ15 chunks as
//!   magic + sequence + geometry + i16 sample payload + CRC-32
//!   frames, with a resynchronising [`FrameDecoder`] that can never
//!   be wedged by garbage, plus the fixed-length control frames of
//!   [`ControlMsg`].
//! * [`SeqTracker`] — wrapping sequence-number accounting: gaps,
//!   duplicates, late (reordered) frames.
//! * [`Carrier`] implementations — bounded in-memory duplex pairs
//!   ([`MemoryDuplex`]) and non-blocking Unix/TCP sockets
//!   ([`StreamCarrier`]).
//! * [`FaultInjector`] — seeded, deterministic frame-level fault
//!   injection over any carrier, driven by
//!   [`mimo_channel::FaultSchedule`].
//! * [`SampleSender`] / [`SampleReceiver`] — the linked endpoints:
//!   a paced [`StreamingTransmitter`](mimo_core::StreamingTransmitter)
//!   behind framing and backpressure on one side; on the other, a
//!   [`StreamingReceiver`](mimo_core::StreamingReceiver) that turns
//!   every link fault into a typed [`LinkEvent`] plus a counter in
//!   [`LinkStats`], tells the PHY about sample gaps so it re-arms
//!   mid-burst, and keeps decoding.
//! * [`flow`] — credit/window flow control ([`CreditWindow`] /
//!   [`CreditGrantor`]): a slow receiver bounds a fast sender's
//!   memory end-to-end.
//! * [`supervisor`] — [`SupervisedSender`] / [`SupervisedReceiver`]:
//!   heartbeats, a peer-death watchdog, and reconnect with capped
//!   exponential backoff over a HELLO/RESET session handshake.
//!
//! # Wire format
//!
//! Two frame kinds share the carrier, both opened by the 4-byte magic
//! `"CQ15"` and sealed by CRC-32 (IEEE) over everything after the
//! magic. The byte at offset 8 dispatches: data frames put a stream
//! count `1..=8` there, control frames a tag in `0xC1..=0xC5` — the
//! ranges are disjoint, so neither kind can parse as the other.
//!
//! **Data frame** (variable length):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `"CQ15"` |
//! | 4      | 4    | sequence number, u32 LE |
//! | 8      | 1    | stream count `1..=8` |
//! | 9      | 2    | samples per stream, u16 LE |
//! | 11     | 4·n·s| payload: per-stream i16 LE (I,Q) pairs |
//! | …      | 4    | CRC-32, u32 LE |
//!
//! **Control frame** (fixed 21 bytes):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `"CQ15"` |
//! | 4      | 4    | sequence number, u32 LE |
//! | 8      | 1    | type: CREDIT `0xC1`, HEARTBEAT `0xC2`, HELLO `0xC3`, RESET `0xC4`, BYE `0xC5` |
//! | 9      | 8    | value, u64 LE (cumulative grant / position / session nonce) |
//! | 17     | 4    | CRC-32, u32 LE |
//!
//! # Flow control and liveness
//!
//! Every control value is **cumulative**, so the control plane is
//! self-healing under the same faults as the data plane (a lost
//! CREDIT is subsumed by the next; a duplicated HELLO re-elicits an
//! idempotent RESET):
//!
//! 1. **Credits** ([`flow`]): the receiver counts consumed samples —
//!    decoded frames and sequence-gap estimates alike — and
//!    periodically announces `delivered + window` as a CREDIT. The
//!    sender stops pulling from its (bounded) transmitter queue when
//!    `grant − sent` cannot fit one pacing chunk. Memory is bounded
//!    end-to-end: transmitter queue ≤ its configured capacity,
//!    samples in flight ≤ the window.
//! 2. **Heartbeats + watchdog** ([`supervisor`]): each supervised
//!    endpoint emits HEARTBEAT (carrying its position) after a quiet
//!    `heartbeat_interval`; hearing nothing at all for
//!    `watchdog_timeout` declares the peer dead.
//! 3. **Sessions**: a (re)connecting sender HELLOs with a fresh
//!    nonce and gates data until the RESET echo. The receiver's
//!    HELLO handler turns any burst in flight into a typed loss
//!    (via `notify_gap`), rewinds its sequence tracker and credit
//!    grantor, and acknowledges. BYE carries the final position for
//!    end-of-run ledger cross-checks.
//!
//! # Examples
//!
//! A full duplex hop over an in-memory link, with a drop fault the
//! receiver heals from:
//!
//! ```
//! use mimo_channel::{FaultLottery, FaultSchedule};
//! use mimo_core::{LinkGeometry, StreamingReceiver, StreamingTransmitter};
//! use mimo_transport::{
//!     FaultInjector, LinkEvent, MemoryDuplex, SampleReceiver, SampleSender,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (wire_tx, wire_rx) = MemoryDuplex::pair(1 << 20);
//! // Fault the sender's side of the wire: ~30% of frames vanish.
//! let faulty = FaultInjector::new(
//!     wire_tx,
//!     FaultLottery::new(FaultSchedule { drop: 0.3, ..FaultSchedule::clean() }, 0xBAD),
//! );
//! let mut tx = SampleSender::new(
//!     StreamingTransmitter::from_geometry(LinkGeometry::mimo())?,
//!     faulty,
//!     160,
//! )?;
//! let mut rx = SampleReceiver::new(
//!     StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
//!     wire_rx,
//! );
//!
//! for burst in 0u8..4 {
//!     tx.transmitter_mut().enqueue(&[burst; 64])?;
//! }
//! let (mut decoded, mut healed) = (0, 0);
//! while !tx.is_idle() {
//!     tx.pump()?;
//!     while let Some(event) = rx.poll()? {
//!         match event {
//!             LinkEvent::Burst(_) => decoded += 1,
//!             LinkEvent::Phy(_) => healed += 1, // re-armed, kept going
//!             _ => {}                           // accounted in stats
//!         }
//!     }
//! }
//! if let Some(LinkEvent::Burst(_)) = rx.finish() {
//!     decoded += 1;
//! }
//! // Some bursts died to dropped frames, but the link never wedged:
//! // every loss is accounted and decoding continues after each one.
//! assert!(rx.stats().gap_events > 0 || decoded == 4);
//! let _ = healed; // gaps mid-burst surface here as typed PhyErrors
//! assert_eq!(rx.stats().bursts as usize, decoded);
//! # Ok(())
//! # }
//! ```
//!
//! The same link under supervision — flow-controlled, heartbeat-kept,
//! driven on a logical clock:
//!
//! ```
//! use std::time::Duration;
//! use mimo_core::{LinkGeometry, StreamingReceiver, StreamingTransmitter};
//! use mimo_transport::{
//!     LinkEvent, MemoryDuplex, SampleReceiver, SampleSender,
//!     SupervisedReceiver, SupervisedSender, SupervisorConfig, TransportError,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (wire_tx, wire_rx) = MemoryDuplex::pair(1 << 20);
//! let link_tx = SampleSender::new(
//!     StreamingTransmitter::from_geometry(LinkGeometry::mimo())?,
//!     wire_tx,
//!     160,
//! )?
//! .with_flow_control(1024)?;
//! let link_rx = SampleReceiver::new(
//!     StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
//!     wire_rx,
//! )
//! .with_flow_control(1024, 256);
//! // Dial/accept closures supply fresh carriers on reconnect; this
//! // in-memory wire cannot be re-dialled, so dialling just fails.
//! let mut tx = SupervisedSender::new(
//!     link_tx,
//!     SupervisorConfig::default(),
//!     Box::new(|| Err(TransportError::Closed)),
//! )?;
//! let mut rx = SupervisedReceiver::new(
//!     link_rx,
//!     SupervisorConfig::default(),
//!     Box::new(|| Ok(None)),
//! );
//!
//! tx.link_mut().transmitter_mut().enqueue(&[0xA5; 64])?;
//! let mut decoded = 0;
//! for tick in 0..200u64 {
//!     let now = Duration::from_millis(tick); // logical clock
//!     tx.step(now)?;
//!     while let Some(event) = rx.step(now)? {
//!         if let LinkEvent::Burst(_) = event {
//!             decoded += 1;
//!         }
//!     }
//! }
//! assert_eq!(decoded, 1);
//! assert!(tx.link().is_established()); // HELLO/RESET handshake done
//! assert_eq!(tx.stats().watchdog_trips + rx.stats().watchdog_trips, 0);
//! # Ok(())
//! # }
//! ```

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod carrier;
mod error;
pub mod flow;
pub mod frame;
mod inject;
mod link;
pub mod supervisor;
mod seq;

pub use carrier::{Carrier, MemoryDuplex, StreamCarrier};
pub use error::TransportError;
pub use flow::{CreditGrantor, CreditWindow};
pub use frame::{
    crc32, crc32_with, encode_control, encode_frame, frame_len, ControlFrame, ControlMsg,
    DecodeEvent, FrameDecoder, SampleFrame, BYTES_PER_SAMPLE, CONTROL_FRAME_LEN, HEADER_LEN,
    MAGIC, MAX_FRAME_SAMPLES, MAX_STREAMS,
};
pub use inject::{FaultCounts, FaultInjector};
pub use link::{LinkEvent, LinkFault, LinkStats, SampleReceiver, SampleSender, SenderStats};
pub use seq::{SeqStatus, SeqTracker};
pub use supervisor::{
    SupervisedReceiver, SupervisedSender, SupervisorConfig, SupervisorEvent, SupervisorStats,
};
