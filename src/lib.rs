//! # mimo-baseband
//!
//! A 1 Gbps 4×4 MIMO-OFDM wireless baseband transceiver in Rust — a
//! functional and cycle-level reproduction of *"An FPGA 1Gbps Wireless
//! Baseband MIMO Transceiver"* (Toal et al., SOCC 2012).
//!
//! This facade crate re-exports every subsystem crate in the workspace
//! under one roof. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-versus-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use mimo_baseband::phy::{PhyConfig, MimoTransmitter, MimoReceiver};
//! use mimo_baseband::channel::{ChannelModel, IdealChannel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PhyConfig::paper_synthesis(); // 4x4, 16-QAM, 64-pt, r=1/2
//! let tx = MimoTransmitter::new(cfg.clone())?;
//! let mut rx = MimoReceiver::new(cfg)?;
//!
//! let payload: Vec<u8> = (0..64).map(|i| i as u8).collect();
//! let burst = tx.transmit_burst(&payload)?;
//! let mut chan = IdealChannel::new(4);
//! let received = chan.propagate(&burst.streams);
//! let decoded = rx.receive_burst(&received)?;
//! assert_eq!(decoded.payload, payload);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: a supervised streaming link
//!
//! For samples that cross a real wire, wrap the streaming endpoints
//! in the transport layer's supervised links: CRC-framed chunks,
//! credit-based flow control, HELLO/RESET session handshake,
//! heartbeats and a reconnecting watchdog.
//!
//! ```
//! use std::time::Duration;
//! use mimo_baseband::phy::{
//!     LinkGeometry, Mcs, PhyConfig, StreamingReceiver, StreamingTransmitter,
//! };
//! use mimo_baseband::transport::{
//!     LinkEvent, MemoryDuplex, SampleReceiver, SampleSender,
//!     SupervisedReceiver, SupervisedSender, SupervisorConfig, TransportError,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (near, far) = MemoryDuplex::pair(1 << 20);
//! let link_tx = SampleSender::new(
//!     StreamingTransmitter::new(PhyConfig::paper_synthesis())?
//!         .with_queue_capacity(4),          // bounded: QueueFull, not OOM
//!     near,
//!     160,                                  // samples per wire frame
//! )?
//! .with_flow_control(1024)?;                // stop when credit runs out
//! let link_rx = SampleReceiver::new(
//!     StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
//!     far,
//! )
//! .with_flow_control(1024, 256);            // grant credit as we consume
//!
//! // The in-memory wire cannot be re-dialled; over TCP the closures
//! // would reconnect/re-accept after an outage.
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
//! let payload: Vec<u8> = (0..96).map(|i| i as u8).collect();
//! tx.link_mut().transmitter_mut().enqueue_with(Mcs::Qam16R12, &payload)?;
//!
//! let mut decoded = Vec::new();
//! for tick in 1..=200u32 {                  // logical clock drives liveness
//!     let now = Duration::from_millis(tick as u64);
//!     tx.step(now)?;
//!     while let Some(ev) = rx.step(now)? {
//!         if let LinkEvent::Burst(b) = ev {
//!             decoded.push(b.result.payload);
//!         }
//!     }
//!     if tx.link().is_idle() && !decoded.is_empty() {
//!         break;
//!     }
//! }
//! assert_eq!(decoded, vec![payload]);
//! assert!(tx.link().is_established());     // HELLO/RESET completed
//! # Ok(())
//! # }
//! ```
//!
//! ## Kernel and schedule selection
//!
//! The crate has no cargo features: every build carries the same code,
//! and both choices below are made at run time.
//!
//! * **Viterbi kernel tier.** Two tiers, like every other lane kernel:
//!   the `i16` lane tier, a whole block's forward pass on sixteen-bit
//!   wrapping metrics for the K=7 rate-1/2 code (AVX-512BW, AVX2 or a
//!   portable lane body: the build of the decoder's [`fixed::Isa`]
//!   tier), which every burst decode takes because every demapper
//!   output and hard decision fits its LLR bound; and the `i64` scalar reference kernel, the oracle
//!   and the fallback for any other code or LLR magnitude. Both are
//!   decode-for-decode bit-identical; [`coding::ViterbiKernel`] pins
//!   the scalar one for differential runs through
//!   [`coding::ViterbiDecoder::decode_terminated_with`].
//! * **Channel fan-out.** [`phy::PhyConfig::with_parallelism`] splits
//!   the four spatial channels across a crew with one member per host
//!   CPU, the calling thread included (auto: on exactly when the host
//!   has more than one CPU); `with_parallelism(false)` is a crew of
//!   one, the caller alone, and stays bit-identical.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]
pub use mimo_fixed as fixed;

/// CORDIC rotation/vectoring engines with the paper's 20-cycle pipeline.
pub use mimo_cordic as cordic;

/// Fixed-point FFT/IFFT plus the float reference transform.
pub use mimo_fft as fft;

/// Convolutional encoder, puncturing, Viterbi decoder, scrambler.
pub use mimo_coding as coding;

/// 802.11a block interleaver / deinterleaver and the fused receive scatter.
pub use mimo_interleave as interleave;

/// Symbol mapper / demapper (BPSK … 64-QAM, hard and soft).
pub use mimo_modem as modem;

/// OFDM framing: subcarrier maps, cyclic prefix, STS/LTS, preamble.
pub use mimo_ofdm as ofdm;

/// Time synchroniser (32-tap correlator + CORDIC magnitude).
pub use mimo_sync as sync;

/// Channel estimation: CORDIC systolic QRD, R-inverse, H⁻¹ pipeline.
pub use mimo_chanest as chanest;

/// MIMO zero-forcing detection, pilot phase and timing correction.
pub use mimo_detect as detect;

/// Channel simulator: AWGN, Rayleigh 4×4, CFO, timing offset, ADC.
pub use mimo_channel as channel;

/// FPGA synthesis-resource and timing model (Tables 1–4, 1 Gbps).
pub use mimo_fpga as fpga;

/// The transceiver itself: TX/RX chains, burst format, link harness.
pub use mimo_core as phy;

/// Fault-tolerant framed sample transport: chunk codec, carriers,
/// deterministic fault injection, linked streaming endpoints, plus
/// the supervised link layer — credit-based flow control, HELLO/RESET
/// sessions, heartbeat/watchdog liveness and reconnect-with-backoff.
pub use mimo_transport as transport;
