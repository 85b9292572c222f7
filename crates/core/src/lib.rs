//! The 4×4 MIMO-OFDM baseband transceiver — the paper's primary
//! contribution, assembled from the subsystem crates and redesigned
//! around a **rate-agile control plane**: the rate is a property of
//! each burst, not of the transceiver.
//!
//! # The rate-agile API
//!
//! * [`LinkGeometry`] — the **static** link parameters (FFT size and
//!   processing options; the four spatial streams and the paper's
//!   100 MHz clock are fixed). Transmitters, receivers and pipelines
//!   are built from this alone.
//! * [`Mcs`] — the typed modulation-and-coding table (BPSK r=1/2
//!   through 64-QAM r=3/4) the SIGNAL-field rate index selects, with
//!   [`Mcs::data_rate_bps`]/[`Mcs::bits_per_symbol`] derived methods.
//! * [`BurstParams`] — the **per-burst** parameters (MCS + payload
//!   length), carried over the air in the SIGNAL-field frame header
//!   (see [`signal`]): stream 0's first data symbol(s), always at the
//!   most robust MCS, holding the rate index, payload length and a
//!   CRC-8.
//! * [`PhyConfig`] — the original monolithic view (geometry + default
//!   rate), kept as a thin wrapper so single-rate callers and the
//!   paper's named operating points
//!   ([`PhyConfig::paper_synthesis`], [`PhyConfig::gigabit`]) keep
//!   working unchanged.
//!
//! Transmission picks a rate per burst
//! ([`MimoTransmitter::transmit_burst_with`]); reception needs no rate
//! at all — [`MimoReceiver::receive_burst`] parses the SIGNAL field
//! before payload decode, so a receiver built from [`LinkGeometry`]
//! recovers bursts **with no prior knowledge of the TX rate**, and a
//! corrupted header surfaces as a typed [`PhyError::HeaderCrc`] /
//! [`PhyError::UnsupportedMcs`] instead of garbage payload.
//!
//! # The chains
//!
//! * [`MimoTransmitter`] — Fig 1: scramble → convolutional encode →
//!   one gather through the rate's bit map (puncturing and
//!   interleaving fused, the table the receiver scatters through) →
//!   map → IFFT → cyclic prefix, ×4 channels, plus the Fig 2
//!   staggered preamble and the SIGNAL header.
//! * [`MimoReceiver`] — Fig 5: time sync → FFT ×4 → channel estimate
//!   (QRD pipeline) → SIGNAL parse → zero-forcing detect → pilot
//!   phase/timing correct → demap → deinterleave → Viterbi, ×4
//!   channels at the announced rate.
//! * [`StreamingReceiver`] — the chunk-driven receiver core:
//!   [`StreamingReceiver::push_samples`] consumes arbitrary-size
//!   sample chunks and emits [`ReceivedBurst`]s as they complete,
//!   carrying sync/estimate/per-symbol state across chunk boundaries;
//!   [`StreamingReceiver::notify_gap`] absorbs sample-stream
//!   discontinuities (lost transport frames) by re-arming, surfacing
//!   an interrupted burst as a typed [`PhyError::StreamGap`].
//! * [`StreamingTransmitter`] — the TX dual: a packet queue drained
//!   as paced per-antenna chunks ([`StreamingTransmitter::pull_into`]),
//!   bit-identical to concatenated batch bursts; pair it with the
//!   `mimo_transport` crate to carry the chunks over framed links
//!   (rings, files, sockets) with CRC, sequencing and fault recovery.
//! * [`BurstPipeline`] — batch receiver: the calling thread and a
//!   scoped crew of helpers claim whole bursts by index, each member
//!   decoding on its own recycled workspace against one shared set of
//!   receiver tables; batches may freely mix rates.
//! * [`LinkSimulation`] — end-to-end BER/PER measurement harness, with
//!   [`LinkSimulation::run_adaptive`] driving the closed
//!   TX → channel → RX → controller loop.
//! * [`adapt`] — closed-loop link adaptation: every receiver reports a
//!   per-burst [`ChannelQuality`] (aggregate **and per-stream** EVM +
//!   mean pilot phase, floored at [`EVM_FLOOR_DB`]), and the
//!   EVM-driven [`RateController`] feeds it back into
//!   [`MimoTransmitter::transmit_burst_with`] to pick each burst's
//!   rate — the control loop the SIGNAL field exists for.
//!
//! # One streaming datapath: acquisition plus one burst decoder
//!
//! The paper's receiver is a streaming pipeline — samples flow through
//! sync, FFT, detection and decoding continuously; whole-burst buffers
//! are a software artifact. The crate is organized accordingly: every
//! receive mode is its own acquisition plus one shared burst decoder.
//!
//! * Burst acquisition is where the modes really differ. The
//!   chunk-driven [`SyncTracker`](mimo_sync::SyncTracker) (online
//!   coarse STS plateau → fine 32-tap correlator window) serves the
//!   streaming receiver; a stored capture runs the same coarse
//!   detector through [`coarse_sts_end`](mimo_sync::coarse_sts_end),
//!   then the fine window, and falls back to a whole-capture scan when
//!   no plateau shows.
//! * After acquisition one crate-private decoder advances a burst over
//!   whatever samples are buffered: channel estimation once the four
//!   LTS fields are in, the SIGNAL field once the first payload symbol
//!   is, then every whole payload symbol through
//!   [`SymbolIngest`](mimo_ofdm::SymbolIngest) (CP strip + FFT of all
//!   the symbols at hand in one call) and the per-symbol core
//!   (detection → pilot corrections → demap → de-interleave), and
//!   finally per-stream Viterbi and round-robin reassembly at the
//!   announced length.
//!
//! [`MimoReceiver::receive_burst`] runs the decoder once over a stored
//! capture, fanned out on the host's CPUs; [`BurstPipeline`] runs it on
//! whole bursts side by side, one workspace per crew member;
//! [`StreamingReceiver`] runs it again on each chunk, and its end of
//! stream ([`StreamingReceiver::flush`]) turns a shortfall into
//! [`PhyError::TruncatedBurst`] as a stored capture does. Because the
//! decoder exists once, the three modes are **bit-identical by
//! construction**, down to the fields of the error they return —
//! enforced for every MCS row and chunk sizes {1, prime, symbol,
//! whole-burst} (including preambles straddling chunk boundaries and
//! back-to-back bursts) by `tests/streaming_rx.rs`, and for every cut
//! of a burst by `tests/rx_robustness.rs`.
//!
//! # Workspace + parallelism architecture
//!
//! The paper's 1 Gbps headline comes from four baseband channels
//! running in true hardware parallelism, each with its own fixed-size
//! memories. This crate mirrors both properties in software:
//!
//! * **Plain endpoint state, no locks.** Every endpoint is immutable
//!   tables plus scratch owned by whoever runs the channel. Receivers
//!   own workspaces sized from [`LinkGeometry`] at the **max-MCS
//!   envelope** (64-QAM's N_CBPS) and keep them across bursts; the
//!   transmitter holds only tables, so
//!   [`MimoTransmitter::transmit_burst_with`] takes `&self` and builds
//!   one scratch set per channel for each burst, as it builds the
//!   burst's output streams. No endpoint holds a lock.
//! * **Zero-allocation hot paths at every rate.** Per-burst rate
//!   reconfiguration is an index into a prebuilt bank of datapath kits
//!   (mapper LUT, demapper thresholds, fused interleaving/puncturing
//!   bit map — one per [`Mcs`] row, the software analogue of the hardware holding
//!   every LUT and multiplexing on the rate field). Every per-symbol
//!   stage calls the subsystem crates' in-place `_into` APIs, so the
//!   per-symbol payload loops of `transmit_burst_with` /
//!   `receive_burst` perform no heap allocation at any MCS;
//!   burst-length-dependent receive buffers grow once per burst and
//!   keep their capacity.
//! * **One thread primitive.** Both schedules below run on one scoped
//!   crew, the only code in this crate that starts a thread: the
//!   calling thread is member 0, each other member runs on a scoped
//!   helper, and a crew of one is the serial schedule, with no thread
//!   started.
//! * **Per-channel fan-out.** The transmitter's four channel pipelines
//!   and the receiver's two stages — per-antenna FFT + carrier gather,
//!   then per-stream zero-forcing detection (row `k` of `H⁻¹·r`),
//!   pilot corrections, demap, de-interleave and Viterbi — split their
//!   channel workspaces into contiguous runs, one per crew member.
//!   The crew is as wide as the host has CPUs when
//!   [`PhyConfig::parallelism`] is on (a run-time choice, see
//!   [`PhyConfig::with_parallelism`]; the default is on exactly when
//!   `std::thread::available_parallelism()` reports more than one
//!   CPU), and a crew of one otherwise. The SIGNAL field is ingested
//!   and parsed on the caller before the receive stages. Each output
//!   cell is computed by exactly one member in a fixed order, so every
//!   crew width is **bit-identical** (asserted by the
//!   `parallel_determinism` integration suite).
//! * **Batch-of-bursts parallelism.** [`BurstPipeline`] runs one crew
//!   member per CPU, each on its own recycled receive workspace; members
//!   claim whole bursts and decode each with a fan-out of width one.
//!   It decodes mixed-rate batches and is bit-identical to
//!   `receive_burst` for every worker count (asserted by the
//!   `burst_pipeline` and `signal_field` suites).
//!
//! End-to-end throughput and per-stage times are measured by the
//! repository benchmark in `perfbench/` (workload `gigabit_bulk` for
//! the per-channel fan-out, `mixed_short_awgn` for [`BurstPipeline`]).
//!
//! # Examples
//!
//! Two bursts at different rates through one rate-agnostic receiver:
//!
//! ```
//! use mimo_core::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig};
//! use mimo_channel::{ChannelModel, IdealChannel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
//! let mut rx = MimoReceiver::from_geometry(LinkGeometry::mimo())?;
//! let payload: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
//!
//! for mcs in [Mcs::Qpsk12, Mcs::Qam64R34] {
//!     let burst = tx.transmit_burst_with(mcs, &payload)?;
//!     let received = IdealChannel::new(4).propagate(&burst.streams);
//!     let decoded = rx.receive_burst(&received)?;
//!     assert_eq!(decoded.payload, payload);
//!     assert_eq!(decoded.diagnostics.mcs, mcs);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The same burst recovered from a live sample stream, one ragged
//! chunk at a time — no capture buffer, bit-identical result:
//!
//! ```
//! use mimo_core::{LinkGeometry, MimoTransmitter, PhyConfig, StreamingReceiver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
//! let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo())?;
//! let payload: Vec<u8> = (0..64).map(|i| i as u8).collect();
//! let burst = tx.transmit_burst(&payload)?;
//!
//! let (len, mut at, mut found) = (burst.streams[0].len(), 0, None);
//! while at < len {
//!     let end = (at + 160).min(len); // e.g. a 160-sample DMA drain
//!     let chunks: Vec<&[_]> = burst.streams.iter().map(|s| &s[at..end]).collect();
//!     if let Some(b) = rx.push_samples(&chunks)? {
//!         found = Some(b);
//!     }
//!     at = end;
//! }
//! assert_eq!(found.unwrap().result.payload, payload);
//! # Ok(())
//! # }
//! ```
//!
//! Two endpoints over a real socket: the streaming transmitter pacing
//! framed chunks into one end of a Unix socket pair, the streaming
//! receiver decoding them out of the other (the `mimo_transport`
//! crate adds CRC framing, sequence tracking and fault recovery in
//! between — a lost frame surfaces as a typed event, not a panic):
//!
//! ```
//! use mimo_core::{LinkGeometry, Mcs, StreamingReceiver, StreamingTransmitter};
//! use mimo_transport::{LinkEvent, SampleReceiver, SampleSender, StreamCarrier};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (near, far) = std::os::unix::net::UnixStream::pair()?;
//! let mut sender = SampleSender::new(
//!     StreamingTransmitter::from_geometry(LinkGeometry::mimo())?,
//!     StreamCarrier::unix(near)?,
//!     160, // samples per frame — the pacing quantum
//! )?;
//! let mut receiver = SampleReceiver::new(
//!     StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
//!     StreamCarrier::unix(far)?,
//! );
//!
//! let payload: Vec<u8> = (0..96).map(|i| (i * 5) as u8).collect();
//! sender.transmitter_mut().enqueue_with(Mcs::Qam16R12, &payload)?;
//!
//! let mut decoded = Vec::new();
//! while !sender.is_idle() {
//!     sender.pump()?; // frame → socket
//!     while let Some(event) = receiver.poll()? {
//!         if let LinkEvent::Burst(b) = event {
//!             decoded.push(b.result.payload);
//!         }
//!     }
//! }
//! if let Some(LinkEvent::Burst(b)) = receiver.finish() {
//!     decoded.push(b.result.payload);
//! }
//! assert_eq!(decoded, vec![payload]);
//! # Ok(())
//! # }
//! ```
//!
//! Closing the rate loop: the receiver's per-burst [`ChannelQuality`]
//! feeds a [`RateController`], and the transmitter sends each burst at
//! whatever rate the controller currently trusts — on a clean link it
//! climbs from BPSK r=1/2 to the 64-QAM r=3/4 headline rate:
//!
//! ```
//! use mimo_core::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, RateController};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
//! let mut controller = RateController::default().with_dwell(1, 1);
//! let mut rx = MimoReceiver::from_geometry(LinkGeometry::mimo())?;
//!
//! let payload: Vec<u8> = (0..128).map(|i| (i * 3) as u8).collect();
//! for _ in 0..8 {
//!     let burst = tx.transmit_burst_with(controller.current(), &payload)?;
//!     let result = rx.receive_burst(&burst.streams)?;
//!     assert_eq!(result.payload, payload);
//!     // Worst-stream EVM drives the next burst's rate (a lossless
//!     // wire reports clean EVM on all four streams, so the loop
//!     // climbs one rung per burst at dwell 1).
//!     controller.update(Some(&result.diagnostics.quality));
//! }
//! assert_eq!(controller.current(), Mcs::Qam64R34);
//! # Ok(())
//! # }
//! ```

pub mod adapt;
mod config;
mod crew;
mod error;
mod link;
mod mcs;
mod pipeline;
mod rates;
mod rx;
pub mod signal;
mod stream;
mod tx;
mod txstream;
mod workspace;

pub use adapt::{RateController, RateThresholds};
pub use config::{LinkGeometry, PhyConfig};
pub use error::PhyError;
pub use link::{AdaptiveBurstRecord, AdaptiveTrace, BerPoint, LinkSimulation};
pub use mcs::{BurstParams, Mcs};
pub use pipeline::{BurstPipeline, BurstStreams};
pub use rx::{ChannelQuality, MimoReceiver, RxDiagnostics, RxResult, EVM_FLOOR_DB};
pub use stream::{ReceivedBurst, StreamingReceiver};
pub use tx::{MimoTransmitter, TxBurst};
pub use txstream::StreamingTransmitter;
