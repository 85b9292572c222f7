//! FPGA synthesis-resource model (§V of the paper).
//!
//! The paper's evaluation is a set of Quartus synthesis tables on a
//! Stratix-IV-class device (424,960 ALUTs) plus an achieved 100 MHz
//! clock. This crate is a *calibrated parametric model* of that
//! synthesis: each entity's resource count is a function of the
//! architecture parameters (channels, FFT size, modulation width),
//! anchored so that the paper's configuration (4×4, 16-QAM, 64-point)
//! reproduces Tables 1–4 exactly, and scaling follows the paper's own
//! statements (512-point ⇒ 8× interleaver/IFFT logic and ~8× memory;
//! channel-estimation logic constant versus FFT size).
//!
//! * [`ResourceUsage`] / [`Device`] — the accounting units and the
//!   target device.
//! * [`SynthConfig`] + [`TxEntity`] / [`RxEntity`] — per-entity
//!   parametric resource formulas.
//! * [`SynthesisReport`] — regenerates Table 1/2 (transmitter) and
//!   Table 3/4 (receiver), including the derived §V claims.
//!
//! Timing is not modelled here: each block states its own cycles.
//! The 20-cycle CORDIC element is `mimo_cordic::CORDIC_LATENCY_CYCLES`,
//! the 440-cycle QRD datapath and the channel-estimation total are
//! `mimo_chanest`'s (measured by its clocked `SystolicQrdArray`), the
//! FFT latency is `mimo_fft`'s, and the clock and line rate are
//! `mimo_core`'s `LinkGeometry::clock_hz` and `Mcs::data_rate_bps`.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

mod device;
mod entities;
mod report;
mod resources;

pub use device::Device;
pub use entities::{RxEntity, SynthConfig, TxEntity};
pub use report::{ScalingRow, SynthesisReport};
pub use resources::ResourceUsage;
