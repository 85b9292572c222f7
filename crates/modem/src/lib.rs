//! Symbol mapping and demapping (BPSK, QPSK, 16-QAM, 64-QAM).
//!
//! On the transmitter "the symbol mapper is a simple look up memory.
//! The address of this memory is the output of the block interleaver
//! ... Each address of the symbol mapper LUT contains the corresponding
//! I and Q values that represent the constellation location" (§IV.A).
//! On the receiver "the symbol demapper is implemented using a
//! decoder-multiplexer structure \[and\] can be set up to perform hard or
//! soft symbol demapping" (§IV.B).
//!
//! * [`Modulation`] — the four schemes with 802.11a Gray mapping and
//!   power normalization.
//! * [`SymbolMapper`] — the LUT model; [`SymbolMapper::lut`] exposes
//!   the exact ROM contents for the FPGA memory-bit accounting.
//! * [`SymbolDemapper`] — threshold-based hard slicing (the
//!   decoder-mux) and max-log piecewise-linear soft LLRs.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

mod demapper;
mod mapper;
mod modulation;

pub use demapper::SymbolDemapper;
pub use mapper::{ModemError, SymbolMapper};
pub use modulation::Modulation;

/// Default full-scale backoff applied to constellation points so the
/// largest 64-QAM coordinate (7/√42 ≈ 1.08) fits the Q1.15 bus with
/// headroom. All four schemes share it so relative powers are
/// standard-conformant.
pub const CONSTELLATION_SCALE: f64 = 0.5;
