//! OFDM framing: subcarrier allocation, cyclic prefix, training
//! sequences and the MIMO preamble schedule.
//!
//! This crate implements the frame structure of the paper's §IV.A:
//!
//! * [`SubcarrierMap`] — data/pilot/guard allocation for 64-point OFDM
//!   (48 data + 4 pilots, 802.11a layout) and its scaled variants up to
//!   512-point (the paper's "for a 512-point OFDM system..." analysis).
//! * [`add_cyclic_prefix`] / [`strip_cyclic_prefix_ref`] and [`CpBuffer`] —
//!   "the last 25% of the OFDM symbol is selected as the cyclic prefix
//!   and must be transmitted first", buffered in a dual-port memory
//!   twice the frame size (Fig 3).
//! * [`preamble`] — STS/LTS generation ("the transmitter is preloaded
//!   with the frequency domain values for the short and long training
//!   sequences") and the staggered MIMO preamble pattern of Fig 2.
//! * [`OfdmModulator`] — one antenna's symbol-level modulation chain
//!   (map → IFFT → CP); [`OfdmDemodulator`] holds the receive side's
//!   FFT core and subcarrier map.
//! * [`SymbolIngest`] — the receive-side per-symbol stage (CP strip +
//!   FFT), consuming whole on-air periods without copying them, shared
//!   by the whole-burst and streaming receivers.
//!
//! Both directions take any number of symbols per call
//! ([`OfdmModulator::modulate_into`], [`SymbolIngest::ingest_periods`])
//! and run them through the lane-parallel FFT in runs of
//! [`mimo_fft::FFT_LANES`], so the lane width stays inside this crate
//! and `mimo_fft`: the transceiver hands over a burst's symbols and
//! never splits them into groups itself. The frame scratch holds at
//! most one run, whatever the burst length.

mod cp;
mod frame;
mod ingest;
pub mod preamble;
mod subcarriers;

pub use cp::{add_cyclic_prefix, add_cyclic_prefix_into, strip_cyclic_prefix_ref, CpBuffer};
pub use frame::{OfdmDemodulator, OfdmModulator};
pub use ingest::SymbolIngest;
pub use subcarriers::{OfdmError, SubcarrierMap};

/// Cyclic-prefix fraction of the FFT size (the paper fixes 25 %).
pub const CP_FRACTION: usize = 4;

/// Supported FFT sizes: the paper's 64-point baseline plus the scaled
/// systems discussed in §V.
pub const SUPPORTED_FFT_SIZES: [usize; 4] = [64, 128, 256, 512];

/// Cyclic-prefix length for a given FFT size (N/4).
pub fn cp_len(fft_size: usize) -> usize {
    fft_size / CP_FRACTION
}

/// Samples per OFDM symbol on air (FFT size + cyclic prefix).
pub fn symbol_len(fft_size: usize) -> usize {
    fft_size + cp_len(fft_size)
}
