//! MIMO detection and post-equalization correction (§IV.B).
//!
//! After channel estimation completes, "OFDM data is read out of the
//! four channel FIFOs. The corresponding channel estimation matrix is
//! read out ... The OFDM data and the channel estimation data are
//! multiplied together in the form of a matrix multiplication. This
//! multiplication results in the equalized OFDM data."
//!
//! * [`ZfDetector`] — the per-subcarrier `y = H⁻¹·r` zero-forcing
//!   MIMO decoder (the "MIMO decoder" entity of Table 4), one stream
//!   row per call, eight carriers per `i32`/`i64` lane step, reading
//!   `H⁻¹` from the burst's [`ZfTable`].
//! * [`PilotPhaseCorrector`] — pilot extraction, de-scrambling,
//!   averaging and common phase correction.
//! * [`TimingCorrector`] — the feed-forward timing (tau) estimator and
//!   the running-adder per-subcarrier correction; its
//!   [`correct_bus_in_place`](TimingCorrector::correct_bus_in_place)
//!   runs the common-phase and timing de-rotations of a symbol in one
//!   lane pass.
//! * [`small_angle_correct`] — the paper's small-angle timing
//!   shortcut, a model for the ablation study.
//!
//! The receiver's per-symbol core calls the bus-word lane entries
//! ([`ZfDetector::detect_bus`],
//! [`TimingCorrector::correct_bus_in_place`]) on symbols held as
//! [`mimo_fixed::BusLanes`]. The `CQ15` entries are their oracles and
//! the stage-by-stage replay's calls:
//! [`ZfDetector::detect_stream_into`] stages each lane group onto the
//! same ZF kernel, and the two `correct_in_place` passes give the bits
//! the one-pass de-rotation must equal.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

mod equalize;
mod pilots;

pub use equalize::{DetectError, ZfDetector, ZfTable};
pub use pilots::{small_angle_correct, PilotPhaseCorrector, TimingCorrector};
