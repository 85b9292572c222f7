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
//!   row per call, eight carriers per `i32`/`i64` lane step.
//! * [`PilotPhaseCorrector`] — pilot extraction, de-scrambling,
//!   averaging and common phase correction.
//! * [`TimingCorrector`] — the feed-forward timing (tau) estimator and
//!   the running-adder per-subcarrier correction; its
//!   [`correct_with_phase_in_place`](TimingCorrector::correct_with_phase_in_place)
//!   runs the common-phase and timing de-rotations of a symbol in one
//!   lane pass.

mod equalize;
mod pilots;

pub use equalize::{DetectError, ZfDetector};
pub use pilots::{PilotPhaseCorrector, TimingCorrector};
