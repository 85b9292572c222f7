//! The time synchroniser (Fig 4 of the paper).
//!
//! "The time synchronizer must locate the end of the STS frame and the
//! start of the LTS frame. The circuit is preloaded with the complex
//! conjugate values of the last 16 STS symbols and the first 16 LTS
//! symbols. ... Every clock cycle, a sliding window of 32 consecutive
//! data samples are multiplied with the 32 pre-stored preamble values
//! and summed. 32 parallel complex multipliers are required along with
//! a pipelined adder structure. The magnitude of the resulting complex
//! value is calculated \[by\] a CORDIC block ... The CORDIC output is
//! compared with a stored threshold value. ... The time synchronizer is
//! implemented on the FPGA using 128 18-bit multipliers." (§IV.B)
//!
//! [`TimeSynchronizer`] is the streaming model: push one sample per
//! clock; a [`SyncEvent`] fires when the correlation magnitude crosses
//! the threshold, carrying the located LTS start. [`CircularBuffer`]
//! models the input buffer "large enough to handle time synchronizer
//! latency".
//!
//! Burst acquisition in front of the correlator is chunk-driven:
//! [`CoarseTracker`] is the online lag-16 STS plateau detector
//! (gain-invariant, all antennas combined) and [`SyncTracker`]
//! composes it with the fine cross-correlator into a
//! consume-any-chunk-size state machine. The whole-capture entry point
//! [`CoarseTracker::scan`] (and [`coarse_sts_end`], its allocating
//! wrapper) runs the same tracker, so batch and streaming receivers
//! share one acquisition implementation with bit-identical results.
//!
//! # Lane scan
//!
//! [`TimeSynchronizer::scan_peak_window`] and
//! [`TimeSynchronizer::scan_peak`] (and through them [`SyncTracker`]'s
//! fine stage) correlate eight candidate positions per step, the
//! software counterpart of the paper's 32 parallel multipliers: the
//! window's samples are widened onto `i32` lanes, each of the 32 tap
//! products is rounded exactly as `Fx::mul` rounds it, the sums are
//! widened to Q2.16 and [`mimo_cordic::CordicLanes::vector`] takes all
//! eight magnitudes in one call. The best position is then picked in
//! position order, so the first index wins a tie, as before.
//!
//! **Range guard.** The lanes are exact while every tap and sample is
//! on the 16-bit bus: a product is then at most 2³⁰, a window's sum
//! below 2²¹ and its Q2.16 form below 2²², well inside the lane
//! CORDIC's range. Taps off the bus disable the lanes at construction;
//! a chunk of 64 positions that reads a sample off the bus is
//! correlated on the scalar path instead.
//!
//! **Scalar oracle.** The per-window correlator (`i64` words, the
//! scalar CORDIC) stays: it is the clocked [`TimeSynchronizer::push`]
//! model, the fallback of the range guard, and the reference the lane
//! tests compare every build against. Like the other lane kernels, the
//! lane body is written once and built twice, inside an `avx2`
//! target-feature function and plain, with the same bits; the
//! synchroniser runs the one its [`mimo_fixed::Isa`] tier answers for.

mod buffer;
mod coarse;
mod correlator;
mod lanes;
mod tracker;

pub use buffer::CircularBuffer;
pub use coarse::{coarse_sts_end, CoarseSts};
pub use correlator::{SyncEvent, SyncError, TimeSynchronizer};
pub use tracker::{CoarseTracker, SyncTracker};

/// Number of correlator taps (16 STS tail + 16 LTS head samples).
pub const CORRELATOR_TAPS: usize = 32;

/// Default detection threshold as a fraction of the ideal
/// autocorrelation peak.
///
/// The STS is 16-periodic, so while the short training sequence is
/// still in flight the first 16 taps of the correlator match on every
/// period: those partial alignments measure 0.53 of the true peak.
/// The "stored threshold value (representing the final STS to LTS
/// transition peak)" must therefore sit above 0.53 with margin — 0.7
/// rejects both the periodic partials and strong noise (measured max
/// 0.57 of peak at 1.5x preamble amplitude).
pub const DEFAULT_THRESHOLD_FACTOR: f64 = 0.7;

/// Real 18-bit multipliers consumed by the correlator: 32 complex
/// multipliers × 4 real multiplies each — the paper's "128 18-bit
/// multipliers".
pub const CORRELATOR_MULTIPLIERS: usize = 4 * CORRELATOR_TAPS;
