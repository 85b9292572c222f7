//! Channel estimation and matrix inversion — the paper's centerpiece.
//!
//! The receiver (§IV.B) estimates a 4×4 complex channel matrix **per
//! subcarrier** from the staggered LTS preamble, then inverts every one
//! of them:
//!
//! > "Matrix inversion is a computationally intensive calculation and
//! > in order to implement this efficiently, QR decomposition is
//! > performed on the channel matrix before inversion. ... The channel
//! > matrix H is decomposed to a Q matrix and an upper triangle matrix
//! > R using a massive systolic array of CORDIC elements."
//!
//! * [`Mat4`] / [`FxMat4`] — 4×4 complex matrices in `f64` (reference)
//!   and Q2.16 fixed point (datapath).
//! * [`qr_givens_f64`] — double-precision Givens QR, the oracle.
//! * [`CordicQrd`] — the three-angle complex-rotation systolic array
//!   (4 boundary cells × 2 vectoring CORDICs, 6+16 internal cells × 3
//!   rotation CORDICs), functionally bit-accurate; plus the Fig 8
//!   [`QrdScheduler`].
//! * [`SystolicQrdArray`] — the same array clocked cell by cell, the
//!   one measurement of the QRD latency (Experiment F7: 20-cycle
//!   CORDICs → 440-cycle datapath), against the closed form
//!   [`qrd_datapath_latency_cycles`]; [`channel_estimation_latency_cycles`]
//!   composes the whole estimation budget from each block's cycles.
//! * [`invert_upper_triangular`] — the R⁻¹ back-substitution block,
//!   implementing the paper's ten equations verbatim.
//! * [`ChannelEstimator`] — LTS averaging (`+ ÷2`), per-subcarrier H
//!   assembly, and the full H⁻¹ = R⁻¹·Qᵀ pipeline over all carriers.
//!
//! # Lane schedule
//!
//! The paper's scheduler streams 20 subcarriers back to back through
//! every CORDIC element of one array (Fig 8). The software counterpart
//! is [`ChannelEstimate::invert_all`]: it decomposes carriers in groups
//! of eight, the whole Givens cell sequence running in lockstep on the
//! lane CORDIC ([`mimo_cordic::CordicLanes`]), one carrier per lane,
//! with a short tail group padded and its padding discarded. The lane
//! array leaves out the Q-part columns no input row has reached yet:
//! column `4 + j` holds zeros until row `j` brings its identity 1, and
//! rotating (0, 0) gives (0, 0), so skipping them saves 27% of the
//! rotations without changing a bit. The result is bit-identical to
//! [`CordicQrd::decompose`] on every carrier; a group enters the lanes
//! only when every raw element of its matrices is below 2²⁴
//! ([`mimo_cordic::LANE_INPUT_LIMIT`]), and otherwise runs on the
//! scalar array. R⁻¹ stays per carrier, in carrier order; the group's
//! R⁻¹·Qᴴ products then run on `i64` carrier lanes whenever every word
//! fits an `i32`, and through [`FxMat4::mul_mat`] otherwise, with the
//! same bits. Both lane kernels run the build of the array's
//! [`mimo_fixed::Isa`] tier.
//!
//! [`ChannelEstimator::estimate_into`] transforms each receive
//! antenna's eight LTS half-fields in one lane group of the FFT
//! ([`mimo_fft::FixedFft::fft_batch_into`]), on scratch the caller
//! keeps across bursts.

mod cycle_array;
mod estimator;
mod matrix;
mod memory_map;
mod product;
mod qr_float;
mod rinv;
mod systolic;
mod timing;

pub use cycle_array::SystolicQrdArray;
pub use estimator::{ChanestError, ChannelEstimate, ChannelEstimator};
pub use memory_map::{HMatrixMemoryMap, MemoryLocation};
pub use matrix::{FxMat4, Mat4};
pub use qr_float::qr_givens_f64;
pub use rinv::invert_upper_triangular;
pub use systolic::{CordicQrd, QrDecomposition, QrdScheduler, ScheduledRead};
pub use timing::channel_estimation_latency_cycles;

/// Antennas on each side of the link (the paper's 4×4 system).
pub const N_ANTENNAS: usize = 4;

/// The QRD datapath latency model: the paper reports "a data-path
/// latency of 440 clock cycles" from 20-cycle CORDIC elements, i.e. 22
/// CORDIC stages along the critical path. For an n×n array that path
/// is the input skew of the last matrix element (`n(n+1)/2` beats) plus
/// a boundary + internal CORDIC chain (`3n` stages): `n(n+1)/2 + 3n`,
/// which is 22 for n = 4.
pub fn qrd_datapath_latency_cycles(n: usize, cordic_latency: u32) -> u32 {
    ((n * (n + 1) / 2 + 3 * n) as u32) * cordic_latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_reproduces_paper_number() {
        assert_eq!(
            qrd_datapath_latency_cycles(N_ANTENNAS, mimo_cordic::CORDIC_LATENCY_CYCLES),
            440
        );
    }
}
