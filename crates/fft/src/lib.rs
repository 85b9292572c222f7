//! Fixed-point FFT/IFFT cores and the double-precision reference
//! transform.
//!
//! The transmitter converts modulated symbols to the time domain
//! through one IFFT per antenna, and the receiver mirrors that with one
//! FFT per antenna (Figs 1 and 5 of the paper). The paper's cores are
//! 64-point (extensible to 512-point) streaming blocks with 16-bit
//! I/Q datapaths and per-stage scaling.
//!
//! * [`fft_f64`] / [`ifft_f64`] — reference transforms used to validate
//!   the fixed-point cores and to generate known-answer vectors.
//! * [`FixedFft`] — bit-accurate radix-2 decimation-in-time core in
//!   Q1.15 with a compensated per-stage right-shift (the block-scaling
//!   scheme used by vendor FFT megacores to prevent overflow).
//! * [`StreamingFft`] — wraps [`FixedFft`] with the handshake/latency
//!   behaviour of the hardware core (`sop`/`eop`-style framing, one
//!   sample per clock) for the cycle-accounting experiments.
//!
//! # Lane contract
//!
//! The paper streams one 64-point transform per antenna every symbol
//! period; the software model runs the same butterflies as one
//! fixed-width lane body, written once and instantiated twice: at one
//! lane for a single transform ([`FixedFft::fft_into`] /
//! [`FixedFft::ifft_into`]), and at [`FFT_LANES`] lanes for eight
//! symbols in lockstep. The batch entries
//! ([`FixedFft::fft_batch_into`] / [`FixedFft::ifft_batch_into`]) take
//! any frame count and are the one place that splits a run of symbols:
//! every whole group of [`FFT_LANES`] goes through the lanes together,
//! the rest one lane each, so callers (the `mimo_ofdm` modulator and
//! symbol ingest) never see the lane width. The lane data lives on the
//! stack. Data sits in `i32` lanes, twiddle products are `i64`, and
//! every product is rounded half away from zero without a branch. The
//! bit-reversal permutation and the per-stage `i32` twiddle table are
//! built once per core.
//!
//! Every lane output equals the scalar radix-2 loop on `i64` words
//! bit for bit: same twiddles, same per-product rounding, same output
//! shift and 16-bit saturation. That loop stays in the crate as the
//! oracle the lanes are tested against, and as the path for any
//! symbol with a component off the 16-bit bus, checked per call.
//!
//! # Headroom
//!
//! The lanes agree with the `i64` loop only while no intermediate
//! leaves `i32`. Bus input has complex magnitude at most `√2·2¹⁵`.
//! Quantized twiddles have magnitude at most `1 + 2⁻¹⁵`, and each
//! stage adds at most one LSB of rounding per component, so a stage
//! grows magnitude by at most a factor `2 + 2⁻¹⁵` plus `√2`. Over
//! `log2 n ≤ 12` stages every component therefore stays below 2²⁸:
//! `log2 n + 1` bits of growth over the 16-bit bus, which leaves two
//! spare bits in an `i32`. A compile-time assertion checks that bound
//! by iterating the per-stage recurrence in integers. Products of a
//! 29-bit word and a 16-bit twiddle component stay below 2⁴⁴ in
//! `i64`. Output shifts of 29 or more give zero on both paths, so the
//! lanes cap the shift there.
//!
//! # Builds
//!
//! The lane body is built twice, inside an `avx2` target-feature
//! function and as plain portable code; a core runs the one its
//! [`mimo_fixed::Isa`] tier answers for. Both builds give the same
//! bits.

mod fixed;
mod lanes;
mod reference;
mod streaming;

pub use fixed::{FftError, FftScaling, FixedFft};
pub use lanes::FFT_LANES;
pub use reference::{fft_f64, ifft_f64};
pub use streaming::{streaming_latency_cycles, StreamingFft};

/// Returns `true` if `n` is a supported transform size (power of two,
/// at least 8, at most 4096).
pub fn is_supported_size(n: usize) -> bool {
    n.is_power_of_two() && (8..=MAX_SIZE).contains(&n)
}

/// Largest supported transform size.
const MAX_SIZE: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_sizes() {
        for n in [8usize, 64, 128, 256, 512, 1024, 4096] {
            assert!(is_supported_size(n), "{n}");
        }
        for n in [0usize, 1, 2, 4, 63, 96, 8192] {
            assert!(!is_supported_size(n), "{n}");
        }
    }
}
