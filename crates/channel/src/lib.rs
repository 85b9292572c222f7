//! Channel simulator: the stand-in for the paper's RF front-end and
//! over-the-air channel.
//!
//! The paper evaluates on real hardware behind DACs/ADCs (JESD204A).
//! This crate substitutes that analog world with controlled impairment
//! models so every receiver block has the stimulus it was designed for:
//!
//! * [`IdealChannel`] — direct wiring (TX *i* → RX *i*), for loopback
//!   and bit-exactness tests.
//! * [`AwgnChannel`] — complex white Gaussian noise at a target SNR.
//! * [`TimeVaryingAwgn`] — AWGN whose SNR follows a per-burst schedule
//!   (ramps, triangular sweeps): the stimulus closed-loop link
//!   adaptation climbs and backs off against.
//! * [`FlatRayleighMimo`] — a random 4×4 (or N×M) complex channel
//!   matrix, constant over a burst: the model the QRD channel
//!   estimator/inverter targets.
//! * [`MultipathMimo`] — per-antenna-pair tapped delay lines shorter
//!   than the cyclic prefix: the frequency-selective case.
//! * [`CfoImpairment`] — common phase rotation (residual carrier
//!   offset) that the pilot phase corrector must remove.
//! * [`PhaseNoise`] — Wiener oscillator phase wander, the other
//!   stimulus the pilot corrector exists for.
//! * [`TimingOffset`] — unknown burst start the time synchroniser must
//!   find.
//! * [`ChannelChain`] — composition of the above.
//! * [`FaultSchedule`] / [`FaultLottery`] — seeded **frame-level**
//!   fault schedules (drop / truncate / corrupt / duplicate / stall)
//!   for the digital sample transport, consumed by `mimo_transport`'s
//!   fault injector.
//!
//! All models process the fixed-point sample streams in `f64` and
//! re-quantize to Q1.15 at the output — the ADC model.
//!
//! Seeded output is part of the workspace's bit-identity contract: a
//! model built with the same seed and fed the same streams returns the
//! same samples, bit for bit, across releases. Seeded tests, golden
//! vectors and the benchmark's decode-quality figures all rest on it,
//! so a speed-up of a model must leave its output unchanged; the
//! `seeded_*_is_pinned` tests hold fingerprints of the AWGN (fixed and
//! scheduled SNR), fading and phase-noise output.
//!
//! Every Gaussian comes from one Box–Muller formula in two bodies. The
//! libm body draws one sample at a time; it is the fading and
//! phase-noise draw and the oracle. The AWGN channels run the lane
//! body: blocks of 16 samples on `f64` lanes (polynomial `ln`,
//! `sin`, `cos`) on the CPU tier of [`mimo_fixed::Isa`], each sample
//! taking the same four keystream words as the libm body. The lanes
//! differ from libm by a derived bound, not bit for bit, so a sample
//! whose value lands within a margin (2¹¹ times that bound) of a Q15
//! rounding tie is recomputed on the libm body. Away from a tie both
//! bodies round to the same word, so the channel output is the libm
//! body's, bit for bit.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

mod chain;
mod fading;
mod fault;
mod gaussian;
mod noise;

pub use chain::{ChannelChain, CfoImpairment, PhaseNoise, TimingOffset};
pub use fading::{FlatRayleighMimo, MultipathMimo};
pub use fault::{FaultKind, FaultLottery, FaultSchedule};
pub use noise::{AwgnChannel, TimeVaryingAwgn};

use mimo_fixed::{CQ15, Cf64};

/// A channel model: consumes one sample stream per transmit antenna,
/// produces one per receive antenna.
///
/// Models take `&mut self` because fading and noise consume PRNG state.
pub trait ChannelModel {
    /// Number of receive antennas this model produces.
    fn n_rx(&self) -> usize;

    /// Propagates the transmit streams. All streams must share one
    /// length; the output streams share one (possibly longer) length.
    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>>;
}

/// Direct TX→RX wiring with ADC re-quantization. RX count equals TX
/// count.
///
/// # Examples
///
/// ```
/// use mimo_channel::{ChannelModel, IdealChannel};
/// use mimo_fixed::CQ15;
///
/// let mut chan = IdealChannel::new(2);
/// let tx = vec![vec![CQ15::from_f64(0.1, -0.1); 8]; 2];
/// let rx = chan.propagate(&tx);
/// assert_eq!(rx, tx);
/// ```
#[derive(Debug, Clone)]
pub struct IdealChannel {
    n: usize,
}

impl IdealChannel {
    /// Creates an identity channel with `n` antennas on both sides.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl ChannelModel for IdealChannel {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        tx.to_vec()
    }
}

/// Measures the average sample power of a set of streams (used to
/// calibrate noise to a target SNR).
pub fn average_power(streams: &[Vec<CQ15>]) -> f64 {
    let mut acc = 0.0;
    let mut count = 0usize;
    for stream in streams {
        for &s in stream {
            acc += Cf64::from_fixed(s).norm_sqr();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// Bit-exact fingerprints of seeded model output, for the tests that
/// pin it.
#[cfg(test)]
pub(crate) mod fingerprint {
    use mimo_fixed::{CQ15, Cf64, Fx};

    /// FNV-1a over the bytes of every word.
    pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in words {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Fingerprint of sample streams: each sample's raw I then Q,
    /// stream after stream.
    pub fn streams(streams: &[Vec<CQ15>]) -> u64 {
        fnv1a(
            streams
                .iter()
                .flatten()
                .flat_map(|s| [s.re.raw() as u64, s.im.raw() as u64]),
        )
    }

    /// Fingerprint of `f64` complex values by their bit patterns.
    pub fn complex(values: impl IntoIterator<Item = Cf64>) -> u64 {
        fnv1a(
            values
                .into_iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
        )
    }

    /// `n` streams of `len` deterministic samples spread over the Q15
    /// range (a stand-in for a burst, built without any rounding).
    pub fn signal(n: usize, len: usize) -> Vec<Vec<CQ15>> {
        (0..n)
            .map(|a| {
                (0..len)
                    .map(|i| {
                        let k = ((a * len + i) as u32).wrapping_mul(2_654_435_761);
                        let re = i64::from((k >> 16) as u16 as i16) / 3;
                        let im = i64::from(k as u16 as i16) / 3;
                        CQ15::new(Fx::from_raw(re), Fx::from_raw(im))
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_channel_is_identity() {
        let mut chan = IdealChannel::new(4);
        let tx: Vec<Vec<CQ15>> = (0..4)
            .map(|a| (0..16).map(|i| CQ15::from_f64(0.01 * (a * 16 + i) as f64, 0.0)).collect())
            .collect();
        assert_eq!(chan.propagate(&tx), tx);
        assert_eq!(chan.n_rx(), 4);
    }

    #[test]
    fn average_power_of_known_signal() {
        let streams = vec![vec![CQ15::from_f64(0.5, 0.0); 100]];
        assert!((average_power(&streams) - 0.25).abs() < 1e-4);
        assert_eq!(average_power(&[]), 0.0);
    }
}
