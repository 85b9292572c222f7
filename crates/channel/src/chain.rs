//! Deterministic impairments (CFO, timing offset, phase noise) and
//! composition.

use mimo_fixed::{CQ15, Cf64};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::gaussian::radius_angle;
use crate::ChannelModel;

/// Residual carrier frequency offset: every sample of every stream is
/// rotated by `e^{j·2π·ε·n}` where `ε` is the offset normalized to the
/// sample rate. The common phase drift this induces across an OFDM
/// symbol is what the receiver's pilot phase correction removes.
#[derive(Debug, Clone)]
// phylint: allow(test_only_api) -- test support: tests/impairments.rs
pub struct CfoImpairment {
    n: usize,
    epsilon: f64,
    /// Phase continues across bursts, like a real oscillator.
    phase_offset: f64,
}

impl CfoImpairment {
    /// Creates a CFO impairment over `n` antennas with normalized
    /// frequency offset `epsilon` (cycles per sample).
    // phylint: allow(test_only_api) -- test support: tests/impairments.rs
    pub fn new(n: usize, epsilon: f64) -> Self {
        Self {
            n,
            epsilon,
            phase_offset: 0.0,
        }
    }
}

impl ChannelModel for CfoImpairment {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        let start_phase = self.phase_offset;
        let mut max_len = 0usize;
        let out = tx
            .iter()
            .map(|stream| {
                max_len = max_len.max(stream.len());
                stream
                    .iter()
                    .enumerate()
                    .map(|(n, &s)| {
                        let ang =
                            start_phase + 2.0 * std::f64::consts::PI * self.epsilon * n as f64;
                        (Cf64::from_fixed(s) * Cf64::from_polar(1.0, ang))
                            .to_fixed::<15>()
                            .saturate_bits(16)
                    })
                    .collect()
            })
            .collect();
        self.phase_offset =
            start_phase + 2.0 * std::f64::consts::PI * self.epsilon * max_len as f64;
        out
    }
}

/// Unknown burst arrival time: prepends `delay` zero (noise-floor)
/// samples to every stream. The time synchroniser's job is to find the
/// burst in spite of this.
#[derive(Debug, Clone)]
pub struct TimingOffset {
    n: usize,
    delay: usize,
}

impl TimingOffset {
    /// Creates a timing offset of `delay` samples over `n` antennas.
    pub fn new(n: usize, delay: usize) -> Self {
        Self { n, delay }
    }

    /// The configured delay in samples.
    pub fn delay(&self) -> usize {
        self.delay
    }
}

impl ChannelModel for TimingOffset {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        tx.iter()
            .map(|stream| {
                let mut out = vec![CQ15::ZERO; self.delay];
                out.extend_from_slice(stream);
                out
            })
            .collect()
    }
}

/// Oscillator phase noise: a Wiener (random-walk) phase process common
/// to all antennas (one local oscillator), with per-sample increment
/// standard deviation `sigma_rad`. Slow phase wander within an OFDM
/// symbol is what the per-symbol pilot phase correction tracks;
/// fast wander (large sigma) causes inter-carrier interference no
/// pilot can fix — both regimes are useful test stimulus.
#[derive(Debug, Clone)]
// phylint: allow(test_only_api) -- test support: tests/impairments.rs
pub struct PhaseNoise {
    n: usize,
    sigma_rad: f64,
    rng: ChaCha8Rng,
    phase: f64,
}

impl PhaseNoise {
    /// Creates a phase-noise impairment over `n` antennas with the
    /// given per-sample random-walk step (radians, std dev).
    // phylint: allow(test_only_api) -- test support: tests/impairments.rs
    pub fn new(n: usize, sigma_rad: f64, seed: u64) -> Self {
        Self {
            n,
            sigma_rad,
            rng: ChaCha8Rng::seed_from_u64(seed),
            phase: 0.0,
        }
    }
}

impl ChannelModel for PhaseNoise {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        let len = tx.iter().map(Vec::len).max().unwrap_or(0);
        // One oscillator: generate the common phase walk first.
        let mut walk = Vec::with_capacity(len);
        for _ in 0..len {
            // A standard normal step: the cosine half of Box–Muller.
            let (radius, angle) = radius_angle(&mut self.rng);
            self.phase += self.sigma_rad * (radius * angle.cos());
            walk.push(self.phase);
        }
        tx.iter()
            .map(|stream| {
                stream
                    .iter()
                    .zip(&walk)
                    .map(|(&s, &phi)| {
                        (Cf64::from_fixed(s) * Cf64::from_polar(1.0, phi))
                            .to_fixed::<15>()
                            .saturate_bits(16)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Composes channel models in sequence: the output streams of stage
/// `k` feed stage `k+1`.
///
/// # Examples
///
/// ```
/// use mimo_channel::{AwgnChannel, ChannelChain, ChannelModel, TimingOffset};
/// use mimo_fixed::CQ15;
///
/// let mut chan = ChannelChain::new(vec![
///     Box::new(TimingOffset::new(1, 25)),
///     Box::new(AwgnChannel::new(1, 30.0, 9)),
/// ]);
/// let rx = chan.propagate(&[vec![CQ15::from_f64(0.2, 0.0); 64]]);
/// assert_eq!(rx[0].len(), 89);
/// ```
pub struct ChannelChain {
    stages: Vec<Box<dyn ChannelModel>>,
}

impl ChannelChain {
    /// Builds a chain from stages applied front to back.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Box<dyn ChannelModel>>) -> Self {
        assert!(!stages.is_empty(), "channel chain needs at least one stage");
        Self { stages }
    }
}

impl std::fmt::Debug for ChannelChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelChain({} stages)", self.stages.len())
    }
}

impl ChannelModel for ChannelChain {
    #[expect(
        clippy::expect_used,
        reason = "`ChannelChain::new` asserts the stage list is non-empty (documented constructor contract), so `last()` always holds a stage"
    )]
    fn n_rx(&self) -> usize {
        self.stages.last().expect("nonempty by construction").n_rx()
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        let mut streams = tx.to_vec();
        for stage in &mut self.stages {
            streams = stage.propagate(&streams);
        }
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfo_rotates_at_configured_rate() {
        let mut cfo = CfoImpairment::new(1, 0.01);
        let tx = vec![vec![CQ15::from_f64(0.5, 0.0); 100]];
        let rx = cfo.propagate(&tx);
        // Sample 25 should be rotated by 2π·0.01·25 = π/2.
        let got = Cf64::from_fixed(rx[0][25]);
        assert!(got.re.abs() < 2e-3, "re {}", got.re);
        assert!((got.im - 0.5).abs() < 2e-3, "im {}", got.im);
    }

    #[test]
    fn cfo_phase_continues_across_calls() {
        let mut cfo = CfoImpairment::new(1, 0.005);
        let tx = vec![vec![CQ15::from_f64(0.5, 0.0); 50]];
        let first = cfo.propagate(&tx);
        let second = cfo.propagate(&tx);
        // Phase at start of second burst = phase after 50 samples.
        let expect = Cf64::from_polar(0.5, 2.0 * std::f64::consts::PI * 0.005 * 50.0);
        let got = Cf64::from_fixed(second[0][0]);
        assert!((got - expect).norm() < 2e-3);
        let _ = first;
    }

    #[test]
    fn timing_offset_prepends_silence() {
        let mut off = TimingOffset::new(2, 7);
        let tx = vec![vec![CQ15::from_f64(0.3, 0.0); 4]; 2];
        let rx = off.propagate(&tx);
        for stream in &rx {
            assert_eq!(stream.len(), 11);
            assert!(stream[..7].iter().all(|s| s.is_zero()));
            assert_eq!(stream[7], tx[0][0]);
        }
    }

    #[test]
    fn chain_composes_in_order() {
        let mut chain = ChannelChain::new(vec![
            Box::new(TimingOffset::new(1, 3)),
            Box::new(TimingOffset::new(1, 4)),
        ]);
        let rx = chain.propagate(&[vec![CQ15::from_f64(0.1, 0.1); 5]]);
        assert_eq!(rx[0].len(), 12);
        assert!(rx[0][..7].iter().all(|s| s.is_zero()));
    }
}

#[cfg(test)]
mod phase_noise_tests {
    use super::*;

    #[test]
    fn phase_noise_preserves_amplitude() {
        let mut pn = PhaseNoise::new(1, 0.01, 4);
        let tx = vec![vec![CQ15::from_f64(0.5, 0.0); 200]];
        let rx = pn.propagate(&tx);
        for s in &rx[0] {
            let mag = Cf64::from_fixed(*s).norm();
            assert!((mag - 0.5).abs() < 3e-3, "magnitude {mag}");
        }
    }

    #[test]
    fn phase_walk_is_common_across_antennas() {
        let mut pn = PhaseNoise::new(2, 0.02, 9);
        let tx = vec![vec![CQ15::from_f64(0.4, 0.0); 64]; 2];
        let rx = pn.propagate(&tx);
        for (a, b) in rx[0].iter().zip(&rx[1]) {
            assert_eq!(a, b, "one oscillator must rotate all antennas alike");
        }
    }

    #[test]
    fn phase_variance_grows_with_time() {
        // Wiener process: later samples wander further on average.
        let mut early_dev = 0.0;
        let mut late_dev = 0.0;
        for seed in 0..40 {
            let mut pn = PhaseNoise::new(1, 0.01, seed);
            let tx = vec![vec![CQ15::from_f64(0.5, 0.0); 400]];
            let rx = pn.propagate(&tx);
            early_dev += Cf64::from_fixed(rx[0][10]).arg().abs();
            late_dev += Cf64::from_fixed(rx[0][399]).arg().abs();
        }
        assert!(late_dev > 2.0 * early_dev, "early {early_dev}, late {late_dev}");
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut pn = PhaseNoise::new(1, 0.0, 1);
        let tx = vec![vec![CQ15::from_f64(0.3, -0.2); 32]];
        assert_eq!(pn.propagate(&tx), tx);
    }

    /// The seeded phase walk is pinned bit for bit (fingerprint taken
    /// before the Box–Muller draw was shared).
    #[test]
    fn seeded_walk_is_pinned() {
        let tx = crate::fingerprint::signal(2, 3000);
        let mut pn = PhaseNoise::new(2, 0.02, 13);
        let mut out = pn.propagate(&tx);
        out.extend(pn.propagate(&tx));
        let got = crate::fingerprint::streams(&out);
        assert_eq!(got, 0x498c_ea7d_d9e5_5eee, "phase noise: {got:#018x}");
    }
}
