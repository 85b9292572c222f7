//! Rayleigh fading MIMO channels: flat and frequency-selective.

use mimo_fixed::{CQ15, Cf64};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::gaussian::complex_gaussian;
use crate::ChannelModel;

/// A flat (frequency-nonselective) Rayleigh MIMO channel: one random
/// complex gain per TX/RX antenna pair, constant for the life of the
/// model — the per-burst block-fading assumption the paper's
/// channel-estimate-once-per-burst architecture makes.
///
/// Entries are CN(0, 1/2) by default (average |h|² = 0.5) so that the
/// 4-stream superposition keeps comfortable ADC headroom.
///
/// # Examples
///
/// ```
/// use mimo_channel::{ChannelModel, FlatRayleighMimo};
/// use mimo_fixed::CQ15;
///
/// let mut chan = FlatRayleighMimo::new(4, 4, 1);
/// let tx = vec![vec![CQ15::from_f64(0.05, 0.0); 32]; 4];
/// let rx = chan.propagate(&tx);
/// assert_eq!(rx.len(), 4);
/// assert_eq!(rx[0].len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct FlatRayleighMimo {
    n_tx: usize,
    n_rx: usize,
    /// `h[rx][tx]` complex gains.
    h: Vec<Vec<Cf64>>,
}

impl FlatRayleighMimo {
    /// Average per-path gain used by [`FlatRayleighMimo::new`].
    pub const DEFAULT_PATH_POWER: f64 = 0.5;

    /// Draws a random `n_rx × n_tx` channel with the default path power.
    pub fn new(n_tx: usize, n_rx: usize, seed: u64) -> Self {
        Self::with_path_power(n_tx, n_rx, Self::DEFAULT_PATH_POWER, seed)
    }

    /// Draws a random channel with a chosen average `|h|²` per path.
    pub fn with_path_power(n_tx: usize, n_rx: usize, power: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let h = (0..n_rx)
            .map(|_| (0..n_tx).map(|_| complex_gaussian(&mut rng, power)).collect())
            .collect();
        Self { n_tx, n_rx, h }
    }

    /// Builds a channel from an explicit gain matrix `h[rx][tx]`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is ragged or empty.
    // phylint: allow(test_only_api) -- test support: crates/channel/src/fading.rs
    pub fn from_matrix(h: Vec<Vec<Cf64>>) -> Self {
        let n_rx = h.len();
        assert!(n_rx > 0, "empty channel matrix");
        let n_tx = h[0].len();
        assert!(
            h.iter().all(|row| row.len() == n_tx) && n_tx > 0,
            "ragged channel matrix"
        );
        Self { n_tx, n_rx, h }
    }

    /// The ground-truth channel matrix `h[rx][tx]` (for test oracles).
    // phylint: allow(test_only_api) -- test support: crates/channel/src/fading.rs
    pub fn matrix(&self) -> &[Vec<Cf64>] {
        &self.h
    }
}

impl ChannelModel for FlatRayleighMimo {
    fn n_rx(&self) -> usize {
        self.n_rx
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n_tx, "stream count mismatch");
        let len = tx.iter().map(Vec::len).max().unwrap_or(0);
        (0..self.n_rx)
            .map(|i| {
                (0..len)
                    .map(|n| {
                        let mut acc = Cf64::ZERO;
                        for (j, stream) in tx.iter().enumerate() {
                            if let Some(&s) = stream.get(n) {
                                acc += self.h[i][j] * Cf64::from_fixed(s);
                            }
                        }
                        acc.to_fixed::<15>().saturate_bits(16)
                    })
                    .collect()
            })
            .collect()
    }
}

/// A frequency-selective Rayleigh MIMO channel: an independent tapped
/// delay line per antenna pair with exponentially decaying tap powers.
/// Keep `n_taps` at or below the cyclic-prefix length (N/4) or
/// inter-symbol interference will exceed what the architecture absorbs.
#[derive(Debug, Clone)]
pub struct MultipathMimo {
    n_tx: usize,
    n_rx: usize,
    /// `taps[rx][tx]` FIR coefficients.
    taps: Vec<Vec<Vec<Cf64>>>,
}

impl MultipathMimo {
    /// Draws a random multipath channel: `n_taps` taps with power decay
    /// `e^{-k}` per tap, total average path power
    /// [`FlatRayleighMimo::DEFAULT_PATH_POWER`].
    // phylint: allow(test_only_api) -- test support: tests/impairments.rs
    pub fn new(n_tx: usize, n_rx: usize, n_taps: usize, seed: u64) -> Self {
        assert!(n_taps >= 1, "need at least one tap");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Normalize the exponential profile to the default total power.
        let profile: Vec<f64> = (0..n_taps).map(|k| (-(k as f64)).exp()).collect();
        let total: f64 = profile.iter().sum();
        let scale = FlatRayleighMimo::DEFAULT_PATH_POWER / total;
        let taps = (0..n_rx)
            .map(|_| {
                (0..n_tx)
                    .map(|_| {
                        profile
                            .iter()
                            .map(|&p| complex_gaussian(&mut rng, p * scale))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self { n_tx, n_rx, taps }
    }

    /// Number of taps per path.
    pub fn n_taps(&self) -> usize {
        self.taps[0][0].len()
    }

    /// Ground-truth impulse response `taps[rx][tx][k]`.
    pub fn taps(&self) -> &[Vec<Vec<Cf64>>] {
        &self.taps
    }
}

impl ChannelModel for MultipathMimo {
    fn n_rx(&self) -> usize {
        self.n_rx
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n_tx, "stream count mismatch");
        let len = tx.iter().map(Vec::len).max().unwrap_or(0);
        let n_taps = self.n_taps();
        (0..self.n_rx)
            .map(|i| {
                (0..len + n_taps - 1)
                    .map(|n| {
                        let mut acc = Cf64::ZERO;
                        for (j, stream) in tx.iter().enumerate() {
                            for (k, &tap) in self.taps[i][j].iter().enumerate() {
                                if n >= k {
                                    if let Some(&s) = stream.get(n - k) {
                                        acc += tap * Cf64::from_fixed(s);
                                    }
                                }
                            }
                        }
                        acc.to_fixed::<15>().saturate_bits(16)
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
    fn flat_channel_applies_matrix() {
        let h = vec![
            vec![Cf64::new(1.0, 0.0), Cf64::ZERO],
            vec![Cf64::ZERO, Cf64::new(0.0, 1.0)],
        ];
        let mut chan = FlatRayleighMimo::from_matrix(h);
        let tx = vec![
            vec![CQ15::from_f64(0.25, 0.0); 4],
            vec![CQ15::from_f64(0.25, 0.0); 4],
        ];
        let rx = chan.propagate(&tx);
        assert!((Cf64::from_fixed(rx[0][0]).re - 0.25).abs() < 1e-4);
        // Second RX sees 0.25 rotated by j.
        assert!((Cf64::from_fixed(rx[1][0]).im - 0.25).abs() < 1e-4);
    }

    #[test]
    fn rayleigh_stats_are_plausible() {
        // Average |h|^2 over many draws approaches the configured power.
        let mut acc = 0.0;
        let draws = 200;
        for seed in 0..draws {
            let chan = FlatRayleighMimo::new(4, 4, seed);
            for row in chan.matrix() {
                for &h in row {
                    acc += h.norm_sqr();
                }
            }
        }
        let avg = acc / (draws as f64 * 16.0);
        assert!(
            (avg - FlatRayleighMimo::DEFAULT_PATH_POWER).abs() < 0.05,
            "avg path power {avg}"
        );
    }

    #[test]
    fn multipath_is_causal_convolution() {
        let mut chan = MultipathMimo::new(1, 1, 3, 5);
        let taps = chan.taps()[0][0].clone();
        // Impulse in -> taps out.
        let mut tx = vec![vec![CQ15::ZERO; 8]];
        tx[0][0] = CQ15::from_f64(0.5, 0.0);
        let rx = chan.propagate(&tx);
        for (k, &tap) in taps.iter().enumerate() {
            let got = Cf64::from_fixed(rx[0][k]);
            let want = tap.scale(0.5);
            assert!((got - want).norm() < 1e-3, "tap {k}");
        }
    }

    #[test]
    fn output_extends_by_channel_memory() {
        let mut chan = MultipathMimo::new(1, 1, 4, 2);
        let tx = vec![vec![CQ15::from_f64(0.1, 0.0); 10]];
        let rx = chan.propagate(&tx);
        assert_eq!(rx[0].len(), 13);
    }

    /// The seeded channel draws are pinned bit for bit (fingerprints
    /// taken before the Box–Muller draw was shared).
    #[test]
    fn seeded_draws_are_pinned() {
        use crate::fingerprint;
        let flat = FlatRayleighMimo::new(4, 4, 11);
        let got = fingerprint::complex(flat.matrix().iter().flatten().copied());
        assert_eq!(got, 0x688c_3233_9c09_36e2, "flat: {got:#018x}");
        let multi = MultipathMimo::new(4, 4, 5, 12);
        let got = fingerprint::complex(multi.taps().iter().flatten().flatten().copied());
        assert_eq!(got, 0x42fd_abf0_90c1_fafe, "multipath: {got:#018x}");
    }
}
