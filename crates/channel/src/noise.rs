//! Additive white Gaussian noise.

use mimo_fixed::{CQ15, Cf64};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::gaussian::complex_gaussian;
use crate::{average_power, ChannelModel};

/// AWGN at a target SNR. Noise power is calibrated against the
/// *measured* average power of the incoming streams, so the configured
/// SNR is exact regardless of modulation or backoff.
///
/// # Examples
///
/// ```
/// use mimo_channel::{AwgnChannel, ChannelModel};
/// use mimo_fixed::CQ15;
///
/// let mut chan = AwgnChannel::new(1, 20.0, 42);
/// let tx = vec![vec![CQ15::from_f64(0.25, 0.0); 512]];
/// let rx = chan.propagate(&tx);
/// assert_eq!(rx[0].len(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    n: usize,
    snr_db: f64,
    rng: ChaCha8Rng,
}

impl AwgnChannel {
    /// Creates an AWGN channel over `n` parallel antennas with the
    /// given per-antenna SNR in dB and a deterministic seed.
    pub fn new(n: usize, snr_db: f64, seed: u64) -> Self {
        Self {
            n,
            snr_db,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Configured SNR in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }
}

/// Adds calibrated AWGN at `snr_db` to every stream — the shared
/// propagation core of [`AwgnChannel`] and [`TimeVaryingAwgn`].
fn add_awgn(rng: &mut ChaCha8Rng, tx: &[Vec<CQ15>], snr_db: f64) -> Vec<Vec<CQ15>> {
    let signal_power = average_power(tx);
    let noise_power = signal_power / 10f64.powf(snr_db / 10.0);
    tx.iter()
        .map(|stream| {
            stream
                .iter()
                .map(|&s| {
                    let noisy = Cf64::from_fixed(s) + complex_gaussian(rng, noise_power);
                    noisy.to_fixed::<15>().saturate_bits(16)
                })
                .collect()
        })
        .collect()
}

impl ChannelModel for AwgnChannel {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        add_awgn(&mut self.rng, tx, self.snr_db)
    }
}

/// AWGN whose SNR follows a per-burst schedule: call `k` of
/// [`ChannelModel::propagate`] applies `profile[min(k, len-1)]` dB
/// (the last entry holds once the schedule is exhausted). This is the
/// time-varying stimulus closed-loop link adaptation is tested
/// against: an SNR ramp sweeps the link through every rate's
/// operating region, burst by burst.
///
/// # Examples
///
/// ```
/// use mimo_channel::{ChannelModel, TimeVaryingAwgn};
/// use mimo_fixed::CQ15;
///
/// // 10 dB → 30 dB over 5 bursts, then back down.
/// let mut chan = TimeVaryingAwgn::up_down(1, 10.0, 30.0, 5, 42);
/// assert_eq!(chan.current_snr_db(), 10.0);
/// let tx = vec![vec![CQ15::from_f64(0.25, 0.0); 256]];
/// chan.propagate(&tx);
/// assert!(chan.current_snr_db() > 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeVaryingAwgn {
    n: usize,
    profile: Vec<f64>,
    burst_idx: usize,
    rng: ChaCha8Rng,
}

impl TimeVaryingAwgn {
    /// Creates a scheduled-SNR channel over `n` antennas from an
    /// explicit per-burst SNR profile (dB) and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `profile` is empty.
    pub fn new(n: usize, profile: Vec<f64>, seed: u64) -> Self {
        assert!(!profile.is_empty(), "SNR profile must not be empty");
        Self {
            n,
            profile,
            burst_idx: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// A linear SNR ramp from `start_db` to `end_db` (inclusive) over
    /// `bursts` bursts.
    ///
    /// # Panics
    ///
    /// Panics if `bursts` is zero.
    pub fn ramp(n: usize, start_db: f64, end_db: f64, bursts: usize, seed: u64) -> Self {
        assert!(bursts > 0, "a ramp needs at least one burst");
        let profile = (0..bursts)
            .map(|i| {
                let t = if bursts > 1 {
                    i as f64 / (bursts - 1) as f64
                } else {
                    0.0
                };
                start_db + t * (end_db - start_db)
            })
            .collect();
        Self::new(n, profile, seed)
    }

    /// A triangular sweep `lo → hi → lo`: an up leg of
    /// `bursts_each_way` bursts and a mirrored down leg sharing the
    /// peak burst, `2·bursts_each_way − 1` scheduled bursts in total —
    /// the climb-then-back-off stimulus for rate controllers.
    ///
    /// # Panics
    ///
    /// Panics if `bursts_each_way` is zero.
    pub fn up_down(n: usize, lo_db: f64, hi_db: f64, bursts_each_way: usize, seed: u64) -> Self {
        assert!(bursts_each_way > 0, "a sweep needs at least one burst per leg");
        let up = Self::ramp(n, lo_db, hi_db, bursts_each_way, seed).profile;
        let mut profile = up.clone();
        profile.extend(up.iter().rev().skip(1));
        Self::new(n, profile, seed)
    }

    /// The SNR (dB) the **next** `propagate` call will apply.
    pub fn current_snr_db(&self) -> f64 {
        self.profile[self.burst_idx.min(self.profile.len() - 1)]
    }

    /// Bursts propagated so far.
    pub fn burst_index(&self) -> usize {
        self.burst_idx
    }

    /// The full per-burst schedule, dB.
    pub fn profile(&self) -> &[f64] {
        &self.profile
    }
}

impl ChannelModel for TimeVaryingAwgn {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        let snr_db = self.current_snr_db();
        self.burst_idx += 1;
        add_awgn(&mut self.rng, tx, snr_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_snr_matches_target() {
        let n_samples = 20_000;
        let tx = vec![vec![CQ15::from_f64(0.3, -0.2); n_samples]];
        for target in [5.0f64, 15.0, 25.0] {
            let mut chan = AwgnChannel::new(1, target, 7);
            let rx = chan.propagate(&tx);
            let mut noise_power = 0.0;
            for (r, t) in rx[0].iter().zip(&tx[0]) {
                noise_power += (Cf64::from_fixed(*r) - Cf64::from_fixed(*t)).norm_sqr();
            }
            noise_power /= n_samples as f64;
            let signal_power = 0.3f64 * 0.3 + 0.2 * 0.2;
            let measured = 10.0 * (signal_power / noise_power).log10();
            assert!(
                (measured - target).abs() < 0.5,
                "target {target} dB, measured {measured:.2} dB"
            );
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let tx = vec![vec![CQ15::from_f64(0.2, 0.1); 64]];
        let a = AwgnChannel::new(1, 10.0, 99).propagate(&tx);
        let b = AwgnChannel::new(1, 10.0, 99).propagate(&tx);
        let c = AwgnChannel::new(1, 10.0, 100).propagate(&tx);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_has_near_zero_mean() {
        let tx = vec![vec![CQ15::ZERO; 50_000]];
        // SNR vs zero signal: define noise from unit reference instead.
        let mut chan = AwgnChannel::new(1, 0.0, 3);
        // Zero signal -> zero noise power (SNR calibration); mean is 0.
        let rx = chan.propagate(&tx);
        assert!(rx[0].iter().all(|s| s.is_zero()));
    }

    /// Seeded noise is part of the bit-identity contract: these
    /// fingerprints were taken before the four-block keystream and the
    /// branch-free quantizer, and must not move. Three bursts per SNR
    /// (the middle one ends a keystream refill part-way); −10 dB drives
    /// the 16-bit saturation.
    #[test]
    fn seeded_output_is_pinned() {
        use crate::fingerprint;
        let long = fingerprint::signal(4, 4096);
        let short = fingerprint::signal(4, 1001);
        for (snr_db, want) in [
            (21.0, 0x6e4e_e5b6_78c0_76b4u64),
            (-10.0, 0xcf11_e3b6_d835_f02e),
        ] {
            let mut chan = AwgnChannel::new(4, snr_db, 4242);
            let mut out = chan.propagate(&long);
            out.extend(chan.propagate(&short));
            out.extend(chan.propagate(&long));
            if snr_db < 0.0 {
                let rails = out
                    .iter()
                    .flatten()
                    .filter(|s| s.re.raw().abs() >= 32_767)
                    .count();
                assert!(
                    rails > 1000,
                    "only {rails} saturated samples at {snr_db} dB"
                );
            }
            let got = fingerprint::streams(&out);
            assert_eq!(got, want, "AWGN at {snr_db} dB: {got:#018x}");
        }
    }
}
