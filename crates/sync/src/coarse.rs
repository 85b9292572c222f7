//! Coarse STS detection by lag-16 autocorrelation.
//!
//! The fine cross-correlator of Fig 4 matches the received samples
//! against stored preamble values, which makes its peak proportional
//! to the (unknown) channel gain. A fading channel can therefore bury
//! the true peak below correlations with payload data — particularly
//! in MIMO, where four antennas transmit payload simultaneously but
//! only TX 0 sends the STS.
//!
//! The classical remedy (Schmidl–Cox style, and what practical
//! receivers put in front of a cross-correlator) exploits the STS's
//! 16-sample periodicity with a *normalized* autocorrelation: the
//! metric `|Σ r[n+k]·r*[n+k+16]| / Σ |r[n+k+16]|²` is ≈1 inside the
//! STS regardless of channel gain, and small over data or noise. Its
//! plateau ends where the STS ends — which is the LTS start the fine
//! correlator then pins down exactly.
//!
//! The detector itself is the **online**
//! [`CoarseTracker`](crate::CoarseTracker): its
//! [`scan`](crate::CoarseTracker::scan) feeds a whole capture one
//! sample column per position and applies the end-of-buffer rule, so
//! the batch and chunk-driven receivers share a single implementation
//! (and therefore a single answer) for every input. [`coarse_sts_end`]
//! is the allocating wrapper over a fresh tracker.

use mimo_fixed::CQ15;

use crate::tracker::CoarseTracker;

/// Autocorrelation lag: the STS short-symbol period.
pub(crate) const LAG: usize = 16;

/// Correlation window length (two short symbols).
pub(crate) const WINDOW: usize = 32;

/// Minimum plateau run to accept (the STS supports ~112 positions).
pub(crate) const MIN_RUN: usize = 64;

/// Plateau threshold on the normalized metric.
pub(crate) const THRESHOLD: f64 = 0.70;

/// Minimum per-window energy (rejects the all-zero idle channel).
pub(crate) const MIN_ENERGY: f64 = 1e-4;

/// Result of coarse STS detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseSts {
    /// Estimated index of the first sample after the STS (≈ LTS
    /// start), accurate to roughly ±one short symbol (the plateau
    /// decays gradually as the window slides off the STS).
    pub sts_end: usize,
    /// Start of the detected plateau (≈ burst start).
    pub plateau_start: usize,
}

/// Detects the STS across one or more receive antennas by its
/// periodicity, combining all antennas for diversity (the metric sums
/// every antenna's correlation and energy, so a single faded path
/// cannot defeat it).
///
/// Returns `None` when no plateau of sufficient length exists. A
/// fresh [`CoarseTracker`] per call; a receiver decoding many captures
/// keeps one and calls [`CoarseTracker::scan`].
///
/// # Examples
///
/// ```
/// use mimo_fft::FixedFft;
/// use mimo_ofdm::{preamble, SubcarrierMap};
/// use mimo_sync::coarse_sts_end;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fft = FixedFft::new(64)?;
/// let map = SubcarrierMap::new(64)?;
/// let mut burst = preamble::sts_time(&fft, &map, 0.5)?;
/// burst.extend(preamble::lts_time(&fft, &map, 0.5)?);
/// let coarse = coarse_sts_end(&[burst]).expect("STS present");
/// assert!((coarse.sts_end as i64 - 160).unsigned_abs() <= 16);
/// # Ok(())
/// # }
/// ```
pub fn coarse_sts_end<S: AsRef<[CQ15]>>(streams: &[S]) -> Option<CoarseSts> {
    CoarseTracker::new(streams.len()).scan(streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fft::FixedFft;
    use mimo_ofdm::{preamble, SubcarrierMap};

    fn preamble_burst() -> Vec<CQ15> {
        let fft = FixedFft::new(64).unwrap();
        let map = SubcarrierMap::new(64).unwrap();
        let mut burst = preamble::sts_time(&fft, &map, 0.5).unwrap();
        burst.extend(preamble::lts_time(&fft, &map, 0.5).unwrap());
        burst
    }

    #[test]
    fn finds_sts_end_on_clean_burst() {
        let burst = preamble_burst();
        let coarse = coarse_sts_end(&[burst]).expect("detect");
        assert!(
            (coarse.sts_end as i64 - 160).unsigned_abs() <= 16,
            "sts_end {}",
            coarse.sts_end
        );
        assert!(coarse.plateau_start <= 8);
    }

    #[test]
    fn offset_shifts_estimate() {
        let burst = preamble_burst();
        for delay in [50usize, 333] {
            let mut shifted = vec![CQ15::ZERO; delay];
            shifted.extend_from_slice(&burst);
            let coarse = coarse_sts_end(&[shifted]).expect("detect");
            assert!(
                (coarse.sts_end as i64 - (160 + delay) as i64).unsigned_abs() <= 16,
                "delay {delay}: sts_end {}",
                coarse.sts_end
            );
        }
    }

    #[test]
    fn gain_invariant() {
        let burst = preamble_burst();
        // Scale down 8x: metric is normalized, detection must hold.
        let faded: Vec<CQ15> = burst.iter().map(|s| s.shr_round(3)).collect();
        let coarse = coarse_sts_end(&[faded]).expect("detect despite fade");
        assert!((coarse.sts_end as i64 - 160).unsigned_abs() <= 16);
    }

    #[test]
    fn rejects_noise_and_silence() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let noise: Vec<CQ15> = (0..2000)
            .map(|_| CQ15::from_f64(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2)))
            .collect();
        assert!(coarse_sts_end(&[noise]).is_none(), "noise must not form a plateau");
        let silence = vec![CQ15::ZERO; 2000];
        assert!(coarse_sts_end(&[silence]).is_none(), "silence must not detect");
    }

    #[test]
    fn multi_antenna_diversity() {
        let burst = preamble_burst();
        // Antenna 0 deeply faded, antenna 1 healthy: combined metric
        // still detects.
        let faded: Vec<CQ15> = burst.iter().map(|s| s.shr_round(6)).collect();
        let coarse = coarse_sts_end(&[faded, burst]).expect("diversity detect");
        assert!((coarse.sts_end as i64 - 160).unsigned_abs() <= 16);
    }

    #[test]
    fn short_input_returns_none() {
        assert!(coarse_sts_end(&[vec![CQ15::ZERO; 10]]).is_none());
        assert!(coarse_sts_end::<Vec<CQ15>>(&[]).is_none());
    }

    #[test]
    fn reused_tracker_scans_like_fresh_wrapper_calls() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let burst = preamble_burst();
        let truncated = burst[..150].to_vec();
        let noise: Vec<CQ15> = (0..2000)
            .map(|_| CQ15::from_f64(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2)))
            .collect();
        let silence = vec![CQ15::ZERO; 2000];
        let faded: Vec<CQ15> = burst.iter().map(|s| s.shr_round(6)).collect();

        // Latched, end-of-buffer and empty outcomes in every order, so
        // each scan starts from the previous one's leftover state.
        let mut one = CoarseTracker::new(1);
        let sequence = [&burst, &truncated, &noise, &burst, &silence, &truncated, &noise];
        for capture in sequence {
            let want = coarse_sts_end(&[capture]);
            assert_eq!(one.scan(&[capture]), want, "capture of {}", capture.len());
        }
        assert!(one.scan(&[&burst]).is_some());

        let mut two = CoarseTracker::new(2);
        let pairs = [
            [&faded, &burst],
            [&noise, &silence],
            [&faded, &burst],
            [&truncated, &truncated],
        ];
        for pair in pairs {
            assert_eq!(two.scan(&pair), coarse_sts_end(&pair));
        }
        assert!(two.scan(&[&faded, &burst]).is_some());
        assert_eq!(two.scan(&[&burst]), None, "stream count must match the antennas");
    }

    #[test]
    fn tracker_backed_wrapper_matches_plateau_to_buffer_end() {
        // A capture ending inside the STS exercises the end-of-buffer
        // rule through the tracker's finish() path.
        let burst = preamble_burst();
        let truncated = &burst[..150];
        let coarse = coarse_sts_end(&[truncated]).expect("plateau to end accepted");
        assert_eq!(coarse.sts_end, truncated.len() - 1);
    }
}
