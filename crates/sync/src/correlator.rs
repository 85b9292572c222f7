//! The 32-tap sliding correlator, CORDIC magnitude and threshold FSM.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use mimo_cordic::Cordic;
use mimo_fixed::{CFx, CQ15, Q16};

use crate::CORRELATOR_TAPS;

/// Errors from synchroniser construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SyncError {
    /// The reference must contain exactly 32 taps.
    BadTapCount(usize),
    /// Threshold factor must lie in (0, 1].
    BadThreshold(f64),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::BadTapCount(n) => {
                write!(f, "expected {CORRELATOR_TAPS} correlator taps, got {n}")
            }
            SyncError::BadThreshold(t) => write!(f, "threshold factor {t} outside (0, 1]"),
        }
    }
}

impl Error for SyncError {}

/// A detected STS→LTS transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncEvent {
    /// Stream index of the sample that produced the peak (the newest
    /// sample in the matching window).
    pub peak_index: usize,
    /// Stream index of the first LTS sample, derived from the peak:
    /// the window holds 16 STS then 16 LTS samples, so the LTS begins
    /// 15 samples before the peak.
    pub lts_start: usize,
    /// Correlation magnitude at the peak (CORDIC output).
    pub magnitude: Q16,
}

/// The streaming time synchroniser.
///
/// # Examples
///
/// ```
/// use mimo_fft::FixedFft;
/// use mimo_ofdm::{preamble, SubcarrierMap};
/// use mimo_sync::TimeSynchronizer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fft = FixedFft::new(64)?;
/// let map = SubcarrierMap::new(64)?;
/// let taps = preamble::sync_reference(&fft, &map, 0.5)?;
/// let mut sync = TimeSynchronizer::new(taps, mimo_sync::DEFAULT_THRESHOLD_FACTOR)?;
///
/// // Feed STS then LTS; detection fires at the boundary.
/// let mut burst = preamble::sts_time(&fft, &map, 0.5)?;
/// let lts_start = burst.len();
/// burst.extend(preamble::lts_time(&fft, &map, 0.5)?);
/// let mut found = None;
/// for (i, &s) in burst.iter().enumerate() {
///     if let Some(event) = sync.push(s) {
///         found = Some(event);
///         break;
///     }
///     let _ = i;
/// }
/// assert_eq!(found.unwrap().lts_start, lts_start);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimeSynchronizer {
    /// Pre-stored conjugated reference (16 STS tail + 16 LTS head).
    taps: Vec<CQ15>,
    /// 32-stage shift register of incoming samples (newest at back).
    window: VecDeque<CQ15>,
    cordic: Cordic,
    /// Detection threshold on the correlation magnitude.
    threshold: Q16,
    /// Samples consumed so far.
    position: usize,
    /// Latched detection: the synchroniser locks after the first event
    /// ("once the signal is greater than the threshold value, the
    /// system assumes the start of a frame has been located").
    locked: Option<SyncEvent>,
}

impl TimeSynchronizer {
    /// Creates a synchroniser from the 32 conjugated reference taps
    /// (see `mimo_ofdm::preamble::sync_reference`) and a threshold
    /// factor in (0, 1] relative to the ideal autocorrelation peak.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on a wrong tap count or threshold.
    pub fn new(taps: Vec<CQ15>, threshold_factor: f64) -> Result<Self, SyncError> {
        if taps.len() != CORRELATOR_TAPS {
            return Err(SyncError::BadTapCount(taps.len()));
        }
        if !(threshold_factor > 0.0 && threshold_factor <= 1.0) {
            return Err(SyncError::BadThreshold(threshold_factor));
        }
        // Ideal peak: sum over |ref_k|^2 (window == reference).
        let peak: f64 = taps
            .iter()
            .map(|&t| {
                let (re, im) = t.to_f64();
                re * re + im * im
            })
            .sum();
        let threshold = Q16::from_f64(peak * threshold_factor);
        Ok(Self {
            taps,
            window: VecDeque::with_capacity(CORRELATOR_TAPS),
            cordic: Cordic::new(),
            threshold,
            position: 0,
            locked: None,
        })
    }

    /// The detection threshold (CORDIC-magnitude domain).
    pub fn threshold(&self) -> Q16 {
        self.threshold
    }

    /// Total samples consumed.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Re-arms the synchroniser for the next burst (back to idle).
    pub fn reset(&mut self) {
        self.window.clear();
        self.position = 0;
        self.locked = None;
    }

    /// Pushes one sample (one clock). Returns a [`SyncEvent`] on the
    /// clock where the correlation magnitude first crosses the
    /// threshold; afterwards the synchroniser stays locked and returns
    /// `None` until [`TimeSynchronizer::reset`].
    pub fn push(&mut self, sample: CQ15) -> Option<SyncEvent> {
        let index = self.position;
        self.position += 1;
        self.window.push_back(sample);
        if self.window.len() > CORRELATOR_TAPS {
            self.window.pop_front();
        }
        if self.locked.is_some() || self.window.len() < CORRELATOR_TAPS {
            return None;
        }
        let magnitude = self.correlate(&self.window);
        if magnitude >= self.threshold {
            let event = SyncEvent {
                peak_index: index,
                lts_start: index - 15,
                magnitude,
            };
            self.locked = Some(event);
            return Some(event);
        }
        None
    }

    /// Scans a whole stored burst and returns the global correlation
    /// maximum, ignoring the threshold.
    ///
    /// A fading channel scales the correlation peak by the (unknown)
    /// path gain, which can defeat a fixed threshold; a receiver with
    /// the burst buffered (the paper's circular input buffer) can
    /// instead take the maximum. Returns `None` for bursts shorter
    /// than the correlation window or with zero correlation
    /// everywhere. Does not alter the streaming lock state.
    pub fn scan_peak(&self, burst: &[CQ15]) -> Option<SyncEvent> {
        self.scan_peak_window(burst, 0, burst.len())
    }

    /// [`TimeSynchronizer::scan_peak`] restricted to peak positions in
    /// `lo..hi` — the fine-timing stage behind a coarse STS detector
    /// (see [`coarse_sts_end`](crate::coarse_sts_end)): the coarse
    /// stage is channel-gain invariant but only ±half-symbol accurate;
    /// this pins the boundary to the sample.
    pub fn scan_peak_window(&self, burst: &[CQ15], lo: usize, hi: usize) -> Option<SyncEvent> {
        let hi = hi.min(burst.len());
        let mut best: Option<SyncEvent> = None;
        // The first evaluable position has a whole window behind it.
        for index in lo.max(CORRELATOR_TAPS - 1)..hi {
            let magnitude = self.correlate(&burst[index + 1 - CORRELATOR_TAPS..=index]);
            if magnitude.raw() > 0 && best.is_none_or(|b| magnitude > b.magnitude) {
                best = Some(SyncEvent {
                    peak_index: index,
                    lts_start: index - 15,
                    magnitude,
                });
            }
        }
        best
    }

    /// The 32 parallel complex multipliers and pipelined adder tree over
    /// one window of samples (oldest first), followed by the CORDIC
    /// magnitude calculation.
    fn correlate<'a>(&self, window: impl IntoIterator<Item = &'a CQ15>) -> Q16 {
        let mut acc = CFx::<15>::ZERO;
        for (&x, &t) in window.into_iter().zip(self.taps.iter()) {
            // Taps are pre-conjugated; plain multiply is correlation.
            acc += x * t;
        }
        let wide: CFx<16> = acc.convert();
        self.cordic.magnitude(wide.re, wide.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the synchroniser over a whole burst; the first event.
    fn detect(sync: &mut TimeSynchronizer, burst: &[CQ15]) -> Option<SyncEvent> {
        burst.iter().find_map(|&s| sync.push(s))
    }
    use mimo_fft::FixedFft;
    use mimo_ofdm::{preamble, SubcarrierMap};

    fn setup() -> (Vec<CQ15>, usize, TimeSynchronizer) {
        let fft = FixedFft::new(64).unwrap();
        let map = SubcarrierMap::new(64).unwrap();
        let taps = preamble::sync_reference(&fft, &map, 0.5).unwrap();
        let sync = TimeSynchronizer::new(taps, crate::DEFAULT_THRESHOLD_FACTOR).unwrap();
        let mut burst = preamble::sts_time(&fft, &map, 0.5).unwrap();
        let lts_start = burst.len();
        burst.extend(preamble::lts_time(&fft, &map, 0.5).unwrap());
        (burst, lts_start, sync)
    }

    #[test]
    fn detects_exact_boundary_on_clean_signal() {
        let (burst, lts_start, mut sync) = setup();
        let event = detect(&mut sync, &burst).expect("must detect");
        assert_eq!(event.lts_start, lts_start);
        assert_eq!(event.peak_index, lts_start + 15);
    }

    #[test]
    fn detection_survives_timing_offset() {
        let (burst, lts_start, mut sync) = setup();
        for delay in [1usize, 13, 100] {
            sync.reset();
            let mut shifted = vec![CQ15::ZERO; delay];
            shifted.extend_from_slice(&burst);
            let event = detect(&mut sync, &shifted).expect("must detect");
            assert_eq!(event.lts_start, lts_start + delay, "delay {delay}");
        }
    }

    #[test]
    fn no_false_alarm_on_noise_only() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let (_, _, mut sync) = setup();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        // Noise 1.5x stronger than the preamble's peak amplitude must
        // not cross the default threshold (measured max ~0.57 of peak).
        let noise: Vec<CQ15> = (0..4000)
            .map(|_| {
                CQ15::from_f64(rng.gen_range(-0.15..0.15), rng.gen_range(-0.15..0.15))
            })
            .collect();
        assert!(detect(&mut sync, &noise).is_none());
    }

    #[test]
    fn locks_once_until_reset() {
        let (burst, _, mut sync) = setup();
        let mut events = 0;
        for _ in 0..3 {
            for &s in &burst {
                if sync.push(s).is_some() {
                    events += 1;
                }
            }
        }
        assert_eq!(events, 1, "must latch after first detection");
        sync.reset();
        assert!(detect(&mut sync, &burst).is_some(), "re-armed after reset");
    }

    #[test]
    fn multiplier_budget_matches_paper() {
        assert_eq!(crate::CORRELATOR_MULTIPLIERS, 128);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(matches!(
            TimeSynchronizer::new(vec![CQ15::ZERO; 16], 0.5),
            Err(SyncError::BadTapCount(16))
        ));
        assert!(matches!(
            TimeSynchronizer::new(vec![CQ15::ZERO; 32], 0.0),
            Err(SyncError::BadThreshold(_))
        ));
    }
}
