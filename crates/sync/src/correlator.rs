//! The 32-tap sliding correlator, CORDIC magnitude and threshold FSM.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use mimo_cordic::Cordic;
use mimo_fixed::{CFx, CQ15, Q16};

use crate::lanes::{ScanLanes, CHUNK};
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
    /// The window scan on [`LANES`](mimo_cordic::LANES) positions per
    /// step; `None` when a tap is off the 16-bit bus.
    lanes: Option<ScanLanes>,
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
        let cordic = Cordic::new();
        Ok(Self {
            lanes: ScanLanes::new(&taps, &cordic),
            taps,
            window: VecDeque::with_capacity(CORRELATOR_TAPS),
            cordic,
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
    ///
    /// The positions run through the lane scan (crate docs) a chunk at
    /// a time; a chunk that reads a sample off the 16-bit bus runs on
    /// the scalar correlator instead, with the same result.
    pub fn scan_peak_window(&self, burst: &[CQ15], lo: usize, hi: usize) -> Option<SyncEvent> {
        let hi = hi.min(burst.len());
        let mut best: Option<SyncEvent> = None;
        let mut magnitudes = [Q16::ZERO; CHUNK];
        // The first evaluable position has a whole window behind it.
        let mut first = lo.max(CORRELATOR_TAPS - 1);
        while first < hi {
            let end = hi.min(first + CHUNK);
            let chunk = &mut magnitudes[..end - first];
            let windows = &burst[first + 1 - CORRELATOR_TAPS..end];
            let laned = self
                .lanes
                .as_ref()
                .is_some_and(|lanes| lanes.magnitudes(windows, chunk));
            if !laned {
                for (m, window) in chunk.iter_mut().zip(windows.windows(CORRELATOR_TAPS)) {
                    *m = self.correlate(window);
                }
            }
            for (index, &magnitude) in (first..end).zip(chunk.iter()) {
                if magnitude.raw() > 0 && best.is_none_or(|b| magnitude > b.magnitude) {
                    best = Some(SyncEvent {
                        peak_index: index,
                        lts_start: index - 15,
                        magnitude,
                    });
                }
            }
            first = end;
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

/// Differential tests of the lane scan: `scan_peak_window` on each lane
/// build against the per-position scalar correlator.
#[cfg(test)]
mod lane_tests {
    use super::*;
    use mimo_fixed::Fx;

    /// The synchroniser on each lane build this CPU runs: the detected
    /// one (AVX2 on AVX2 hosts) and the portable one.
    fn builds(taps: &[CQ15]) -> Vec<TimeSynchronizer> {
        let detected = TimeSynchronizer::new(taps.to_vec(), crate::DEFAULT_THRESHOLD_FACTOR).unwrap();
        let lanes = detected.lanes.as_ref().expect("on-bus taps run in the lanes");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(lanes.avx2, std::arch::is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!lanes.avx2);
        let mut portable = detected.clone();
        let lanes = portable.lanes.as_mut().unwrap();
        lanes.avx2 = false;
        lanes.cordic = mimo_cordic::CordicLanes::portable(&Cordic::new()).unwrap();
        vec![detected, portable]
    }

    /// The scalar scan the lanes must reproduce: one window at a time.
    fn oracle(sync: &TimeSynchronizer, burst: &[CQ15], lo: usize, hi: usize) -> Option<SyncEvent> {
        let hi = hi.min(burst.len());
        let mut best: Option<SyncEvent> = None;
        for index in lo.max(CORRELATOR_TAPS - 1)..hi {
            let magnitude = sync.correlate(&burst[index + 1 - CORRELATOR_TAPS..=index]);
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

    fn check(taps: &[CQ15], burst: &[CQ15], lo: usize, hi: usize) {
        for (b, sync) in builds(taps).iter().enumerate() {
            assert_eq!(
                sync.scan_peak_window(burst, lo, hi),
                oracle(sync, burst, lo, hi),
                "build {b}, lo {lo}, hi {hi}, len {}",
                burst.len()
            );
        }
    }

    fn raw(re: i64, im: i64) -> CQ15 {
        CFx::new(Fx::from_raw(re), Fx::from_raw(im))
    }

    /// Deterministic full-scale 16-bit samples, bus corners included.
    fn full_scale(n: usize, seed: u64) -> Vec<CQ15> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            i64::from((state >> 48) as i16)
        };
        (0..n)
            .map(|i| match i % 11 {
                0 => raw(-32_768, -32_768),
                1 => raw(32_767, -32_768),
                2 => CQ15::ZERO,
                _ => raw(next(), next()),
            })
            .collect()
    }

    fn preamble_taps() -> Vec<CQ15> {
        let fft = mimo_fft::FixedFft::new(64).unwrap();
        let map = mimo_ofdm::SubcarrierMap::new(64).unwrap();
        mimo_ofdm::preamble::sync_reference(&fft, &map, 0.5).unwrap()
    }

    /// Every magnitude a lane chunk produces, not just the winning one,
    /// against the scalar correlator — with taps of ±2¹⁴ and ±2¹³, so
    /// that odd samples put many products exactly on a rounding tie.
    #[test]
    fn lane_magnitudes_match_the_scalar_correlator_at_every_position() {
        let tie_taps: Vec<CQ15> = (0..CORRELATOR_TAPS as i64)
            .map(|j| match j % 4 {
                0 => raw(16_384, -16_384),
                1 => raw(-16_384, 8_192),
                2 => raw(-8_192, -32_768),
                _ => raw(32_767, 16_384),
            })
            .collect();
        let burst = full_scale(CHUNK + CORRELATOR_TAPS - 1 + 40, 17);
        for taps in [tie_taps, full_scale(CORRELATOR_TAPS, 5), preamble_taps()] {
            for sync in builds(&taps) {
                let lanes = sync.lanes.as_ref().unwrap();
                for (first, len) in [(0, CHUNK), (40, CHUNK), (3, 1), (9, 13), (0, 0)] {
                    let window = &burst[first..first + len + CORRELATOR_TAPS - 1];
                    let mut got = [Q16::ZERO; CHUNK];
                    assert!(lanes.magnitudes(window, &mut got[..len]));
                    for (p, &m) in got[..len].iter().enumerate() {
                        let want = sync.correlate(&window[p..p + CORRELATOR_TAPS]);
                        assert_eq!(m, want, "avx2 {}, chunk at {first}, position {p}", lanes.avx2);
                    }
                }
            }
        }
    }

    #[test]
    fn full_scale_windows_of_every_width_match_scalar() {
        let burst = full_scale(260, 3);
        for taps in [full_scale(CORRELATOR_TAPS, 11), preamble_taps()] {
            for width in 0..=97 {
                check(&taps, &burst, 100, 100 + width);
                check(&taps, &burst, 31 + width, 31 + 2 * width);
            }
        }
        // Every product at its largest: (−2¹⁵)·(−2¹⁵) on both parts.
        let corner = vec![raw(-32_768, -32_768); CORRELATOR_TAPS];
        let burst = vec![raw(-32_768, -32_768); 200];
        check(&corner, &burst, 0, 200);
        let burst: Vec<CQ15> = (0..200)
            .map(|i| if i % 2 == 0 { raw(-32_768, 32_767) } else { raw(32_767, -32_768) })
            .collect();
        check(&corner, &burst, 0, 200);
    }

    #[test]
    fn window_edges_match_scalar() {
        let taps = preamble_taps();
        for len in [0, 1, 30, 31, 32, 33, 40, 94, 95, 96, 130, 300] {
            let burst = full_scale(len, len as u64 + 5);
            for (lo, hi) in [
                (0, len),
                (0, len + 500),
                (5, 40),
                (30, 31),
                (31, 32),
                (17, usize::MAX),
                (len.saturating_sub(3), len + 3),
                (len + 10, len + 20),
                (50, 20),
            ] {
                check(&taps, &burst, lo, hi);
            }
            for sync in builds(&taps) {
                assert_eq!(sync.scan_peak(&burst), oracle(&sync, &burst, 0, len), "len {len}");
            }
        }
    }

    #[test]
    fn first_index_wins_ties() {
        let taps = preamble_taps();
        // A 16-periodic capture: windows 16 apart are identical, so
        // every magnitude repeats and the maximum is tied many times.
        let period = full_scale(16, 9);
        let burst: Vec<CQ15> = (0..300).map(|i| period[i % 16]).collect();
        for sync in builds(&taps) {
            let event = sync.scan_peak_window(&burst, 0, 300).expect("non-zero correlation");
            let first_max = (CORRELATOR_TAPS - 1..300)
                .find(|&i| sync.correlate(&burst[i + 1 - CORRELATOR_TAPS..=i]) == event.magnitude)
                .unwrap();
            assert_eq!(event.peak_index, first_max);
            assert!(first_max + 16 < 300, "the maximum repeats later");
        }
        check(&taps, &burst, 0, 300);
        check(&taps, &burst, 40, 137);
    }

    #[test]
    fn off_bus_samples_take_the_scalar_path() {
        let taps = preamble_taps();
        let clean = full_scale(240, 21);
        for (at, value) in [
            (0, raw(32_768, 0)),
            (35, raw(0, -32_769)),
            (100, raw(1 << 20, -(1 << 20))),
            (130, raw(i64::MAX / 4, 5)),
            (239, raw(-40_000, 40_000)),
        ] {
            let mut burst = clean.clone();
            burst[at] = value;
            for (lo, hi) in [(0, 240), (at.saturating_sub(50), at + 50), (at + 1, 240)] {
                check(&taps, &burst, lo, hi);
            }
            let sync = &builds(&taps)[0];
            let lanes = sync.lanes.as_ref().unwrap();
            // Eight windows whose samples include the off-bus one.
            let first = at.clamp(CORRELATOR_TAPS - 1, 240 - 8);
            let mut out = [Q16::ZERO; 8];
            assert!(!lanes.magnitudes(&burst[first + 1 - CORRELATOR_TAPS..first + 8], &mut out));
            assert!(lanes.magnitudes(&clean[first + 1 - CORRELATOR_TAPS..first + 8], &mut out));
        }
        // Taps off the bus leave the whole scan on the scalar path.
        let mut wide_taps = taps.clone();
        wide_taps[4] = raw(40_000, 0);
        let sync = TimeSynchronizer::new(wide_taps, 0.5).unwrap();
        assert!(sync.lanes.is_none());
        assert_eq!(sync.scan_peak(&clean), oracle(&sync, &clean, 0, 240));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random full-scale captures and windows, any length.
        #[test]
        fn random_windows_match_scalar(
            len in 0usize..400,
            seed in 0u64..1 << 32,
            lo in 0usize..420,
            width in 0usize..200,
        ) {
            check(&full_scale(CORRELATOR_TAPS, seed ^ 7), &full_scale(len, seed), lo, lo + width);
        }
    }
}
