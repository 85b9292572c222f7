//! Pilot processing: common phase correction and feed-forward timing.
//!
//! "The pilot tones are extracted and de-scrambled. The average value
//! of the pilot tones is calculated and phase correction is performed
//! on the entire OFDM symbol by multiplying each subcarrier by the
//! pilot tone average. ... Each pilot tone is divided by its subcarrier
//! number and then the average is calculated to determine the
//! feed-forward time synchronization value, Tau. ... a running adder is
//! used [so that] as the time correction is performed on each
//! incrementing subcarrier, the Tau value is also incremented using a
//! feedback adder." (§IV.B)

use mimo_cordic::{Cordic, CordicLanes, Lanes, LANES};
use mimo_fixed::{CFx, CQ15, Cf64, Q16, SAMPLE_BITS};

/// Narrows a rotated Q2.16 pair back onto the 16-bit sample bus.
fn narrow(x: Q16, y: Q16) -> CQ15 {
    let narrow: CFx<15> = CFx::new(x, y).convert();
    narrow.saturate_bits(SAMPLE_BITS)
}

// phylint: hot
/// De-rotates up to [`LANES`] carriers, carrier `k` by the raw Q2.16
/// angle `angle[k]`, and narrows them back to samples.
///
/// The group runs on the lane CORDIC when there is one and every
/// widened sample is inside its admitted range — always true for
/// 16-bit samples — with a short tail group padded by zero lanes that
/// are discarded. Otherwise each carrier goes through the scalar
/// engine. Both paths give the same bits.
fn rotate_group(
    cordic: &Cordic,
    lanes: Option<&CordicLanes>,
    carriers: &mut [CQ15],
    angle: &[i64; LANES],
) {
    debug_assert!(carriers.len() <= LANES);
    let widened = |c: &CQ15| -> CFx<16> { c.convert() };
    let admitted = carriers.iter().all(|c| {
        let w = widened(c);
        CordicLanes::accepts(w.re.raw()) && CordicLanes::accepts(w.im.raw())
    });
    match lanes {
        Some(lanes) if admitted => {
            let (mut x, mut y): (Lanes, Lanes) = ([0; LANES], [0; LANES]);
            for (k, c) in carriers.iter().enumerate() {
                let w = widened(c);
                // Admitted words are below 2²⁴, so they fit an i32 lane.
                x[k] = w.re.raw() as i32;
                y[k] = w.im.raw() as i32;
            }
            lanes.rotate(
                angle,
                std::slice::from_mut(&mut x),
                std::slice::from_mut(&mut y),
            );
            for (k, c) in carriers.iter_mut().enumerate() {
                *c = narrow(Q16::from_raw(x[k].into()), Q16::from_raw(y[k].into()));
            }
        }
        _ => {
            for (c, &a) in carriers.iter_mut().zip(angle) {
                let w = widened(c);
                let rotated = cordic.rotate(w.re, w.im, Q16::from_raw(a));
                *c = narrow(rotated.x, rotated.y);
            }
        }
    }
}
// phylint: end-hot

/// Common (symbol-wide) phase correction from the de-scrambled pilot
/// average.
#[derive(Debug, Clone)]
pub struct PilotPhaseCorrector {
    cordic: Cordic,
    /// The de-rotation CORDIC on [`LANES`] carriers per step.
    lanes: Option<CordicLanes>,
}

impl Default for PilotPhaseCorrector {
    fn default() -> Self {
        Self::new()
    }
}

impl PilotPhaseCorrector {
    /// Creates the corrector (one CORDIC for the angle extraction, one
    /// rotation per subcarrier).
    pub fn new() -> Self {
        let cordic = Cordic::new();
        Self {
            lanes: CordicLanes::new(&cordic),
            cordic,
        }
    }

    /// Estimates the common phase from the pilots: each received pilot
    /// is de-scrambled (multiplied by its expected ±1 sign) and the
    /// complex average is vectored to an angle.
    ///
    /// Returns the angle in radians (Q2.16). Zero pilots yield zero.
    pub fn estimate_phase(&self, pilots: &[CQ15], expected_signs: &[i8]) -> Q16 {
        debug_assert_eq!(pilots.len(), expected_signs.len());
        let mut acc = CFx::<15>::ZERO;
        for (&p, &sign) in pilots.iter().zip(expected_signs) {
            acc += if sign >= 0 { p } else { -p };
        }
        if acc.is_zero() {
            return Q16::ZERO;
        }
        let wide: CFx<16> = acc.convert();
        self.cordic.vector(wide.re, wide.im).angle
    }

    /// Rotates every carrier of a symbol by `-phase` (the correction).
    pub fn correct(&self, carriers: &[CQ15], phase: Q16) -> Vec<CQ15> {
        let mut out = carriers.to_vec();
        self.correct_in_place(&mut out, phase);
        out
    }

    /// In-place [`PilotPhaseCorrector::correct`]: the hot path rotates
    /// the equalized symbol buffer it already owns, allocating nothing,
    /// [`LANES`] carriers per CORDIC step.
    pub fn correct_in_place(&self, carriers: &mut [CQ15], phase: Q16) {
        let angle = [(-phase).raw(); LANES];
        for group in carriers.chunks_mut(LANES) {
            rotate_group(&self.cordic, self.lanes.as_ref(), group, &angle);
        }
    }
}

/// Feed-forward timing estimation and correction.
///
/// A residual timing offset of `δ` samples appears in the frequency
/// domain as a per-carrier phase ramp `e^{-j2πlδ/N}`. Tau is the ramp
/// slope (radians per carrier index), estimated from the
/// (phase-corrected) pilots; the correction de-rotates carrier `l` by
/// `l·τ` using a running adder for the angle.
#[derive(Debug, Clone)]
pub struct TimingCorrector {
    cordic: Cordic,
    /// The de-rotation CORDIC on [`LANES`] carriers per step.
    lanes: Option<CordicLanes>,
    /// Replicate the paper's small-angle add/sub correction instead of
    /// an exact rotation.
    small_angle: bool,
}

impl Default for TimingCorrector {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingCorrector {
    /// Creates a corrector using exact CORDIC de-rotation.
    pub fn new() -> Self {
        let cordic = Cordic::new();
        Self {
            lanes: CordicLanes::new(&cordic),
            cordic,
            small_angle: false,
        }
    }

    /// Creates a corrector using the paper's small-angle approximation:
    /// "time corrected by adding the relevant Tau value to the real
    /// component and by subtracting it from the imaginary component".
    pub fn small_angle() -> Self {
        Self {
            small_angle: true,
            ..Self::new()
        }
    }

    /// Estimates tau (radians per carrier) from de-scrambled pilots:
    /// "each pilot tone is divided by its subcarrier number and then
    /// the average is calculated".
    ///
    /// `indices` are the pilots' logical subcarrier numbers (±7, ±21
    /// for 64-point).
    pub fn estimate_tau(&self, pilots: &[CQ15], expected_signs: &[i8], indices: &[i32]) -> f64 {
        debug_assert_eq!(pilots.len(), expected_signs.len());
        debug_assert_eq!(pilots.len(), indices.len());
        let mut acc = 0.0;
        let mut count = 0usize;
        for ((&p, &sign), &l) in pilots.iter().zip(expected_signs).zip(indices) {
            if l == 0 {
                continue;
            }
            let v = Cf64::from_fixed(if sign >= 0 { p } else { -p });
            if v.norm() == 0.0 {
                continue;
            }
            acc += v.arg() / l as f64;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            acc / count as f64
        }
    }

    /// Corrects a symbol's occupied carriers: carrier with logical
    /// index `l` is de-rotated by `l·tau`. The per-carrier angle is
    /// produced by a running adder exactly as in the hardware.
    pub fn correct(&self, carriers: &[CQ15], indices: &[i32], tau: f64) -> Vec<CQ15> {
        let mut out = carriers.to_vec();
        self.correct_in_place(&mut out, indices, tau);
        out
    }

    /// In-place [`TimingCorrector::correct`] for the allocation-free
    /// hot path. The exact mode de-rotates [`LANES`] carriers per
    /// CORDIC step.
    pub fn correct_in_place(&self, carriers: &mut [CQ15], indices: &[i32], tau: f64) {
        debug_assert_eq!(carriers.len(), indices.len());
        let n = indices.len().min(carriers.len());
        let carriers = &mut carriers[..n];
        let tau_q = Q16::from_f64(tau);
        // Running adder: angle = l · tau accumulated in Q2.16.
        let angle_of = |l: i32| Q16::from_raw(tau_q.raw().saturating_mul(i64::from(l)));
        if self.small_angle {
            for (c, &l) in carriers.iter_mut().zip(indices) {
                let angle = angle_of(l);
                let wide: CFx<16> = c.convert();
                // Paper's approximation: re += angle·im-ish terms
                // reduce to adding tau_l to I and subtracting from
                // Q scaled by the component magnitudes.
                let re = wide.re + wide.im.mul(angle);
                let im = wide.im - wide.re.mul(angle);
                *c = narrow(re, im);
            }
            return;
        }
        for (group, idx) in carriers.chunks_mut(LANES).zip(indices.chunks(LANES)) {
            let mut angle = [0; LANES];
            for (a, &l) in angle.iter_mut().zip(idx) {
                *a = (-angle_of(l)).raw();
            }
            rotate_group(&self.cordic, self.lanes.as_ref(), group, &angle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fixed::Fx;

    fn rotate_all(carriers: &[CQ15], phase: f64) -> Vec<CQ15> {
        carriers
            .iter()
            .map(|&c| {
                (Cf64::from_fixed(c) * Cf64::from_polar(1.0, phase))
                    .to_fixed::<15>()
                    .saturate_bits(16)
            })
            .collect()
    }

    #[test]
    fn common_phase_estimated_and_removed() {
        let corrector = PilotPhaseCorrector::new();
        let clean: Vec<CQ15> = (0..8).map(|i| CQ15::from_f64(0.2, 0.05 * i as f64)).collect();
        let pilots_clean = [
            CQ15::from_f64(0.25, 0.0),
            CQ15::from_f64(0.25, 0.0),
            CQ15::from_f64(0.25, 0.0),
            CQ15::from_f64(-0.25, 0.0),
        ];
        let signs = [1i8, 1, 1, -1];
        for phase in [-1.0f64, -0.3, 0.2, 0.9] {
            let rx = rotate_all(&clean, phase);
            let rx_pilots = rotate_all(&pilots_clean, phase);
            let est = corrector.estimate_phase(&rx_pilots, &signs);
            assert!(
                (est.to_f64() - phase).abs() < 5e-3,
                "phase {phase}: est {}",
                est.to_f64()
            );
            let fixed = corrector.correct(&rx, est);
            for (f, c) in fixed.iter().zip(&clean) {
                let err = (Cf64::from_fixed(*f) - Cf64::from_fixed(*c)).norm();
                assert!(err < 5e-3, "phase {phase}: err {err}");
            }
        }
    }

    #[test]
    fn zero_pilots_give_zero_phase() {
        let corrector = PilotPhaseCorrector::new();
        assert_eq!(
            corrector.estimate_phase(&[CQ15::ZERO; 4], &[1, 1, 1, -1]),
            Q16::ZERO
        );
    }

    #[test]
    fn tau_estimated_from_phase_ramp() {
        let corrector = TimingCorrector::new();
        let indices = [-21i32, -7, 7, 21];
        let signs = [1i8, 1, 1, -1];
        // A timing offset produces phase l·slope on carrier l.
        for slope in [-0.02f64, -0.005, 0.01, 0.03] {
            let pilots: Vec<CQ15> = indices
                .iter()
                .zip(&signs)
                .map(|(&l, &s)| {
                    (Cf64::from_polar(0.25, slope * l as f64) * Cf64::new(f64::from(s), 0.0))
                        .to_fixed::<15>()
                })
                .collect();
            let tau = corrector.estimate_tau(&pilots, &signs, &indices);
            assert!((tau - slope).abs() < 1e-3, "slope {slope}: tau {tau}");
        }
    }

    #[test]
    fn ramp_correction_flattens_symbol() {
        let corrector = TimingCorrector::new();
        let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
        let slope = 0.015;
        let rx: Vec<CQ15> = indices
            .iter()
            .map(|&l| (Cf64::from_polar(0.3, slope * l as f64)).to_fixed::<15>())
            .collect();
        let out = corrector.correct(&rx, &indices, slope);
        for (o, &l) in out.iter().zip(&indices) {
            let v = Cf64::from_fixed(*o);
            assert!(
                v.arg().abs() < 6e-3,
                "carrier {l}: residual phase {}",
                v.arg()
            );
            assert!((v.norm() - 0.3).abs() < 5e-3);
        }
    }

    #[test]
    fn small_angle_model_close_to_exact_for_small_tau() {
        let exact = TimingCorrector::new();
        let approx = TimingCorrector::small_angle();
        let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
        let slope = 0.002; // small residual, the regime the paper targets
        let rx: Vec<CQ15> = indices
            .iter()
            .map(|&l| Cf64::from_polar(0.3, slope * l as f64).to_fixed::<15>())
            .collect();
        let a = exact.correct(&rx, &indices, slope);
        let b = approx.correct(&rx, &indices, slope);
        for (x, y) in a.iter().zip(&b) {
            let err = (Cf64::from_fixed(*x) - Cf64::from_fixed(*y)).norm();
            assert!(err < 5e-3, "small-angle deviation {err}");
        }
    }

    #[test]
    fn degenerate_tau_inputs() {
        let corrector = TimingCorrector::new();
        assert_eq!(corrector.estimate_tau(&[], &[], &[]), 0.0);
        // Zero pilots and zero indices are skipped, not divided by.
        let tau = corrector.estimate_tau(
            &[CQ15::ZERO, CQ15::from_f64(0.1, 0.0)],
            &[1, 1],
            &[0, 7],
        );
        assert!(tau.abs() < 1e-9);
    }

    /// Both correctors on each lane build this CPU runs: the detected
    /// one (AVX2 on AVX2 hosts) and the portable one.
    fn corrector_builds() -> Vec<(PilotPhaseCorrector, TimingCorrector)> {
        let cordic = Cordic::new();
        let detected = CordicLanes::new(&cordic).unwrap();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(detected.build_name(), "avx2");
        }
        [detected, CordicLanes::portable(&cordic).unwrap()]
            .into_iter()
            .map(|lanes| {
                let phase = PilotPhaseCorrector {
                    lanes: Some(lanes.clone()),
                    ..PilotPhaseCorrector::new()
                };
                let timing = TimingCorrector {
                    lanes: Some(lanes),
                    ..TimingCorrector::new()
                };
                (phase, timing)
            })
            .collect()
    }

    /// Deterministic full-scale 16-bit samples, bus corners included.
    fn samples(n: usize, seed: u64) -> Vec<CQ15> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 48) as i16
        };
        (0..n)
            .map(|i| match i % 11 {
                0 => CQ15::ZERO,
                1 => CFx::new(Fx::from_raw(-32_768), Fx::from_raw(0)),
                2 => CFx::new(Fx::from_raw(32_767), Fx::from_raw(-32_768)),
                _ => CFx::new(Fx::from_raw(next().into()), Fx::from_raw(next().into())),
            })
            .collect()
    }

    /// The per-carrier scalar reference both correctors must equal.
    fn scalar_rotate(carriers: &[CQ15], angle: impl Fn(usize) -> Q16) -> Vec<CQ15> {
        let cordic = Cordic::new();
        carriers
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let wide: CFx<16> = c.convert();
                let r = cordic.rotate(wide.re, wide.im, angle(k));
                narrow(r.x, r.y)
            })
            .collect()
    }

    #[test]
    fn phase_lanes_match_scalar_at_every_carrier_count() {
        let phases = [
            0.0,
            0.3,
            -1.2,
            2.9,
            -3.1,
            std::f64::consts::PI,
            -std::f64::consts::FRAC_PI_2,
        ];
        for (phase_c, _) in corrector_builds() {
            for n in (1..=64).chain([52]) {
                for (p, &phase) in phases.iter().enumerate() {
                    let phase = Q16::from_f64(phase);
                    let rx = samples(n, (n * 7 + p) as u64);
                    let mut got = rx.clone();
                    phase_c.correct_in_place(&mut got, phase);
                    assert_eq!(got, scalar_rotate(&rx, |_| -phase), "n {n} phase {phase:?}");
                }
            }
        }
    }

    #[test]
    fn timing_lanes_match_scalar_at_every_carrier_count() {
        // Ordinary residuals, wrapping ramps, and taus whose `tau_q·l`
        // saturates the i64 running adder.
        let taus = [0.0, 0.015, -0.2, 1.7, 1e13, -1e13, f64::MAX, f64::MIN];
        for (_, timing) in corrector_builds() {
            for n in (1..=64).chain([52]) {
                let indices: Vec<i32> = (0..n as i32).map(|k| k - n as i32 / 2).collect();
                for (t, &tau) in taus.iter().enumerate() {
                    let rx = samples(n, (n * 13 + t) as u64);
                    let mut got = rx.clone();
                    timing.correct_in_place(&mut got, &indices, tau);
                    let tau_q = Q16::from_f64(tau);
                    let want = scalar_rotate(&rx, |k| {
                        -Q16::from_raw(tau_q.raw().saturating_mul(i64::from(indices[k])))
                    });
                    assert_eq!(got, want, "n {n} tau {tau}");
                }
            }
        }
    }
}
