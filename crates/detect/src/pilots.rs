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
//!
//! The receiver runs them in this order per symbol: it estimates the
//! common phase φ from the pilots, phase-corrects the four pilots alone
//! ([`PilotPhaseCorrector::correct_in_place`] on the pilot buffer),
//! estimates τ from them, and then makes one pass over the whole symbol
//! ([`TimingCorrector::correct_with_phase_in_place`]) that rotates every
//! carrier by `−φ`, narrows it to the sample bus, and rotates it by
//! `−l·τ`. Each carrier's rotation is independent of the others, so the
//! bits are those of a whole-symbol phase pass followed by a
//! whole-symbol timing pass, which both stay public as the oracle.

use mimo_cordic::{Cordic, CordicLanes, Lanes, DEROTATE_GROUPS, LANES};
use mimo_fixed::{CFx, CQ15, Cf64, Fx, Q16, SAMPLE_BITS};

/// Narrows a rotated Q2.16 pair back onto the 16-bit sample bus.
fn narrow(x: Q16, y: Q16) -> CQ15 {
    let narrow: CFx<15> = CFx::new(x, y).convert();
    narrow.saturate_bits(SAMPLE_BITS)
}

// phylint: hot
/// De-rotates up to `G·`[`LANES`] carriers, carrier `i` by the raw
/// Q2.16 angle `angle[i % LANES]`, and narrows them back to samples.
///
/// The carriers run on the lane CORDIC in one call, lane group `g`
/// holding carriers `g·LANES..`, when every widened sample is inside
/// its admitted range — always true for 16-bit samples — with a short
/// tail group padded by zero lanes that are discarded. Otherwise each
/// carrier goes through the scalar engine. Both paths give the same
/// bits.
fn rotate_carriers<const G: usize>(
    cordic: &Cordic,
    lanes: &CordicLanes,
    carriers: &mut [CQ15],
    angle: &[i64; LANES],
) {
    debug_assert!(carriers.len() <= G * LANES);
    let widened = |c: &CQ15| -> CFx<16> { c.convert() };
    let admitted = carriers.iter().all(|c| {
        let w = widened(c);
        CordicLanes::accepts(w.re.raw()) && CordicLanes::accepts(w.im.raw())
    });
    if !admitted {
        for (c, &a) in carriers.iter_mut().zip(angle.iter().cycle()) {
            let w = widened(c);
            let rotated = cordic.rotate(w.re, w.im, Q16::from_raw(a));
            *c = narrow(rotated.x, rotated.y);
        }
        return;
    }
    let (mut xs, mut ys): ([Lanes; G], [Lanes; G]) = ([[0; LANES]; G], [[0; LANES]; G]);
    for ((x, y), group) in xs.iter_mut().zip(&mut ys).zip(carriers.chunks(LANES)) {
        for (k, c) in group.iter().enumerate() {
            let w = widened(c);
            // Admitted words are below 2²⁴, so they fit an i32 lane.
            x[k] = w.re.raw() as i32;
            y[k] = w.im.raw() as i32;
        }
    }
    let groups = carriers.len().div_ceil(LANES);
    lanes.rotate(angle, &mut xs[..groups], &mut ys[..groups]);
    for ((x, y), group) in xs.iter().zip(&ys).zip(carriers.chunks_mut(LANES)) {
        for (k, c) in group.iter_mut().enumerate() {
            *c = narrow(Q16::from_raw(x[k].into()), Q16::from_raw(y[k].into()));
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
    lanes: CordicLanes,
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
    ///
    /// Every carrier turns by the same angle, so a block of up to
    /// [`DEROTATE_GROUPS`] lane groups (a whole 52-carrier symbol) is
    /// widened onto lanes and rotated in one [`CordicLanes::rotate`]
    /// call, which derives the angle's micro-rotation directions once
    /// for all of them.
    pub fn correct_in_place(&self, carriers: &mut [CQ15], phase: Q16) {
        correct_phase(&self.cordic, &self.lanes, carriers, phase);
    }
}

/// The body of [`PilotPhaseCorrector::correct_in_place`] on a given
/// engine, shared with the one-pass fallback.
fn correct_phase(cordic: &Cordic, lanes: &CordicLanes, carriers: &mut [CQ15], phase: Q16) {
    let angle = [(-phase).raw(); LANES];
    // A symbol's pilots fit one lane group: stage only that one.
    if carriers.len() <= LANES {
        rotate_carriers::<1>(cordic, lanes, carriers, &angle);
        return;
    }
    for block in carriers.chunks_mut(DEROTATE_GROUPS * LANES) {
        rotate_carriers::<DEROTATE_GROUPS>(cordic, lanes, block, &angle);
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
    lanes: CordicLanes,
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
        if self.small_angle {
            // Running adder: angle = l · tau accumulated in Q2.16.
            let angle_of = |l: i32| Q16::from_raw(tau_q.raw().saturating_mul(i64::from(l)));
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
                *a = ramp_angle(tau_q, l);
            }
            rotate_carriers::<1>(&self.cordic, &self.lanes, group, &angle);
        }
    }

    /// The common-phase correction by `phase` followed by this timing
    /// correction, in one pass: bit for bit
    /// [`PilotPhaseCorrector::correct_in_place`]`(carriers, phase)` then
    /// [`TimingCorrector::correct_in_place`]`(carriers, indices, tau)`.
    ///
    /// In the exact mode, with one index per carrier and every carrier
    /// on the 16-bit sample bus (always true of the ZF output), a block
    /// of up to [`DEROTATE_GROUPS`] lane groups at a time runs
    /// both rotations, and the narrow to the bus between them, in one
    /// [`CordicLanes::derotate_bus`] call. The `−φ` micro-rotation
    /// directions are derived once per block and every carrier's `−l·τ`
    /// rotation follows while its lane group is still loaded. Anything
    /// else takes the two passes.
    pub fn correct_with_phase_in_place(
        &self,
        carriers: &mut [CQ15],
        indices: &[i32],
        phase: Q16,
        tau: f64,
    ) {
        let on_bus = |c: &CQ15| c.re.fits_bits(SAMPLE_BITS) && c.im.fits_bits(SAMPLE_BITS);
        if self.small_angle || carriers.len() != indices.len() || !carriers.iter().all(on_bus) {
            correct_phase(&self.cordic, &self.lanes, carriers, phase);
            self.correct_in_place(carriers, indices, tau);
            return;
        }
        let tau_q = Q16::from_f64(tau);
        let block = DEROTATE_GROUPS * LANES;
        for (chunk, idx) in carriers.chunks_mut(block).zip(indices.chunks(block)) {
            let mut xs = [[0; LANES]; DEROTATE_GROUPS];
            let mut ys = [[0; LANES]; DEROTATE_GROUPS];
            let mut ramp = [[0; LANES]; DEROTATE_GROUPS];
            let staged = xs.iter_mut().zip(&mut ys).zip(&mut ramp);
            for (((x, y), r), (cs, ls)) in staged.zip(chunk.chunks(LANES).zip(idx.chunks(LANES))) {
                let cells = x.iter_mut().zip(y.iter_mut()).zip(r.iter_mut());
                for (((x, y), r), (c, &l)) in cells.zip(cs.iter().zip(ls)) {
                    // On-bus words fit an i32 lane.
                    (*x, *y) = (c.re.raw() as i32, c.im.raw() as i32);
                    *r = ramp_angle(tau_q, l);
                }
            }
            let groups = chunk.len().div_ceil(LANES);
            self.lanes.derotate_bus(
                (-phase).raw(),
                &ramp[..groups],
                &mut xs[..groups],
                &mut ys[..groups],
            );
            for ((x, y), cs) in xs.iter().zip(&ys).zip(chunk.chunks_mut(LANES)) {
                for ((&x, &y), c) in x.iter().zip(y).zip(cs) {
                    *c = CFx::new(Fx::from_raw(x.into()), Fx::from_raw(y.into()));
                }
            }
        }
    }
}

/// The raw Q2.16 de-rotation of carrier `l`: `−(l·τ)`, the running
/// adder's angle saturated to `i64`, negated.
fn ramp_angle(tau_q: Q16, l: i32) -> i64 {
    (-Q16::from_raw(tau_q.raw().saturating_mul(i64::from(l)))).raw()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fixed::{Fx, Isa};

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

    /// Both correctors on every tier this CPU runs.
    fn corrector_builds() -> Vec<(PilotPhaseCorrector, TimingCorrector)> {
        Isa::tiers()
            .iter()
            .map(|&isa| {
                let lanes = CordicLanes::with_isa(&Cordic::new(), isa);
                let phase = PilotPhaseCorrector {
                    lanes: lanes.clone(),
                    ..PilotPhaseCorrector::new()
                };
                let timing = TimingCorrector {
                    lanes,
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

    /// A symbol holding one carrier past the lanes' admitted range
    /// rotates its block on the scalar engine, with the same bits.
    #[test]
    fn phase_block_with_an_unadmitted_carrier_matches_scalar() {
        let phase = Q16::from_f64(-0.7);
        for (phase_c, _) in corrector_builds() {
            for (n, at) in [(52, 0), (52, 51), (600, 17), (600, 530), (8, 3)] {
                let mut rx = samples(n, n as u64 + at as u64);
                rx[at] = CFx::new(Fx::from_raw(1 << 30), Fx::from_raw(-(1 << 29)));
                let mut got = rx.clone();
                phase_c.correct_in_place(&mut got, phase);
                assert_eq!(got, scalar_rotate(&rx, |_| -phase), "n {n} at {at}");
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

    /// The two passes the one-pass correction must equal.
    fn two_passes(
        phase_c: &PilotPhaseCorrector,
        timing: &TimingCorrector,
        rx: &[CQ15],
        indices: &[i32],
        phi: Q16,
        tau: f64,
    ) -> Vec<CQ15> {
        let mut want = rx.to_vec();
        phase_c.correct_in_place(&mut want, phi);
        timing.correct_in_place(&mut want, indices, tau);
        want
    }

    fn check_one_pass(
        (phase_c, timing): &(PilotPhaseCorrector, TimingCorrector),
        rx: &[CQ15],
        indices: &[i32],
        phi: Q16,
        tau: f64,
    ) {
        let mut got = rx.to_vec();
        timing.correct_with_phase_in_place(&mut got, indices, phi, tau);
        assert_eq!(
            got,
            two_passes(phase_c, timing, rx, indices, phi, tau),
            "n {} phi {phi:?} tau {tau} lanes {:?} small_angle {}",
            rx.len(),
            timing.lanes,
            timing.small_angle
        );
    }

    /// Raw Q2.16 phases at ±π, the ±π/2 quadrant edges and between.
    fn edge_phases() -> Vec<Q16> {
        let pi = Q16::from_f64(std::f64::consts::PI).raw();
        let half = pi / 2;
        [
            0,
            pi,
            -pi,
            half,
            -half,
            half + 1,
            -half - 1,
            half - 1,
            -half + 1,
            20_000,
            -77_777,
        ]
        .into_iter()
        .map(Q16::from_raw)
        .collect()
    }

    /// Carrier counts 1–512: every count to 64, a stride beyond, and
    /// the block and FFT-size edges.
    fn carrier_counts() -> Vec<usize> {
        let mut n: Vec<usize> = (1..=64).chain((65..=512).step_by(29)).collect();
        n.extend([7, 8, 9, 52, 55, 56, 57, 104, 112, 208, 416, 511, 512]);
        n
    }

    #[test]
    fn one_pass_matches_two_passes_at_every_carrier_count() {
        // Residual taus, and taus whose `l·τ` wraps past ±π.
        let taus = [0.0, 0.012, -0.03, 0.2, -1.7, 1e13, f64::MIN];
        let phases = edge_phases();
        for builds in corrector_builds() {
            for n in carrier_counts() {
                let indices: Vec<i32> = (0..n as i32).map(|k| k - n as i32 / 2).collect();
                let rx = samples(n, n as u64 * 31);
                for (t, &tau) in taus.iter().enumerate() {
                    check_one_pass(&builds, &rx, &indices, phases[(n + t) % phases.len()], tau);
                }
            }
            // The receiver's maps skip DC.
            for m in [1, 2, 4, 8] {
                let edge = 26 * m;
                let indices: Vec<i32> = (-edge..=edge).filter(|&l| l != 0).collect();
                let rx = samples(indices.len(), m as u64);
                for &phi in &phases {
                    check_one_pass(&builds, &rx, &indices, phi, 0.05);
                }
            }
        }
    }

    /// Full-scale bus corners on every lane of a symbol.
    #[test]
    fn one_pass_matches_two_passes_at_full_scale() {
        let corners = [
            (-32_768, -32_768),
            (-32_768, 32_767),
            (32_767, -32_768),
            (32_767, 32_767),
        ];
        let rx: Vec<CQ15> = (0..56)
            .map(|i| {
                let (re, im) = corners[i % 4];
                CFx::new(Fx::from_raw(re), Fx::from_raw(im))
            })
            .collect();
        let indices: Vec<i32> = (-28..28).collect();
        for builds in corrector_builds() {
            for &phi in &edge_phases() {
                for tau in [0.0, 0.11, -0.4] {
                    check_one_pass(&builds, &rx, &indices, phi, tau);
                }
            }
        }
    }

    /// A symbol with a carrier off the 16-bit bus takes the two passes,
    /// with the same bits.
    #[test]
    fn off_bus_symbols_take_the_two_passes() {
        let phi = Q16::from_f64(-2.2);
        for builds in corrector_builds() {
            for (n, at, value) in [
                (52, 0, 1 << 15),
                (52, 51, -(1 << 15) - 1),
                (104, 60, 1 << 30),
                (8, 3, 1 << 20),
            ] {
                let mut rx = samples(n, n as u64 + at as u64);
                rx[at] = CFx::new(Fx::from_raw(value), Fx::from_raw(-1));
                let indices: Vec<i32> = (0..n as i32).map(|k| k - 26).collect();
                check_one_pass(&builds, &rx, &indices, phi, 0.3);
            }
        }
    }

    /// Zero pilots give φ = τ = 0; the small-angle mode takes the two
    /// passes.
    #[test]
    fn zero_pilots_and_small_angle_match_two_passes() {
        let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
        let rx = samples(52, 9);
        let pilots = [CQ15::ZERO; 4];
        let signs = [1, 1, 1, -1];
        for (phase_c, timing) in corrector_builds() {
            let phi = phase_c.estimate_phase(&pilots, &signs);
            let tau = timing.estimate_tau(&pilots, &signs, &[-21, -7, 7, 21]);
            assert_eq!((phi, tau), (Q16::ZERO, 0.0));
            let small = TimingCorrector {
                small_angle: true,
                ..timing.clone()
            };
            for t in [timing, small] {
                let builds = (phase_c.clone(), t);
                check_one_pass(&builds, &rx, &indices, phi, tau);
                for &phi in &edge_phases() {
                    check_one_pass(&builds, &rx, &indices, phi, 0.004);
                }
            }
        }
    }
}
