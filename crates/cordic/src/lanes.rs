//! The lane-parallel CORDIC: eight independent carriers per step.
//!
//! The paper streams 20 subcarriers back to back through every 20-cycle
//! CORDIC element of the QRD array (Fig 8), so all carriers share one
//! array. [`CordicLanes`] is the software counterpart of that
//! streaming: it runs the same micro-rotation sequence for [`LANES`]
//! carriers at once, on `[i32; 8]` lane arrays, with the direction of
//! each micro-rotation taken from a sign mask instead of a branch.
//!
//! # Bit-exact contract
//!
//! Every lane computes exactly what [`Cordic::vector`] and
//! [`Cordic::rotate`] compute for the same inputs: the same quadrant
//! pre-rotations and angle wrap (shared with the scalar engine), the
//! same truncating shifts, the same atan table, and the same
//! round-half-away-from-zero gain compensation. The scalar engine stays
//! the oracle, and the path for anything the lanes cannot hold.
//!
//! # Range guard and headroom
//!
//! The scalar engine works on `i64` words; the lanes on `i32`. They
//! agree as long as no lane intermediate leaves the `i32` range. A
//! CORDIC grows a vector by at most its gain `K ≈ 1.65`, so one
//! operation on components below 2²⁸ peaks below `1.65·√2·2²⁸ < 2³⁰`;
//! [`CordicLanes::vector`] and [`CordicLanes::rotate`] require that
//! (and check it in debug builds). Callers admit data only when every
//! raw input is below [`LANE_INPUT_LIMIT`] = 2²⁴
//! ([`CordicLanes::accepts`]): a QRD over a 4×4 matrix of such
//! elements keeps its values within the column norms of `[H | I]`,
//! at most `√8·2²⁴ ≈ 2^25.5`, which leaves a factor of five to the
//! per-operation limit. Anything else goes to the scalar engine. The
//! lanes run at most 31 micro-rotations, so every shift of an `i32`
//! lane stays defined.
//!
//! # Builds
//!
//! The lane body is written once, as plain fixed-width array
//! arithmetic, and built twice: once inside an `avx2` target-feature
//! function, selected at construction when `is_x86_feature_detected!`
//! reports support, and once plain for every other host. Both builds
//! give the same bits.

use crate::angle::{rotate_quadrant, vector_quadrant, wrap_angle};
use crate::Cordic;

/// Carriers per lane step — one AVX2 register of `i32`.
pub const LANES: usize = 8;

/// One `i32` word per carrier: a lane vector.
pub type Lanes = [i32; LANES];

/// Inputs enter the lanes only when every raw Q2.16 word is below this
/// magnitude (see the module docs for the headroom argument).
pub const LANE_INPUT_LIMIT: i64 = 1 << 24;

/// Largest micro-rotation count the lanes run: every `x >> i` on an
/// `i32` lane stays a defined shift.
const MAX_ITERATIONS: usize = 31;

/// Per-operation bound on lane components (module docs).
const OP_LIMIT: u32 = 1 << 28;

/// Which build of the lane body backs a [`CordicLanes`], fixed at
/// construction from run-time CPU-feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneBuild {
    /// Built with `avx2` enabled (x86-64 with run-time support).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Built for the baseline target.
    Portable,
}

/// The lane-parallel CORDIC engine: [`Cordic::vector`] and
/// [`Cordic::rotate`] on [`LANES`] carriers per call, bit-identical to
/// the scalar engine it is built from.
///
/// # Examples
///
/// ```
/// use mimo_cordic::{Cordic, CordicLanes, LANES};
/// use mimo_fixed::Q16;
///
/// let cordic = Cordic::new();
/// let lanes = CordicLanes::new(&cordic).expect("18 iterations fit the lanes");
/// let x = [Q16::from_f64(0.6).raw() as i32; LANES];
/// let y = [Q16::from_f64(0.8).raw() as i32; LANES];
/// let (magnitude, angle) = lanes.vector(&x, &y);
/// let scalar = cordic.vector(Q16::from_f64(0.6), Q16::from_f64(0.8));
/// assert_eq!(i64::from(magnitude[3]), scalar.magnitude.raw());
/// assert_eq!(i64::from(angle[3]), scalar.angle.raw());
/// ```
#[derive(Debug, Clone)]
pub struct CordicLanes {
    /// atan(2^-i) in Q2.16, narrowed once from the scalar table.
    atan: [i32; MAX_ITERATIONS],
    /// 1/K in Q2.16.
    inv_gain: i32,
    iterations: usize,
    build: LaneBuild,
}

impl CordicLanes {
    /// Builds the lane tables for `cordic`, on the fastest build this
    /// CPU runs. Returns `None` when the engine runs more
    /// micro-rotations than the lanes hold (over 31); such engines stay
    /// on the scalar path.
    pub fn new(cordic: &Cordic) -> Option<Self> {
        Self::with_build(cordic, pick_build())
    }

    /// As [`CordicLanes::new`], but always on the portable build — the
    /// reference the AVX2 build is compared against.
    // phylint: allow(test_only_api) -- test support: crates/cordic/src/lanes.rs
    pub fn portable(cordic: &Cordic) -> Option<Self> {
        Self::with_build(cordic, LaneBuild::Portable)
    }

    fn with_build(cordic: &Cordic, build: LaneBuild) -> Option<Self> {
        let iterations = cordic.iterations() as usize;
        if iterations > MAX_ITERATIONS {
            return None;
        }
        let mut atan = [0; MAX_ITERATIONS];
        for (lane, &wide) in atan.iter_mut().zip(&cordic.atan_table) {
            *lane = i32::try_from(wide).ok()?;
        }
        Some(Self {
            atan,
            inv_gain: i32::try_from(cordic.inv_gain.raw()).ok()?,
            iterations,
            build,
        })
    }

    /// Name of the build selected at construction: `"avx2"` or
    /// `"portable"`.
    pub fn build_name(&self) -> &'static str {
        match self.build {
            #[cfg(target_arch = "x86_64")]
            LaneBuild::Avx2 => "avx2",
            LaneBuild::Portable => "portable",
        }
    }

    /// Whether a raw Q2.16 word may enter the lanes (its magnitude is
    /// below [`LANE_INPUT_LIMIT`]).
    pub fn accepts(raw: i64) -> bool {
        raw.unsigned_abs() < LANE_INPUT_LIMIT.unsigned_abs()
    }

    // phylint: hot
    /// Vectoring mode on every lane: returns `(magnitude, angle)`, lane
    /// for lane equal to [`Cordic::vector`]. Components must be below
    /// 2²⁸ in magnitude (module docs).
    #[inline]
    pub fn vector(&self, x: &Lanes, y: &Lanes) -> (Lanes, Lanes) {
        match self.build {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Avx2` build is only constructed after
            // `is_x86_feature_detected!("avx2")` reported support on
            // this CPU, so the target-feature contract holds.
            // phylint: allow(simd_guard) -- the `Avx2` build variant is only constructed after `is_x86_feature_detected!("avx2")` succeeded in `pick_build`, so this dispatch site is feature-guarded at construction time
            LaneBuild::Avx2 => unsafe { vector_avx2(self, x, y) },
            LaneBuild::Portable => vector_lanes(self, x, y),
        }
    }

    /// Rotation mode: rotates every pair `(xs[p], ys[p])` in place, lane
    /// `k` by `angle[k]` (raw Q2.16 radians, any `i64`), lane for lane
    /// equal to [`Cordic::rotate`]. Components must be below 2²⁸ in
    /// magnitude (module docs).
    ///
    /// The residual angle's path through the micro-rotations depends on
    /// the angle alone, so it is computed once per call and shared by
    /// every pair — as one angle bus feeds a row of QRD cells.
    #[inline]
    pub fn rotate(&self, angle: &[i64; LANES], xs: &mut [Lanes], ys: &mut [Lanes]) {
        debug_assert_eq!(xs.len(), ys.len());
        match self.build {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Avx2` build is only constructed after
            // `is_x86_feature_detected!("avx2")` reported support on
            // this CPU, so the target-feature contract holds.
            // phylint: allow(simd_guard) -- the `Avx2` build variant is only constructed after `is_x86_feature_detected!("avx2")` succeeded in `pick_build`, so this dispatch site is feature-guarded at construction time
            LaneBuild::Avx2 => unsafe { rotate_avx2(self, angle, xs, ys) },
            LaneBuild::Portable => rotate_lanes(self, angle, xs, ys),
        }
    }
    // phylint: end-hot
}

/// Run-time CPU-feature probe, evaluated once per construction.
fn pick_build() -> LaneBuild {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return LaneBuild::Avx2;
    }
    LaneBuild::Portable
}

// phylint: hot
/// `v` where the mask `s` is 0, `−v` where it is −1.
#[inline(always)]
fn negate_if(v: i32, s: i32) -> i32 {
    (v ^ s) - s
}

/// Debug-build check of the per-operation lane bound.
#[inline(always)]
fn debug_check(v: &Lanes) {
    debug_assert!(
        v.iter().all(|c| c.unsigned_abs() < OP_LIMIT),
        "CORDIC lane input beyond the i32 headroom: {v:?}"
    );
}

/// Gain compensation: `v · (1/K)` rounded half away from zero, as
/// `Q16::mul`. `inv_gain > 0`, so the product has the sign of `v`.
#[inline(always)]
fn compensate(v: &Lanes, inv_gain: i32) -> Lanes {
    let mut out = [0; LANES];
    for (o, &c) in out.iter_mut().zip(v) {
        let s = i64::from(c >> 31);
        let magnitude = ((i64::from(c) * i64::from(inv_gain)) ^ s) - s;
        let rounded = (magnitude + (1 << 15)) >> 16;
        *o = ((rounded ^ s) - s) as i32;
    }
    out
}

/// The vectoring lane body.
#[inline(always)]
fn vector_lanes(t: &CordicLanes, x: &Lanes, y: &Lanes) -> (Lanes, Lanes) {
    debug_check(x);
    debug_check(y);
    let (mut xr, mut yr, mut z) = ([0; LANES], [0; LANES], [0; LANES]);
    for k in 0..LANES {
        (xr[k], yr[k], z[k]) = vector_quadrant(x[k], y[k]);
    }
    for (i, &a) in t.atan[..t.iterations].iter().enumerate() {
        for k in 0..LANES {
            // s = 0 rotates clockwise (y ≥ 0), −1 counter-clockwise.
            let s = yr[k] >> 31;
            let (dx, dy) = (xr[k] >> i, yr[k] >> i);
            xr[k] += negate_if(dy, s);
            yr[k] -= negate_if(dx, s);
            z[k] += negate_if(a, s);
        }
    }
    (compensate(&xr, t.inv_gain), z)
}

/// The rotation lane body.
#[inline(always)]
fn rotate_lanes(t: &CordicLanes, angle: &[i64; LANES], xs: &mut [Lanes], ys: &mut [Lanes]) {
    // Wrapped angles fit `i32`: |z| ≤ π.
    let mut wrapped = [0; LANES];
    for (w, &a) in wrapped.iter_mut().zip(angle) {
        *w = wrap_angle(a) as i32;
    }
    // Direction masks of the residual angle, one row per iteration:
    // 0 where z ≥ 0 (counter-clockwise), −1 where z < 0.
    let mut z = [0; LANES];
    for k in 0..LANES {
        z[k] = rotate_quadrant(0, 0, wrapped[k]).2;
    }
    let mut dirs = [[0; LANES]; MAX_ITERATIONS];
    for (d, &a) in dirs.iter_mut().zip(&t.atan[..t.iterations]) {
        for k in 0..LANES {
            d[k] = z[k] >> 31;
            z[k] -= negate_if(a, d[k]);
        }
    }
    for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
        debug_check(x);
        debug_check(y);
        let (mut xr, mut yr) = ([0; LANES], [0; LANES]);
        for k in 0..LANES {
            (xr[k], yr[k], _) = rotate_quadrant(x[k], y[k], wrapped[k]);
        }
        for (i, d) in dirs[..t.iterations].iter().enumerate() {
            for k in 0..LANES {
                let (dx, dy) = (xr[k] >> i, yr[k] >> i);
                xr[k] -= negate_if(dy, d[k]);
                yr[k] += negate_if(dx, d[k]);
            }
        }
        *x = compensate(&xr, t.inv_gain);
        *y = compensate(&yr, t.inv_gain);
    }
}

/// [`vector_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (enforced by construction — `LaneBuild::Avx2` exists only behind a
// positive `is_x86_feature_detected!`). The body is safe code.
unsafe fn vector_avx2(t: &CordicLanes, x: &Lanes, y: &Lanes) -> (Lanes, Lanes) {
    vector_lanes(t, x, y)
}

/// [`rotate_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (enforced by construction — `LaneBuild::Avx2` exists only behind a
// positive `is_x86_feature_detected!`). The body is safe code.
unsafe fn rotate_avx2(t: &CordicLanes, angle: &[i64; LANES], xs: &mut [Lanes], ys: &mut [Lanes]) {
    rotate_lanes(t, angle, xs, ys)
}
// phylint: end-hot

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::PI_Q16;
    use mimo_fixed::Q16;
    use proptest::prelude::*;

    /// Every build this CPU runs: portable always, AVX2 when detected.
    fn builds(cordic: &Cordic) -> Vec<CordicLanes> {
        let mut out = vec![CordicLanes::portable(cordic).unwrap()];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(CordicLanes::with_build(cordic, LaneBuild::Avx2).unwrap());
        }
        out
    }

    fn check_vector(cordic: &Cordic, x: Lanes, y: Lanes) {
        for lanes in builds(cordic) {
            let (mag, angle) = lanes.vector(&x, &y);
            for k in 0..LANES {
                let s = cordic.vector(Q16::from_raw(x[k].into()), Q16::from_raw(y[k].into()));
                assert_eq!(
                    (i64::from(mag[k]), i64::from(angle[k])),
                    (s.magnitude.raw(), s.angle.raw()),
                    "{} vector({}, {})",
                    lanes.build_name(),
                    x[k],
                    y[k]
                );
            }
        }
    }

    fn check_rotate(cordic: &Cordic, angle: [i64; LANES], pairs: &[(Lanes, Lanes)]) {
        for lanes in builds(cordic) {
            let mut xs: Vec<Lanes> = pairs.iter().map(|p| p.0).collect();
            let mut ys: Vec<Lanes> = pairs.iter().map(|p| p.1).collect();
            lanes.rotate(&angle, &mut xs, &mut ys);
            for (p, &(x, y)) in pairs.iter().enumerate() {
                for k in 0..LANES {
                    let s = cordic.rotate(
                        Q16::from_raw(x[k].into()),
                        Q16::from_raw(y[k].into()),
                        Q16::from_raw(angle[k]),
                    );
                    assert_eq!(
                        (i64::from(xs[p][k]), i64::from(ys[p][k])),
                        (s.x.raw(), s.y.raw()),
                        "{} rotate({}, {}, {})",
                        lanes.build_name(),
                        x[k],
                        y[k],
                        angle[k]
                    );
                }
            }
        }
    }

    const EDGE: i32 = (1 << 24) - 1;
    const PI: i64 = PI_Q16 as i64;
    const HALF_PI: i64 = PI / 2;

    #[test]
    fn both_builds_present_on_avx2_hosts() {
        let n = builds(&Cordic::new()).len();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            n,
            1 + usize::from(std::arch::is_x86_feature_detected!("avx2"))
        );
        assert!(n >= 1);
    }

    #[test]
    fn vector_edge_cases_match_scalar() {
        let c = Cordic::new();
        // Zero vectors, the negative x axis with y = 0 and y < 0, the
        // axes, and the corners of the admitted range.
        check_vector(&c, [0; LANES], [0; LANES]);
        check_vector(
            &c,
            [-65_536, -65_536, -1, -EDGE, 0, 0, EDGE, -EDGE],
            [0, -1, 0, 0, 65_536, -65_536, EDGE, -EDGE],
        );
        check_vector(
            &c,
            [-EDGE, EDGE, -EDGE, EDGE, -3, 3, -1, 1],
            [EDGE, -EDGE, -1, 1, -3, 0, -EDGE, EDGE],
        );
    }

    #[test]
    fn rotate_edge_angles_match_scalar() {
        let c = Cordic::new();
        let pairs = [
            ([0; LANES], [0; LANES]),
            (
                [EDGE, -EDGE, EDGE, -EDGE, 65_536, -65_536, 1, -1],
                [EDGE, EDGE, -EDGE, -EDGE, 0, 0, -1, 1],
            ),
            (
                [-EDGE, 0, EDGE, 0, 12_345, -54_321, 7, 0],
                [0, -EDGE, 0, EDGE, -999, 31_000, 0, -7],
            ),
        ];
        // Exactly ±π and ±π/2, one past each, full turns, and the
        // timing corrector's saturated `tau_q·l` (and its negation).
        let angles: [[i64; LANES]; 4] = [
            [
                PI,
                -PI,
                HALF_PI,
                -HALF_PI,
                PI + 1,
                -PI - 1,
                HALF_PI + 1,
                -HALF_PI - 1,
            ],
            [
                0,
                1,
                -1,
                2 * PI,
                -2 * PI,
                3 * PI + 5,
                HALF_PI - 1,
                -HALF_PI + 1,
            ],
            [
                i64::MAX,
                i64::MIN,
                -i64::MAX,
                i64::MIN + 1,
                i64::MAX - 1,
                1 << 40,
                -(1 << 50),
                1 << 50,
            ],
            [
                i64::MAX.saturating_mul(26),
                i64::MIN.saturating_neg(),
                1 << 62,
                -(1 << 62),
                7 * PI,
                -7 * PI,
                9,
                -9,
            ],
        ];
        for angle in angles {
            check_rotate(&c, angle, &pairs);
        }
    }

    #[test]
    fn every_lane_iteration_count_matches_scalar() {
        for n in 1..=MAX_ITERATIONS as u32 {
            let c = Cordic::with_iterations(n);
            check_vector(
                &c,
                [-EDGE, 3, 40_000, -1, 0, 77, -65_536, EDGE],
                [5, -EDGE, 40_000, 0, -9, 77, 1, EDGE],
            );
            check_rotate(
                &c,
                [PI, -1, 3 * HALF_PI, 12_345, -99_999, 0, HALF_PI, i64::MIN],
                &[(
                    [EDGE, -3, 40_000, 1, 0, -77, 65_536, -EDGE],
                    [-EDGE, 3, -40_000, 0, 9, 77, 1, 2],
                )],
            );
        }
        for n in MAX_ITERATIONS as u32 + 1..=40 {
            assert!(CordicLanes::new(&Cordic::with_iterations(n)).is_none());
        }
    }

    #[test]
    fn gain_compensation_matches_fx_mul() {
        let c = Cordic::new();
        let g = c.inv_gain;
        // Products land exactly on a rounding tie when v ≡ 2¹⁵ (mod 2¹⁶).
        let mut values: Vec<i32> = (-40..40).map(|k| 32_768 + 65_536 * k).collect();
        values.extend((-1 << 29..1 << 29).step_by(65_537));
        values.extend([
            0,
            1,
            -1,
            OP_LIMIT as i32 * 2 - 1,
            -(OP_LIMIT as i32 * 2 - 1),
        ]);
        for v in values {
            let lane = compensate(&[v; LANES], g.raw() as i32)[0];
            assert_eq!(
                i64::from(lane),
                Q16::from_raw(v.into()).mul(g).raw(),
                "v = {v}"
            );
        }
    }

    #[test]
    fn admission_bound() {
        assert!(CordicLanes::accepts((1 << 24) - 1));
        assert!(CordicLanes::accepts(-(1 << 24) + 1));
        assert!(!CordicLanes::accepts(1 << 24));
        assert!(!CordicLanes::accepts(-(1 << 24)));
        assert!(!CordicLanes::accepts(i64::MIN));
    }

    fn lanes_of(v: Vec<i32>) -> Lanes {
        v.try_into().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_vectors_match_scalar(
            x in proptest::collection::vec(-EDGE..EDGE + 1, LANES),
            y in proptest::collection::vec(-EDGE..EDGE + 1, LANES),
        ) {
            check_vector(&Cordic::new(), lanes_of(x), lanes_of(y));
        }

        #[test]
        fn random_rotations_match_scalar(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(-EDGE..EDGE + 1, LANES),
                 proptest::collection::vec(-EDGE..EDGE + 1, LANES)),
                1..8,
            ),
            small in proptest::collection::vec(-3 * PI..3 * PI, LANES),
            wide in proptest::collection::vec(any::<i64>(), LANES),
        ) {
            let pairs: Vec<(Lanes, Lanes)> =
                pairs.into_iter().map(|(x, y)| (lanes_of(x), lanes_of(y))).collect();
            let c = Cordic::new();
            check_rotate(&c, small.try_into().unwrap(), &pairs);
            check_rotate(&c, wide.try_into().unwrap(), &pairs);
        }
    }
}
