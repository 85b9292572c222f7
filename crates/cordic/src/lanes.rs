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
//! per-operation limit. Anything else goes to the scalar engine. An
//! engine runs at most 31 micro-rotations
//! ([`Cordic::with_iterations`]), so every shift of an `i32` lane stays
//! defined and every engine has lanes.
//!
//! # The per-symbol de-rotation block
//!
//! [`CordicLanes::derotate_bus`] runs the receiver's two pilot
//! de-rotations of a symbol back to back on 16-bit bus words: the
//! shared `−φ` rotation, whose wrap, quadrant and micro-rotation
//! directions are derived once per call, the narrow onto the bus and
//! back, then each carrier's own `−l·τ` rotation, whose directions
//! each lane derives as it goes, and a last narrow. It loads up to
//! seven lane groups (a 64-point symbol's 52 carriers) into a local
//! block and steps the loops micro-rotation-outer: every group takes
//! micro-rotation `i` before any takes `i + 1`, so the groups' serial
//! dependency chains overlap instead of running one after another.
//! Bus words are at most 2¹⁶ once widened, far inside the lane bound.
//!
//! # Builds
//!
//! The lane body is written once, as plain fixed-width array
//! arithmetic, and built twice: inside an `avx2` target-feature
//! function and plain. The engine runs the one its [`Isa`] tier
//! answers for (`mimo_fixed`'s tier docs). Both builds give the same
//! bits.

use mimo_fixed::Isa;

use crate::angle::{rotate_quadrant, vector_quadrant, wrap_angle, HALF_PI_Q16};
use crate::Cordic;

/// Carriers per lane step — one AVX2 register of `i32`.
pub const LANES: usize = 8;

/// One `i32` word per carrier: a lane vector.
pub type Lanes = [i32; LANES];

/// Inputs enter the lanes only when every raw Q2.16 word is below this
/// magnitude (see the module docs for the headroom argument).
pub const LANE_INPUT_LIMIT: i64 = 1 << 24;

/// Largest micro-rotation count of any engine: every `x >> i` on an
/// `i32` lane stays a defined shift, so every [`Cordic`] has lanes.
pub(crate) const MAX_ITERATIONS: usize = 31;

/// Per-operation bound on lane components (module docs).
const OP_LIMIT: u32 = 1 << 28;

/// Lane groups [`CordicLanes::derotate_bus`] steps through each
/// micro-rotation together: a 64-point symbol's 52 carriers. Callers
/// that stage a symbol on the stack hand it over in blocks this size.
pub const DEROTATE_GROUPS: usize = 7;

/// The 16-bit sample bus, in raw Q1.15.
const BUS_MIN: i32 = -(1 << 15);
const BUS_MAX: i32 = (1 << 15) - 1;

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
/// let lanes = CordicLanes::new(&cordic);
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
    /// The CPU tier the engine dispatches on.
    isa: Isa,
}

impl CordicLanes {
    /// Builds the lane tables for `cordic`, on the fastest build this
    /// CPU runs.
    pub fn new(cordic: &Cordic) -> Self {
        Self::with_isa(cordic, Isa::detected())
    }

    /// As [`CordicLanes::new`], on the build of tier `isa`.
    pub fn with_isa(cordic: &Cordic, isa: Isa) -> Self {
        // atan(2^-i) ≤ π/4 and 1/K < 1: both are below 2¹⁷ in Q2.16.
        let mut atan = [0; MAX_ITERATIONS];
        for (lane, &wide) in atan.iter_mut().zip(&cordic.atan_table) {
            *lane = wide as i32;
        }
        Self {
            atan,
            inv_gain: cordic.inv_gain.raw() as i32,
            iterations: cordic.iterations() as usize,
            isa,
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
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { vector_avx2(self, x, y) };
        }
        vector_lanes(self, x, y)
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
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { rotate_avx2(self, angle, xs, ys) };
        }
        rotate_lanes(self, angle, xs, ys)
    }

    /// Both per-symbol de-rotations of the pilot corrections in one
    /// pass over 16-bit bus samples.
    ///
    /// `xs`/`ys` hold raw Q1.15 bus words (at most 2¹⁵ in magnitude),
    /// lane group `g` carrying carriers `g·LANES..`. Every carrier is
    /// widened to Q2.16, rotated by the raw Q2.16 angle `phase`,
    /// narrowed back onto the bus, widened again, rotated by its own
    /// `ramp[g][k]`, and narrowed once more, in place. Lane for lane
    /// this equals two [`Cordic::rotate`] calls with the bus narrow
    /// (round half away from zero to Q1.15, then saturation to 16 bits)
    /// after each — the common-phase correction followed by the timing
    /// correction. Angles may be any `i64`.
    ///
    /// The shared angle's wrap, quadrant and micro-rotation directions
    /// are derived once per call; each ramp lane derives its own while
    /// it rotates. Blocks of up to [`DEROTATE_GROUPS`] lane groups run
    /// each micro-rotation back to back (module docs).
    #[inline]
    pub fn derotate_bus(
        &self,
        phase: i64,
        ramp: &[[i64; LANES]],
        xs: &mut [Lanes],
        ys: &mut [Lanes],
    ) {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(xs.len(), ramp.len());
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { derotate_bus_avx2(self, phase, ramp, xs, ys) };
        }
        derotate_bus_lanes(self, phase, ramp, xs, ys)
    }
    // phylint: end-hot
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
/// `Q16::mul`. `inv_gain > 0`, so the product has the sign of `v`: the
/// magnitude is scaled as an unsigned 32×32→64-bit product (one vector
/// multiply per lane pair) and the sign put back.
#[inline(always)]
fn compensate(v: &Lanes, inv_gain: i32) -> Lanes {
    let gain = u64::from(inv_gain.unsigned_abs());
    let mut out = [0; LANES];
    for (o, &c) in out.iter_mut().zip(v) {
        let magnitude = u64::from(c.unsigned_abs()) * gain;
        // |v| < 2³⁰ and 1/K < 1, so the rounded magnitude fits `i32`.
        let rounded = ((magnitude + (1 << 15)) >> 16) as i32;
        *o = negate_if(rounded, c >> 31);
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

/// Q2.16 → Q1.15 on the 16-bit sample bus: halve with round half away
/// from zero (`Fx::convert`), then saturate (`Fx::saturate_bits(16)`).
#[inline(always)]
fn narrow_to_bus(v: &Lanes) -> Lanes {
    let mut out = [0; LANES];
    for (o, &c) in out.iter_mut().zip(v) {
        let s = c >> 31;
        let halved = negate_if((negate_if(c, s) + 1) >> 1, s);
        *o = halved.clamp(BUS_MIN, BUS_MAX);
    }
    out
}

/// [`rotate_quadrant`] on a lane group, each lane by its own residual
/// angle, with masks for branches so the lanes stay in vectors.
#[inline(always)]
fn rotate_quadrant_lanes(x: &mut Lanes, y: &mut Lanes, z: &mut Lanes) {
    for k in 0..LANES {
        // −1 where the angle is past +π/2 (turn by +π/2), resp. −π/2.
        let up = (HALF_PI_Q16 - z[k]) >> 31;
        let down = (z[k] + HALF_PI_Q16) >> 31;
        let turn = up | down;
        let (tx, ty) = (negate_if(y[k], up), negate_if(x[k], down));
        x[k] = (x[k] & !turn) | (tx & turn);
        y[k] = (y[k] & !turn) | (ty & turn);
        z[k] += (HALF_PI_Q16 & down) - (HALF_PI_Q16 & up);
    }
}

/// [`CordicLanes::derotate_bus`] on one block of [`DEROTATE_GROUPS`]
/// lane groups, held in local arrays: every micro-rotation steps
/// through all of them before the next, so their dependency chains
/// overlap.
#[inline(always)]
fn derotate_block(
    t: &CordicLanes,
    phase: &PhaseSteps,
    zs: &mut [Lanes; DEROTATE_GROUPS],
    xs: &mut [Lanes; DEROTATE_GROUPS],
    ys: &mut [Lanes; DEROTATE_GROUPS],
) {
    let atan = &t.atan[..t.iterations];
    // Widen onto Q2.16 and take the shared quadrant pre-rotation.
    for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
        for k in 0..LANES {
            (x[k], y[k], _) = rotate_quadrant(x[k] << 1, y[k] << 1, phase.wrapped);
        }
    }
    // One direction for every lane: a branch per micro-rotation, not a
    // mask per lane.
    for (i, &d) in phase.dirs[..t.iterations].iter().enumerate() {
        if d == 0 {
            shared_micro_rotation(xs, ys, i, true);
        } else {
            shared_micro_rotation(xs, ys, i, false);
        }
    }
    // Back onto the bus between the passes and widened again, then
    // the ramp's own quadrant pre-rotation lane by lane.
    for ((x, y), z) in xs.iter_mut().zip(ys.iter_mut()).zip(zs.iter_mut()) {
        *x = narrow_to_bus(&compensate(x, t.inv_gain));
        *y = narrow_to_bus(&compensate(y, t.inv_gain));
        for k in 0..LANES {
            x[k] <<= 1;
            y[k] <<= 1;
        }
        rotate_quadrant_lanes(x, y, z);
    }
    for (i, &a) in atan.iter().enumerate() {
        for ((x, y), z) in xs.iter_mut().zip(ys.iter_mut()).zip(zs.iter_mut()) {
            for k in 0..LANES {
                // 0 where z ≥ 0 (counter-clockwise), −1 where z < 0.
                let d = z[k] >> 31;
                let (dx, dy) = (x[k] >> i, y[k] >> i);
                x[k] -= negate_if(dy, d);
                y[k] += negate_if(dx, d);
                z[k] -= negate_if(a, d);
            }
        }
    }
    for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
        *x = narrow_to_bus(&compensate(x, t.inv_gain));
        *y = narrow_to_bus(&compensate(y, t.inv_gain));
    }
}

/// Micro-rotation `i` of every group in one direction: counter-clockwise
/// (`x −= y·2⁻ⁱ`, `y += x·2⁻ⁱ`) when `ccw`, clockwise otherwise. Each
/// call site passes a constant `ccw`, so each is branch-free.
#[inline(always)]
fn shared_micro_rotation(
    xs: &mut [Lanes; DEROTATE_GROUPS],
    ys: &mut [Lanes; DEROTATE_GROUPS],
    i: usize,
    ccw: bool,
) {
    for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
        for k in 0..LANES {
            let (dx, dy) = (x[k] >> i, y[k] >> i);
            if ccw {
                x[k] -= dy;
                y[k] += dx;
            } else {
                x[k] += dy;
                y[k] -= dx;
            }
        }
    }
}

/// The shared angle's path through the micro-rotations: its wrap, and
/// one direction mask per iteration (0 counter-clockwise, −1
/// clockwise) after the quadrant pre-rotation.
struct PhaseSteps {
    wrapped: i32,
    dirs: [i32; MAX_ITERATIONS],
}

impl PhaseSteps {
    #[inline(always)]
    fn new(t: &CordicLanes, phase: i64) -> Self {
        // |wrapped| ≤ π fits `i32`.
        let wrapped = wrap_angle(phase) as i32;
        let mut z = rotate_quadrant(0, 0, wrapped).2;
        let mut dirs = [0; MAX_ITERATIONS];
        for (d, &a) in dirs.iter_mut().zip(&t.atan[..t.iterations]) {
            *d = z >> 31;
            z -= negate_if(a, *d);
        }
        Self { wrapped, dirs }
    }
}

/// The two-de-rotation lane body: whole blocks of [`DEROTATE_GROUPS`]
/// groups in place, a short tail through a zero-padded block.
#[inline(always)]
fn derotate_bus_lanes(
    t: &CordicLanes,
    phase: i64,
    ramp: &[[i64; LANES]],
    xs: &mut [Lanes],
    ys: &mut [Lanes],
) {
    let phase = PhaseSteps::new(t, phase);
    let blocks = xs
        .chunks_mut(DEROTATE_GROUPS)
        .zip(ys.chunks_mut(DEROTATE_GROUPS))
        .zip(ramp.chunks(DEROTATE_GROUPS));
    for ((x, y), r) in blocks {
        debug_check_bus(x);
        debug_check_bus(y);
        let (mut bx, mut by, mut bz) = (
            [[0; LANES]; DEROTATE_GROUPS],
            [[0; LANES]; DEROTATE_GROUPS],
            [[0; LANES]; DEROTATE_GROUPS],
        );
        for ((((bx, by), bz), (x, y)), r) in bx
            .iter_mut()
            .zip(&mut by)
            .zip(&mut bz)
            .zip(x.iter().zip(y.iter()))
            .zip(r)
        {
            (*bx, *by) = (*x, *y);
            for k in 0..LANES {
                // Wrapped angles fit `i32`: |z| ≤ π.
                bz[k] = wrap_angle(r[k]) as i32;
            }
        }
        derotate_block(t, &phase, &mut bz, &mut bx, &mut by);
        for ((x, y), (bx, by)) in x.iter_mut().zip(y.iter_mut()).zip(bx.iter().zip(&by)) {
            (*x, *y) = (*bx, *by);
        }
    }
}

/// Debug-build check that a lane group holds 16-bit bus words.
#[inline(always)]
fn debug_check_bus(v: &[Lanes]) {
    debug_assert!(
        v.iter()
            .flatten()
            .all(|&c| (BUS_MIN..=BUS_MAX).contains(&c)),
        "derotate_bus input off the 16-bit bus: {v:?}"
    );
}

/// [`vector_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time (the
// engine calls this only when its `Isa` answers `avx2()`, the tier
// invariant). The body is safe code.
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
// SAFETY: callers must have verified AVX2 support at run time (the
// engine calls this only when its `Isa` answers `avx2()`, the tier
// invariant). The body is safe code.
unsafe fn rotate_avx2(t: &CordicLanes, angle: &[i64; LANES], xs: &mut [Lanes], ys: &mut [Lanes]) {
    rotate_lanes(t, angle, xs, ys)
}

/// [`derotate_bus_lanes`] built with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time (the
// engine calls this only when its `Isa` answers `avx2()`, the tier
// invariant). The body is safe code.
unsafe fn derotate_bus_avx2(
    t: &CordicLanes,
    phase: i64,
    ramp: &[[i64; LANES]],
    xs: &mut [Lanes],
    ys: &mut [Lanes],
) {
    derotate_bus_lanes(t, phase, ramp, xs, ys)
}
// phylint: end-hot

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::PI_Q16;
    use mimo_fixed::Q16;
    use proptest::prelude::*;

    fn check_vector(cordic: &Cordic, x: Lanes, y: Lanes) {
        for &isa in Isa::tiers() {
            let lanes = CordicLanes::with_isa(cordic, isa);
            let (mag, angle) = lanes.vector(&x, &y);
            for k in 0..LANES {
                let s = cordic.vector(Q16::from_raw(x[k].into()), Q16::from_raw(y[k].into()));
                assert_eq!(
                    (i64::from(mag[k]), i64::from(angle[k])),
                    (s.magnitude.raw(), s.angle.raw()),
                    "{} vector({}, {})",
                    isa.name(),
                    x[k],
                    y[k]
                );
            }
        }
    }

    fn check_rotate(cordic: &Cordic, angle: [i64; LANES], pairs: &[(Lanes, Lanes)]) {
        for &isa in Isa::tiers() {
            let lanes = CordicLanes::with_isa(cordic, isa);
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
                        isa.name(),
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
        let c = Cordic::new();
        assert_eq!(CordicLanes::new(&c).isa, Isa::detected());
        for &isa in Isa::tiers() {
            assert_eq!(CordicLanes::with_isa(&c, isa).isa, isa);
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Isa::tiers().len() > 1,
            std::arch::is_x86_feature_detected!("avx2")
        );
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
    }

    #[test]
    #[should_panic(expected = "iteration count out of range")]
    fn engines_past_the_lane_shift_are_rejected() {
        let _ = Cordic::with_iterations(MAX_ITERATIONS as u32 + 1);
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

    /// The scalar model of [`CordicLanes::derotate_bus`] on one bus
    /// word pair: rotate, narrow to the bus, rotate, narrow.
    fn derotate_scalar(cordic: &Cordic, x: i32, y: i32, phase: i64, ramp: i64) -> (i32, i32) {
        let narrow = |v: Q16| -> i32 {
            let bus: mimo_fixed::Q15 = v.convert();
            bus.saturate_bits(16).raw() as i32
        };
        let widen = |v: i32| Q16::from_raw(i64::from(v) << 1);
        let r = cordic.rotate(widen(x), widen(y), Q16::from_raw(phase));
        let (x, y) = (narrow(r.x), narrow(r.y));
        let r = cordic.rotate(widen(x), widen(y), Q16::from_raw(ramp));
        (narrow(r.x), narrow(r.y))
    }

    fn check_derotate(
        cordic: &Cordic,
        phase: i64,
        ramp: &[[i64; LANES]],
        pairs: &[(Lanes, Lanes)],
    ) {
        for &isa in Isa::tiers() {
            let lanes = CordicLanes::with_isa(cordic, isa);
            let mut xs: Vec<Lanes> = pairs.iter().map(|p| p.0).collect();
            let mut ys: Vec<Lanes> = pairs.iter().map(|p| p.1).collect();
            lanes.derotate_bus(phase, ramp, &mut xs, &mut ys);
            for (g, &(x, y)) in pairs.iter().enumerate() {
                for k in 0..LANES {
                    assert_eq!(
                        (xs[g][k], ys[g][k]),
                        derotate_scalar(cordic, x[k], y[k], phase, ramp[g][k]),
                        "{} derotate_bus({}, {}, {phase}, {}) group {g} of {}",
                        isa.name(),
                        x[k],
                        y[k],
                        ramp[g][k],
                        pairs.len()
                    );
                }
            }
        }
    }

    /// Deterministic bus words, the ±2¹⁵ corners included.
    fn bus_groups(groups: usize, seed: u32) -> Vec<(Lanes, Lanes)> {
        let mut state = seed.wrapping_mul(0x9E37_79B9) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state >> 16) as u16 as i16 as i32
        };
        (0..groups)
            .map(|g| {
                let mut x: Lanes = std::array::from_fn(|_| next());
                let y: Lanes = std::array::from_fn(|_| next());
                if g % 3 == 0 {
                    x[..4].copy_from_slice(&[BUS_MIN, BUS_MAX, BUS_MIN, BUS_MAX]);
                }
                (x, y)
            })
            .collect()
    }

    #[test]
    fn derotate_bus_matches_two_scalar_rotations() {
        let c = Cordic::new();
        let corners = [
            (
                [BUS_MIN, BUS_MAX, BUS_MIN, BUS_MAX, 0, 1, -1, BUS_MIN],
                [BUS_MIN, BUS_MIN, BUS_MAX, BUS_MAX, BUS_MIN, 0, 0, 0],
            ),
            ([0; LANES], [0; LANES]),
        ];
        let phases = [
            0,
            PI,
            -PI,
            HALF_PI,
            -HALF_PI,
            HALF_PI + 1,
            -HALF_PI - 1,
            PI + 1,
            5 * PI,
            i64::MIN,
            i64::MAX,
        ];
        for phase in phases {
            // Ramps across the quadrant edges and past ±π.
            let ramp: Vec<[i64; LANES]> = (0..corners.len())
                .map(|g| std::array::from_fn(|k| (g * LANES + k) as i64 * 61_000 - 4 * PI))
                .collect();
            check_derotate(&c, phase, &ramp, &corners);
        }
        // Every group count through three blocks, a wrapping ramp.
        for groups in 1..=3 * DEROTATE_GROUPS + 1 {
            let pairs = bus_groups(groups, groups as u32);
            let ramp: Vec<[i64; LANES]> = (0..groups)
                .map(|g| std::array::from_fn(|k| ((g * LANES + k) as i64 - 100) * 9_001))
                .collect();
            check_derotate(&c, -HALF_PI, &ramp, &pairs);
            check_derotate(&c, 77_777, &ramp, &pairs);
        }
    }

    #[test]
    fn derotate_bus_at_every_iteration_count() {
        for n in 1..=MAX_ITERATIONS as u32 {
            let c = Cordic::with_iterations(n);
            let pairs = bus_groups(DEROTATE_GROUPS + 2, n);
            let ramp: Vec<[i64; LANES]> = (0..pairs.len())
                .map(|g| std::array::from_fn(|k| (g * LANES + k) as i64 * 7_919 - 250_000))
                .collect();
            check_derotate(&c, PI - 3, &ramp, &pairs);
        }
    }

    #[test]
    fn masked_quadrant_matches_rotate_quadrant() {
        let mut zs: Vec<i32> = (-4..=4)
            .flat_map(|m| (-3..=3).map(move |d| m * (HALF_PI as i32) + d))
            .collect();
        zs.extend([PI as i32, -(PI as i32), 0]);
        for chunk in zs.chunks(LANES) {
            let mut z = [0; LANES];
            z[..chunk.len()].copy_from_slice(chunk);
            let (mut x, mut y) = (
                [BUS_MAX, -5, 0, 1 << 16, -(1 << 16), 3, BUS_MIN, 9],
                [7, BUS_MIN, -1, 0, 1 << 16, -3, BUS_MAX, -9],
            );
            let want: Vec<(i32, i32, i32)> = (0..LANES)
                .map(|k| rotate_quadrant(x[k], y[k], z[k]))
                .collect();
            rotate_quadrant_lanes(&mut x, &mut y, &mut z);
            let got: Vec<(i32, i32, i32)> = (0..LANES).map(|k| (x[k], y[k], z[k])).collect();
            assert_eq!(got, want);
        }
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

        #[test]
        fn random_derotations_match_scalar(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(BUS_MIN..BUS_MAX + 1, LANES),
                 proptest::collection::vec(BUS_MIN..BUS_MAX + 1, LANES)),
                1..20,
            ),
            phase in any::<i64>(),
            small_phase in -4 * PI..4 * PI,
            tau in -40_000i64..40_000,
        ) {
            let pairs: Vec<(Lanes, Lanes)> =
                pairs.into_iter().map(|(x, y)| (lanes_of(x), lanes_of(y))).collect();
            let ramp: Vec<[i64; LANES]> = (0..pairs.len())
                .map(|g| std::array::from_fn(|k| -tau * ((g * LANES + k) as i64 - 40)))
                .collect();
            let c = Cordic::new();
            check_derotate(&c, phase, &ramp, &pairs);
            check_derotate(&c, small_phase, &ramp, &pairs);
        }
    }
}
