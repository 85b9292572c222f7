//! The CORDIC systolic QR-decomposition array (Figs 6–8).
//!
//! Boundary cells hold the (real) R diagonal and run **two vectoring
//! CORDICs** per incoming element: the first extracts the element's
//! phase, the second performs the Givens vectoring against the stored
//! diagonal. Internal cells hold one R (or Qᴴ) element and run **three
//! rotation CORDICs**: one de-phases the incoming value, two apply the
//! real Givens to the (stored, incoming) pair — the "three angle
//! complex rotation algorithm" of the paper.
//!
//! Feeding the identity matrix through the appended 4×4 array of
//! internal cells (Fig 7) accumulates Qᴴ, so that after all four rows
//! of H have entered, the cells hold `U·[H | I] = [R | Qᴴ]`.

use mimo_cordic::{Cordic, CordicLanes, Lanes, LANES};
use mimo_fixed::{CFx, Isa, CQ16, Q16};

use crate::matrix::FxMat4;
use crate::N_ANTENNAS;

/// Result of one QR decomposition: `r` upper triangular with real
/// non-negative diagonal, `q_h` the conjugate-transposed Q, such that
/// `q_h · h ≈ r` and `q_h` is unitary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QrDecomposition {
    /// The upper-triangular factor.
    pub r: FxMat4,
    /// Q conjugate-transposed (what the array accumulates directly).
    pub q_h: FxMat4,
}

/// The functional model of the systolic array: bit-identical arithmetic
/// to the cell pipeline, evaluated in dataflow order.
///
/// # Examples
///
/// ```
/// use mimo_chanest::{CordicQrd, Mat4};
/// use mimo_fixed::Cf64;
///
/// let h = Mat4::from_fn(|r, c| Cf64::new(0.2 * (r as f64 - 1.5), 0.1 * c as f64));
/// let qrd = CordicQrd::new();
/// let result = qrd.decompose(&h.to_fixed());
/// // Q^H · H reconstructs R.
/// let qh_h = result.q_h.mul_mat(&h.to_fixed()).to_f64();
/// assert!(qh_h.max_distance(&result.r.to_f64()) < 6e-3);
/// ```
#[derive(Debug, Clone)]
pub struct CordicQrd {
    cordic: Cordic,
    /// The same CORDIC on [`LANES`] carriers per step.
    lanes: CordicLanes,
    /// The CPU tier of the lane CORDIC and of the R⁻¹·Qᴴ lane product
    /// of [`ChannelEstimate::invert_all`](crate::ChannelEstimate::invert_all).
    pub(crate) isa: Isa,
}

impl Default for CordicQrd {
    fn default() -> Self {
        Self::new()
    }
}

impl CordicQrd {
    /// Creates the array with the paper's 20-cycle CORDIC elements.
    pub fn new() -> Self {
        Self::with_cordic(Cordic::new())
    }

    /// Creates the array with custom CORDIC precision (the iteration
    /// count knob used by the accuracy-ablation experiment).
    pub fn with_cordic(cordic: Cordic) -> Self {
        Self::with_isa(cordic, Isa::detected())
    }

    /// As [`CordicQrd::with_cordic`], on the lane builds of tier `isa`.
    pub(crate) fn with_isa(cordic: Cordic, isa: Isa) -> Self {
        Self {
            lanes: CordicLanes::with_isa(&cordic, isa),
            cordic,
            isa,
        }
    }

    /// Decomposes a channel matrix. Always succeeds: rank-deficient
    /// inputs yield zero diagonal entries in `r` (the R-inverse stage
    /// is where singularity becomes an error).
    pub fn decompose(&self, h: &FxMat4) -> QrDecomposition {
        const W: usize = 2 * N_ANTENNAS;
        // cells[k][j]: array row k; columns 0..4 = R part, 4..8 = Q part.
        let mut cells = [[CFx::<16>::ZERO; W]; N_ANTENNAS];

        for i in 0..N_ANTENNAS {
            // Input row i of [H | I] enters from the top of the array.
            let mut x: [CQ16; W] = [CFx::ZERO; W];
            for (c, slot) in x.iter_mut().take(N_ANTENNAS).enumerate() {
                *slot = h[(i, c)];
            }
            x[N_ANTENNAS + i] = CFx::ONE;

            for k in 0..N_ANTENNAS {
                // Boundary cell (k, k): two vectoring CORDICs.
                let incoming = x[k];
                let v_phase = self.cordic.vector(incoming.re, incoming.im);
                let r_kk = cells[k][k].re;
                let v_givens = self.cordic.vector(r_kk, v_phase.magnitude);
                cells[k][k] = CFx::new(v_givens.magnitude, Q16::ZERO);
                x[k] = CFx::ZERO; // absorbed
                let phi = v_phase.angle;
                let theta = v_givens.angle;

                // Internal cells (k, j): three rotation CORDICs each.
                for j in (k + 1)..W {
                    let xin = x[j];
                    // CORDIC 1: de-phase the incoming value by −φ.
                    let dephased = self.cordic.rotate(xin.re, xin.im, -phi);
                    // CORDICs 2 & 3: real Givens on (stored, incoming)
                    // pairs — re and im lanes in parallel.
                    let z = cells[k][j];
                    let lane_re = self.cordic.rotate(z.re, dephased.x, -theta);
                    let lane_im = self.cordic.rotate(z.im, dephased.y, -theta);
                    cells[k][j] = CFx::new(lane_re.x, lane_im.x);
                    x[j] = CFx::new(lane_re.y, lane_im.y);
                }
            }
        }

        let r = FxMat4::from_fn(|k, j| if j >= k { cells[k][j] } else { CFx::ZERO });
        let q_h = FxMat4::from_fn(|k, j| cells[k][N_ANTENNAS + j]);
        QrDecomposition { r, q_h }
    }

    /// Decomposes up to [`LANES`] channel matrices — one subcarrier
    /// group — writing `out[s]` for `h[s]`; entries of `out` past
    /// `h.len()` are left as they were.
    ///
    /// The group runs the whole Givens cell sequence in lockstep on the
    /// lane CORDIC, carrier `s` in lane `s`; a short group leaves its
    /// spare lanes at a zero channel and discards them. The result is
    /// bit-identical to [`CordicQrd::decompose`] per carrier, which is
    /// also the path taken when any element of the group is outside
    /// the lanes' admitted range.
    pub(crate) fn decompose_group(&self, h: &[FxMat4], out: &mut [QrDecomposition; LANES]) {
        debug_assert!(h.len() <= LANES);
        let admitted = h.iter().all(|m| {
            (0..N_ANTENNAS).all(|r| {
                (0..N_ANTENNAS).all(|c| {
                    CordicLanes::accepts(m[(r, c)].re.raw())
                        && CordicLanes::accepts(m[(r, c)].im.raw())
                })
            })
        });
        if admitted {
            decompose_lanes(&self.lanes, h, out);
        } else {
            for (d, m) in out.iter_mut().zip(h) {
                *d = self.decompose(m);
            }
        }
    }
}

/// The lane body of [`CordicQrd::decompose_group`]: the dataflow of
/// [`CordicQrd::decompose`] with every word widened to a lane of
/// carriers. The guard in the caller keeps every input below 2²⁴.
fn decompose_lanes(lanes: &CordicLanes, h: &[FxMat4], out: &mut [QrDecomposition; LANES]) {
    const W: usize = 2 * N_ANTENNAS;
    const ZERO: Lanes = [0; LANES];
    // cell_re[k][j] / cell_im[k][j]: array row k, columns 0..4 = R part,
    // 4..8 = Q part; lane s holds carrier s.
    let mut cell_re = [[ZERO; W]; N_ANTENNAS];
    let mut cell_im = [[ZERO; W]; N_ANTENNAS];
    let negated = |a: &Lanes| a.map(|v| -i64::from(v));

    for i in 0..N_ANTENNAS {
        // Input row i of [H | I] enters from the top of the array.
        let mut x_re = [ZERO; W];
        let mut x_im = [ZERO; W];
        for (s, m) in h.iter().enumerate() {
            for c in 0..N_ANTENNAS {
                // Admitted words are below 2²⁴, so they fit an i32 lane.
                x_re[c][s] = m[(i, c)].re.raw() as i32;
                x_im[c][s] = m[(i, c)].im.raw() as i32;
            }
        }
        x_re[N_ANTENNAS + i] = [Q16::ONE.raw() as i32; LANES];

        // Q-part columns past N + i are still all zero, in the cells
        // and in this row: no earlier row carried their identity 1.
        // Rotating (0, 0) gives (0, 0) exactly, so they are skipped.
        let live = N_ANTENNAS + i + 1;
        for k in 0..N_ANTENNAS {
            // Boundary cell (k, k): two vectoring CORDICs. The absorbed
            // input x[k] is never read again.
            let (magnitude, phi) = lanes.vector(&x_re[k], &x_im[k]);
            let (r_kk, theta) = lanes.vector(&cell_re[k][k], &magnitude);
            cell_re[k][k] = r_kk;

            // Internal cells (k, k+1..live): de-phase every incoming
            // value by −φ, then the real Givens by −θ on the (stored,
            // incoming) re and im pairs.
            let (neg_phi, neg_theta) = (negated(&phi), negated(&theta));
            let cols = k + 1..live;
            lanes.rotate(&neg_phi, &mut x_re[cols.clone()], &mut x_im[cols.clone()]);
            lanes.rotate(&neg_theta, &mut cell_re[k][cols.clone()], &mut x_re[cols.clone()]);
            lanes.rotate(&neg_theta, &mut cell_im[k][cols.clone()], &mut x_im[cols]);
        }
    }

    let word = |lane: &Lanes, s: usize| Q16::from_raw(i64::from(lane[s]));
    for (s, d) in out.iter_mut().enumerate().take(h.len()) {
        let cell = |k: usize, j: usize| CFx::new(word(&cell_re[k][j], s), word(&cell_im[k][j], s));
        d.r = FxMat4::from_fn(|k, j| if j >= k { cell(k, j) } else { CFx::ZERO });
        d.q_h = FxMat4::from_fn(|k, j| cell(k, N_ANTENNAS + j));
    }
}

/// One scheduled read of the channel-matrix memories (Fig 8 dataflow,
/// §IV.B scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledRead {
    /// Clock cycle of the read.
    pub cycle: u64,
    /// Which systolic-array column consumes the value.
    pub column: usize,
    /// Which of the 16 memories is addressed: `(row, col)` of H.
    pub memory: (usize, usize),
    /// Memory address = subcarrier index.
    pub subcarrier: usize,
    /// `true` when this read carries the init signal that "resets all
    /// the feedback elements of the current QRD cell".
    pub init: bool,
}

/// The channel-matrix read scheduler: walks the 16 H memories in
/// 20-address bursts (one burst per CORDIC latency), staggering each
/// array column one burst behind the previous — "Initially data is
/// only read from H00 memory ... The first 20 addresses are read in,
/// corresponding with the CORDIC latency. On the next clock cycle,
/// data from H01 memory is passed into the first QRD array column and
/// data from H10 memory is passed into the second column."
#[derive(Debug, Clone)]
pub struct QrdScheduler {
    n_subcarriers: usize,
    burst: usize,
}

impl QrdScheduler {
    /// Creates a scheduler over `n_subcarriers` channel matrices with
    /// the paper's burst length (20 = the CORDIC latency).
    pub fn new(n_subcarriers: usize) -> Self {
        Self {
            n_subcarriers,
            burst: mimo_cordic::CORDIC_LATENCY_CYCLES as usize,
        }
    }

    /// Burst length in addresses (equals the CORDIC latency).
    pub fn burst_len(&self) -> usize {
        self.burst
    }

    /// Generates the full read schedule for array column `column`
    /// (0..4). Memory order is row-major H00, H01, …, H33; each memory
    /// contributes `burst_len` consecutive subcarriers before the
    /// scheduler moves to the next; the whole 16-memory sweep repeats
    /// until all subcarriers are covered. Column `c` trails column 0 by
    /// `c` bursts.
    pub fn column_schedule(&self, column: usize) -> Vec<ScheduledRead> {
        assert!(column < N_ANTENNAS, "array has 4 columns");
        let n_mem = N_ANTENNAS * N_ANTENNAS;
        let mut reads = Vec::new();
        let groups = self.n_subcarriers.div_ceil(self.burst);
        for group in 0..groups {
            let base_sc = group * self.burst;
            let group_len = self.burst.min(self.n_subcarriers - base_sc);
            for mem in 0..n_mem {
                let burst_index = group * n_mem + mem + column;
                for a in 0..group_len {
                    let cycle = (burst_index * self.burst + a) as u64;
                    reads.push(ScheduledRead {
                        cycle,
                        column,
                        memory: (mem / N_ANTENNAS, mem % N_ANTENNAS),
                        subcarrier: base_sc + a,
                        // Init fires on the first read of each new
                        // subcarrier group entering column 0's H00.
                        init: mem == 0 && a == 0,
                    });
                }
            }
        }
        reads
    }

    /// Total cycles for the array to ingest every subcarrier's matrix.
    pub fn total_ingest_cycles(&self) -> u64 {
        let groups = self.n_subcarriers.div_ceil(self.burst);
        let n_mem = N_ANTENNAS * N_ANTENNAS;
        ((groups * n_mem + (N_ANTENNAS - 1)) * self.burst) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat4;
    use crate::qr_float::qr_givens_f64;
    use mimo_fixed::Cf64;

    fn rand_matrix(seed: u64) -> Mat4 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Mat4::from_fn(|_, _| Cf64::new(next(), next()))
    }

    #[test]
    fn qh_times_h_is_r() {
        let qrd = CordicQrd::new();
        for seed in 1..15 {
            let h = rand_matrix(seed);
            let result = qrd.decompose(&h.to_fixed());
            let qh_h = result.q_h.mul_mat(&h.to_fixed()).to_f64();
            let err = qh_h.max_distance(&result.r.to_f64());
            assert!(err < 8e-3, "seed {seed}: ||Q^H H - R|| = {err}");
        }
    }

    #[test]
    fn q_is_unitary_in_fixed_point() {
        let qrd = CordicQrd::new();
        for seed in 1..15 {
            let h = rand_matrix(seed);
            let result = qrd.decompose(&h.to_fixed());
            let q = result.q_h.hermitian();
            let qhq = result.q_h.mul_mat(&q).to_f64();
            let err = qhq.max_distance(&Mat4::identity());
            assert!(err < 8e-3, "seed {seed}: ||Q^H Q - I|| = {err}");
        }
    }

    #[test]
    fn r_is_upper_triangular_with_real_diagonal() {
        let qrd = CordicQrd::new();
        for seed in 1..15 {
            let h = rand_matrix(seed);
            let result = qrd.decompose(&h.to_fixed());
            let r = result.r.to_f64();
            for row in 0..4 {
                for col in 0..row {
                    assert_eq!(r[(row, col)], Cf64::ZERO, "below-diagonal ({row},{col})");
                }
                assert_eq!(r[(row, row)].im, 0.0, "diagonal imag ({row})");
                assert!(r[(row, row)].re >= 0.0, "diagonal sign ({row})");
            }
        }
    }

    #[test]
    fn matches_float_reference_r() {
        // The R factor is unique (given real non-negative diagonal), so
        // fixed and float must agree element-wise.
        let qrd = CordicQrd::new();
        for seed in 1..10 {
            let h = rand_matrix(seed);
            let fixed = qrd.decompose(&h.to_fixed()).r.to_f64();
            let (_, float_r) = qr_givens_f64(&h);
            let err = fixed.max_distance(&float_r);
            assert!(err < 8e-3, "seed {seed}: R mismatch {err}");
        }
    }

    #[test]
    fn identity_passes_through() {
        let qrd = CordicQrd::new();
        let result = qrd.decompose(&Mat4::identity().to_fixed());
        let err_r = result.r.to_f64().max_distance(&Mat4::identity());
        let err_q = result.q_h.to_f64().max_distance(&Mat4::identity());
        assert!(err_r < 5e-3 && err_q < 5e-3, "R err {err_r}, Q err {err_q}");
    }

    #[test]
    fn scheduler_first_bursts_match_fig8() {
        let sched = QrdScheduler::new(512);
        let col0 = sched.column_schedule(0);
        let col1 = sched.column_schedule(1);
        // First 20 reads: H00 addresses 0..19 into column 0.
        #[allow(clippy::needless_range_loop)] // `a` is both index and expected address
        for a in 0..20 {
            assert_eq!(col0[a].memory, (0, 0));
            assert_eq!(col0[a].subcarrier, a);
            assert_eq!(col0[a].cycle, a as u64);
        }
        // Next burst: col0 reads H01 while col1 starts H00 one burst
        // late — the staggered entry of Fig 8.
        assert_eq!(col0[20].memory, (0, 1));
        assert_eq!(col0[20].cycle, 20);
        assert_eq!(col1[0].memory, (0, 0));
        assert_eq!(col1[0].cycle, 20);
    }

    #[test]
    fn scheduler_init_fires_per_subcarrier_group() {
        let sched = QrdScheduler::new(64);
        let col0 = sched.column_schedule(0);
        let inits: Vec<&ScheduledRead> = col0.iter().filter(|r| r.init).collect();
        // 64 subcarriers / 20 per group = 4 groups (ceil).
        assert_eq!(inits.len(), 4);
        assert_eq!(inits[0].subcarrier, 0);
        assert_eq!(inits[1].subcarrier, 20);
        assert_eq!(inits[3].subcarrier, 60);
    }

    #[test]
    fn scheduler_covers_every_memory_and_subcarrier() {
        let n_sc = 48;
        let sched = QrdScheduler::new(n_sc);
        let col2 = sched.column_schedule(2);
        // Every (memory, subcarrier) pair must appear exactly once.
        let mut seen = std::collections::HashSet::new();
        for r in &col2 {
            assert!(seen.insert((r.memory, r.subcarrier)), "duplicate {r:?}");
        }
        assert_eq!(seen.len(), 16 * n_sc);
    }

    #[test]
    fn rank_deficient_matrix_does_not_panic() {
        let qrd = CordicQrd::new();
        let h = Mat4::from_fn(|r, _| Cf64::new(0.1 * (r as f64 + 1.0), 0.0));
        let result = qrd.decompose(&h.to_fixed());
        // Column space is rank 1: lower R rows ~ 0.
        let r = result.r.to_f64();
        assert!(r[(1, 1)].norm() < 0.02);
        assert!(r[(2, 2)].norm() < 0.02);
    }
}
