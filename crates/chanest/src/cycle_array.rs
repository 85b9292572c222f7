//! Cycle-accurate, cell-level simulation of the QRD systolic array.
//!
//! [`CordicQrd::decompose`](crate::CordicQrd::decompose) evaluates the
//! array's arithmetic in dataflow order; this module actually *clocks*
//! the array: every boundary and internal cell is an independent unit
//! with input queues and a busy/latency model built from the same
//! CORDIC engines, inputs enter on the Fig 8 diagonal wavefront, and
//! results commit when their pipeline delay elapses.
//!
//! Because both models run the identical CORDIC operations in the
//! identical per-cell order, the clocked array must produce
//! **bit-identical** `[R | Qᴴ]` to the functional model — and its
//! measured completion time independently reproduces the paper's
//! 440-cycle datapath latency. Both properties are asserted in tests.

use std::collections::VecDeque;

use mimo_cordic::Cordic;
use mimo_fixed::{CFx, CQ16, Q16};

use crate::matrix::FxMat4;
use crate::systolic::QrDecomposition;
use crate::N_ANTENNAS;

const W: usize = 2 * N_ANTENNAS;

/// Angles emitted by a boundary cell for one input row.
#[derive(Debug, Clone, Copy)]
struct Angles {
    phi: Q16,
    theta: Q16,
}

/// An operation in flight inside a cell.
#[derive(Debug, Clone, Copy)]
struct InFlight<T> {
    done_at: u64,
    result: T,
}

/// A boundary cell: holds the real diagonal accumulator and runs two
/// serial vectoring CORDICs per input element.
#[derive(Debug, Clone)]
struct BoundaryCell {
    r: Q16,
    input: VecDeque<CQ16>,
    busy: Option<InFlight<(Q16, Angles)>>,
}

/// An internal cell: holds one complex `[R | Qᴴ]` element and runs a
/// phase rotator plus a Givens rotator pair per input element.
#[derive(Debug, Clone)]
struct InternalCell {
    z: CQ16,
    input: VecDeque<CQ16>,
    angles: VecDeque<Angles>,
    busy: Option<InFlight<(CQ16, CQ16)>>,
}

/// The clocked systolic array (R section + Q section, Figs 6–7).
///
/// # Examples
///
/// ```
/// use mimo_chanest::{CordicQrd, Mat4, SystolicQrdArray};
/// use mimo_fixed::Cf64;
///
/// let h = Mat4::from_fn(|r, c| Cf64::new(0.1 * (r as f64 + 1.0), -0.07 * c as f64));
/// let mut array = SystolicQrdArray::new();
/// let (result, cycles) = array.run(&h.to_fixed());
/// // The clocked array agrees bit-for-bit with the functional model
/// // and finishes in the paper's 440 cycles.
/// assert_eq!(result, CordicQrd::new().decompose(&h.to_fixed()));
/// assert_eq!(cycles, 440);
/// ```
#[derive(Debug, Clone)]
pub struct SystolicQrdArray {
    cordic: Cordic,
    beat: u64,
    boundary_latency: u64,
    internal_latency: u64,
    /// `boundary[k]` is cell (k, k).
    boundary: Vec<BoundaryCell>,
    /// `internal[k][j]` is cell (k, j) for j in k+1..W (R and Q parts).
    internal: Vec<Vec<InternalCell>>,
}

impl Default for SystolicQrdArray {
    fn default() -> Self {
        Self::new()
    }
}

impl SystolicQrdArray {
    /// Builds the array with the paper's 20-cycle CORDIC elements.
    pub fn new() -> Self {
        Self::with_cordic(Cordic::new())
    }

    /// Builds the array with a custom CORDIC engine (latency follows
    /// the engine's iteration count).
    pub fn with_cordic(cordic: Cordic) -> Self {
        let beat = u64::from(cordic.latency_cycles());
        let boundary = (0..N_ANTENNAS)
            .map(|_| BoundaryCell {
                r: Q16::ZERO,
                input: VecDeque::new(),
                busy: None,
            })
            .collect();
        let internal = (0..N_ANTENNAS)
            .map(|k| {
                ((k + 1)..W)
                    .map(|_| InternalCell {
                        z: CFx::ZERO,
                        input: VecDeque::new(),
                        angles: VecDeque::new(),
                        busy: None,
                    })
                    .collect()
            })
            .collect();
        Self {
            beat,
            // Two serial vectoring CORDICs.
            boundary_latency: 2 * beat,
            // Phase CORDIC, then the Givens pair in parallel.
            internal_latency: 2 * beat,
            cordic,
            boundary,
            internal,
        }
    }

    /// Clocks one channel matrix through the array. Returns the
    /// decomposition held in the cells after the last commit, and the
    /// cycle count from the first element's entry to that commit —
    /// the datapath latency the paper quotes as 440.
    pub fn run(&mut self, h: &FxMat4) -> (QrDecomposition, u64) {
        self.reset();
        // Fig 8 wavefront: element (i, j) of [H | I] enters the top of
        // column j at cycle beat·(i + j).
        let mut arrivals: Vec<(u64, usize, CQ16)> = Vec::with_capacity(N_ANTENNAS * W);
        for i in 0..N_ANTENNAS {
            for j in 0..W {
                let value = if j < N_ANTENNAS {
                    h[(i, j)]
                } else if j - N_ANTENNAS == i {
                    CFx::ONE
                } else {
                    CFx::ZERO
                };
                arrivals.push((self.beat * (i + j) as u64, j, value));
            }
        }
        arrivals.sort_by_key(|&(t, ..)| t);

        let mut next_arrival = 0usize;
        let mut now: u64 = 0;
        let mut last_commit: u64 = 0;
        // Run until all queues drain and no op is in flight.
        loop {
            // Deliver top-of-array arrivals due this cycle.
            while next_arrival < arrivals.len() && arrivals[next_arrival].0 == now {
                let (_, j, value) = arrivals[next_arrival];
                self.deliver(0, j, value);
                next_arrival += 1;
            }

            // Commit finished operations (commit before start, so a
            // cell can begin its next op the same cycle its previous
            // one retires — back-to-back pipelining).
            for k in 0..N_ANTENNAS {
                if let Some(op) = self.boundary[k].busy {
                    if op.done_at == now {
                        let (new_r, angles) = op.result;
                        self.boundary[k].r = new_r;
                        self.boundary[k].busy = None;
                        for cell in &mut self.internal[k] {
                            cell.angles.push_back(angles);
                        }
                        last_commit = now;
                    }
                }
                for idx in 0..self.internal[k].len() {
                    if let Some(op) = self.internal[k][idx].busy {
                        if op.done_at == now {
                            let (new_z, south) = op.result;
                            self.internal[k][idx].z = new_z;
                            self.internal[k][idx].busy = None;
                            let j = k + 1 + idx; // absolute column
                            if k + 1 < N_ANTENNAS {
                                self.deliver(k + 1, j, south);
                            }
                            last_commit = now;
                        }
                    }
                }
            }

            // Start new operations where inputs are ready.
            for k in 0..N_ANTENNAS {
                if self.boundary[k].busy.is_none() {
                    if let Some(x) = self.boundary[k].input.pop_front() {
                        let v_phase = self.cordic.vector(x.re, x.im);
                        let v_givens = self.cordic.vector(self.boundary[k].r, v_phase.magnitude);
                        self.boundary[k].busy = Some(InFlight {
                            done_at: now + self.boundary_latency,
                            result: (
                                v_givens.magnitude,
                                Angles {
                                    phi: v_phase.angle,
                                    theta: v_givens.angle,
                                },
                            ),
                        });
                    }
                }
                for cell in &mut self.internal[k] {
                    if cell.busy.is_none() {
                        // Fire only when an input and its angle set are
                        // both queued; popping after the paired peek
                        // keeps the two queues in lockstep.
                        let (Some(&x), Some(&a)) = (cell.input.front(), cell.angles.front())
                        else {
                            continue;
                        };
                        cell.input.pop_front();
                        cell.angles.pop_front();
                        let dephased = self.cordic.rotate(x.re, x.im, -a.phi);
                        let lane_re = self.cordic.rotate(cell.z.re, dephased.x, -a.theta);
                        let lane_im = self.cordic.rotate(cell.z.im, dephased.y, -a.theta);
                        cell.busy = Some(InFlight {
                            done_at: now + self.internal_latency,
                            result: (
                                CFx::new(lane_re.x, lane_im.x),
                                CFx::new(lane_re.y, lane_im.y),
                            ),
                        });
                    }
                }
            }

            // Done when every input is delivered, queues are empty and
            // nothing is in flight.
            let idle = next_arrival == arrivals.len()
                && self.boundary.iter().all(|b| b.busy.is_none() && b.input.is_empty())
                && self
                    .internal
                    .iter()
                    .flatten()
                    .all(|c| c.busy.is_none() && c.input.is_empty());
            if idle {
                break;
            }
            now += 1;
            debug_assert!(now < 1_000_000, "array livelock");
        }

        let r = FxMat4::from_fn(|k, j| {
            if j == k {
                CFx::new(self.boundary[k].r, Q16::ZERO)
            } else if j > k {
                self.internal[k][j - k - 1].z
            } else {
                CFx::ZERO
            }
        });
        let q_h = FxMat4::from_fn(|k, j| self.internal[k][N_ANTENNAS + j - k - 1].z);
        (QrDecomposition { r, q_h }, last_commit)
    }

    /// Routes a value to the consuming cell of array row `k`,
    /// column `j`.
    fn deliver(&mut self, k: usize, j: usize, value: CQ16) {
        if j == k {
            self.boundary[k].input.push_back(value);
        } else if j > k {
            self.internal[k][j - k - 1].input.push_back(value);
        }
        // j < k cannot happen: columns are absorbed in order.
    }

    /// Resets all cell state (the paper's init signal, which "resets
    /// all the feedback elements" between subcarriers).
    pub fn reset(&mut self) {
        for b in &mut self.boundary {
            b.r = Q16::ZERO;
            b.input.clear();
            b.busy = None;
        }
        for cell in self.internal.iter_mut().flatten() {
            cell.z = CFx::ZERO;
            cell.input.clear();
            cell.angles.clear();
            cell.busy = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat4;
    use crate::systolic::CordicQrd;
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
    fn clocked_array_is_bit_identical_to_functional_model() {
        let functional = CordicQrd::new();
        let mut array = SystolicQrdArray::new();
        for seed in 1..20 {
            let h = rand_matrix(seed).to_fixed();
            let (clocked, _) = array.run(&h);
            let reference = functional.decompose(&h);
            assert_eq!(clocked, reference, "seed {seed}");
        }
    }

    #[test]
    fn clocked_latency_is_the_papers_440() {
        let mut array = SystolicQrdArray::new();
        for seed in [3u64, 17, 99] {
            let h = rand_matrix(seed).to_fixed();
            let (_, cycles) = array.run(&h);
            assert_eq!(cycles, 440, "seed {seed}");
        }
    }

    #[test]
    fn latency_scales_with_cordic_depth() {
        // Shallower CORDICs -> proportionally shorter datapath.
        let mut array = SystolicQrdArray::with_cordic(Cordic::with_iterations(8));
        let h = rand_matrix(5).to_fixed();
        let (_, cycles) = array.run(&h);
        // 22 stages × 10-cycle elements.
        assert_eq!(cycles, 220);
    }

    #[test]
    fn init_between_matrices_gives_independent_results() {
        let mut array = SystolicQrdArray::new();
        let h1 = rand_matrix(7).to_fixed();
        let h2 = rand_matrix(8).to_fixed();
        let (first, _) = array.run(&h1);
        let (_, _) = array.run(&h2);
        let (again, _) = array.run(&h1);
        assert_eq!(first, again, "state must not leak across init");
    }

    #[test]
    fn identity_matrix_through_clocked_array() {
        let mut array = SystolicQrdArray::new();
        let (result, cycles) = array.run(&Mat4::identity().to_fixed());
        assert_eq!(cycles, 440);
        let err_r = result.r.to_f64().max_distance(&Mat4::identity());
        assert!(err_r < 5e-3, "R err {err_r}");
    }
}
