//! The lanes' warm-up and traceback tables: the radix-2 butterfly view
//! of the 64-state, two-output trellis the `i16` lane tier decodes.
//!
//! The hardware Viterbi core reaches its throughput by instantiating
//! one ACS butterfly per state *pair* and a survivor RAM that stores a
//! single decision bit per state per branch. This module holds the
//! same structure for the lane tier:
//!
//! * **Branch-metric table.** A two-output code has only four distinct
//!   coded branch labels, so the correlation against a branch's LLRs
//!   is computed once per step into a four-entry table
//!   ([`fill_bm_table`]).
//! * **Butterfly pairing.** A binary shift-register trellis maps
//!   predecessor states `2j` and `2j+1` onto successor states `j` and
//!   `j + 32`. Walking the 32 butterflies visits each predecessor
//!   metric once and writes each successor once
//!   ([`ButterflyTrellis::acs_step`]), mirroring the paper's ACS array.
//!   The lanes run this `i32` step for the first `K − 1` branches of a
//!   block, from a single live state, until every state is reachable;
//!   the labels ([`ButterflyTrellis::labels`]) seed the lanes' `±1`
//!   label vectors for the rest of the block.
//! * **Bitmask survivors.** Because each successor has exactly two
//!   candidate predecessors, one decision *bit* per state suffices: a
//!   branch's decisions pack into one `u64` word — the survivor RAM —
//!   and traceback is a shift-and-mask walk
//!   ([`ButterflyTrellis::traceback_state`]).
//!
//! Tie-breaks match the scalar kernel (the lower predecessor `2j` wins
//! on equality), so the warm-up decisions are the ones every tier
//! makes.

use crate::lanes::{HALF, K, OUTPUTS, STATES};
use crate::{CodeSpec, Llr};

/// Sentinel for an unreachable state in the warm-up's `i32` metric
/// rows. Real paths always beat it: the warm-up runs only on blocks
/// the lanes accept, whose branch metrics are a few thousand at most,
/// so a path seeded from this floor stays hundreds of millions below
/// any live path for the `K − 1` branches the floor can survive.
pub(crate) const NEG_INF_I32: i32 = i32::MIN / 4;

/// Precomputed butterfly view of a 64-state, two-output [`CodeSpec`]
/// trellis.
#[derive(Debug, Clone)]
pub(crate) struct ButterflyTrellis {
    /// Coded branch labels per butterfly `j`, indexed
    /// `[prev = 2j+p, input = b]` as `coded[j][2*b + p]`: the four
    /// transitions of one butterfly.
    coded: [[u8; 4]; HALF],
}

impl ButterflyTrellis {
    /// Builds the butterfly tables, or `None` unless the code has 64
    /// states and two outputs per input (K = 7, rate 1/2, any
    /// generator pair).
    pub(crate) fn new(spec: &CodeSpec) -> Option<Self> {
        if spec.num_states() != STATES || spec.outputs_per_input() != OUTPUTS {
            return None;
        }
        let coded = std::array::from_fn(|j| {
            let mut c = [0u8; 4];
            for (slot, (prev, input)) in [(2 * j, 0u8), (2 * j + 1, 0), (2 * j, 1), (2 * j + 1, 1)]
                .iter()
                .enumerate()
            {
                let (bits, next) = spec.step(*prev as u32, *input);
                debug_assert_eq!(
                    next as usize,
                    (usize::from(*input) << (K - 2)) | j,
                    "trellis is not the canonical shift-register butterfly"
                );
                c[slot] = bits as u8;
            }
            c
        });
        Some(Self { coded })
    }

    /// The coded branch labels, one `[u8; 4]` per butterfly `j` in the
    /// `coded[j][2*b + p]` layout — the table the `i16` lane tier
    /// builds its label vectors from.
    pub(crate) fn labels(&self) -> &[[u8; 4]; HALF] {
        &self.coded
    }

    /// One add-compare-select step over all butterflies: consumes the
    /// `cur` metric row, fills `nxt` and returns the branch's survivor
    /// word.
    ///
    /// Tie-break matches the scalar kernel: the lower-numbered
    /// predecessor (`2j`) wins on equality, so a set decision bit
    /// always means "`2j+1` was strictly better".
    // phylint: hot
    #[inline]
    pub(crate) fn acs_step(
        &self,
        bm: &[i32; 4],
        cur: &[i32; STATES],
        nxt: &mut [i32; STATES],
    ) -> u64 {
        let mut surv = 0u64;
        let (lo, hi) = nxt.split_at_mut(HALF);
        for (j, ((c, prev), (nl, nh))) in self
            .coded
            .iter()
            .zip(cur.chunks_exact(2))
            .zip(lo.iter_mut().zip(hi.iter_mut()))
            .enumerate()
        {
            let m0 = prev[0];
            let m1 = prev[1];
            // Successor j (input 0).
            let a = m0 + bm[c[0] as usize];
            let b = m1 + bm[c[1] as usize];
            let sel = b > a;
            *nl = if sel { b } else { a };
            surv |= u64::from(sel) << j;
            // Successor j + 32 (input 1).
            let a = m0 + bm[c[2] as usize];
            let b = m1 + bm[c[3] as usize];
            let sel = b > a;
            *nh = if sel { b } else { a };
            surv |= u64::from(sel) << (HALF + j);
        }
        surv
    }

    /// One traceback step: given the state *after* some branch and
    /// that branch's survivor word, returns `(decoded_bit, prev_state)`.
    #[inline]
    pub(crate) fn traceback_state(state: usize, surv: u64) -> (u8, usize) {
        let bit = (state >> (K - 2)) as u8 & 1;
        let sel = (surv >> state) & 1;
        let prev = ((state & (HALF - 1)) << 1) | sel as usize;
        (bit, prev)
    }
}

/// Fills the per-branch metric table: `bm[c]` is the correlation of
/// coded label `c` with the branch LLRs (positive LLR favours bit 0),
/// identical to the scalar kernel's per-transition accumulation.
#[inline]
pub(crate) fn fill_bm_table(branch: &[Llr], bm: &mut [i32; 4]) {
    for (c, slot) in bm.iter_mut().enumerate() {
        let mut acc = 0i32;
        for (i, &l) in branch.iter().enumerate() {
            acc += if (c >> i) & 1 == 0 { l } else { -l };
        }
        *slot = acc;
    }
}
// phylint: end-hot
