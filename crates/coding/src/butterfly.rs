//! The radix-2 butterfly ACS kernel — the software analogue of the
//! paper's add-compare-select array.
//!
//! The hardware Viterbi core reaches its throughput by instantiating
//! one ACS butterfly per state *pair* and a survivor RAM that stores a
//! single decision bit per state per branch. This module restructures
//! the software inner loop the same way:
//!
//! * **Branch-metric table.** For an `n`-output code there are only
//!   `2^n` distinct coded branch labels, so the per-branch correlation
//!   against the LLRs is computed once per trellis step into a tiny
//!   table ([`fill_bm_table`]) instead of once per state transition —
//!   the scalar kernel's `states × inputs × n` multiply-accumulate
//!   collapses to `2^n × n`.
//! * **Butterfly pairing.** A binary shift-register trellis maps
//!   predecessor states `2j` and `2j+1` onto successor states `j` and
//!   `j + S/2` (`S` states). Walking the `S/2` butterflies visits each
//!   predecessor metric exactly once and writes each successor exactly
//!   once ([`acs_step`]) — no scatter, no "skip unreachable state"
//!   branches, and the compare-select pair for both successors shares
//!   the two loaded path metrics, mirroring the paper's ACS array.
//! * **Ping-pong metric rows.** Path metrics live in two flat `i32`
//!   rows swapped per branch, renormalized every
//!   [`NORM_INTERVAL`] branches by subtracting the row maximum — a
//!   uniform shift that cannot change any compare, exactly like the
//!   modulo/rescale normalization of a fixed-width hardware ACS.
//! * **Bitmask survivors.** Because each successor has exactly two
//!   candidate predecessors, one decision *bit* per state suffices: a
//!   branch's decisions pack into `⌈S/64⌉` `u64` words (one word for
//!   the paper's 64-state K=7 code) — the survivor RAM — and traceback
//!   becomes a shift-and-mask walk ([`traceback_state`]).
//!
//! The kernel is exact: decisions, tie-breaks (lower predecessor wins,
//! matching the scalar kernel's iteration order) and therefore decoded
//! outputs are **bit-identical** to the reference scalar kernel
//! whenever [`ButterflyTrellis::accepts`] takes the input (LLR
//! magnitudes small enough that `i32` path metrics cannot wrap between
//! renormalizations — every sane demapper output qualifies; the
//! dispatcher falls back to the scalar kernel otherwise).

use crate::{CodeSpec, Llr};

/// Branches between metric renormalizations. Must exceed `K - 1` (≤ 8)
/// so the start-up `NEG_INF` padding has died out before the first
/// uniform shift, and small enough that metrics cannot overflow in
/// between (see [`ButterflyTrellis::accepts`]).
pub(crate) const NORM_INTERVAL: usize = 64;

/// Sentinel for an unreachable state in the `i32` metric rows. Real
/// paths always beat it: with branch metrics bounded by
/// [`ButterflyTrellis::max_branch_metric`], a path seeded from this
/// floor stays hundreds of millions below any live path for the `K-1`
/// branches the floor can survive.
pub(crate) const NEG_INF_I32: i32 = i32::MIN / 4;

/// Largest per-branch metric magnitude the `i32` rows tolerate without
/// wrapping: `NORM_INTERVAL` branches of drift plus the trellis spread
/// stay well inside `i32` range, and the `NEG_INF_I32` floor keeps its
/// margin (see the module docs for the arithmetic).
const MAX_BRANCH_METRIC: i64 = 1 << 23;

/// Precomputed butterfly view of a [`CodeSpec`] trellis.
#[derive(Debug, Clone)]
pub(crate) struct ButterflyTrellis {
    /// Coded branch labels per butterfly `j`, indexed
    /// `[prev = 2j+p, input = b]` as `coded[j][2*b + p]`: the four
    /// transitions of one butterfly.
    coded: Vec<[u8; 4]>,
    /// `2^n` branch-metric table length (`n` = outputs per input).
    table_len: usize,
    /// `K`.
    constraint_length: usize,
    /// `2^(K-1)`.
    n_states: usize,
    /// Largest LLR magnitude the `i32` kernel accepts.
    max_abs_llr: u32,
}

impl ButterflyTrellis {
    /// Builds the butterfly tables, or `None` when the code has too
    /// many generators for a branch-metric table (`> 8` outputs per
    /// input would need a 256+-entry table per branch; such codes fall
    /// back to the scalar kernel).
    pub(crate) fn new(spec: &CodeSpec) -> Option<Self> {
        let n_out = spec.outputs_per_input();
        if n_out > 8 {
            return None;
        }
        let n_states = spec.num_states();
        let half = n_states / 2;
        let coded = (0..half)
            .map(|j| {
                let mut c = [0u8; 4];
                for (slot, (prev, input)) in [(2 * j, 0u8), (2 * j + 1, 0), (2 * j, 1), (2 * j + 1, 1)]
                    .iter()
                    .enumerate()
                {
                    let (bits, next) = spec.step(*prev as u32, *input);
                    debug_assert_eq!(
                        next as usize,
                        (usize::from(*input) << (spec.constraint_length() - 2)) | j,
                        "trellis is not the canonical shift-register butterfly"
                    );
                    c[slot] = bits as u8;
                }
                c
            })
            .collect();
        Some(Self {
            coded,
            table_len: 1 << n_out,
            constraint_length: spec.constraint_length(),
            n_states,
            max_abs_llr: (MAX_BRANCH_METRIC / n_out as i64) as u32,
        })
    }

    /// Number of trellis states.
    pub(crate) fn n_states(&self) -> usize {
        self.n_states
    }

    /// Branch-metric table length (`2^n`).
    pub(crate) fn table_len(&self) -> usize {
        self.table_len
    }

    /// Survivor words per trellis step (`⌈states/64⌉`; 1 for K ≤ 7).
    pub(crate) fn words_per_step(&self) -> usize {
        self.n_states.div_ceil(64)
    }

    /// The coded branch labels, one `[u8; 4]` per butterfly `j` in the
    /// `coded[j][2*b + p]` layout — the table the `i16` lane tier
    /// builds its label vectors from.
    pub(crate) fn labels(&self) -> &[[u8; 4]] {
        &self.coded
    }

    /// Whether LLRs of magnitude at most `max_abs` are small enough
    /// for the `i32` metric rows to be exact (no wrap between
    /// renormalizations).
    pub(crate) fn accepts(&self, max_abs: u32) -> bool {
        max_abs <= self.max_abs_llr
    }

    /// One add-compare-select step over all butterflies: consumes the
    /// `cur` metric row, fills `nxt` and the branch's survivor words.
    ///
    /// Tie-break matches the scalar kernel: the lower-numbered
    /// predecessor (`2j`) wins on equality, so a set decision bit
    /// always means "`2j+1` was strictly better".
    // phylint: hot
    #[inline]
    pub(crate) fn acs_step(&self, bm: &[i32], cur: &[i32], nxt: &mut [i32], surv: &mut [u64]) {
        let half = self.coded.len();
        surv.fill(0);
        let (lo, hi) = nxt.split_at_mut(half);
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
            surv[j >> 6] |= u64::from(sel) << (j & 63);
            // Successor j + S/2 (input 1).
            let a = m0 + bm[c[2] as usize];
            let b = m1 + bm[c[3] as usize];
            let sel = b > a;
            *nh = if sel { b } else { a };
            let s = half + j;
            surv[s >> 6] |= u64::from(sel) << (s & 63);
        }
    }

    /// One traceback step: given the state *after* some branch and
    /// that branch's survivor words, returns `(decoded_bit, prev_state)`.
    #[inline]
    pub(crate) fn traceback_state(&self, state: usize, surv: &[u64]) -> (u8, usize) {
        let bit = (state >> (self.constraint_length - 2)) as u8 & 1;
        let sel = (surv[state >> 6] >> (state & 63)) & 1;
        let prev = ((state & (self.n_states / 2 - 1)) << 1) | sel as usize;
        (bit, prev)
    }
}

/// Fills the per-branch metric table: `bm[c]` is the correlation of
/// coded label `c` with the branch LLRs (positive LLR favours bit 0),
/// identical to the scalar kernel's per-transition accumulation.
#[inline]
pub(crate) fn fill_bm_table(branch: &[Llr], bm: &mut [i32]) {
    for (c, slot) in bm.iter_mut().enumerate() {
        let mut acc = 0i32;
        for (i, &l) in branch.iter().enumerate() {
            acc += if (c >> i) & 1 == 0 { l } else { -l };
        }
        *slot = acc;
    }
}

/// Subtracts the row maximum from every metric — a uniform shift that
/// preserves every future compare while pinning the row near zero.
#[inline]
pub(crate) fn normalize_row(row: &mut [i32]) {
    let best = row.iter().copied().max().unwrap_or(0);
    for m in row {
        *m -= best;
    }
}
// phylint: end-hot
