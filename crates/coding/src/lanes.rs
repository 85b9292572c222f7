//! The `i16` lane tier: a whole block's forward pass on sixteen-bit
//! wrapping path metrics, register-resident on AVX-512BW or AVX2.
//!
//! The paper's Viterbi core reaches its rate by replicating the ACS
//! butterfly in fabric; this module is the software analogue of that
//! lane replication for the 64-state, two-output shape of
//! [`CodeSpec::ieee80211a`](crate::CodeSpec::ieee80211a) (any
//! generator pair). The 64-state metric row is two AVX-512 registers
//! of thirty-two `i16` lanes (four AVX2 registers of sixteen): one
//! [`LaneTrellis::forward`] call loads it from the decoder's workspace,
//! keeps it in those registers for every trellis step of the branches
//! it is given, and stores it back, so a block's forward pass runs in
//! one call or in one call per chunk of branches (the streaming
//! receiver's, one per symbol's LLRs), with the same decisions. Each
//! step writes one survivor word, in the state order of
//! [`ButterflyTrellis::acs_step`], so the butterfly traceback reads the
//! words unchanged.
//!
//! # One step on AVX-512BW
//!
//! * **De-interleave.** Butterfly `j` reads predecessors `2j`/`2j+1`.
//!   States 0–31 and 32–63 sit in two registers; two `vpermt2w` over
//!   the pair, with constant even and odd index vectors, yield `m0`
//!   (all thirty-two `2j`) and `m1` (all thirty-two `2j+1`).
//! * **Branch metrics.** A two-output label `c` correlates to one of
//!   `[p, −q, q, −p][c]` with `p = l0 + l1`, `q = l0 − l1`. That
//!   four-entry table is broadcast per step, and one `vpermw` per
//!   transition slot, indexed by the code's label vector for the slot
//!   (built once per code), gives the slot's thirty-two branch metrics.
//! * **Compare-select.** `a = m0 + bm`, `b = m1 + bm'` wrap;
//!   `d = b − a` is the exact difference, the successor is
//!   `a + max(d, 0)` and `cmpgt(d, 0)` writes the decisions straight
//!   into a `__mmask32`, so `2j` wins ties as in the scalar kernel.
//! * **Decisions.** The two masks, states 0–31 and 32–63, are the
//!   step's `u64` survivor word as they stand: `k₀ | k₁ << 32`.
//!
//! # One step on AVX2
//!
//! * **De-interleave.** Butterfly `j` reads predecessors `2j`/`2j+1`.
//!   Per register of sixteen states, a `pshufb` gathers the even
//!   states into the low and the odd ones into the high qword of each
//!   128-bit half, `vpermq 0xD8` joins the halves, and a `vperm2i128`
//!   pair over two such registers yields `m0` (sixteen `2j`) and `m1`
//!   (sixteen `2j+1`).
//! * **Branch metrics.** The two LLRs of the branch are broadcast, and
//!   each of the four transition slots of a butterfly (the
//!   `coded[j][2*b + p]` layout of [`ButterflyTrellis::labels`]) owns
//!   two per-butterfly `±1` label vectors, one per output bit:
//!   `bm = sign(l0, s0) + sign(l1, s1)` is the correlation
//!   [`fill_bm_table`](crate::butterfly::fill_bm_table) computes.
//! * **Compare-select.** `a = m0 + bm`, `b = m1 + bm'` wrap;
//!   `sel = (b − a) > 0` is a signed compare of the wrapping difference,
//!   `blendv` keeps `b` where it is set, so `2j` wins ties as in the
//!   scalar kernel.
//! * **Decisions.** `packs_epi16` narrows the four select masks to
//!   bytes, `vpermq` undoes the pack's lane interleave and
//!   `movemask_epi8` drops 32 decision bits per pair: the step's `u64`
//!   survivor word.
//!
//! # Why sixteen bits are exact
//!
//! The first `K − 1` branches run on the `i32` butterfly step from the
//! `NEG_INF_I32` start (one live state), so the lane row begins at
//! branch `K − 1`, where every state is reachable and every metric is a
//! sum of `K − 1` branch metrics: it narrows to `i16` exactly. From
//! then on no renormalization runs; the lanes hold each metric modulo
//! 2¹⁶ and every decision reads only a difference of two candidates.
//!
//! Let `bm` lie in `[bm_min, bm_max]` with `bm_max − bm_min ≤ 2nL` (an
//! `n`-output branch metric is a sum of `n` terms `±l`, `|l| ≤ L`). For
//! `t ≥ K − 1` let `M` be the best metric at branch `t − (K − 1)`.
//! Every state at `t` is reachable from the best state in `K − 1`
//! steps, so it holds at least `M + (K − 1)·bm_min`; every path into it
//! passes through some state of metric at most `M`, so it holds at most
//! `M + (K − 1)·bm_max`. The row spread is thus at most
//! `(K − 1)·2nL`, and the two candidates `a`, `b` for one successor —
//! predecessor metrics one spread apart plus branch metrics one range
//! apart — differ by at most `K·2nL`. With `|LLR| ≤`
//! [`LANE_LLR_MAX`] `= ⌊i16::MAX / (2nK)⌋` that is below 2¹⁵, so the
//! wrapping `i16` difference equals the true difference and every
//! decision, ties included, is the one the `i64` scalar kernel makes.
//!
//! # Builds
//!
//! The trellis runs the widest build its [`Isa`] tier answers for
//! (`mimo_fixed`'s tier docs): AVX-512BW (`"simd-avx512bw"`), then
//! AVX2 (`"simd-avx2"`); on the portable tier a `[i16; 64]` lane body
//! with `wrapping_*` arithmetic (`"simd-portable"`) runs the AVX2
//! algorithm and stays exact with overflow checks on. All three write
//! the same survivor words.

use mimo_fixed::Isa;

use crate::butterfly::ButterflyTrellis;
use crate::{CodeSpec, Llr};

/// Constraint length of the one code shape the lanes take.
pub(crate) const K: usize = 7;

/// Trellis states: the two- or four-register metric row.
pub(crate) const STATES: usize = 1 << (K - 1);

/// Butterflies per step.
pub(crate) const HALF: usize = STATES / 2;

/// Coded bits per input bit.
pub(crate) const OUTPUTS: usize = 2;

/// Transitions per butterfly: predecessor `2j`/`2j + 1` × input 0/1.
const SLOTS: usize = 4;

/// Largest LLR magnitude the lanes take: `⌊i16::MAX / (2nK)⌋` (1170),
/// so two candidates never differ by 2¹⁵ or more (module docs).
pub(crate) const LANE_LLR_MAX: Llr = (i16::MAX as usize / (2 * OUTPUTS * K)) as Llr;

// Two candidates differ by at most K·2nL, which the signed wrapping
// difference must represent.
const _: () = assert!((K * 2 * OUTPUTS) as i64 * LANE_LLR_MAX as i64 <= i16::MAX as i64);

/// The 64-state, rate-1/2 trellis on `i16` lanes, with the
/// [`ButterflyTrellis`] that runs its warm-up and traceback.
#[derive(Debug, Clone)]
pub(crate) struct LaneTrellis {
    /// Warm-up step, survivor-word layout and traceback.
    trellis: ButterflyTrellis,
    /// `±1` label vectors, `signs[OUTPUTS * slot + i][j]`: output bit `i` of
    /// transition `slot` of butterfly `j` is 0 (`+1`) or 1 (`−1`).
    signs: [[i16; HALF]; SLOTS * OUTPUTS],
    /// Coded label of each transition as a lane index, `labels[slot][j]`
    /// = `coded[j][slot]`: which entry of the step's four-entry branch
    /// metric table (`[p, −q, q, −p]`, `p = l0 + l1`, `q = l0 − l1`)
    /// transition `slot` of butterfly `j` takes. Read by the AVX-512BW
    /// build only.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    labels: [[i16; HALF]; SLOTS],
    /// The CPU tier [`LaneTrellis::forward`] dispatches on.
    isa: Isa,
}

/// Lane indices that gather the predecessors of every butterfly from
/// the two-register row: `DEINTERLEAVE[p][j] = 2j + p` (a `vpermt2w`
/// index reads lane `i & 31` of register `i >> 5`).
#[cfg(target_arch = "x86_64")]
const DEINTERLEAVE: [[i16; HALF]; 2] = {
    let mut idx = [[0; HALF]; 2];
    let mut j = 0;
    while j < HALF {
        idx[0][j] = 2 * j as i16;
        idx[1][j] = 2 * j as i16 + 1;
        j += 1;
    }
    idx
};

impl LaneTrellis {
    /// Builds the tables for the lane build of tier `isa`, or `None`
    /// unless the code has 64 states and two outputs per input.
    pub(crate) fn new(spec: &CodeSpec, isa: Isa) -> Option<Self> {
        let trellis = ButterflyTrellis::new(spec)?;
        let mut signs = [[0i16; HALF]; SLOTS * OUTPUTS];
        let mut labels = [[0i16; HALF]; SLOTS];
        for (j, coded) in trellis.labels().iter().enumerate() {
            for (slot, &c) in coded.iter().enumerate() {
                for i in 0..OUTPUTS {
                    signs[OUTPUTS * slot + i][j] = if (c >> i) & 1 == 0 { 1 } else { -1 };
                }
                labels[slot][j] = i16::from(c);
            }
        }
        Some(Self {
            trellis,
            signs,
            labels,
            isa,
        })
    }

    /// The butterfly tables behind the warm-up and the traceback.
    pub(crate) fn trellis(&self) -> &ButterflyTrellis {
        &self.trellis
    }

    /// Name of the lane build actually selected — what the benches
    /// record so numbers from different hosts are comparable.
    pub(crate) fn name(&self) -> &'static str {
        if self.isa.avx512bw() {
            "simd-avx512bw"
        } else if self.isa.avx2() {
            "simd-avx2"
        } else {
            "simd-portable"
        }
    }

    /// Whether every LLR of `soft` is small enough to keep the lanes
    /// exact (module docs): one scan of the block's largest `|LLR|`.
    pub(crate) fn accepts(soft: &[Llr]) -> bool {
        soft.iter().fold(0, |m, l| m.max(l.unsigned_abs())) <= LANE_LLR_MAX.unsigned_abs()
    }

    /// Branches the `i32` butterfly step runs before the lanes take
    /// over: `K − 1`, after which every state is reachable.
    pub(crate) const WARM_UP: usize = K - 1;

    /// Forward pass over the branches of `soft` (two LLRs per branch,
    /// every `|LLR| ≤` [`LANE_LLR_MAX`]), from branch [`Self::WARM_UP`]
    /// of a block or later: `row` holds the wrapping metric row before
    /// the first of them and receives the row after the last, and
    /// `masks` receives one survivor word per branch. A block's forward
    /// pass may therefore run in any number of calls.
    // phylint: hot
    pub(crate) fn forward(&self, row: &mut [i16; STATES], soft: &[Llr], masks: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx512bw() {
            // SAFETY: an `Isa` answers `avx512bw()` only where the probe
            // detected AVX-512BW on this CPU (the tier invariant).
            return unsafe { self.forward_avx512(row, soft, masks) };
        } else if self.isa.avx2() {
            // SAFETY: an `Isa` answers `avx2()` only where the probe
            // detected AVX2 on this CPU (the tier invariant).
            return unsafe { self.forward_avx2(row, soft, masks) };
        }
        self.forward_portable(row, soft, masks)
    }

    /// Portable lane body: the AVX2 algorithm on a `[i16; 64]` row.
    fn forward_portable(&self, state: &mut [i16; STATES], soft: &[Llr], masks: &mut [u64]) {
        let mut row = *state;
        for (branch, word) in soft.chunks_exact(OUTPUTS).zip(masks.iter_mut()) {
            let (l0, l1) = (branch[0] as i16, branch[1] as i16);
            let mut bm = [[0i16; HALF]; SLOTS];
            for (slot, v) in bm.iter_mut().enumerate() {
                let (s0, s1) = (&self.signs[OUTPUTS * slot], &self.signs[OUTPUTS * slot + 1]);
                for ((b, &s0), &s1) in v.iter_mut().zip(s0).zip(s1) {
                    *b = s0.wrapping_mul(l0).wrapping_add(s1.wrapping_mul(l1));
                }
            }
            let mut next = [0i16; STATES];
            let mut bits = 0u64;
            for input in 0..2 {
                for j in 0..HALF {
                    let a = row[2 * j].wrapping_add(bm[2 * input][j]);
                    let b = row[2 * j + 1].wrapping_add(bm[2 * input + 1][j]);
                    let sel = b.wrapping_sub(a) > 0;
                    let s = input * HALF + j;
                    next[s] = if sel { b } else { a };
                    bits |= u64::from(sel) << s;
                }
            }
            row = next;
            *word = bits;
        }
        *state = row;
    }

    /// AVX2 lane body: the row lives in four registers for the whole
    /// call. See the module docs for the per-step choreography.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers must have verified AVX2 support at run time
    // (`forward` calls this only when its `Isa` answers `avx2()`, the
    // tier invariant). Every load reads 16 `i16` at offset 0 or 16 of
    // a 32-element label vector or at offset 0, 16, 32 or 48 of the
    // 64-element row, and every store writes 16 `i16` at one of those
    // row offsets, so all of them stay in bounds.
    unsafe fn forward_avx2(&self, row: &mut [i16; STATES], soft: &[Llr], masks: &mut [u64]) {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_si256();
        let mut r = [zero; 4];
        for (k, v) in r.iter_mut().enumerate() {
            *v = _mm256_loadu_si256(row.as_ptr().add(16 * k).cast());
        }
        // sg[OUTPUTS * slot + i][h]: label vector for output bit i of
        // `slot`, butterflies 16h..16h+16.
        let mut sg = [[zero; 2]; SLOTS * OUTPUTS];
        for (v, s) in sg.iter_mut().zip(&self.signs) {
            v[0] = _mm256_loadu_si256(s.as_ptr().cast());
            v[1] = _mm256_loadu_si256(s.as_ptr().add(16).cast());
        }
        // Per 128-bit half: even i16 lanes to the low qword, odd ones
        // to the high qword.
        let deint = _mm256_setr_epi8(
            0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15, //
            0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15,
        );
        for (branch, word) in soft.chunks_exact(OUTPUTS).zip(masks.iter_mut()) {
            let l0 = _mm256_set1_epi16(branch[0] as i16);
            let l1 = _mm256_set1_epi16(branch[1] as i16);
            // p[k]: low half = states 2j of register k, high = 2j + 1.
            let mut p = [zero; 4];
            for (p, &r) in p.iter_mut().zip(&r) {
                *p = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(r, deint), 0xD8);
            }
            // m0[h] / m1[h]: predecessors 2j / 2j + 1 of butterflies
            // 16h..16h+16.
            let m0 = [
                _mm256_permute2x128_si256(p[0], p[1], 0x20),
                _mm256_permute2x128_si256(p[2], p[3], 0x20),
            ];
            let m1 = [
                _mm256_permute2x128_si256(p[0], p[1], 0x31),
                _mm256_permute2x128_si256(p[2], p[3], 0x31),
            ];
            // Successor register 2·input + h holds states
            // input·32 + 16h .. +16.
            let mut sel = [zero; 4];
            for input in 0..2 {
                for h in 0..2 {
                    let (sa, sb) = (2 * input, 2 * input + 1);
                    let bma = _mm256_add_epi16(
                        _mm256_sign_epi16(l0, sg[OUTPUTS * sa][h]),
                        _mm256_sign_epi16(l1, sg[OUTPUTS * sa + 1][h]),
                    );
                    let bmb = _mm256_add_epi16(
                        _mm256_sign_epi16(l0, sg[OUTPUTS * sb][h]),
                        _mm256_sign_epi16(l1, sg[OUTPUTS * sb + 1][h]),
                    );
                    let a = _mm256_add_epi16(m0[h], bma);
                    let b = _mm256_add_epi16(m1[h], bmb);
                    let s = _mm256_cmpgt_epi16(_mm256_sub_epi16(b, a), zero);
                    r[2 * input + h] = _mm256_blendv_epi8(a, b, s);
                    sel[2 * input + h] = s;
                }
            }
            let lo = _mm256_permute4x64_epi64(_mm256_packs_epi16(sel[0], sel[1]), 0xD8);
            let hi = _mm256_permute4x64_epi64(_mm256_packs_epi16(sel[2], sel[3]), 0xD8);
            let lo = _mm256_movemask_epi8(lo) as u32;
            let hi = _mm256_movemask_epi8(hi) as u32;
            *word = u64::from(lo) | u64::from(hi) << 32;
        }
        for (k, v) in r.iter().enumerate() {
            _mm256_storeu_si256(row.as_mut_ptr().add(16 * k).cast(), *v);
        }
    }

    /// AVX-512BW lane body: the row lives in two registers for the
    /// whole call. See the module docs for the per-step choreography.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw")]
    // SAFETY: callers must have verified AVX-512BW support at run time
    // (`forward` calls this only when its `Isa` answers `avx512bw()`,
    // the tier invariant). Every load reads 32 `i16` at offset 0 or 32
    // of the 64-element row or from a 32-element index vector, and the
    // two stores write 32 `i16` at offset 0 and 32 of the row, so all
    // of them stay in bounds.
    unsafe fn forward_avx512(&self, row: &mut [i16; STATES], soft: &[Llr], masks: &mut [u64]) {
        use std::arch::x86_64::*;
        let load = |v: &[i16; HALF]| _mm512_loadu_si512(v.as_ptr().cast());
        // lo: states 0..32, hi: states 32..64.
        let mut lo = _mm512_loadu_si512(row.as_ptr().cast());
        let mut hi = _mm512_loadu_si512(row.as_ptr().add(HALF).cast());
        let (even, odd) = (load(&DEINTERLEAVE[0]), load(&DEINTERLEAVE[1]));
        let labels = self.labels.each_ref().map(load);
        let zero = _mm512_setzero_si512();
        for (branch, word) in soft.chunks_exact(OUTPUTS).zip(masks.iter_mut()) {
            // Branch metric of label c: [p, −q, q, −p][c]. Every term is
            // at most 2L < 2¹⁵ in magnitude, so the `u16` casts are exact.
            let (p, q) = (branch[0] + branch[1], branch[0] - branch[1]);
            let table = [p, -q, q, -p]
                .iter()
                .rev()
                .fold(0u64, |t, &v| t << 16 | u64::from(v as u16));
            let table = _mm512_set1_epi64(table as i64);
            let bm = |slot: usize| _mm512_permutexvar_epi16(labels[slot], table);
            // m0 / m1: predecessors 2j / 2j + 1 of butterfly j.
            let m0 = _mm512_permutex2var_epi16(lo, even, hi);
            let m1 = _mm512_permutex2var_epi16(lo, odd, hi);
            // Successor register `input` holds states input·32 .. +32.
            let mut sel = [0u32; 2];
            let mut next = [zero; 2];
            for input in 0..2 {
                let a = _mm512_add_epi16(m0, bm(2 * input));
                let b = _mm512_add_epi16(m1, bm(2 * input + 1));
                let d = _mm512_sub_epi16(b, a);
                next[input] = _mm512_add_epi16(a, _mm512_max_epi16(d, zero));
                sel[input] = _mm512_cmpgt_epi16_mask(d, zero);
            }
            [lo, hi] = next;
            *word = u64::from(sel[0]) | u64::from(sel[1]) << 32;
        }
        _mm512_storeu_si512(row.as_mut_ptr().cast(), lo);
        _mm512_storeu_si512(row.as_mut_ptr().add(HALF).cast(), hi);
    }
    // phylint: end-hot
}
