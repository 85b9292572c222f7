//! Soft-decision Viterbi decoder with full-block traceback.
//!
//! "Error correction is performed using the Viterbi decoder" (§IV.B).
//! The symbol demapper "can be set up to perform hard or soft symbol
//! demapping", so the decoder accepts LLRs; hard decisions are just
//! ±[`HARD_LLR`](crate::HARD_LLR).
//!
//! Two add-compare-select kernel tiers back one decode path, chosen
//! per decode at run time (see [`ViterbiKernel`] for the selection
//! table):
//!
//! * The **`i16` lane tier** ([`crate::lanes`]) — for the 64-state,
//!   two-output shape of the 802.11a code (any generator pair) with
//!   every `|LLR| ≤ 1170`, which covers every demapper output
//!   ([`LLR_MAX`](crate::LLR_MAX)) and every hard decision
//!   ([`HARD_LLR`](crate::HARD_LLR)): the first `K − 1` branches on the
//!   `i32` butterfly step ([`crate::butterfly`]), then the whole rest
//!   of the block's forward pass on wrapping sixteen-bit metrics, the
//!   64-state row held in four AVX2 registers (a portable `[i16; 64]`
//!   lane body on CPUs without AVX2). No renormalization runs; the
//!   module docs prove that the wrapping difference of two candidates
//!   is exact. One bit per state per branch goes to a `u64` survivor
//!   word, and traceback is a shift-and-mask walk.
//! * The **scalar kernel** — the original per-state/per-input loop over
//!   `i64` metrics, the differential-testing reference
//!   ([`ViterbiKernel::Scalar`]) and the fallback for every other code
//!   and for LLR magnitudes beyond the lanes' bound.
//!
//! Both tiers make identical decisions (including tie-breaks), so their
//! outputs are bit-identical — pinned by the crate's property suite.

use crate::butterfly::{fill_bm_table, ButterflyTrellis, NEG_INF_I32};
use crate::lanes::{LaneTrellis, OUTPUTS, STATES};
use crate::{CodeSpec, CodingError, Llr};
use std::time::{Duration, Instant};

/// Preallocated working state for [`ViterbiDecoder`] — the scalar
/// kernel's metric rows and both tiers' survivor memory. One workspace per decoding thread
/// lets the burst hot path decode with zero steady-state heap
/// allocation: buffers grow to the largest block seen and are reused
/// thereafter.
#[derive(Debug, Clone, Default)]
pub struct ViterbiWorkspace {
    /// Scalar kernel: path metrics for the current branch.
    metrics: Vec<i64>,
    /// Scalar kernel: path metrics being built for the next branch.
    next_metrics: Vec<i64>,
    /// Scalar kernel: flat survivor memory, `survivors[t * n_states +
    /// s]` packing the predecessor state (upper bits) and input bit
    /// (bit 0) of the best path into state `s` at branch `t`.
    survivors: Vec<u32>,
    /// Lane tier: one survivor bitmask word per branch.
    masks: Vec<u64>,
}

impl ViterbiWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures scalar-kernel capacity for `n_branches × n_states`.
    fn prepare_scalar(&mut self, n_branches: usize, n_states: usize) {
        self.metrics.clear();
        self.metrics.resize(n_states, NEG_INF);
        self.next_metrics.clear();
        self.next_metrics.resize(n_states, NEG_INF);
        self.survivors.clear();
        self.survivors.resize(n_branches * n_states, 0);
    }
}

/// Working state for [`ViterbiDecoder::decode_terminated_batch`]: one
/// output per block plus the [`ViterbiWorkspace`] the blocks share.
/// Buffers grow to the largest batch seen and are reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct BatchViterbiWorkspace {
    /// Decoded bits per input block (flush tail already stripped).
    outs: Vec<Vec<u8>>,
    /// Per-block decode scratch.
    scratch: ViterbiWorkspace,
}

impl BatchViterbiWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The decoded outputs of the last batch, one `Vec<u8>` per input
    /// block in input order.
    pub fn outputs(&self) -> &[Vec<u8>] {
        &self.outs
    }

    /// Mutable view of the last batch's outputs — lets callers
    /// `mem::swap` results out without reallocating.
    pub fn outputs_mut(&mut self) -> &mut [Vec<u8>] {
        &mut self.outs
    }
}

/// Sentinel for an unreachable trellis state (scalar kernel).
const NEG_INF: i64 = i64::MIN / 4;

/// Packs a scalar-kernel survivor entry: predecessor state and input.
#[inline]
fn pack_survivor(prev_state: usize, input: u8) -> u32 {
    ((prev_state as u32) << 1) | u32::from(input)
}

/// Unpacks a scalar-kernel survivor entry into `(prev_state, input)`.
#[inline]
fn unpack_survivor(packed: u32) -> (usize, u8) {
    ((packed >> 1) as usize, (packed & 1) as u8)
}

/// A soft-decision Viterbi decoder over the trellis of a [`CodeSpec`].
///
/// The decoder performs add-compare-select over all `2^(K-1)` states
/// per branch and keeps the full survivor memory for an exact
/// end-of-block traceback (the hardware equivalent uses a sliding
/// traceback window; for the paper's burst sizes a full traceback is
/// the exact limit of that architecture). See the `viterbi` module
/// source docs for the ACS kernel tiers behind the public entry points.
///
/// # Examples
///
/// ```
/// use mimo_coding::{CodeSpec, ConvolutionalEncoder, ViterbiDecoder, hard_to_llr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = CodeSpec::ieee80211a();
/// let mut enc = ConvolutionalEncoder::new(spec.clone());
/// let dec = ViterbiDecoder::new(spec);
///
/// let info = vec![1, 0, 0, 1, 1, 0, 1, 0];
/// let coded = enc.encode_terminated(&info);
/// let soft: Vec<_> = coded.iter().map(|&b| hard_to_llr(b)).collect();
/// let decoded = dec.decode_terminated(&soft)?;
/// assert_eq!(decoded, info);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    spec: CodeSpec,
    /// For each state and input bit: (coded output, next state).
    transitions: Vec<[(u32, u32); 2]>,
    /// The `i16` lane tier's tables (`None` unless the code has 64
    /// states and two outputs per input).
    lanes: Option<LaneTrellis>,
}

/// Which add-compare-select kernel tier backs a decode — the
/// `decode_terminated_with` entry point takes one explicitly;
/// everything else uses [`ViterbiKernel::Auto`].
///
/// Selection table (run-time CPU detection × code shape × LLRs):
///
/// | tier     | needs                                                        |
/// |----------|--------------------------------------------------------------|
/// | `simd`   | 64 states and 2 outputs/input (K = 7, rate 1/2, any          |
/// |          | generator pair), every LLR magnitude at most                 |
/// |          | `⌊i16::MAX / (2·2·7)⌋ = 1170` (`i16` metrics, exact by the   |
/// |          | bound proved in the lane module); AVX2 at run time picks the |
/// |          | intrinsic build, else the portable lanes                     |
/// | `scalar` | anything (`i64` metrics)                                     |
///
/// `Auto` takes the first row whose needs the code and the block's
/// LLRs meet; `Scalar` pins the last. Kernel choice can affect only
/// speed, never output. The `simd` tier runs a block's first `K − 1`
/// branches on the `i32` butterfly step, so a block of at most `K − 1`
/// branches decodes entirely there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViterbiKernel {
    /// The `i16` lane tier where the code and LLRs allow it, else the
    /// scalar kernel (the default).
    #[default]
    Auto,
    /// The reference per-state `i64` kernel.
    Scalar,
}

/// Phase timing of one decode, from
/// [`ViterbiDecoder::decode_terminated_profiled`]: where a block's time
/// went and which kernel tier actually ran.
#[derive(Debug, Clone, Copy)]
pub struct DecodeProfile {
    /// Forward pass: branch metrics + add-compare-select recursion.
    pub acs: Duration,
    /// Backward pass: survivor traceback (and output assembly).
    pub traceback: Duration,
    /// The kernel tier dispatched: `"scalar"`, `"simd-portable"` or
    /// `"simd-avx2"`.
    pub kernel: &'static str,
}

/// The tier one decode resolved to (see [`ViterbiKernel`]).
#[derive(Clone, Copy)]
enum Tier<'a> {
    /// `i16` lanes after a butterfly warm-up of `K − 1` branches.
    Lanes(&'a LaneTrellis),
    /// The `i64` reference kernel.
    Scalar,
}

impl Tier<'_> {
    fn name(self) -> &'static str {
        match self {
            Tier::Lanes(lanes) => lanes.name(),
            Tier::Scalar => "scalar",
        }
    }
}

impl ViterbiDecoder {
    /// Builds the decoder trellis for a code.
    pub fn new(spec: CodeSpec) -> Self {
        let n_states = spec.num_states();
        let transitions = (0..n_states as u32)
            .map(|s| [spec.step(s, 0), spec.step(s, 1)])
            .collect();
        let lanes = LaneTrellis::new(&spec);
        Self {
            spec,
            transitions,
            lanes,
        }
    }

    /// The code this decoder targets.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Resolves a kernel request for `soft` (see [`ViterbiKernel`]).
    #[inline]
    fn tier(&self, kernel: ViterbiKernel, soft: &[Llr]) -> Tier<'_> {
        match &self.lanes {
            Some(lanes) if kernel == ViterbiKernel::Auto && LaneTrellis::accepts(soft) => {
                Tier::Lanes(lanes)
            }
            _ => Tier::Scalar,
        }
    }

    /// Name of the kernel tier [`ViterbiKernel::Auto`] would dispatch
    /// for `soft` on this CPU: `"scalar"`, `"simd-portable"` or
    /// `"simd-avx2"`. Benches record this so numbers from different
    /// hosts are interpretable.
    pub fn kernel_name(&self, soft: &[Llr]) -> &'static str {
        self.tier(ViterbiKernel::Auto, soft).name()
    }

    /// Decodes a zero-terminated block (encoded with
    /// [`ConvolutionalEncoder::encode_terminated`](crate::ConvolutionalEncoder::encode_terminated)),
    /// stripping the `K-1` flush bits from the result.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::BadBlockLength`] if the input is not a
    /// whole number of branches or is shorter than the flush tail.
    pub fn decode_terminated(&self, soft: &[Llr]) -> Result<Vec<u8>, CodingError> {
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        self.decode_terminated_into(soft, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`ViterbiDecoder::decode_terminated`]: decodes
    /// into `out` (cleared first) using the caller's workspace. The
    /// steady-state hot path allocates nothing once the workspace and
    /// `out` have grown to the burst's block size.
    ///
    /// # Errors
    ///
    /// Identical to [`ViterbiDecoder::decode_terminated`].
    pub fn decode_terminated_into(
        &self,
        soft: &[Llr],
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        self.decode_terminated_with(ViterbiKernel::Auto, soft, ws, out)
    }

    /// [`ViterbiDecoder::decode_terminated_into`] on an explicitly
    /// requested kernel tier (see [`ViterbiKernel`]) — the entry point
    /// the differential property suite sweeps.
    ///
    /// # Errors
    ///
    /// Identical to [`ViterbiDecoder::decode_terminated`].
    pub fn decode_terminated_with(
        &self,
        kernel: ViterbiKernel,
        soft: &[Llr],
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        let n_branches = self.validate_block(soft)?;
        let tier = self.tier(kernel, soft);
        self.acs_pass(tier, soft, ws);
        self.traceback(tier, n_branches, ws, out);
        self.strip_flush(soft.len(), out)
    }

    /// [`ViterbiDecoder::decode_terminated_into`] with per-phase
    /// timing: how long the forward (branch-metric + ACS) and backward
    /// (traceback) passes took, and which kernel tier ran. The decode
    /// itself is the ordinary [`ViterbiKernel::Auto`] dispatch.
    ///
    /// # Errors
    ///
    /// Identical to [`ViterbiDecoder::decode_terminated`].
    pub fn decode_terminated_profiled(
        &self,
        soft: &[Llr],
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) -> Result<DecodeProfile, CodingError> {
        let n_branches = self.validate_block(soft)?;
        let tier = self.tier(ViterbiKernel::Auto, soft);
        let t0 = Instant::now();
        self.acs_pass(tier, soft, ws);
        let acs = t0.elapsed();
        let t1 = Instant::now();
        self.traceback(tier, n_branches, ws, out);
        self.strip_flush(soft.len(), out)?;
        Ok(DecodeProfile {
            acs,
            traceback: t1.elapsed(),
            kernel: tier.name(),
        })
    }

    /// Decodes a batch of independent zero-terminated blocks of this
    /// code, leaving one output per block (input order) in
    /// [`BatchViterbiWorkspace::outputs`]. Each output is exactly what
    /// [`ViterbiDecoder::decode_terminated_into`] produces for that
    /// block.
    ///
    /// # Errors
    ///
    /// [`CodingError::BadBlockLength`] under the same conditions as
    /// [`ViterbiDecoder::decode_terminated`], reported for the first
    /// offending block; outputs of later blocks are unspecified after
    /// an error.
    pub fn decode_terminated_batch(
        &self,
        blocks: &[&[Llr]],
        ws: &mut BatchViterbiWorkspace,
    ) -> Result<(), CodingError> {
        let BatchViterbiWorkspace { outs, scratch } = ws;
        outs.resize_with(blocks.len(), Vec::new);
        for (block, out) in blocks.iter().zip(outs.iter_mut()) {
            self.decode_terminated_into(block, scratch, out)?;
        }
        Ok(())
    }

    /// Removes the `K-1` trellis flush bits after a terminated decode.
    fn strip_flush(&self, soft_len: usize, out: &mut Vec<u8>) -> Result<(), CodingError> {
        let flush = self.spec.constraint_length() - 1;
        if out.len() < flush {
            return Err(CodingError::BadBlockLength {
                got: soft_len,
                multiple: self.spec.outputs_per_input() * (flush + 1),
            });
        }
        let info_len = out.len() - flush;
        out.truncate(info_len);
        Ok(())
    }

    /// Checks that `soft` is a whole number of branches; returns the
    /// branch count.
    fn validate_block(&self, soft: &[Llr]) -> Result<usize, CodingError> {
        let n_out = self.spec.outputs_per_input();
        if !soft.len().is_multiple_of(n_out) {
            return Err(CodingError::BadBlockLength {
                got: soft.len(),
                multiple: n_out,
            });
        }
        Ok(soft.len() / n_out)
    }

    /// Forward pass on the resolved tier. `soft` must already be
    /// validated.
    fn acs_pass(&self, tier: Tier<'_>, soft: &[Llr], ws: &mut ViterbiWorkspace) {
        match tier {
            Tier::Lanes(lanes) => Self::lane_acs_pass(lanes, soft, ws),
            Tier::Scalar => self.scalar_acs_pass(soft, ws),
        }
    }

    /// Backward pass from state 0 (blocks are terminated) on the tier
    /// the forward pass ran.
    fn traceback(
        &self,
        tier: Tier<'_>,
        n_branches: usize,
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) {
        match tier {
            Tier::Lanes(_) => Self::lane_traceback(n_branches, ws, out),
            Tier::Scalar => self.scalar_traceback(n_branches, ws, out),
        }
    }

    /// Forward pass of a lane-tier block decode into the workspace's
    /// survivor words: the `K − 1`-branch warm-up on the `i32`
    /// butterfly step, then the lanes for the rest of the block.
    fn lane_acs_pass(lanes: &LaneTrellis, soft: &[Llr], ws: &mut ViterbiWorkspace) {
        let n_branches = soft.len() / OUTPUTS;
        let warm_up = n_branches.min(LaneTrellis::WARM_UP);
        // Every word is overwritten below.
        ws.masks.resize(n_branches, 0);

        let bf = lanes.trellis();
        let mut row = [NEG_INF_I32; STATES];
        row[0] = 0;
        let mut next = [0i32; STATES];
        let mut bm = [0i32; 4];
        for (branch, word) in soft.chunks_exact(OUTPUTS).zip(&mut ws.masks[..warm_up]) {
            fill_bm_table(branch, &mut bm);
            *word = bf.acs_step(&bm, &row, &mut next);
            std::mem::swap(&mut row, &mut next);
        }
        // A block of at most K − 1 branches ends inside the warm-up.
        if warm_up < n_branches {
            lanes.forward(&row, &soft[warm_up * OUTPUTS..], &mut ws.masks[warm_up..]);
        }
    }

    /// Backward pass of a lane-tier block decode: one survivor bit per
    /// step selects the predecessor.
    fn lane_traceback(n_branches: usize, ws: &mut ViterbiWorkspace, out: &mut Vec<u8>) {
        let mut state = 0usize;
        out.clear();
        out.resize(n_branches, 0);
        for t in (0..n_branches).rev() {
            let (bit, prev) = ButterflyTrellis::traceback_state(state, ws.masks[t]);
            out[t] = bit;
            state = prev;
        }
    }

    /// Forward pass of a scalar-kernel block decode.
    fn scalar_acs_pass(&self, soft: &[Llr], ws: &mut ViterbiWorkspace) {
        let n_out = self.spec.outputs_per_input();
        let n_branches = soft.len() / n_out;
        let n_states = self.spec.num_states();

        // Path metrics: larger is better. Start locked to state 0.
        ws.prepare_scalar(n_branches, n_states);
        ws.metrics[0] = 0;

        for t in 0..n_branches {
            let branch = &soft[t * n_out..(t + 1) * n_out];
            ws.next_metrics.fill(NEG_INF);
            let surv = &mut ws.survivors[t * n_states..(t + 1) * n_states];
            for state in 0..n_states {
                let pm = ws.metrics[state];
                if pm == NEG_INF {
                    continue;
                }
                for input in 0..2u8 {
                    let (coded, next) = self.transitions[state][input as usize];
                    // Branch metric: correlation of expected bits with
                    // LLRs (positive LLR favours bit 0).
                    let mut bm: i64 = 0;
                    for (i, &llr) in branch.iter().enumerate() {
                        let expected = (coded >> i) & 1;
                        bm += if expected == 0 { llr as i64 } else { -(llr as i64) };
                    }
                    let cand = pm + bm;
                    let next = next as usize;
                    if cand > ws.next_metrics[next] {
                        ws.next_metrics[next] = cand;
                        surv[next] = pack_survivor(state, input);
                    }
                }
            }
            std::mem::swap(&mut ws.metrics, &mut ws.next_metrics);
        }
    }

    /// Backward pass of a scalar-kernel block decode.
    fn scalar_traceback(&self, n_branches: usize, ws: &mut ViterbiWorkspace, out: &mut Vec<u8>) {
        let n_states = self.spec.num_states();
        let mut state = 0usize;
        out.clear();
        out.resize(n_branches, 0);
        for t in (0..n_branches).rev() {
            let (prev, input) = unpack_survivor(ws.survivors[t * n_states + state]);
            out[t] = input;
            state = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hard_to_llr, ConvolutionalEncoder, HARD_LLR};

    fn roundtrip(info: &[u8]) -> Vec<u8> {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let coded = enc.encode_terminated(info);
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        dec.decode_terminated(&soft).unwrap()
    }

    #[test]
    fn noiseless_roundtrip() {
        let info: Vec<u8> = (0..100).map(|i| ((i * 31 + 7) % 5 < 2) as u8).collect();
        assert_eq!(roundtrip(&info), info);
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..200).map(|i| ((i * 13) % 7 < 3) as u8).collect();
        let mut coded = enc.encode_terminated(&info);
        // Flip well-separated bits: free distance 10 corrects these.
        for pos in [3usize, 40, 90, 150, 220, 300, 390] {
            coded[pos] ^= 1;
        }
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    #[test]
    fn soft_information_beats_hard_on_weak_bits() {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..64).map(|i| ((i * 29) % 3 == 0) as u8).collect();
        let coded = enc.encode_terminated(&info);
        // A burst of 6 adjacent hard flips defeats hard decisions...
        let mut hard: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        let mut soft = hard.clone();
        for pos in 20..26 {
            hard[pos] = -hard[pos];
            // ...but soft decoding sees those bits as unreliable.
            soft[pos] = -soft[pos].signum() * (HARD_LLR / 16).max(1);
        }
        let soft_result = dec.decode_terminated(&soft).unwrap();
        assert_eq!(soft_result, info, "soft decoder must survive a weak burst");
    }

    #[test]
    fn erasures_are_tolerated() {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..80).map(|i| (i % 3 == 1) as u8).collect();
        let coded = enc.encode_terminated(&info);
        let mut soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        // Erase every 4th bit (heavier than r=3/4 puncturing).
        for llr in soft.iter_mut().step_by(4) {
            *llr = 0;
        }
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    #[test]
    fn rejects_ragged_input() {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        assert!(matches!(
            dec.decode_terminated(&[1, 2, 3]),
            Err(CodingError::BadBlockLength { got: 3, .. })
        ));
    }

    #[test]
    fn empty_block_is_rejected() {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        assert!(dec.decode_terminated(&[]).is_err());
    }

    #[test]
    fn works_for_other_codes() {
        // K=3 (5,7) toy code.
        let spec = CodeSpec::new(3, vec![0o5, 0o7]).unwrap();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info = vec![1, 1, 0, 1, 0, 0, 1, 0, 1, 1];
        let coded = enc.encode_terminated(&info);
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    #[test]
    fn auto_matches_scalar_on_noisy_block() {
        // Direct differential check on one heavily corrupted block
        // (the crate's property suite sweeps this much harder).
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..500).map(|i| ((i * 37 + 11) % 9 < 4) as u8).collect();
        let coded = enc.encode_terminated(&info);
        let mut soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        // Deterministic pseudo-noise, including sign flips and erasures.
        let mut s = 0x9e3779b9u32;
        for llr in soft.iter_mut() {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *llr += (s % 101) as Llr - 50;
        }
        let mut ws = ViterbiWorkspace::new();
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        dec.decode_terminated_into(&soft, &mut ws, &mut fast).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &soft, &mut ws, &mut reference)
            .unwrap();
        assert_eq!(fast, reference, "kernels disagree");
    }

    /// The decoder once per lane build this CPU runs.
    fn lane_decoders(spec: CodeSpec) -> Vec<ViterbiDecoder> {
        let dec = ViterbiDecoder::new(spec.clone());
        LaneTrellis::builds(&spec)
            .into_iter()
            .map(|lanes| ViterbiDecoder {
                lanes: Some(lanes),
                ..dec.clone()
            })
            .collect()
    }

    /// Deterministic xorshift LLRs in `[-scale, scale]`, `pct_erased`
    /// percent of them zero.
    fn random_llrs(n: usize, seed: u64, scale: i64, pct_erased: u64) -> Vec<Llr> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 100 < pct_erased {
                    0
                } else {
                    ((x >> 8) % (2 * scale as u64 + 1)) as i64 as Llr - scale as Llr
                }
            })
            .collect()
    }

    #[test]
    fn every_lane_build_matches_butterfly_and_scalar() {
        let bound = crate::lanes::LANE_LLR_MAX;
        let l = i64::from(bound);
        let stock = CodeSpec::ieee80211a();
        let mut cases = vec![
            (stock.clone(), random_llrs(2 * 3000, 1, l, 0)),
            (stock.clone(), random_llrs(2 * 3000, 2, 1, 0)),
            (stock.clone(), random_llrs(2 * 3000, 3, l, 30)),
            // Runs of ±L long enough for the i16 row to wrap many times.
            (
                stock.clone(),
                (0..2 * 20_000)
                    .map(|i| if (i / 37) % 3 == 0 { -bound } else { bound })
                    .collect(),
            ),
        ];
        for n_branches in 6..10 {
            cases.push((stock.clone(), random_llrs(2 * n_branches, n_branches as u64, l, 10)));
        }
        for (g0, g1) in [(0o171, 0o133), (0o1, 0o177), (0o100, 0o77), (0o55, 0o55)] {
            let spec = CodeSpec::new(7, vec![g0, g1]).unwrap();
            cases.push((spec, random_llrs(2 * 2000, u64::from(g0 ^ g1), l, 5)));
        }
        {
            let info: Vec<u8> = (0..1500).map(|i| ((i * 37 + 11) % 9 < 4) as u8).collect();
            let mut enc = ConvolutionalEncoder::new(stock.clone());
            let noise = random_llrs(2 * (info.len() + 6), 9, i64::from(crate::LLR_MAX) - 64, 0);
            let soft = enc
                .encode_terminated(&info)
                .iter()
                .zip(&noise)
                .map(|(&b, &n)| hard_to_llr(b) + n)
                .collect();
            cases.push((stock, soft));
        }
        let warm_up = LaneTrellis::WARM_UP;
        for (spec, soft) in cases {
            let reference = ViterbiDecoder::new(spec.clone());
            let mut ws = ViterbiWorkspace::new();
            let (mut scalar, mut lanes) = (Vec::new(), Vec::new());
            reference
                .decode_terminated_with(ViterbiKernel::Scalar, &soft, &mut ws, &mut scalar)
                .unwrap();
            // The scalar kernel's decision bits in the lanes' survivor
            // word layout: bit `s` is set when state `s`'s survivor came
            // from the odd predecessor `2j + 1`. From step K − 1 on
            // every state is live in both kernels; the steps before
            // that run on the shared butterfly warm-up step.
            let words: Vec<u64> = ws
                .survivors
                .chunks_exact(STATES)
                .map(|step| {
                    step.iter().enumerate().fold(0, |word, (s, &packed)| {
                        word | ((unpack_survivor(packed).0 as u64 & 1) << s)
                    })
                })
                .collect();
            let decoders = lane_decoders(spec);
            for dec in &decoders {
                let name = dec.kernel_name(&soft);
                assert!(name.starts_with("simd-"), "got {name}");
                dec.decode_terminated_with(ViterbiKernel::Auto, &soft, &mut ws, &mut lanes)
                    .unwrap();
                assert!(
                    ws.masks[warm_up..] == words[warm_up..],
                    "{name}: survivor words differ from the scalar kernel's decisions"
                );
                assert_eq!(lanes, scalar, "{name} vs scalar");
            }
            assert_eq!(decoders[0].kernel_name(&soft), "simd-portable");
        }
    }

    #[test]
    fn extreme_llrs_fall_back_to_scalar_and_still_match() {
        // Magnitudes far beyond the lanes' bound must route to the
        // scalar kernel transparently.
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let info: Vec<u8> = (0..40).map(|i| (i % 5 == 2) as u8).collect();
        let coded = enc.encode_terminated(&info);
        let soft: Vec<Llr> = coded
            .iter()
            .map(|&b| if b == 0 { 1 << 28 } else { -(1 << 28) })
            .collect();
        assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }
}
