//! Forward error correction: convolutional encoder, puncturing,
//! Viterbi decoder, and the 802.11a scrambler.
//!
//! The paper's transmitter streams uncoded data into a "generic
//! convolutional encoder" whose data-path width, rate `R` and puncture
//! pattern are set before synthesis (§IV.A); the receiver closes the
//! loop with a Viterbi decoder (§IV.B). The pilot tones are
//! "de-scrambled" at the receiver, which requires the 802.11a
//! 127-periodic polarity sequence.
//!
//! * [`ConvolutionalEncoder`] — K=7 industry code by default
//!   ([`CodeSpec::ieee80211a`]), arbitrary generators supported;
//!   [`CodeSpec::encode_terminated_words`] is its packed twin, one
//!   shifted-word XOR per generator tap over `u64` words.
//! * [`CodeRate`] + [`puncture`]/[`depuncture`] — the 802.11a r=2/3 and
//!   r=3/4 puncturing patterns (erasures re-inserted as zero-LLRs).
//! * [`ViterbiDecoder`] — soft-decision add-compare-select with full
//!   block traceback; hard decision is the degenerate ±1 case.
//! * [`Scrambler`] — the x⁷+x⁴+1 LFSR, bit-serial and from one `const`
//!   keystream table (packed word XOR, byte-wise descramble), plus
//!   [`pilot_polarity`] for the pilot sequence, a lookup in that table.
//! * [`bits`] — bit/byte packing helpers shared by the whole stack.
//!
//! # The `i16` lane tier
//!
//! The decode hot path is the Viterbi add-compare-select recursion —
//! the block the paper spends an entire pipelined ACS array on in
//! hardware. The lane tier (module `lanes`, private) runs a whole
//! block's forward pass on sixteen-bit wrapping path metrics for the
//! 64-state, two-output shape of [`CodeSpec::ieee80211a`] (any
//! generator pair), the software image of that array:
//!
//! * The first `K − 1` branches run on the radix-2 butterfly step
//!   (module `butterfly`, private): a four-entry branch-metric table
//!   per step, one walk over the state pairs `2j`/`2j+1` → `j`,
//!   `j + 32` on `i32` rows. From there every state is reachable, and
//!   the row narrows to `i16` exactly and stays in four AVX2 registers
//!   for every branch of one call (the workspace holds it between
//!   calls, so a block's forward pass may run in pieces).
//! * Per step, a `pshufb`/`vpermq`/`vperm2i128` de-interleave forms the
//!   `2j`/`2j+1` vectors, branch metrics are `sign_epi16` of the two
//!   broadcast LLRs against `±1` label vectors, the compare is a signed
//!   test of the wrapping difference of the two candidates and a
//!   `blendv` selects. No renormalization runs.
//! * `packs`/`vpermq`/`movemask` drop **one survivor bit per state per
//!   branch** into a `u64` word (the survivor RAM), so traceback is a
//!   shift-and-mask walk on the butterfly tables.
//!
//! The bound that makes sixteen bits exact: once every state is
//! reachable, the row spread is at most `(K − 1)·2nL` and two
//! candidates differ by at most `K·2nL` for `|LLR| ≤ L`; with
//! `L = ⌊i16::MAX / (2nK)⌋ = 1170` that stays below 2¹⁵, so the
//! wrapping difference makes every decision, ties included, that the
//! `i64` scalar kernel makes. The demapper clamps its soft output to
//! [`LLR_MAX`] `= 1024` and hard decisions are ±[`HARD_LLR`] `= 64`,
//! both inside that bound (`const` asserts pin them), so every burst
//! decode runs on the lanes. The build that runs (AVX-512BW, AVX2, or
//! a portable `[i16; 64]` lane body with `wrapping_*` arithmetic, the
//! same algorithm) is the decoder's [`mimo_fixed::Isa`] tier.
//!
//! # Kernel selection
//!
//! Tier choice is made per decode at run time, never at build time:
//! [`ViterbiKernel::Auto`] (the default) takes the lane tier where the
//! code shape and the block's LLRs fit it, else the scalar kernel —
//! the per-state `i64` loop that is also the differential-testing
//! reference ([`ViterbiKernel::Scalar`]). Both tiers are bit-identical,
//! enforced by the property suite in `tests/proptests.rs`.
//! [`ViterbiDecoder::decode_terminated_with`] accepts an explicit
//! request, which is how the differential suites pin each tier on any
//! build, and `ViterbiDecoder::kernel_name` reports what `Auto` would
//! dispatch. [`ViterbiDecoder::decode_terminated_batch`] decodes
//! several blocks through one shared workspace, block by block.
//!
//! # Decoding as the LLRs land
//!
//! Every decode entry is "reset the [`ViterbiWorkspace`], forward pass
//! over the whole block, traceback from state 0" on one forward
//! implementation. A receiver that gets a block's LLRs a symbol at a
//! time runs the same pass in pieces instead:
//! [`ViterbiWorkspace::reset`] at the block's start,
//! [`ViterbiDecoder::forward_pass`] over the LLRs so far after each
//! symbol (it runs only the whole branches it has not run yet), and
//! [`ViterbiDecoder::finish_terminated_into`] at the end, which runs
//! what is left and traces back. The workspace keeps the metric row and
//! the survivor words between calls, so the decisions, and the bits,
//! are those of the one-call decode wherever the block is cut. A piece
//! with an LLR beyond the lanes' bound stops the lane pass, and the
//! close decodes the whole block on the scalar kernel.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod bits;
mod butterfly;
mod conv;
mod puncture;
mod lanes;
mod scrambler;
mod viterbi;

pub use conv::{CodeSpec, CodingError, ConvolutionalEncoder};
pub use puncture::{depuncture, puncture, puncture_into, CodeRate};
pub use scrambler::{pilot_polarity, Scrambler};
pub use viterbi::{
    BatchViterbiWorkspace, DecodeProfile, ViterbiDecoder, ViterbiKernel, ViterbiWorkspace,
};

/// A soft bit (log-likelihood ratio). Positive means "more likely 0",
/// negative "more likely 1", zero is an erasure. Hard bits map to
/// ±[`HARD_LLR`].
pub type Llr = i32;

/// Magnitude used when converting a hard bit to a soft value.
pub const HARD_LLR: Llr = 64;

/// Largest soft-output magnitude the demapper produces. Every block
/// within it decodes on the `i16` lane tier.
pub const LLR_MAX: Llr = 1024;

const _: () = assert!(LLR_MAX <= lanes::LANE_LLR_MAX);
const _: () = assert!(HARD_LLR <= LLR_MAX);

/// Converts a hard bit (0/1) to its soft representation.
#[inline]
pub fn hard_to_llr(bit: u8) -> Llr {
    if bit == 0 {
        HARD_LLR
    } else {
        -HARD_LLR
    }
}
