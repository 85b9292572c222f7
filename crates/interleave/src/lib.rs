//! The 802.11a block interleaver and de-interleaver.
//!
//! The paper implements the interleaver as **two memories built from
//! registers** (the permutation's access pattern defeats block-RAM
//! mapping, which is why Table 2 charges it 28,016 ALUTs and no memory
//! bits) with a ping-pong FSM: "As one memory is accepting data from
//! the convolutional encoder, the other memory streams data out using
//! the interleaving pattern as specified by the 802.11a standard."
//!
//! * [`BlockInterleaver`] — the permutation itself (both directions),
//!   generic over the stored value so the de-interleaver can carry
//!   hard bits or soft LLRs ("the de-interleaver ... must be able to
//!   store the soft or hard bit representation", §IV.B).
//! * [`FusedDeinterleaver`] — the permutation composed with
//!   (de)puncturing into one per-symbol table: the receiver scatters
//!   demapped LLRs through it (demap→deinterleave→depuncture in one
//!   pass) and the transmitter gathers its coded bits through it
//!   (puncture→interleave in one pass).

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

mod fused;
mod permutation;

pub use fused::FusedDeinterleaver;
pub use permutation::{BlockInterleaver, InterleaveError};
