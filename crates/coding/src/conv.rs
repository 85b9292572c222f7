//! The generic convolutional encoder.
//!
//! "A generic convolutional encoder has been developed. Prior to logic
//! synthesis, a user can specify the data-path width, data rate R and
//! the puncture pattern." (§IV.A). The software model mirrors that: the
//! code is described by a [`CodeSpec`] (constraint length, generator
//! polynomials, data-path width), and puncturing is applied as a
//! separate stage (see [`crate::puncture`]).

use std::error::Error;
use std::fmt;

/// Errors produced when building or running the coding blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodingError {
    /// Constraint length outside the supported 3..=9 range.
    BadConstraintLength(usize),
    /// A generator polynomial has taps beyond the constraint length.
    BadGenerator {
        /// The offending polynomial (octal convention, as written).
        generator: u32,
        /// Configured constraint length.
        constraint_length: usize,
    },
    /// Fewer than two generators (rate above 1 is not a code).
    TooFewGenerators,
    /// Input to the decoder is not a multiple of the branch width.
    BadBlockLength {
        /// Length supplied.
        got: usize,
        /// Required multiple.
        multiple: usize,
    },
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::BadConstraintLength(k) => {
                write!(f, "constraint length {k} unsupported (expected 3..=9)")
            }
            CodingError::BadGenerator {
                generator,
                constraint_length,
            } => write!(
                f,
                "generator {generator:o} has taps beyond constraint length {constraint_length}"
            ),
            CodingError::TooFewGenerators => write!(f, "at least two generator polynomials required"),
            CodingError::BadBlockLength { got, multiple } => {
                write!(f, "coded block length {got} is not a multiple of {multiple}")
            }
        }
    }
}

impl Error for CodingError {}

/// Static description of a convolutional code, the synthesis-time
/// "generics" of the paper's encoder entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSpec {
    constraint_length: usize,
    generators: Vec<u32>,
}

impl CodeSpec {
    /// The industry-standard K=7 code used by 802.11a: generators
    /// 133/171 (octal), mother rate 1/2.
    pub fn ieee80211a() -> Self {
        // Constructed directly: the field invariants `new` checks
        // (K in range, generators fit K bits) hold for
        // these literals, and the equivalence with `new` is pinned by
        // the spec tests below.
        Self {
            constraint_length: 7,
            generators: vec![0o133, 0o171],
        }
    }

    /// Creates a custom code.
    ///
    /// `generators` use the usual convention: bit `K-1` is the tap on
    /// the newest input bit.
    ///
    /// # Errors
    ///
    /// Rejects constraint lengths outside 3..=9, generator polynomials
    /// with taps beyond the constraint length, and fewer than two
    /// generators.
    // phylint: allow(test_only_api) -- test support: crates/coding/tests/proptests.rs
    pub fn new(constraint_length: usize, generators: Vec<u32>) -> Result<Self, CodingError> {
        if !(3..=9).contains(&constraint_length) {
            return Err(CodingError::BadConstraintLength(constraint_length));
        }
        if generators.len() < 2 {
            return Err(CodingError::TooFewGenerators);
        }
        for &g in &generators {
            if g >= (1 << constraint_length) || g == 0 {
                return Err(CodingError::BadGenerator {
                    generator: g,
                    constraint_length,
                });
            }
        }
        Ok(Self {
            constraint_length,
            generators,
        })
    }

    /// Constraint length K.
    pub fn constraint_length(&self) -> usize {
        self.constraint_length
    }

    /// Coded bits emitted per input bit (the inverse of the mother
    /// rate): 2 for a rate-1/2 code.
    pub fn outputs_per_input(&self) -> usize {
        self.generators.len()
    }

    /// Number of trellis states (`2^(K-1)`).
    pub fn num_states(&self) -> usize {
        1 << (self.constraint_length - 1)
    }

    /// Coded outputs for one input bit entering state `state`.
    /// Returns (`coded_bits` packed LSB = generator 0, `next_state`).
    #[inline]
    pub(crate) fn step(&self, state: u32, input: u8) -> (u32, u32) {
        let k = self.constraint_length;
        // Shift register: newest bit in the MSB position (bit K-1).
        let reg = (u32::from(input) << (k - 1)) | state;
        let mut coded = 0u32;
        for (i, &g) in self.generators.iter().enumerate() {
            let parity = (reg & g).count_ones() & 1;
            coded |= parity << i;
        }
        let next_state = reg >> 1;
        (coded, next_state)
    }
}

impl Default for CodeSpec {
    fn default() -> Self {
        Self::ieee80211a()
    }
}

/// Streaming convolutional encoder.
///
/// # Examples
///
/// ```
/// use mimo_coding::{CodeSpec, ConvolutionalEncoder};
///
/// let mut enc = ConvolutionalEncoder::new(CodeSpec::ieee80211a());
/// let coded = enc.encode_terminated(&[1, 0, 1, 1]);
/// // Rate 1/2 with K-1 = 6 flush bits: (4 + 6) * 2 coded bits.
/// assert_eq!(coded.len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct ConvolutionalEncoder {
    spec: CodeSpec,
    state: u32,
}

impl ConvolutionalEncoder {
    /// Creates an encoder in the all-zero state.
    pub fn new(spec: CodeSpec) -> Self {
        Self { spec, state: 0 }
    }

    /// The code this encoder implements.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// Resets the shift register to the all-zero state.
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// Encodes a stream of bits, continuing from the current state,
    /// appending to a caller-owned buffer (no allocation once the
    /// buffer has grown). Output order: for each input bit, one bit per
    /// generator.
    pub fn encode_append(&mut self, input: &[u8], out: &mut Vec<u8>) {
        let n_out = self.spec.outputs_per_input();
        out.reserve(input.len() * n_out);
        for &bit in input {
            debug_assert!(bit <= 1, "bit values must be 0 or 1");
            let (coded, next) = self.spec.step(self.state, bit & 1);
            self.state = next;
            for i in 0..n_out {
                out.push(((coded >> i) & 1) as u8);
            }
        }
    }

    /// Encodes a block and appends `K-1` zero flush bits so the trellis
    /// terminates in state 0 (the framing used per OFDM burst).
    /// The encoder is reset afterwards.
    pub fn encode_terminated(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_terminated_into(input, &mut out);
        out
    }

    /// Allocation-free [`ConvolutionalEncoder::encode_terminated`] into
    /// a caller-owned buffer (cleared first).
    pub fn encode_terminated_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.encode_append(input, out);
        // Generators are u32 polynomials, so K − 1 < 32 always.
        let flush = [0u8; 32];
        let k = self.spec.constraint_length();
        self.encode_append(&flush[..k - 1], out);
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(CodeSpec::new(2, vec![1, 3]).is_err());
        assert!(CodeSpec::new(7, vec![0o133]).is_err());
        assert!(CodeSpec::new(7, vec![0o133, 0o400]).is_err());
        assert!(CodeSpec::new(7, vec![0o133, 0o171]).is_ok());
    }

    #[test]
    fn ieee_spec_parameters() {
        let spec = CodeSpec::ieee80211a();
        assert_eq!(spec.constraint_length(), 7);
        assert_eq!(spec.num_states(), 64);
        assert_eq!(spec.outputs_per_input(), 2);
    }

    #[test]
    fn impulse_response_is_generators() {
        // Encoding a single 1 followed by K-1 zeros reads out each
        // generator polynomial MSB-first.
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let coded = enc.encode_terminated(&[1]);
        let g0 = 0o133u32;
        let g1 = 0o171u32;
        for t in 0..7 {
            let expect0 = ((g0 >> (6 - t)) & 1) as u8;
            let expect1 = ((g1 >> (6 - t)) & 1) as u8;
            assert_eq!(coded[2 * t as usize], expect0, "g0 tap {t}");
            assert_eq!(coded[2 * t as usize + 1], expect1, "g1 tap {t}");
        }
    }

    #[test]
    fn all_zero_input_gives_all_zero_output() {
        let mut enc = ConvolutionalEncoder::new(CodeSpec::ieee80211a());
        assert!(enc.encode_terminated(&[0; 32]).iter().all(|&b| b == 0));
    }

    #[test]
    fn encoding_is_linear_over_gf2() {
        let spec = CodeSpec::ieee80211a();
        let a: Vec<u8> = (0..40).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let b: Vec<u8> = (0..40).map(|i| ((i * 5) % 4 == 1) as u8).collect();
        let xor: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let mut enc = ConvolutionalEncoder::new(spec);
        let ca = enc.encode_terminated(&a);
        let cb = enc.encode_terminated(&b);
        let cxor = enc.encode_terminated(&xor);
        let expected: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
        assert_eq!(cxor, expected);
    }

    #[test]
    fn terminated_encoding_resets_state() {
        let mut enc = ConvolutionalEncoder::new(CodeSpec::ieee80211a());
        let first = enc.encode_terminated(&[1, 1, 0, 1]);
        let second = enc.encode_terminated(&[1, 1, 0, 1]);
        assert_eq!(first, second);
    }

    #[test]
    fn error_display() {
        let err = CodeSpec::new(12, vec![1, 2]).unwrap_err();
        assert!(err.to_string().contains("12"));
    }
}
