//! The two-permutation 802.11a interleaving pattern.

use std::error::Error;
use std::fmt;

/// Errors from interleaver construction or use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterleaveError {
    /// Block size must be a positive multiple of 16 (the column count
    /// fixed by the standard's first permutation).
    BadBlockSize(usize),
    /// Bits-per-subcarrier must be one of 1, 2, 4, 6.
    BadBitsPerSubcarrier(usize),
    /// Block size must divide evenly into subcarriers.
    Indivisible {
        /// Coded bits per OFDM symbol.
        n_cbps: usize,
        /// Bits per subcarrier.
        n_bpsc: usize,
    },
    /// Input block length must equal the configured block size.
    LengthMismatch {
        /// Configured block size.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A fused deinterleave→depuncture table needs a keep-pattern that
    /// keeps at least one bit and divides the block evenly (every
    /// 802.11a operating point does).
    BadPuncture {
        /// Coded bits per OFDM symbol.
        n_cbps: usize,
        /// Keep-pattern period (mother bits per pattern repeat).
        period: usize,
        /// Bits kept per pattern period.
        keeps: usize,
    },
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterleaveError::BadBlockSize(n) => {
                write!(f, "block size {n} is not a positive multiple of 16")
            }
            InterleaveError::BadBitsPerSubcarrier(n) => {
                write!(f, "bits per subcarrier {n} not in {{1, 2, 4, 6}}")
            }
            InterleaveError::Indivisible { n_cbps, n_bpsc } => {
                write!(f, "block size {n_cbps} is not a multiple of {n_bpsc} bits/subcarrier")
            }
            InterleaveError::LengthMismatch { expected, got } => {
                write!(f, "block length {got} does not match interleaver size {expected}")
            }
            InterleaveError::BadPuncture {
                n_cbps,
                period,
                keeps,
            } => {
                write!(
                    f,
                    "cannot fuse puncturing (period {period}, {keeps} kept) into a \
                     {n_cbps}-bit block: pattern keeps nothing or does not divide the block"
                )
            }
        }
    }
}

impl Error for InterleaveError {}

/// The 802.11a block interleaver for one OFDM symbol of `n_cbps` coded
/// bits at `n_bpsc` bits per subcarrier.
///
/// Interleaving applies two permutations (§17.3.5.6 of the standard):
/// the first spreads adjacent coded bits across non-adjacent
/// subcarriers (a 16-column block transpose), the second alternates
/// bits between more and less significant constellation positions.
///
/// # Examples
///
/// ```
/// use mimo_interleave::BlockInterleaver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 16-QAM, 48 data subcarriers: the paper's synthesis configuration.
/// let il = BlockInterleaver::new(192, 4)?;
/// let bits: Vec<u8> = (0..192).map(|i| (i % 2) as u8).collect();
/// let tx = il.interleave(&bits)?;
/// assert_eq!(il.deinterleave(&tx)?, bits);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockInterleaver {
    n_cbps: usize,
    /// `forward[k]` = output position of input bit `k`.
    forward: Vec<usize>,
    /// `inverse[j]` = input position that lands at output `j`.
    inverse: Vec<usize>,
}

impl BlockInterleaver {
    /// Builds the interleaver for a block of `n_cbps` coded bits at
    /// `n_bpsc` bits per subcarrier.
    ///
    /// # Errors
    ///
    /// See [`InterleaveError`] variants for the validation rules.
    pub fn new(n_cbps: usize, n_bpsc: usize) -> Result<Self, InterleaveError> {
        if n_cbps == 0 || !n_cbps.is_multiple_of(16) {
            return Err(InterleaveError::BadBlockSize(n_cbps));
        }
        if ![1, 2, 4, 6].contains(&n_bpsc) {
            return Err(InterleaveError::BadBitsPerSubcarrier(n_bpsc));
        }
        if !n_cbps.is_multiple_of(n_bpsc) {
            return Err(InterleaveError::Indivisible { n_cbps, n_bpsc });
        }
        let s = (n_bpsc / 2).max(1);
        let mut forward = vec![0; n_cbps];
        let mut inverse = vec![0; n_cbps];
        #[allow(clippy::needless_range_loop)] // `k` is the permutation formula's variable
        for k in 0..n_cbps {
            // First permutation: adjacent coded bits onto non-adjacent
            // subcarriers.
            let i = (n_cbps / 16) * (k % 16) + k / 16;
            // Second permutation: rotate within constellation-bit groups.
            let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
            forward[k] = j;
            inverse[j] = k;
        }
        Ok(Self {
            n_cbps,
            forward,
            inverse,
        })
    }

    /// Coded bits per block.
    pub fn block_size(&self) -> usize {
        self.n_cbps
    }

    /// The forward permutation table (`table[k]` = destination of input
    /// bit `k`) — the read-address ROM of the hardware FSM.
    pub fn pattern(&self) -> &[usize] {
        &self.forward
    }

    /// Applies the interleaving permutation to one block.
    ///
    /// Generic over the element type: the transmitter interleaves hard
    /// bits; nothing else is required of `T` but `Copy`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::LengthMismatch`] on a wrong-size block.
    pub fn interleave<T: Copy + Default>(&self, block: &[T]) -> Result<Vec<T>, InterleaveError> {
        let mut out = vec![T::default(); block.len()];
        self.permute_into(block, &mut out, &self.forward)?;
        Ok(out)
    }

    /// Applies the inverse permutation (receiver side). Works on hard
    /// bits or soft LLRs alike.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::LengthMismatch`] on a wrong-size block.
    pub fn deinterleave<T: Copy + Default>(&self, block: &[T]) -> Result<Vec<T>, InterleaveError> {
        let mut out = vec![T::default(); block.len()];
        self.permute_into(block, &mut out, &self.inverse)?;
        Ok(out)
    }

    /// Allocation-free [`BlockInterleaver::interleave`] into a
    /// caller-provided buffer of exactly the block size. Every output
    /// position is written (the permutation is a bijection), so the
    /// buffer needs no initialization contract.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::LengthMismatch`] on either length.
    pub fn interleave_into<T: Copy>(
        &self,
        block: &[T],
        out: &mut [T],
    ) -> Result<(), InterleaveError> {
        self.permute_into(block, out, &self.forward)
    }

    /// Allocation-free [`BlockInterleaver::deinterleave`] into a
    /// caller-provided buffer of exactly the block size.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::LengthMismatch`] on either length.
    // phylint: allow(test_only_api) -- oracle: crates/interleave/src/fused.rs
    pub fn deinterleave_into<T: Copy>(
        &self,
        block: &[T],
        out: &mut [T],
    ) -> Result<(), InterleaveError> {
        self.permute_into(block, out, &self.inverse)
    }

    fn permute_into<T: Copy>(
        &self,
        block: &[T],
        out: &mut [T],
        table: &[usize],
    ) -> Result<(), InterleaveError> {
        if block.len() != self.n_cbps {
            return Err(InterleaveError::LengthMismatch {
                expected: self.n_cbps,
                got: block.len(),
            });
        }
        if out.len() != self.n_cbps {
            return Err(InterleaveError::LengthMismatch {
                expected: self.n_cbps,
                got: out.len(),
            });
        }
        for (k, &item) in block.iter().enumerate() {
            out[table[k]] = item;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(matches!(
            BlockInterleaver::new(100, 4),
            Err(InterleaveError::BadBlockSize(100))
        ));
        assert!(matches!(
            BlockInterleaver::new(192, 3),
            Err(InterleaveError::BadBitsPerSubcarrier(3))
        ));
        assert!(BlockInterleaver::new(48, 1).is_ok());
        assert!(BlockInterleaver::new(96, 2).is_ok());
        assert!(BlockInterleaver::new(192, 4).is_ok());
        assert!(BlockInterleaver::new(288, 6).is_ok());
    }

    #[test]
    fn permutation_is_a_bijection() {
        for (n_cbps, n_bpsc) in [(48, 1), (96, 2), (192, 4), (288, 6), (1536, 4)] {
            let il = BlockInterleaver::new(n_cbps, n_bpsc).unwrap();
            let mut seen = vec![false; n_cbps];
            for &j in il.pattern() {
                assert!(!seen[j], "duplicate target {j}");
                seen[j] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn roundtrip_identity() {
        let il = BlockInterleaver::new(192, 4).unwrap();
        let bits: Vec<u8> = (0..192).map(|i| ((i * 37) % 3 == 0) as u8).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits).unwrap()).unwrap(), bits);
        // And the other composition order.
        assert_eq!(il.interleave(&il.deinterleave(&bits).unwrap()).unwrap(), bits);
    }

    #[test]
    fn known_answer_bpsk48() {
        // For N_CBPS=48, N_BPSC=1 (s=1) the second permutation is the
        // identity, so bit k lands at 3*(k mod 16) + k/16.
        let il = BlockInterleaver::new(48, 1).unwrap();
        for k in 0..48 {
            assert_eq!(il.pattern()[k], 3 * (k % 16) + k / 16, "bit {k}");
        }
    }

    #[test]
    fn known_answer_16qam_first_bits() {
        // N_CBPS=192, N_BPSC=4, s=2.
        // k=0: i = 12*0 + 0 = 0; j = 2*0 + (0 + 192 - 0) % 2 = 0.
        // k=1: i = 12*1 + 0 = 12; j = 2*6 + (12 + 192 - 1) % 2 = 12 + 1 = 13.
        let il = BlockInterleaver::new(192, 4).unwrap();
        assert_eq!(il.pattern()[0], 0);
        assert_eq!(il.pattern()[1], 13);
    }

    #[test]
    fn adjacent_bits_map_to_distant_positions() {
        // The whole point of the interleaver: a burst of adjacent coded
        // bits must never land on the same subcarrier.
        let il = BlockInterleaver::new(192, 4).unwrap();
        for k in 0..191 {
            let a = il.pattern()[k] / 4; // subcarrier of output position
            let b = il.pattern()[k + 1] / 4;
            assert_ne!(a, b, "bits {k},{} share subcarrier {a}", k + 1);
        }
    }

    #[test]
    fn soft_values_pass_through_deinterleaver() {
        let il = BlockInterleaver::new(96, 2).unwrap();
        let llrs: Vec<i32> = (0..96).map(|i| i - 48).collect();
        let rx = il.interleave(&llrs).unwrap();
        assert_eq!(il.deinterleave(&rx).unwrap(), llrs);
    }

    #[test]
    fn wrong_length_rejected() {
        let il = BlockInterleaver::new(192, 4).unwrap();
        assert!(matches!(
            il.interleave(&[0u8; 100]),
            Err(InterleaveError::LengthMismatch { expected: 192, got: 100 })
        ));
    }
}
