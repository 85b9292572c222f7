//! Fused deinterleave→depuncture scatter tables, which are also the
//! transmitter's puncture→interleave gather tables.
//!
//! The receiver's bit pipeline used to walk each demapped symbol three
//! times: demap into a contiguous LLR block, permute that block through
//! the de-interleaver, append to the coded stream, and finally
//! depuncture the whole stream into mother-code order for the Viterbi
//! decoder. All three walks are fixed permutations for a given
//! `(n_cbps, n_bpsc, puncture pattern)` operating point, so their
//! composition is itself a single scatter table: demapped bit `k` of a
//! symbol lands at one precomputable mother-stream offset.
//!
//! [`FusedDeinterleaver`] builds that table once per operating point.
//! The composition is per-symbol exact because every supported
//! `n_cbps` is a whole number of puncture periods (checked at
//! construction), so the puncture phase is zero at every symbol
//! boundary. Erased mother positions are simply never written — the
//! receiver pre-zeroes its stream buffer, which *is* the depuncturer's
//! zero-LLR erasure insertion.
//!
//! The transmitter reads the same table the other way: interleaved
//! coded bit `k` of a symbol is the mother-code bit at `map()[k]` of
//! the symbol's region, so puncturing and interleaving are one gather,
//! as in the paper's TX datapath, where both are a fixed address map
//! over one `N_CBPS` block.

use crate::permutation::{BlockInterleaver, InterleaveError};

/// Precomputed per-symbol scatter fusing de-interleave and depuncture:
/// `map()[k]` is the mother-code offset (within the symbol's
/// `mother_bits_per_symbol()`-wide region) of demapped bit `k`. Read as
/// a gather, the same table punctures and interleaves on transmit.
///
/// # Examples
///
/// ```
/// use mimo_interleave::{BlockInterleaver, FusedDeinterleaver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 16-QAM at rate 3/4: the 802.11a pattern keeps 4 of every 6
/// // mother bits (TTTFFT).
/// let il = BlockInterleaver::new(192, 4)?;
/// let fused = FusedDeinterleaver::new(&il, &[true, true, true, false, false, true])?;
/// assert_eq!(fused.block_size(), 192);
/// assert_eq!(fused.mother_bits_per_symbol(), 288);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FusedDeinterleaver {
    /// `map[k]` = mother-stream offset of demapped bit `k`.
    map: Vec<u32>,
    /// Mother-code bits one symbol expands to after depuncturing.
    mother_per_symbol: usize,
}

impl FusedDeinterleaver {
    /// Composes `il`'s inverse permutation with depuncturing under
    /// `keep` (the puncture keep-pattern, one flag per mother bit of a
    /// period).
    ///
    /// # Errors
    ///
    /// [`InterleaveError::BadPuncture`] when `keep` keeps nothing or
    /// the interleaver block is not a whole number of puncture periods
    /// (the fusion would need cross-symbol phase tracking; no 802.11a
    /// operating point does).
    pub fn new(il: &BlockInterleaver, keep: &[bool]) -> Result<Self, InterleaveError> {
        let n_cbps = il.block_size();
        let period = keep.len();
        let kept_offsets: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        let keeps = kept_offsets.len();
        if keeps == 0 || !n_cbps.is_multiple_of(keeps) {
            return Err(InterleaveError::BadPuncture {
                n_cbps,
                period,
                keeps,
            });
        }
        // The inverse permutation, reconstructed from the public
        // forward table: `inverse[forward[k]] = k` (a bijection).
        let mut inverse = vec![0usize; n_cbps];
        for (k, &j) in il.pattern().iter().enumerate() {
            inverse[j] = k;
        }
        // Demapped bit `k` de-interleaves to coded-stream position
        // `d = inverse[k]`; the `d`-th kept bit of the stream
        // depunctures to mother position `(d / keeps) · period +
        // kept_offsets[d % keeps]`.
        let map = (0..n_cbps)
            .map(|k| {
                let d = inverse[k];
                ((d / keeps) * period + kept_offsets[d % keeps]) as u32
            })
            .collect();
        Ok(Self {
            map,
            mother_per_symbol: n_cbps / keeps * period,
        })
    }

    /// The scatter table: `map()[k]` is where demapped bit `k` of a
    /// symbol belongs in the symbol's mother-code region — and where
    /// the transmitter reads interleaved coded bit `k` from.
    pub fn map(&self) -> &[u32] {
        &self.map
    }

    /// Demapped (coded) bits per symbol this table was built for.
    pub fn block_size(&self) -> usize {
        self.map.len()
    }

    /// Mother-code bits one symbol expands to. Positions of the
    /// symbol's region not covered by [`FusedDeinterleaver::map`] are
    /// puncture erasures and must stay at the buffer's zero fill.
    pub fn mother_bits_per_symbol(&self) -> usize {
        self.mother_per_symbol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 802.11a keep patterns: rate 1/2 (keep all), 2/3, 3/4.
    const PATTERNS: [&[bool]; 3] = [
        &[true, true],
        &[true, true, true, false],
        &[true, true, true, false, false, true],
    ];

    /// Reference: deinterleave, then depuncture one symbol by walking
    /// mother positions and consuming kept bits in order.
    fn reference(il: &BlockInterleaver, keep: &[bool], demapped: &[i32]) -> Vec<i32> {
        let mut deint = vec![0i32; demapped.len()];
        il.deinterleave_into(demapped, &mut deint).unwrap();
        let keeps = keep.iter().filter(|&&k| k).count();
        let mother_len = demapped.len() / keeps * keep.len();
        let mut out = Vec::with_capacity(mother_len);
        let mut next = deint.iter();
        for m in 0..mother_len {
            if keep[m % keep.len()] {
                out.push(*next.next().unwrap());
            } else {
                out.push(0);
            }
        }
        out
    }

    #[test]
    fn fused_scatter_equals_deinterleave_then_depuncture() {
        for (n_cbps, n_bpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let il = BlockInterleaver::new(n_cbps, n_bpsc).unwrap();
            for keep in PATTERNS {
                let keeps = keep.iter().filter(|&&k| k).count();
                if !n_cbps.is_multiple_of(keeps) {
                    continue;
                }
                let fused = FusedDeinterleaver::new(&il, keep).unwrap();
                let demapped: Vec<i32> = (0..n_cbps as i32).map(|i| 7 * i - 100).collect();
                let mut out = vec![0i32; fused.mother_bits_per_symbol()];
                for (&v, &pos) in demapped.iter().zip(fused.map()) {
                    out[pos as usize] = v;
                }
                assert_eq!(
                    out,
                    reference(&il, keep, &demapped),
                    "{n_cbps}/{n_bpsc} keep {keep:?}"
                );
            }
        }
    }

    /// Reference: puncture one symbol's mother bits by the keep
    /// pattern, then interleave.
    fn tx_reference(il: &BlockInterleaver, keep: &[bool], mother: &[i32]) -> Vec<i32> {
        let kept: Vec<i32> = mother
            .iter()
            .enumerate()
            .filter_map(|(m, &v)| keep[m % keep.len()].then_some(v))
            .collect();
        let mut out = vec![0i32; kept.len()];
        il.interleave_into(&kept, &mut out).unwrap();
        out
    }

    /// The transmit twin: gathering a symbol's coded bits through
    /// `map()` equals puncturing then interleaving, at every
    /// 802.11a operating point.
    #[test]
    fn fused_gather_equals_puncture_then_interleave() {
        for (n_cbps, n_bpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let il = BlockInterleaver::new(n_cbps, n_bpsc).unwrap();
            for keep in PATTERNS {
                let keeps = keep.iter().filter(|&&k| k).count();
                if !n_cbps.is_multiple_of(keeps) {
                    continue;
                }
                let fused = FusedDeinterleaver::new(&il, keep).unwrap();
                let mother: Vec<i32> = (0..fused.mother_bits_per_symbol() as i32)
                    .map(|i| 5 * i - 70)
                    .collect();
                let gathered: Vec<i32> =
                    fused.map().iter().map(|&pos| mother[pos as usize]).collect();
                assert_eq!(
                    gathered,
                    tx_reference(&il, keep, &mother),
                    "{n_cbps}/{n_bpsc} keep {keep:?}"
                );
            }
        }
    }

    #[test]
    fn map_is_injective_and_covers_exactly_the_kept_positions() {
        let il = BlockInterleaver::new(192, 4).unwrap();
        let keep = [true, true, true, false, false, true];
        let fused = FusedDeinterleaver::new(&il, &keep).unwrap();
        let mut hit = vec![false; fused.mother_bits_per_symbol()];
        for &pos in fused.map() {
            assert!(!hit[pos as usize], "position {pos} written twice");
            hit[pos as usize] = true;
        }
        for (m, &h) in hit.iter().enumerate() {
            assert_eq!(h, keep[m % keep.len()], "mother position {m}");
        }
    }

    #[test]
    fn rejects_indivisible_and_empty_patterns() {
        let il = BlockInterleaver::new(48, 1).unwrap();
        // 48 is not a multiple of 36... but of 3 it is; use keeps=5.
        let keep5 = [true, true, true, true, true, false];
        assert!(matches!(
            FusedDeinterleaver::new(&il, &keep5),
            Err(InterleaveError::BadPuncture { n_cbps: 48, period: 6, keeps: 5 })
        ));
        assert!(matches!(
            FusedDeinterleaver::new(&il, &[false, false]),
            Err(InterleaveError::BadPuncture { keeps: 0, .. })
        ));
    }
}
