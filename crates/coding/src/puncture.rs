//! 802.11a puncturing: deriving r=2/3 and r=3/4 from the rate-1/2
//! mother code by deleting coded bits, and re-inserting erasures at the
//! receiver.

use crate::{CodingError, Llr};

/// Channel code rate, selecting the puncture pattern applied to the
/// rate-1/2 mother code (802.11a §17.3.5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeRate {
    /// Rate 1/2 — no puncturing.
    #[default]
    Half,
    /// Rate 2/3 — one of every four mother bits deleted.
    TwoThirds,
    /// Rate 3/4 — two of every six mother bits deleted.
    ThreeQuarters,
}

impl CodeRate {
    /// All rates the transceiver supports.
    pub const ALL: [CodeRate; 3] = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

    /// The keep-mask over one puncture period of mother-coded bits,
    /// in A0 B0 A1 B1 … order.
    ///
    /// 802.11a patterns: r=2/3 keeps A0 B0 A1 (drops B1); r=3/4 keeps
    /// A0 B0 A1 B2 (drops B1, A2).
    pub fn keep_pattern(self) -> &'static [bool] {
        match self {
            CodeRate::Half => &[true, true],
            CodeRate::TwoThirds => &[true, true, true, false],
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }

    /// Numerator of the rate fraction.
    pub fn numerator(self) -> usize {
        match self {
            CodeRate::Half => 1,
            CodeRate::TwoThirds => 2,
            CodeRate::ThreeQuarters => 3,
        }
    }

    /// Denominator of the rate fraction.
    pub fn denominator(self) -> usize {
        match self {
            CodeRate::Half => 2,
            CodeRate::TwoThirds => 3,
            CodeRate::ThreeQuarters => 4,
        }
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.numerator(), self.denominator())
    }
}

/// Deletes mother-code bits according to the rate's puncture pattern.
///
/// The input is the interleaved A/B output of the rate-1/2 encoder.
///
/// # Examples
///
/// ```
/// use mimo_coding::{puncture, CodeRate};
/// // 8 mother bits at r=3/4 -> first period keeps 4 of 6, then 2 of 2.
/// let kept = puncture(&[1, 1, 0, 0, 1, 1, 0, 0], CodeRate::ThreeQuarters);
/// assert_eq!(kept, vec![1, 1, 0, 1, 0, 0]);
/// ```
pub fn puncture(mother: &[u8], rate: CodeRate) -> Vec<u8> {
    let mut out = Vec::new();
    puncture_into(mother, rate, &mut out);
    out
}

/// Allocation-free [`puncture`] into a caller-owned buffer (cleared
/// first).
pub fn puncture_into(mother: &[u8], rate: CodeRate, out: &mut Vec<u8>) {
    let pattern = rate.keep_pattern();
    out.clear();
    out.extend(
        mother
            .iter()
            .zip(pattern.iter().cycle())
            .filter_map(|(&bit, &keep)| keep.then_some(bit)),
    );
}

/// Re-inserts zero-LLR erasures where bits were punctured, restoring
/// the mother-code length for the Viterbi decoder.
///
/// `mother_len` must be the exact mother-coded length the decoder
/// expects (it determines how many erasures are re-inserted).
///
/// # Errors
///
/// Returns [`CodingError::BadBlockLength`] if `soft.len()` does not
/// match the number of kept positions in `mother_len` mother bits.
// phylint: allow(test_only_api) -- oracle: crates/coding/tests/proptests.rs
pub fn depuncture(soft: &[Llr], rate: CodeRate, mother_len: usize) -> Result<Vec<Llr>, CodingError> {
    let pattern = rate.keep_pattern();
    let kept_count = (0..mother_len).filter(|i| pattern[i % pattern.len()]).count();
    if soft.len() != kept_count {
        return Err(CodingError::BadBlockLength {
            got: soft.len(),
            multiple: kept_count,
        });
    }
    let mut out = Vec::with_capacity(mother_len);
    let mut it = soft.iter();
    for i in 0..mother_len {
        if pattern[i % pattern.len()] {
            // `soft.len() == kept_count` was checked above, so the
            // iterator cannot run dry; a miscount surfaces as the
            // same typed error rather than a panic.
            out.push(it.next().copied().ok_or(CodingError::BadBlockLength {
                got: soft.len(),
                multiple: kept_count,
            })?);
        } else {
            out.push(0); // erasure
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_rate_is_identity() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0];
        assert_eq!(puncture(&bits, CodeRate::Half), bits);
    }

    #[test]
    fn rate_fractions() {
        assert_eq!(CodeRate::ThreeQuarters.to_string(), "3/4");
    }

    #[test]
    fn puncture_lengths_match_rate() {
        // 24 mother bits (12 info bits at r=1/2).
        let mother = vec![1u8; 24];
        assert_eq!(puncture(&mother, CodeRate::Half).len(), 24);
        assert_eq!(puncture(&mother, CodeRate::TwoThirds).len(), 18); // 12/18 = 2/3
        assert_eq!(puncture(&mother, CodeRate::ThreeQuarters).len(), 16); // 12/16 = 3/4
    }

    #[test]
    fn depuncture_restores_positions() {
        let mother: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        for rate in CodeRate::ALL {
            let tx = puncture(&mother, rate);
            let soft: Vec<Llr> = tx.iter().map(|&b| if b == 0 { 10 } else { -10 }).collect();
            let restored = depuncture(&soft, rate, mother.len()).unwrap();
            assert_eq!(restored.len(), mother.len());
            // Every non-erased position must carry the right sign.
            let pattern = rate.keep_pattern();
            for (i, &llr) in restored.iter().enumerate() {
                if pattern[i % pattern.len()] {
                    assert_eq!(llr < 0, mother[i] == 1, "position {i}");
                } else {
                    assert_eq!(llr, 0, "erasure expected at {i}");
                }
            }
        }
    }

    #[test]
    fn depuncture_rejects_wrong_length() {
        let soft = vec![1; 5];
        assert!(depuncture(&soft, CodeRate::ThreeQuarters, 12).is_err());
    }
}
