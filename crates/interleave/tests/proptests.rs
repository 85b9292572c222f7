//! Property-based tests for the interleaver.

use mimo_interleave::BlockInterleaver;
use proptest::prelude::*;

fn geometries() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((48usize, 1usize)),
        Just((96, 2)),
        Just((192, 4)),
        Just((288, 6)),
        Just((384, 2)),
        Just((1536, 4)),
    ]
}

proptest! {
    /// interleave ∘ deinterleave = id for arbitrary content.
    #[test]
    fn roundtrip((ncbps, nbpsc) in geometries(), seed in any::<u64>()) {
        let il = BlockInterleaver::new(ncbps, nbpsc).unwrap();
        let mut state = seed | 1;
        let block: Vec<u16> = (0..ncbps)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFFFF) as u16
            })
            .collect();
        let tx = il.interleave(&block).unwrap();
        prop_assert_eq!(il.deinterleave(&tx).unwrap(), block);
    }

    /// The permutation is always a bijection.
    #[test]
    fn bijection((ncbps, nbpsc) in geometries()) {
        let il = BlockInterleaver::new(ncbps, nbpsc).unwrap();
        let mut seen = vec![false; ncbps];
        for &j in il.pattern() {
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Adjacent coded bits never land on the same subcarrier — the
    /// property that defeats burst errors.
    #[test]
    fn adjacent_bits_separate_subcarriers((ncbps, nbpsc) in geometries()) {
        let il = BlockInterleaver::new(ncbps, nbpsc).unwrap();
        for k in 0..(ncbps - 1) {
            let a = il.pattern()[k] / nbpsc;
            let b = il.pattern()[k + 1] / nbpsc;
            prop_assert_ne!(a, b, "bits {} and {} share a subcarrier", k, k + 1);
        }
    }
}
