//! Property-based tests for the OFDM framing layer.

use mimo_fixed::{CQ15, Cf64, Fx};
use mimo_ofdm::{add_cyclic_prefix, strip_cyclic_prefix_ref, SubcarrierMap};
use proptest::prelude::*;

/// Assembles one frame through `SubcarrierMap::assemble_into`.
fn assemble(map: &SubcarrierMap, data: &[CQ15], amplitude: Fx<15>) -> Vec<CQ15> {
    let mut frame = vec![CQ15::ZERO; map.fft_size()];
    map.assemble_into(data, 1, amplitude, &mut frame).unwrap();
    frame
}

fn arb_symbol(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-0.4f64..0.4, -0.4f64..0.4), n)
}

proptest! {
    /// CP add/strip is the identity for any symbol content.
    #[test]
    fn cp_roundtrip(values in arb_symbol(64)) {
        let symbol: Vec<CQ15> = values.iter().map(|&(r, i)| CQ15::from_f64(r, i)).collect();
        let framed = add_cyclic_prefix(&symbol);
        prop_assert_eq!(framed.len(), 80);
        prop_assert_eq!(strip_cyclic_prefix_ref(&framed, 64).unwrap(), &symbol[..]);
    }

    /// The CP really is cyclic: the first quarter equals the last.
    #[test]
    fn cp_is_cyclic(values in arb_symbol(64)) {
        let symbol: Vec<CQ15> = values.iter().map(|&(r, i)| CQ15::from_f64(r, i)).collect();
        let framed = add_cyclic_prefix(&symbol);
        for i in 0..16 {
            prop_assert_eq!(framed[i], framed[64 + i]);
        }
    }

    /// Subcarrier assemble/extract roundtrips data exactly, for every
    /// supported size.
    #[test]
    fn subcarrier_roundtrip(seed in 0u64..1000, size_idx in 0usize..4) {
        let n = [64usize, 128, 256, 512][size_idx];
        let map = SubcarrierMap::new(n).unwrap();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f64 / (1u64 << 24) as f64) - 0.5
        };
        let data: Vec<CQ15> = (0..map.data_count())
            .map(|_| CQ15::from_f64(next() * 0.6, next() * 0.6))
            .collect();
        let frame = assemble(&map, &data, Fx::from_f64(0.5));
        let (rec, pilots) = map.extract(&frame).unwrap();
        prop_assert_eq!(rec, data);
        prop_assert_eq!(pilots.len(), map.pilot_indices().len());
    }

    /// Every bin is either occupied once or null: the assemble step
    /// never collides carriers.
    #[test]
    fn no_carrier_collisions(size_idx in 0usize..4) {
        let n = [64usize, 128, 256, 512][size_idx];
        let map = SubcarrierMap::new(n).unwrap();
        let mut used = vec![false; n];
        for &l in map.data_indices().iter().chain(map.pilot_indices()) {
            let bin = map.bin(l);
            prop_assert!(!used[bin], "bin {bin} used twice");
            used[bin] = true;
        }
        // DC never used.
        prop_assert!(!used[0]);
    }

    /// Frame energy equals the energy placed on the carriers
    /// (assembling adds no spurious content).
    #[test]
    fn assemble_preserves_energy(values in arb_symbol(48)) {
        let map = SubcarrierMap::new(64).unwrap();
        let data: Vec<CQ15> = values.iter().map(|&(r, i)| CQ15::from_f64(r, i)).collect();
        let amp = Fx::from_f64(0.5);
        let frame = assemble(&map, &data, amp);
        let frame_energy: f64 = frame.iter().map(|&c| Cf64::from_fixed(c).norm_sqr()).sum();
        let data_energy: f64 = data.iter().map(|&c| Cf64::from_fixed(c).norm_sqr()).sum();
        let pilot_energy = 4.0 * 0.25;
        prop_assert!((frame_energy - data_energy - pilot_energy).abs() < 1e-6);
    }
}
