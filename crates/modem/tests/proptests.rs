//! Property-based tests for the mapper/demapper.

use mimo_coding::Llr;
use mimo_fixed::{CQ15, Cf64};
use mimo_modem::{Modulation, SymbolDemapper, SymbolMapper};
use proptest::prelude::*;

/// Hard decisions through the receiver's allocation-free entry point.
fn hard_demap(demapper: &SymbolDemapper, symbols: &[CQ15]) -> Vec<u8> {
    let mut out = vec![0u8; symbols.len() * demapper.modulation().bits_per_symbol()];
    demapper.hard_demap_into(symbols, &mut out);
    out
}

/// Soft LLRs through the receiver's fused scatter with an identity map.
fn soft_demap(demapper: &SymbolDemapper, symbols: &[CQ15]) -> Vec<Llr> {
    let n = symbols.len() * demapper.modulation().bits_per_symbol();
    let identity: Vec<u32> = (0..n as u32).collect();
    let mut out = vec![0 as Llr; n];
    demapper.soft_demap_scatter_into(symbols, &identity, &mut out);
    out
}

fn arb_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
    ]
}

proptest! {
    /// map → hard demap is the identity for any bit stream.
    #[test]
    fn hard_roundtrip(m in arb_modulation(), seed in any::<u64>()) {
        let mapper = SymbolMapper::new(m).unwrap();
        let demapper = SymbolDemapper::matched_to(&mapper);
        let bps = m.bits_per_symbol();
        let mut state = seed | 1;
        let bits: Vec<u8> = (0..bps * 20)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 1) as u8
            })
            .collect();
        let symbols = mapper.map_bits(&bits).unwrap();
        prop_assert_eq!(hard_demap(&demapper, &symbols), bits);
    }

    /// Noise below half the minimum point distance never flips a hard
    /// decision.
    #[test]
    fn hard_decisions_respect_decision_radius(
        m in arb_modulation(),
        addr in any::<u16>(),
        dx in -0.99f64..0.99,
        dy in -0.99f64..0.99,
    ) {
        let mapper = SymbolMapper::new(m).unwrap();
        let demapper = SymbolDemapper::matched_to(&mapper);
        let bps = m.bits_per_symbol();
        let addr = (addr as usize) % (1 << bps);
        let bits: Vec<u8> = (0..bps).map(|i| ((addr >> (bps - 1 - i)) & 1) as u8).collect();
        let clean = mapper.map_bits(&bits).unwrap()[0];
        // Half the level spacing is `unit`; stay strictly inside.
        let unit = mapper.scale() / m.norm_factor().sqrt();
        let noisy = CQ15::from_f64(
            clean.re.to_f64() + dx * 0.45 * unit,
            clean.im.to_f64() + dy * 0.45 * unit,
        );
        prop_assert_eq!(hard_demap(&demapper, &[noisy]), bits);
    }

    /// Soft LLR signs always agree with the hard decision.
    #[test]
    fn soft_signs_match_hard(
        m in arb_modulation(),
        re in -0.8f64..0.8,
        im in -0.8f64..0.8,
    ) {
        let mapper = SymbolMapper::new(m).unwrap();
        let demapper = SymbolDemapper::matched_to(&mapper);
        let sym = CQ15::from_f64(re, im);
        let hard = hard_demap(&demapper, &[sym]);
        let soft = soft_demap(&demapper, &[sym]);
        for (bit_idx, (&h, &llr)) in hard.iter().zip(&soft).enumerate() {
            if llr != 0 {
                prop_assert_eq!(
                    h,
                    u8::from(llr < 0),
                    "bit {} of ({}, {}): hard {} vs llr {}",
                    bit_idx, re, im, h, llr
                );
            }
        }
    }

    /// Constellation power is scale² for any legal backoff.
    #[test]
    fn average_power_tracks_scale(m in arb_modulation(), scale in 0.1f64..0.9) {
        let mapper = SymbolMapper::with_scale(m, scale).unwrap();
        let avg: f64 = mapper
            .lut()
            .iter()
            .map(|&p| Cf64::from_fixed(p).norm_sqr())
            .sum::<f64>() / mapper.lut().len() as f64;
        prop_assert!((avg - scale * scale).abs() < 3e-3,
            "{m} scale {scale}: avg power {avg}");
    }
}
