//! Fixed-point datapath vs double-precision reference across crate
//! boundaries: quantization must cost decibels, not correctness.

use mimo_baseband::fft::{fft_f64, FixedFft};
use mimo_baseband::fixed::{CQ15, Cf64};
use mimo_baseband::coding::Llr;
use mimo_baseband::modem::{Modulation, SymbolDemapper, SymbolMapper};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

#[test]
fn fft_quantization_noise_floor() {
    // The Q1.15 FFT must sit > 55 dB below the signal for realistic
    // OFDM levels — far below the ~25 dB the 64-QAM slicer needs.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for n in [64usize, 256] {
        let fft = FixedFft::new(n).unwrap();
        let input: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gen_range(-0.15..0.15), rng.gen_range(-0.15..0.15)))
            .collect();
        let fixed_in: Vec<CQ15> = input.iter().map(|c| c.to_fixed::<15>()).collect();
        let got = fft.fft(&fixed_in).unwrap();
        let mut reference = input.clone();
        fft_f64(&mut reference);
        let scale = 1.0 / (1u64 << fft.scaling().forward_shift) as f64;
        let mut sig = 0.0;
        let mut err = 0.0;
        for (g, r) in got.iter().zip(&reference) {
            let want = r.scale(scale);
            sig += want.norm_sqr();
            err += (Cf64::from_fixed(*g) - want).norm_sqr();
        }
        let snr = 10.0 * (sig / err).log10();
        assert!(snr > 55.0, "N={n}: fixed FFT SNR {snr:.1} dB");
    }
}

#[test]
fn mapper_quantization_preserves_decision_regions() {
    // Quantizing constellation points to Q1.15 must never move a point
    // across a slicer boundary.
    for m in Modulation::ALL {
        let mapper = SymbolMapper::new(m).unwrap();
        let demapper = SymbolDemapper::matched_to(&mapper);
        let bps = m.bits_per_symbol();
        for addr in 0..(1usize << bps) {
            let bits: Vec<u8> = (0..bps).map(|i| ((addr >> (bps - 1 - i)) & 1) as u8).collect();
            let sym = mapper.map_bits(&bits).unwrap();
            assert_eq!(hard_demap(&demapper, &sym), bits, "{m} addr {addr}");
        }
    }
}

#[test]
fn soft_llr_magnitudes_track_distance() {
    // LLR magnitude must be monotone in distance from the boundary —
    // the property the Viterbi decoder's soft gain rests on.
    let mapper = SymbolMapper::new(Modulation::Qam16).unwrap();
    let demapper = SymbolDemapper::matched_to(&mapper);
    let unit = mapper.scale() / 10f64.sqrt();
    let mut last = -1i32;
    for step in 0..8 {
        let x = step as f64 * 0.45 * unit;
        let sym = CQ15::from_f64(x, unit);
        let llr = soft_demap(&demapper, &[sym])[0].abs();
        assert!(
            llr >= last,
            "LLR magnitude not monotone at step {step}: {llr} < {last}"
        );
        last = llr;
    }
}
