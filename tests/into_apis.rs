//! Property tests: where an in-place `_into` hot-path API still has an
//! allocating counterpart, the two must match bit for bit on random
//! inputs.
//!
//! The allocating side survives only where a product root (an example
//! or a bench) or a test oracle still calls it: the FFT, the mapper,
//! the interleaver, the Viterbi decoder, puncturing, the cyclic prefix
//! and the encoder. APIs whose allocating twin is gone (the demapper,
//! depuncturing, OFDM symbol modulation) are checked by their own
//! crates' tests instead.

use mimo_baseband::coding::{
    puncture, puncture_into, CodeRate, CodeSpec, ConvolutionalEncoder, Llr, ViterbiDecoder,
    ViterbiWorkspace,
};
use mimo_baseband::fft::FixedFft;
use mimo_baseband::fixed::{CQ15, Q15};
use mimo_baseband::interleave::BlockInterleaver;
use mimo_baseband::modem::{Modulation, SymbolMapper};
use mimo_baseband::ofdm::{
    add_cyclic_prefix, add_cyclic_prefix_into, OfdmModulator, SUPPORTED_FFT_SIZES,
};
use proptest::prelude::*;

fn arb_samples(n: usize) -> impl Strategy<Value = Vec<CQ15>> {
    proptest::collection::vec((-0.95f64..0.95, -0.95f64..0.95), n)
        .prop_map(|v| v.into_iter().map(|(re, im)| CQ15::from_f64(re, im)).collect())
}

/// Bus samples with the full-scale rails mixed in: each component is
/// the positive rail (raw +32767) one time in eight, the negative rail
/// (raw −32768) one time in eight, and a random value otherwise.
fn arb_bus_samples(n: usize) -> impl Strategy<Value = Vec<CQ15>> {
    let component = |x: f64, kind: u8| match kind {
        0 => Q15::from_raw(RAIL_MAX),
        1 => Q15::from_raw(RAIL_MIN),
        _ => Q15::from_f64(x),
    };
    proptest::collection::vec((-0.99f64..0.99, -0.99f64..0.99, 0u8..8, 0u8..8), n).prop_map(
        move |v| {
            v.into_iter()
                .map(|(re, im, kr, ki)| CQ15::new(component(re, kr), component(im, ki)))
                .collect()
        },
    )
}

const RAIL_MAX: i64 = (1 << 15) - 1;
const RAIL_MIN: i64 = -(1 << 15);

fn arb_bits(n: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..2, n)
}

fn arb_llrs(n: usize) -> impl Strategy<Value = Vec<Llr>> {
    proptest::collection::vec(-1024i32..1025, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FFT and IFFT: `_into` equals the allocating core exactly, at
    /// every supported size, on mixed inputs and on whole blocks at
    /// the rails (all positive, all negative, alternating).
    #[test]
    fn fft_into_matches(values in arb_bus_samples(64), inverse in 0u8..2, pattern in 0u8..4) {
        for n in SUPPORTED_FFT_SIZES {
            let fft = FixedFft::new(n).unwrap();
            let input: Vec<CQ15> = match pattern {
                0 => values.iter().cycle().take(n).copied().collect(),
                1 => vec![CQ15::new(Q15::from_raw(RAIL_MAX), Q15::from_raw(RAIL_MAX)); n],
                2 => vec![CQ15::new(Q15::from_raw(RAIL_MIN), Q15::from_raw(RAIL_MIN)); n],
                _ => (0..n)
                    .map(|i| {
                        let (a, b) = if i % 2 == 0 { (RAIL_MAX, RAIL_MIN) } else { (RAIL_MIN, RAIL_MAX) };
                        CQ15::new(Q15::from_raw(a), Q15::from_raw(b))
                    })
                    .collect(),
            };
            let mut out = vec![CQ15::ZERO; n];
            if inverse == 0 {
                let reference = fft.fft(&input).unwrap();
                fft.fft_into(&input, &mut out).unwrap();
                prop_assert_eq!(out, reference);
            } else {
                let reference = fft.ifft(&input).unwrap();
                fft.ifft_into(&input, &mut out).unwrap();
                prop_assert_eq!(out, reference);
            }
        }
    }

    /// Mapper: `map_bits_into` equals `map_bits`.
    #[test]
    fn map_bits_into_matches(bits in arb_bits(48)) {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let mapper = SymbolMapper::new(m).unwrap();
            let bps = m.bits_per_symbol();
            let usable = bits.len() / bps * bps;
            let reference = mapper.map_bits(&bits[..usable]).unwrap();
            let mut out = vec![CQ15::ZERO; usable / bps];
            mapper.map_bits_into(&bits[..usable], &mut out).unwrap();
            prop_assert_eq!(out, reference, "{}", m);
        }
    }

    /// Interleaver: both directions, `_into` equals allocating.
    #[test]
    fn interleave_into_matches(seed in any::<u64>()) {
        for (ncbps, nbpsc) in [(48usize, 1usize), (96, 2), (192, 4), (288, 6)] {
            let il = BlockInterleaver::new(ncbps, nbpsc).unwrap();
            let mut state = seed | 1;
            let block: Vec<i32> = (0..ncbps)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 0xFFFF) as i32 - 0x8000
                })
                .collect();
            let fwd_ref = il.interleave(&block).unwrap();
            let mut fwd = vec![0; ncbps];
            il.interleave_into(&block, &mut fwd).unwrap();
            prop_assert_eq!(&fwd, &fwd_ref);
            let inv_ref = il.deinterleave(&block).unwrap();
            let mut inv = vec![0; ncbps];
            il.deinterleave_into(&block, &mut inv).unwrap();
            prop_assert_eq!(&inv, &inv_ref);
        }
    }

    /// Viterbi: workspace decode equals the allocating decode — on
    /// clean codewords and on arbitrary noisy LLRs.
    #[test]
    fn viterbi_into_matches(info in arb_bits(120), noise in arb_llrs(64)) {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let coded = enc.encode_terminated(&info);
        let mut soft: Vec<Llr> = coded
            .iter()
            .map(|&b| if b == 0 { 512 } else { -512 })
            .collect();
        // Inject the random perturbation over a prefix.
        for (s, &n) in soft.iter_mut().zip(&noise) {
            *s = (*s + n).clamp(-1024, 1024);
        }
        let reference = dec.decode_terminated(&soft).unwrap();
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        dec.decode_terminated_into(&soft, &mut ws, &mut out).unwrap();
        prop_assert_eq!(&out, &reference);
        // Workspace reuse across differently-sized blocks must not
        // leak state: decode a shorter block with the same workspace,
        // then the original block again.
        let shorter = &soft[..soft.len() / 2];
        let mut short_out = Vec::new();
        dec.decode_terminated_into(shorter, &mut ws, &mut short_out).unwrap();
        prop_assert_eq!(&short_out, &dec.decode_terminated(shorter).unwrap());
        dec.decode_terminated_into(&soft, &mut ws, &mut out).unwrap();
        prop_assert_eq!(&out, &reference);
    }

    /// Puncturing: `puncture_into` equals `puncture`.
    #[test]
    fn puncture_into_matches(bits in arb_bits(96), rate_idx in 0usize..3) {
        let rate = CodeRate::ALL[rate_idx];
        let period = rate.keep_pattern().len();
        let usable = bits.len() / period * period;
        let mother = &bits[..usable];
        let kept_ref = puncture(mother, rate);
        let mut kept = Vec::new();
        puncture_into(mother, rate, &mut kept);
        prop_assert_eq!(&kept, &kept_ref);
    }

    /// Cyclic prefix: `add_cyclic_prefix_into` equals
    /// `add_cyclic_prefix` on a modulated symbol.
    #[test]
    fn cyclic_prefix_into_matches(values in arb_samples(48), sym_idx in 0usize..127) {
        let tx = OfdmModulator::new(64).unwrap();
        let mut symbol = vec![CQ15::ZERO; 80];
        let mut scratch = vec![CQ15::ZERO; 64];
        tx.modulate_symbol_into(&values, sym_idx, &mut symbol, &mut scratch).unwrap();
        let cp_ref = add_cyclic_prefix(&symbol[16..]);
        let mut cp = vec![CQ15::ZERO; 80];
        add_cyclic_prefix_into(&symbol[16..], &mut cp);
        prop_assert_eq!(cp, cp_ref);
    }

    /// Encoder: `encode_terminated_into` equals `encode_terminated`.
    #[test]
    fn encode_into_matches(info in arb_bits(200)) {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let reference = enc.encode_terminated(&info);
        let mut out = Vec::new();
        let mut enc2 = ConvolutionalEncoder::new(spec);
        enc2.encode_terminated_into(&info, &mut out);
        prop_assert_eq!(out, reference);
    }
}
