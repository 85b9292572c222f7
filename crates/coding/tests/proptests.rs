//! Property-based tests across the coding pipeline, including the
//! differential suites pinning the butterfly and SIMD ACS kernels
//! bit-identical to the scalar reference kernel.

use mimo_coding::{
    bits, depuncture, hard_to_llr, puncture, BatchViterbiWorkspace, CodeRate, CodeSpec,
    CodingError, ConvolutionalEncoder, Llr, ViterbiDecoder, ViterbiKernel, ViterbiWorkspace,
};
use proptest::prelude::*;

fn bitvec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..2, 1..max_len)
}

/// Deterministic xorshift noise source for LLR perturbation.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `[-scale, scale]`.
    fn llr(&mut self, scale: i64) -> Llr {
        ((self.next() % (2 * scale as u64 + 1)) as i64 - scale) as Llr
    }
}

/// Decodes `soft` on the butterfly and SIMD tiers and asserts both
/// equal the scalar reference.
fn assert_fast_tiers_match_scalar(dec: &ViterbiDecoder, soft: &[Llr]) -> TestCaseResult {
    let mut ws = ViterbiWorkspace::new();
    let mut reference = Vec::new();
    let mut fast = Vec::new();
    dec.decode_terminated_with(ViterbiKernel::Scalar, soft, &mut ws, &mut reference)
        .unwrap();
    for kernel in [ViterbiKernel::Butterfly, ViterbiKernel::Simd] {
        dec.decode_terminated_with(kernel, soft, &mut ws, &mut fast)
            .unwrap();
        prop_assert_eq!(&fast, &reference, "kernel {:?}", kernel);
    }
    Ok(())
}

/// Adds seeded noise to every LLR. Small scales produce many exact
/// metric ties, the hardest case for kernel equivalence.
fn perturb(soft: &mut [Llr], seed: u64, scale: i64) {
    let mut noise = Noise(seed | 1);
    for llr in soft {
        *llr += noise.llr(scale);
    }
}

proptest! {
    /// encode → decode is the identity for any input, any rate.
    #[test]
    fn coded_roundtrip_noiseless(info in bitvec(256), rate_idx in 0usize..3) {
        let rate = CodeRate::ALL[rate_idx];
        // Puncturing needs the mother length to be a multiple of the
        // period for clean depuncture; terminated blocks always are
        // when info length is padded by the caller — emulate that here.
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);

        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        let decoded = dec.decode_terminated(&restored).unwrap();
        prop_assert_eq!(decoded, info);
    }

    /// A single flipped coded bit never breaks decoding (d_free >> 3).
    #[test]
    fn single_error_always_corrected(info in bitvec(128), err_pos in any::<prop::sample::Index>()) {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mut coded = enc.encode_terminated(&info);
        let pos = err_pos.index(coded.len());
        coded[pos] ^= 1;
        let soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
        prop_assert_eq!(dec.decode_terminated(&soft).unwrap(), info);
    }

    /// Bit/byte packing roundtrips for whole bytes.
    #[test]
    fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let bits = bits::bytes_to_bits(&data);
        prop_assert_eq!(bits.len(), data.len() * 8);
        prop_assert_eq!(bits::bits_to_bytes(&bits), data);
    }

    /// Puncture output length matches the configured rate exactly when
    /// the mother length is a multiple of the pattern period.
    #[test]
    fn puncture_length_formula(blocks in 1usize..50, rate_idx in 0usize..3) {
        let rate = CodeRate::ALL[rate_idx];
        let period = rate.keep_pattern().len();
        let mother = vec![0u8; blocks * period];
        let kept = puncture(&mother, rate);
        let keeps_per_period = rate.keep_pattern().iter().filter(|&&k| k).count();
        prop_assert_eq!(kept.len(), blocks * keeps_per_period);
        // kept/mother must equal (1/2)/(rate) = denominator/(2·numerator).
        prop_assert_eq!(
            kept.len() * 2 * rate.numerator(),
            mother.len() * rate.denominator()
        );
    }

    /// The scrambler never changes data length and double-scrambling
    /// with the same seed restores the input.
    #[test]
    fn scrambler_involution(data in bitvec(512), seed in 1u8..128) {
        let mut a = mimo_coding::Scrambler::new(seed);
        let mut b = mimo_coding::Scrambler::new(seed);
        let s = a.scramble(&data);
        prop_assert_eq!(s.len(), data.len());
        prop_assert_eq!(b.scramble(&s), data);
    }

    /// Butterfly and scalar kernels decode punctured/terminated blocks
    /// identically across all rates, hard and noisy-soft metrics.
    #[test]
    fn butterfly_matches_scalar_terminated(
        info in bitvec(256),
        rate_idx in 0usize..3,
        seed in any::<u64>(),
        soft_metrics in any::<bool>(),
    ) {
        let rate = CodeRate::ALL[rate_idx];
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let mut soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        if soft_metrics {
            // Heavy noise: up to ±1.5 HARD_LLR, so sign flips and
            // near-erasures are routine.
            perturb(&mut soft, seed, 96);
        }
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        let mut ws = ViterbiWorkspace::new();
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        dec.decode_terminated_into(&restored, &mut ws, &mut fast).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &restored, &mut ws, &mut reference)
            .unwrap();
        prop_assert_eq!(fast, reference);
    }

    /// Kernel equivalence on pure random LLRs (no codeword structure):
    /// tiny scales force constant metric ties, exercising the
    /// tie-break and traceback corners hardest. Six branches is the
    /// shortest block that still carries the K=7 flush tail.
    #[test]
    fn butterfly_matches_scalar_on_random_llrs(
        n_branches in 6usize..400,
        seed in any::<u64>(),
        scale_idx in 0usize..4,
    ) {
        let scale = [1i64, 4, 64, 100_000][scale_idx];
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let mut noise = Noise(seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(scale)).collect();
        assert_fast_tiers_match_scalar(&dec, &soft)?;
    }

    /// Kernel equivalence holds for arbitrary valid codes, not just
    /// the built-in K=7 pair (random constraint length and
    /// generators). K runs to the supported maximum of 9 so the
    /// multi-word survivor-mask path (128/256 states, 2–4 `u64` words
    /// per step) is exercised, not just the single-word K ≤ 7 case.
    #[test]
    fn butterfly_matches_scalar_for_random_codes(
        k in 3usize..10,
        g_seed in any::<u64>(),
        n_branches in 8usize..120,
        llr_seed in any::<u64>(),
    ) {
        let mut noise = Noise(g_seed | 1);
        let mask = (1u64 << k) - 1;
        let g0 = ((noise.next() & mask) as u32).max(1);
        let g1 = ((noise.next() & mask) as u32).max(1);
        let spec = CodeSpec::new(k, vec![g0, g1], 1).unwrap();
        let dec = ViterbiDecoder::new(spec);
        let mut noise = Noise(llr_seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(50)).collect();
        assert_fast_tiers_match_scalar(&dec, &soft)?;
    }

    /// Explicit-kernel dispatch: the SIMD tier, the butterfly tier and
    /// the scalar reference decode terminated blocks identically across
    /// all rates. Tiny noise scales force constant metric ties, the
    /// hardest case for lane-for-lane equivalence.
    #[test]
    fn simd_matches_butterfly_and_scalar_terminated(
        info in bitvec(256),
        rate_idx in 0usize..3,
        seed in any::<u64>(),
        scale_idx in 0usize..3,
    ) {
        let rate = CodeRate::ALL[rate_idx];
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let mut soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        perturb(&mut soft, seed, [1i64, 4, 96][scale_idx]);
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        let mut ws = ViterbiWorkspace::new();
        let mut simd = Vec::new();
        let mut butterfly = Vec::new();
        let mut scalar = Vec::new();
        dec.decode_terminated_with(ViterbiKernel::Simd, &restored, &mut ws, &mut simd).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Butterfly, &restored, &mut ws, &mut butterfly)
            .unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &restored, &mut ws, &mut scalar)
            .unwrap();
        prop_assert_eq!(&simd, &butterfly);
        prop_assert_eq!(&simd, &scalar);
    }

    /// SIMD equivalence holds for random simd-eligible codes (K ≥ 5 so
    /// the state count fills the lanes), on pure random LLRs.
    #[test]
    fn simd_matches_scalar_for_random_codes(
        k in 5usize..10,
        g_seed in any::<u64>(),
        n_branches in 10usize..120,
        llr_seed in any::<u64>(),
    ) {
        let mut noise = Noise(g_seed | 1);
        let mask = (1u64 << k) - 1;
        let g0 = ((noise.next() & mask) as u32).max(1);
        let g1 = ((noise.next() & mask) as u32).max(1);
        let spec = CodeSpec::new(k, vec![g0, g1], 1).unwrap();
        let dec = ViterbiDecoder::new(spec);
        let mut noise = Noise(llr_seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(50)).collect();
        let mut ws = ViterbiWorkspace::new();
        let mut simd = Vec::new();
        let mut scalar = Vec::new();
        dec.decode_terminated_with(ViterbiKernel::Simd, &soft, &mut ws, &mut simd).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &soft, &mut ws, &mut scalar).unwrap();
        prop_assert_eq!(simd, scalar);
    }

    /// The batch entry point equals the per-block loop on equal and
    /// ragged block lengths, an empty batch included.
    #[test]
    fn batch_matches_per_block_loop(
        lens in proptest::collection::vec(8usize..48, 0..12),
        ragged in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mut noise = Noise(seed | 1);
        let mut stored: Vec<Vec<Llr>> = Vec::new();
        for (b, &len) in lens.iter().enumerate() {
            let info_len = if ragged { len } else { lens[0] };
            let info: Vec<u8> =
                (0..info_len).map(|i| u8::from((i * 31 + b * 7) % 5 < 2)).collect();
            let mut soft: Vec<Llr> =
                enc.encode_terminated(&info).iter().map(|&b| hard_to_llr(b)).collect();
            for llr in soft.iter_mut() {
                *llr += noise.llr(90);
            }
            stored.push(soft);
        }
        let blocks: Vec<&[Llr]> = stored.iter().map(|b| b.as_slice()).collect();
        let mut batch_ws = BatchViterbiWorkspace::new();
        dec.decode_terminated_batch(&blocks, &mut batch_ws).unwrap();
        prop_assert_eq!(batch_ws.outputs().len(), blocks.len());
        let mut ws = ViterbiWorkspace::new();
        let mut one = Vec::new();
        for (block, got) in blocks.iter().zip(batch_ws.outputs()) {
            dec.decode_terminated_into(block, &mut ws, &mut one).unwrap();
            prop_assert_eq!(&one, got);
        }
    }

    /// Ragged batches (every block its own length) equal the per-block
    /// loop.
    #[test]
    fn ragged_batch_matches_per_block_loop(
        widths in proptest::collection::vec(8usize..48, 2..20),
        seed in any::<u64>(),
    ) {
        assert_batch_matches_loop(&widths, seed)?;
    }
}

/// Encodes one noisy terminated block per entry of `lens` (the info
/// length) and asserts `decode_terminated_batch` returns, block by
/// block, what `decode_terminated_into` returns.
fn assert_batch_matches_loop(lens: &[usize], seed: u64) -> TestCaseResult {
    let spec = CodeSpec::ieee80211a();
    let mut enc = ConvolutionalEncoder::new(spec.clone());
    let dec = ViterbiDecoder::new(spec);
    let mut noise = Noise(seed | 1);
    let stored: Vec<Vec<Llr>> = lens
        .iter()
        .enumerate()
        .map(|(b, &len)| {
            let info: Vec<u8> = (0..len).map(|i| u8::from((i * 13 + b) % 3 == 0)).collect();
            let mut soft: Vec<Llr> = enc
                .encode_terminated(&info)
                .iter()
                .map(|&b| hard_to_llr(b))
                .collect();
            perturb(&mut soft, noise.next(), 70);
            soft
        })
        .collect();
    let blocks: Vec<&[Llr]> = stored.iter().map(|b| b.as_slice()).collect();
    let mut batch_ws = BatchViterbiWorkspace::new();
    dec.decode_terminated_batch(&blocks, &mut batch_ws).unwrap();
    prop_assert_eq!(batch_ws.outputs().len(), blocks.len());
    let mut ws = ViterbiWorkspace::new();
    let mut one = Vec::new();
    for (block, got) in blocks.iter().zip(batch_ws.outputs()) {
        dec.decode_terminated_into(block, &mut ws, &mut one).unwrap();
        prop_assert_eq!(&one, got);
    }
    Ok(())
}

/// A batch of more than 64 blocks decodes every block, not just the
/// first 64.
#[test]
fn batch_wider_than_64_spans_groups() {
    assert_batch_matches_loop(&[48; 70], 0x5eed_cafe).unwrap();
}

#[test]
fn batch_surfaces_bad_block_errors() {
    let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
    let mut ws = BatchViterbiWorkspace::new();
    // A block that is not a whole number of branches fails the batch
    // with the same error the per-block entry point reports.
    let good = vec![10 as Llr; 40];
    let bad = vec![10 as Llr; 7];
    let blocks: Vec<&[Llr]> = vec![&good, &bad];
    assert!(matches!(
        dec.decode_terminated_batch(&blocks, &mut ws),
        Err(CodingError::BadBlockLength { got: 7, .. })
    ));
    // An empty batch is a no-op.
    dec.decode_terminated_batch(&[], &mut ws).unwrap();
    assert!(ws.outputs().is_empty());
}

#[test]
fn kernel_name_reflects_dispatch() {
    let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
    let soft = vec![10 as Llr; 48];
    let name = dec.kernel_name(&soft);
    assert!(name.starts_with("simd-"), "got {name}");
    // LLRs beyond the i32 exactness bound always fall back to scalar.
    assert_eq!(dec.kernel_name(&[1 << 28, 0]), "scalar");
    // K=3 has too few states for the 8-lane tier: butterfly at best.
    let k3 = ViterbiDecoder::new(CodeSpec::new(3, vec![0o5, 0o7], 1).unwrap());
    assert_eq!(k3.kernel_name(&soft), "butterfly");
}

#[test]
fn profiled_decode_matches_plain_and_names_its_kernel() {
    let spec = CodeSpec::ieee80211a();
    let mut enc = ConvolutionalEncoder::new(spec.clone());
    let dec = ViterbiDecoder::new(spec);
    let info: Vec<u8> = (0..300).map(|i| u8::from((i * 37 + 11) % 9 < 4)).collect();
    let mut soft: Vec<Llr> = enc
        .encode_terminated(&info)
        .iter()
        .map(|&b| hard_to_llr(b))
        .collect();
    perturb(&mut soft, 0x9e3779b9, 80);
    let mut ws = ViterbiWorkspace::new();
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    dec.decode_terminated_into(&soft, &mut ws, &mut plain).unwrap();
    let profile = dec
        .decode_terminated_profiled(&soft, &mut ws, &mut profiled)
        .unwrap();
    assert_eq!(plain, profiled);
    assert_eq!(profile.kernel, dec.kernel_name(&soft));
}
