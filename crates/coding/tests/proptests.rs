//! Property-based tests across the coding pipeline, including the
//! differential suites pinning the `Auto` dispatch (the `i16` lane tier
//! where it applies) bit-identical to the scalar reference kernel.

use mimo_coding::{
    bits, depuncture, hard_to_llr, puncture, BatchViterbiWorkspace, CodeRate, CodeSpec,
    CodingError, ConvolutionalEncoder, Llr, ViterbiDecoder, ViterbiKernel, ViterbiWorkspace,
    LLR_MAX,
};
use proptest::prelude::*;

/// The lane tier's LLR bound for the K=7 rate-1/2 code,
/// `⌊i16::MAX / (2·n·K)⌋`; `kernel_name_reflects_dispatch` pins it to
/// the decoder's dispatch.
const LANE_BOUND: Llr = i16::MAX as Llr / (2 * 2 * 7);

/// Block lengths, in branches, at which the lane tier's `i16` row has
/// wrapped many times over.
const LONG_BRANCHES: usize = 16_384;

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

/// Decodes `soft` on the `Auto` dispatch and asserts it equals the
/// scalar reference — outputs, or errors for blocks too short to carry
/// the flush tail.
fn assert_auto_matches_scalar(dec: &ViterbiDecoder, soft: &[Llr]) -> TestCaseResult {
    let mut ws = ViterbiWorkspace::new();
    let mut decode = |kernel| {
        let mut out = Vec::new();
        dec.decode_terminated_with(kernel, soft, &mut ws, &mut out)
            .map(|()| out)
    };
    let reference = decode(ViterbiKernel::Scalar);
    prop_assert_eq!(
        &decode(ViterbiKernel::Auto),
        &reference,
        "{}",
        dec.kernel_name(soft)
    );
    Ok(())
}

/// The K=7 rate-1/2 code with generators `g0`, `g1` (each forced into
/// `1..128`).
fn k7_code(g0: u64, g1: u64) -> CodeSpec {
    let g = |g: u64| ((g & 0x7f) as u32).max(1);
    CodeSpec::new(7, vec![g(g0), g(g1)]).unwrap()
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
        let mut bytes = Vec::new();
        bits::bits_to_bytes_into(&bits, &mut bytes);
        prop_assert_eq!(bytes, data);
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
        let mut s = data.clone();
        a.scramble_in_place(&mut s);
        prop_assert_eq!(s.len(), data.len());
        b.scramble_in_place(&mut s);
        prop_assert_eq!(s, data);
    }

    /// `Auto` and the scalar kernel decode punctured/terminated blocks
    /// identically across all rates, hard and noisy-soft metrics.
    #[test]
    fn auto_matches_scalar_terminated(
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
    fn auto_matches_scalar_on_random_llrs(
        n_branches in 6usize..400,
        seed in any::<u64>(),
        scale_idx in 0usize..4,
    ) {
        let scale = [1i64, 4, 64, 100_000][scale_idx];
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let mut noise = Noise(seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(scale)).collect();
        assert_auto_matches_scalar(&dec, &soft)?;
    }

    /// Kernel equivalence holds for arbitrary valid codes, not just
    /// the built-in K=7 pair (random constraint length and
    /// generators, K up to the supported maximum of 9): K = 7 runs on
    /// the lanes, every other K on the scalar kernel.
    #[test]
    fn auto_matches_scalar_for_random_codes(
        k in 3usize..10,
        g_seed in any::<u64>(),
        n_branches in 8usize..120,
        llr_seed in any::<u64>(),
    ) {
        let mut noise = Noise(g_seed | 1);
        let mask = (1u64 << k) - 1;
        let g0 = ((noise.next() & mask) as u32).max(1);
        let g1 = ((noise.next() & mask) as u32).max(1);
        let spec = CodeSpec::new(k, vec![g0, g1]).unwrap();
        let dec = ViterbiDecoder::new(spec);
        let mut noise = Noise(llr_seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(50)).collect();
        assert_auto_matches_scalar(&dec, &soft)?;
    }

    /// Explicit-kernel dispatch: `Auto` (the lane tier) and the scalar
    /// reference decode terminated blocks identically across all rates.
    /// Tiny noise scales force constant metric ties, the hardest case
    /// for lane-for-lane equivalence.
    #[test]
    fn auto_matches_scalar_terminated_with_ties(
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
        let mut auto = Vec::new();
        let mut scalar = Vec::new();
        dec.decode_terminated_with(ViterbiKernel::Auto, &restored, &mut ws, &mut auto).unwrap();
        dec.decode_terminated_with(ViterbiKernel::Scalar, &restored, &mut ws, &mut scalar)
            .unwrap();
        prop_assert_eq!(&auto, &scalar);
    }

    /// An `Auto` request on random codes, K = 5..9, on pure random LLRs:
    /// K = 7 runs on the lanes, the other state counts fall back to the
    /// scalar kernel, and every decode matches the scalar reference.
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
        let spec = CodeSpec::new(k, vec![g0, g1]).unwrap();
        let dec = ViterbiDecoder::new(spec);
        let mut noise = Noise(llr_seed | 1);
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(50)).collect();
        let mut ws = ViterbiWorkspace::new();
        let mut simd = Vec::new();
        let mut scalar = Vec::new();
        dec.decode_terminated_with(ViterbiKernel::Auto, &soft, &mut ws, &mut simd).unwrap();
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

proptest! {
    /// LLRs exactly at the lane bound `±L`: the lanes take the block,
    /// and candidate differences reach their worst case.
    #[test]
    fn lanes_match_at_llr_bound(
        n_branches in 7usize..600,
        seed in any::<u64>(),
        erasure_pct in 0u64..50,
    ) {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let mut noise = Noise(seed | 1);
        let mut soft: Vec<Llr> = (0..2 * n_branches)
            .map(|_| {
                let r = noise.next();
                match (r % 100 < erasure_pct, r & 1 << 40 == 0) {
                    (true, _) => 0,
                    (false, true) => LANE_BOUND,
                    (false, false) => -LANE_BOUND,
                }
            })
            .collect();
        soft[0] = LANE_BOUND;
        prop_assert!(dec.kernel_name(&soft).starts_with("simd-"));
        assert_auto_matches_scalar(&dec, &soft)?;
    }

    /// One LLR at `L + 1` anywhere in the block sends it to the
    /// scalar kernel, and the decode still matches.
    #[test]
    fn lanes_fall_back_above_llr_bound(
        n_branches in 7usize..400,
        seed in any::<u64>(),
        at in any::<prop::sample::Index>(),
        negative in any::<bool>(),
    ) {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let mut noise = Noise(seed | 1);
        let mut soft: Vec<Llr> =
            (0..2 * n_branches).map(|_| noise.llr(LANE_BOUND as i64)).collect();
        let over = LANE_BOUND + 1;
        let at = at.index(soft.len());
        soft[at] = if negative { -over } else { over };
        prop_assert_eq!(dec.kernel_name(&soft), "scalar");
        assert_auto_matches_scalar(&dec, &soft)?;
    }

    /// Block lengths around the lanes' K − 1 warm-up, the too-short
    /// blocks (errors) included.
    #[test]
    fn lanes_match_around_warm_up(
        n_branches in 1usize..9,
        seed in any::<u64>(),
        scale_idx in 0usize..3,
    ) {
        let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let mut noise = Noise(seed | 1);
        let scale = [1i64, 64, LANE_BOUND as i64][scale_idx];
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(scale)).collect();
        assert_auto_matches_scalar(&dec, &soft)?;
    }

    /// Random K=7 rate-1/2 generator pairs: the lanes take any pair.
    #[test]
    fn lanes_match_for_random_k7_generators(
        g0 in any::<u64>(),
        g1 in any::<u64>(),
        n_branches in 7usize..300,
        seed in any::<u64>(),
        scale_idx in 0usize..3,
    ) {
        let dec = ViterbiDecoder::new(k7_code(g0, g1));
        let mut noise = Noise(seed | 1);
        let scale = [2i64, 100, LANE_BOUND as i64][scale_idx];
        let soft: Vec<Llr> = (0..2 * n_branches).map(|_| noise.llr(scale)).collect();
        prop_assert!(dec.kernel_name(&soft).starts_with("simd-"));
        assert_auto_matches_scalar(&dec, &soft)?;
    }

    /// Demapper-scale noise on punctured codewords: perturbations up to
    /// `±LLR_MAX` on hard LLRs, rates 2/3 and 3/4.
    #[test]
    fn lanes_match_on_demapper_scale_noise(
        info in bitvec(512),
        rate_idx in 1usize..3,
        seed in any::<u64>(),
    ) {
        let rate = CodeRate::ALL[rate_idx];
        let spec = CodeSpec::ieee80211a();
        let mut enc = ConvolutionalEncoder::new(spec.clone());
        let dec = ViterbiDecoder::new(spec);
        let mother = enc.encode_terminated(&info);
        let tx = puncture(&mother, rate);
        let mut soft: Vec<Llr> = tx.iter().map(|&b| hard_to_llr(b)).collect();
        perturb(&mut soft, seed, LLR_MAX as i64);
        let restored = depuncture(&soft, rate, mother.len()).unwrap();
        prop_assert!(dec.kernel_name(&restored).starts_with("simd-"));
        assert_auto_matches_scalar(&dec, &restored)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Adversarial max-spread blocks, long enough for the `i16` row to
    /// wrap many times: runs of `±L` that flip sign, and runs of
    /// erasures, on the stock code and a random generator pair.
    #[test]
    fn lanes_match_on_long_max_spread_blocks(
        seed in any::<u64>(),
        max_run in 1u64..64,
        random_code in any::<bool>(),
        g in any::<u64>(),
    ) {
        let spec = if random_code { k7_code(g, g >> 8) } else { CodeSpec::ieee80211a() };
        let dec = ViterbiDecoder::new(spec);
        let mut noise = Noise(seed | 1);
        let mut soft = Vec::with_capacity(2 * LONG_BRANCHES);
        while soft.len() < 2 * LONG_BRANCHES {
            let r = noise.next();
            let run = (1 + r % max_run) as usize;
            let value = match (r >> 32) % 4 {
                0 => 0,
                1 => -LANE_BOUND,
                _ => LANE_BOUND,
            };
            let alternate = (r >> 40) & 1 == 1;
            for i in 0..run {
                soft.push(if alternate && i % 2 == 1 { -value } else { value });
            }
        }
        soft.truncate(2 * LONG_BRANCHES);
        prop_assert!(dec.kernel_name(&soft).starts_with("simd-"));
        assert_auto_matches_scalar(&dec, &soft)?;
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
    // Every demapper output fits the i16 lanes, up to their own bound.
    let name = dec.kernel_name(&[LLR_MAX, -LLR_MAX]);
    assert!(name.starts_with("simd-"), "got {name}");
    let name = dec.kernel_name(&[LANE_BOUND, -LANE_BOUND]);
    assert!(name.starts_with("simd-"), "got {name}");
    // One past the lanes' bound falls to the scalar kernel.
    assert_eq!(dec.kernel_name(&[LANE_BOUND + 1, 0]), "scalar");
    assert_eq!(dec.kernel_name(&[0, -(LANE_BOUND + 1)]), "scalar");
    assert_eq!(dec.kernel_name(&[1 << 28, 0]), "scalar");
    // K=3 has 4 states, not the lanes' 64.
    let k3 = ViterbiDecoder::new(CodeSpec::new(3, vec![0o5, 0o7]).unwrap());
    assert_eq!(k3.kernel_name(&soft), "scalar");
    // A rate-1/3 K=7 code has the states but not the two outputs.
    let r3 = ViterbiDecoder::new(CodeSpec::new(7, vec![0o133, 0o171, 0o165]).unwrap());
    assert_eq!(r3.kernel_name(&soft[..45]), "scalar");
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
