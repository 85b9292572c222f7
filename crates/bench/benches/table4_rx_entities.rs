//! **Experiment T4 — Table 4: Receiver Resource Utilization By
//! Entity.**
//!
//! Regenerates the eight per-entity rows and times the functional
//! kernel behind each.

use criterion::{criterion_group, criterion_main, Criterion};
use mimo_chanest::{invert_upper_triangular, ChannelEstimator, CordicQrd, Mat4};
use mimo_coding::{hard_to_llr, CodeSpec, ConvolutionalEncoder, Llr, ViterbiDecoder};
use mimo_detect::{PilotPhaseCorrector, TimingCorrector, ZfDetector};
use mimo_fft::{FixedFft, FFT_LANES};
use mimo_fixed::{CQ15, Cf64, Q16};
use mimo_fpga::{RxEntity, SynthConfig};
use mimo_interleave::BlockInterleaver;
use mimo_modem::{Modulation, SymbolDemapper, SymbolMapper};
use mimo_ofdm::{preamble, SubcarrierMap};
use mimo_sync::TimeSynchronizer;

fn print_table4() {
    eprintln!("\n=== Table 4: RX Resource Utilization By Entity (model) ===");
    eprintln!(
        "{:<22}{:>10}{:>11}{:>13}{:>8}",
        "Function", "ALUTs", "Registers", "Memory bits", "DSP"
    );
    for e in RxEntity::TABLE4_ROWS {
        let r = e.resources(SynthConfig::paper());
        eprintln!(
            "{:<22}{:>10}{:>11}{:>13}{:>8}",
            e.name(),
            r.aluts,
            r.registers,
            r.memory_bits,
            r.dsp18
        );
    }
    eprintln!("(Anchored row-for-row on the paper's Table 4.)\n");
}

/// A well-conditioned 4×4 mixing channel, `h[rx][tx]`.
fn mixing_channel(rx: usize, tx: usize) -> Cf64 {
    if rx == tx {
        Cf64::new(0.8, 0.15)
    } else {
        Cf64::new(0.1 * (rx as f64 - tx as f64), -0.07 * (rx + tx) as f64)
    }
}

/// Four antennas' captures of a preamble (STS + LTS) behind 40 idle
/// samples and ahead of a low-level tail, each antenna at its own gain.
fn four_antenna_preamble(fft: &FixedFft, map: &SubcarrierMap) -> Vec<Vec<CQ15>> {
    let mut burst = preamble::sts_time(fft, map, 0.5).expect("sts");
    burst.extend(preamble::lts_time(fft, map, 0.5).expect("lts"));
    (0..4)
        .map(|a| {
            let gain = mixing_channel(a, a);
            let mut s = vec![CQ15::ZERO; 40];
            s.extend(burst.iter().map(|&x| (gain * Cf64::from_fixed(x)).to_fixed::<15>()));
            s.extend((0..200).map(|i| CQ15::from_f64(0.02 * ((i * (a + 3)) as f64).sin(), 0.01)));
            s
        })
        .collect()
}

/// The estimator's input: `blocks[rx][tx]` holds the two LTS
/// repetitions TX antenna `tx` sends, as RX antenna `rx` receives them
/// through [`mixing_channel`].
fn lts_through_mixing_channel(fft: &FixedFft, map: &SubcarrierMap) -> Vec<Vec<Vec<CQ15>>> {
    let field = preamble::lts_time(fft, map, 0.5).expect("lts");
    let reps = &field[fft.size() / 2..];
    (0..4)
        .map(|rx| {
            (0..4)
                .map(|tx| {
                    reps.iter()
                        .map(|&s| {
                            (mixing_channel(rx, tx) * Cf64::from_fixed(s))
                                .to_fixed::<15>()
                                .saturate_bits(16)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    print_table4();

    // Deinterleaver (soft values).
    let interleaver = BlockInterleaver::new(192, 4).expect("valid geometry");
    let llrs: Vec<Llr> = (0..192).map(|i| (i as Llr % 65) - 32).collect();
    c.bench_function("table4/deinterleaver_192_soft", |b| {
        b.iter(|| interleaver.deinterleave(&llrs).expect("sized block"))
    });

    // FFT.
    let fft = FixedFft::new(64).expect("supported size");
    let time: Vec<CQ15> = (0..64)
        .map(|i| CQ15::from_f64(0.1 * ((i as f64) * 0.7).sin(), 0.1 * ((i as f64) * 0.3).cos()))
        .collect();
    c.bench_function("table4/fft_64pt", |b| b.iter(|| fft.fft(&time).expect("sized")));

    // FFT, one lane-parallel batch of eight symbols (compare with
    // eight times `table4/fft_64pt`).
    let batch: Vec<CQ15> = (0..FFT_LANES).flat_map(|_| time.iter().copied()).collect();
    let mut spectra = vec![CQ15::ZERO; FFT_LANES * 64];
    c.bench_function("table4/fft_64pt_8_symbols", |b| {
        b.iter(|| {
            fft.fft_batch_into(&batch, 64, &mut spectra, 64, FFT_LANES)
                .expect("sized")
        })
    });

    // Time synchroniser: one sliding-window step.
    let map = SubcarrierMap::new(64).expect("valid size");
    let taps = preamble::sync_reference(&fft, &map, 0.5).expect("reference");
    let mut sync = TimeSynchronizer::new(taps.clone(), 0.99).expect("valid taps");
    let sample = CQ15::from_f64(0.05, -0.03);
    c.bench_function("table4/timesync_step", |b| b.iter(|| sync.push(sample)));

    // Fine sync as the receiver runs it: the ±48-sample window around
    // the coarse STS end, scanned on each of four antennas.
    let scan = TimeSynchronizer::new(taps, mimo_sync::DEFAULT_THRESHOLD_FACTOR)
        .expect("valid taps");
    let captures = four_antenna_preamble(&fft, &map);
    let sts_end = mimo_sync::coarse_sts_end(&captures)
        .expect("plateau found")
        .sts_end;
    c.bench_function("table4/fine_sync_window_4_antennas", |b| {
        b.iter(|| {
            captures
                .iter()
                .filter_map(|s| scan.scan_peak_window(s, sts_end - 48, sts_end + 48))
                .max_by_key(|e| e.magnitude)
        })
    });

    // Channel estimate from the 16 staggered LTS fields (32 FFTs), then
    // the whole-burst H⁻¹ over its 52 carriers.
    let estimator = ChannelEstimator::new(64).expect("supported size");
    let lts_blocks = lts_through_mixing_channel(&fft, &map);
    c.bench_function("table4/channel_estimate_16_lts", |b| {
        b.iter(|| estimator.estimate(&lts_blocks).expect("well-formed"))
    });
    let estimate = estimator.estimate(&lts_blocks).expect("well-formed");
    let inverter = CordicQrd::new();
    c.bench_function("table4/h_inverse_52_carriers", |b| {
        b.iter(|| estimate.invert_all(&inverter).expect("nonsingular"))
    });

    // Symbol demapper with the EVM measurement, one 64-QAM symbol's 48
    // data carriers: the one-pass kernel against the separate soft
    // demap, hard demap and LUT re-map passes it replaced.
    let mapper = SymbolMapper::new(Modulation::Qam64).expect("default scale");
    let demapper = SymbolDemapper::matched_to(&mapper);
    let carriers: Vec<CQ15> = (0..48)
        .map(|s| CQ15::from_f64(0.5 * ((s as f64) * 0.61).sin(), 0.5 * ((s as f64) * 0.23).cos()))
        .collect();
    let identity: Vec<u32> = (0..288).collect();
    let mut llr_out = vec![0 as Llr; 288];
    c.bench_function("table4/demap_evm_48_carriers", |b| {
        b.iter(|| demapper.demap_scatter_into(&carriers, &identity, true, &mut llr_out))
    });
    let mut hard = vec![0u8; 288];
    let mut points = vec![CQ15::ZERO; 48];
    c.bench_function("table4/demap_evm_48_carriers_separate_passes", |b| {
        b.iter(|| {
            demapper.soft_demap_scatter_into(&carriers, &identity, &mut llr_out);
            demapper.hard_demap_into(&carriers, &mut hard);
            mapper.map_bits_into(&hard, &mut points).expect("sized");
            carriers.iter().zip(&points).fold((0.0, 0.0), |(num, den), (&got, &want)| {
                let (got, want) = (Cf64::from_fixed(got), Cf64::from_fixed(want));
                (num + (got - want).norm_sqr(), den + want.norm_sqr())
            })
        })
    });

    // Pilot common-phase and timing de-rotation of one 64-point
    // symbol's 52 equalized carriers: the one lane pass the receiver
    // runs against the two whole-symbol passes it replaced.
    let occupied: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
    let symbol: Vec<CQ15> = occupied
        .iter()
        .map(|&l| Cf64::from_polar(0.4, 0.7 + 0.012 * f64::from(l)).to_fixed::<15>())
        .collect();
    let (phase, timing) = (PilotPhaseCorrector::new(), TimingCorrector::new());
    let (phi, tau) = (Q16::from_f64(0.7), 0.012);
    let mut eq = symbol.clone();
    c.bench_function("table4/pilot_derotation_52_carriers", |b| {
        b.iter(|| {
            eq.copy_from_slice(&symbol);
            timing.correct_with_phase_in_place(&mut eq, &occupied, phi, tau);
        })
    });
    c.bench_function("table4/pilot_derotation_52_carriers_two_passes", |b| {
        b.iter(|| {
            eq.copy_from_slice(&symbol);
            phase.correct_in_place(&mut eq, phi);
            timing.correct_in_place(&mut eq, &occupied, tau);
        })
    });

    // Viterbi decoder over one OFDM symbol's worth of soft bits.
    let spec = CodeSpec::ieee80211a();
    let mut enc = ConvolutionalEncoder::new(spec.clone());
    let dec = ViterbiDecoder::new(spec);
    let info: Vec<u8> = (0..90).map(|i| (i % 2) as u8).collect();
    let soft: Vec<Llr> = enc
        .encode_terminated(&info)
        .iter()
        .map(|&b| hard_to_llr(b))
        .collect();
    c.bench_function("table4/viterbi_192_coded_bits", |b| {
        b.iter(|| dec.decode_terminated(&soft).expect("well-formed"))
    });

    // QRD, R-inverse and the Q multiplier on a realistic channel.
    let h = Mat4::from_fn(|r, col| {
        Cf64::new(
            0.3 * ((r * 4 + col) as f64 * 0.9).sin(),
            0.3 * ((r + col) as f64 * 1.3).cos(),
        )
    })
    .to_fixed();
    let qrd = CordicQrd::new();
    c.bench_function("table4/qr_decomposition_4x4", |b| b.iter(|| qrd.decompose(&h)));

    let decomp = qrd.decompose(&h);
    c.bench_function("table4/r_matrix_inverse", |b| {
        b.iter(|| invert_upper_triangular(&decomp.r).expect("nonsingular"))
    });

    let r_inv = invert_upper_triangular(&decomp.r).expect("nonsingular");
    c.bench_function("table4/qr_multiplier_4x4", |b| {
        b.iter(|| r_inv.mul_mat(&decomp.q_h))
    });

    // MIMO decoder: one subcarrier's H^-1 · r.
    let h_inv = r_inv.mul_mat(&decomp.q_h);
    let r_vec = [
        Cf64::new(0.1, 0.0).to_fixed::<16>(),
        Cf64::new(-0.1, 0.1).to_fixed::<16>(),
        Cf64::new(0.05, -0.1).to_fixed::<16>(),
        Cf64::new(0.0, 0.1).to_fixed::<16>(),
    ];
    c.bench_function("table4/mimo_decoder_per_carrier", |b| {
        b.iter(|| h_inv.mul_vec(&r_vec))
    });

    // MIMO decoder: one stream's row of H^-1 · r over a 64-point
    // symbol's 48 data carriers, as the receiver runs it.
    let h_invs = vec![h_inv; 48];
    let antennas: Vec<Vec<CQ15>> = (0..4)
        .map(|a| {
            (0..48)
                .map(|s| CQ15::from_f64(0.2 * ((a * 48 + s) as f64 * 0.37).sin(), 0.1))
                .collect()
        })
        .collect();
    let rx: [&[CQ15]; 4] = std::array::from_fn(|a| antennas[a].as_slice());
    let detector = ZfDetector::new();
    let mut stream = vec![CQ15::ZERO; 48];
    c.bench_function("table4/zf_stream_48_carriers", |b| {
        b.iter(|| {
            detector
                .detect_stream_into(&h_invs, &rx, 1, &mut stream)
                .expect("sized")
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
