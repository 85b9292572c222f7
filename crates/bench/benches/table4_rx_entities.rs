//! **Experiment T4 — Table 4: Receiver Resource Utilization By
//! Entity.**
//!
//! Regenerates the eight per-entity rows and times the functional
//! kernel behind each.

use criterion::{criterion_group, criterion_main, Criterion};
use mimo_chanest::{invert_upper_triangular, CordicQrd, Mat4};
use mimo_coding::{hard_to_llr, CodeSpec, ConvolutionalEncoder, Llr, ViterbiDecoder};
use mimo_detect::ZfDetector;
use mimo_fft::{FixedFft, FFT_LANES};
use mimo_fixed::{CQ15, Cf64};
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
    let mut sync = TimeSynchronizer::new(taps, 0.99).expect("valid taps");
    let sample = CQ15::from_f64(0.05, -0.03);
    c.bench_function("table4/timesync_step", |b| b.iter(|| sync.push(sample)));

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
