//! **Experiment T2 — Table 2: Transmitter Resource Utilization By
//! Entity.**
//!
//! Regenerates the per-entity rows and times the functional kernel
//! behind each row.

use criterion::{criterion_group, criterion_main, Criterion};
use mimo_coding::{CodeSpec, ConvolutionalEncoder};
use mimo_fft::{FixedFft, FFT_LANES};
use mimo_fixed::CQ15;
use mimo_fpga::{SynthConfig, TxEntity};
use mimo_interleave::BlockInterleaver;
use mimo_ofdm::add_cyclic_prefix;

fn print_table2() {
    eprintln!("\n=== Table 2: TX Resource Utilization By Entity (model) ===");
    eprintln!(
        "{:<22}{:>10}{:>11}{:>13}{:>8}",
        "Function", "ALUTs", "Registers", "Memory bits", "DSP"
    );
    for e in TxEntity::TABLE2_ROWS {
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
    eprintln!("Paper rows: 32/136/0/0, 28016/1730/0/0, 3854/9152/8896/32, 40/128/0/0\n");
}

fn bench(c: &mut Criterion) {
    print_table2();

    let mut encoder = ConvolutionalEncoder::new(CodeSpec::ieee80211a());
    let info: Vec<u8> = (0..960).map(|i| (i % 2) as u8).collect();
    c.bench_function("table2/conv_encoder_960b", |b| {
        b.iter(|| encoder.encode_terminated(&info))
    });

    // The same 960 bits packed 64 to a word, the transmitter's encoder:
    // one shifted-word XOR per generator tap.
    let spec = CodeSpec::ieee80211a();
    let words = vec![0x5555_5555_5555_5555u64; 960 / 64];
    let mut streams = Vec::new();
    c.bench_function("table2/conv_encoder_960b_packed", |b| {
        b.iter(|| spec.encode_terminated_words(&words, 960, &mut streams))
    });

    let interleaver = BlockInterleaver::new(192, 4).expect("valid geometry");
    let block: Vec<u8> = (0..192).map(|i| (i % 2) as u8).collect();
    c.bench_function("table2/block_interleaver_192b", |b| {
        b.iter(|| interleaver.interleave(&block).expect("sized block"))
    });

    let ifft = FixedFft::new(64).expect("supported size");
    let freq: Vec<CQ15> = (0..64)
        .map(|i| CQ15::from_f64(0.2 * ((i % 5) as f64 - 2.0) / 2.0, 0.1))
        .collect();
    c.bench_function("table2/ifft_64pt", |b| {
        b.iter(|| ifft.ifft(&freq).expect("sized frame"))
    });

    // IFFT, one lane-parallel batch of eight symbols (compare with
    // eight times `table2/ifft_64pt`).
    let frames: Vec<CQ15> = (0..FFT_LANES).flat_map(|_| freq.iter().copied()).collect();
    let mut bodies = vec![CQ15::ZERO; FFT_LANES * 64];
    c.bench_function("table2/ifft_64pt_8_symbols", |b| {
        b.iter(|| {
            ifft.ifft_batch_into(&frames, 64, &mut bodies, 64, FFT_LANES)
                .expect("sized frames")
        })
    });

    let symbol: Vec<CQ15> = (0..64).map(|i| CQ15::from_f64(0.01 * i as f64, 0.0)).collect();
    c.bench_function("table2/cyclic_prefix_64pt", |b| {
        b.iter(|| add_cyclic_prefix(&symbol))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
