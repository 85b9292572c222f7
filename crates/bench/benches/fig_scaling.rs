//! **Experiment F8 — §V scaling claims.**
//!
//! "For a 512-point OFDM system the IFFT and interleaver will require
//! eight times as many resources ... approximately eight times as many
//! memory bits ... There are plenty of memory resources available on
//! the FPGA to accommodate a 512-point OFDM system."

use criterion::{criterion_group, criterion_main, Criterion};
use mimo_core::{LinkGeometry, MimoReceiver, MimoTransmitter, PhyConfig};
use mimo_channel::{ChannelModel, IdealChannel};
use mimo_fpga::{SynthConfig, SynthesisReport};

fn print_scaling_table() {
    let rows = SynthesisReport::scaling_analysis(SynthConfig::paper());
    eprintln!("\n=== F8: FFT-size scaling (model) ===");
    eprintln!(
        "{:<8}{:>12}{:>12}{:>14}{:>12}{:>8}",
        "N", "TX ALUTs", "RX ALUTs", "RX mem bits", "RX DSP", "fits?"
    );
    for row in &rows {
        eprintln!(
            "{:<8}{:>12}{:>12}{:>14}{:>12}{:>8}",
            row.fft_size,
            row.tx_total.aluts,
            row.rx_total.aluts,
            row.rx_total.memory_bits,
            row.rx_total.dsp18,
            if row.fits { "yes" } else { "NO" }
        );
    }
    let r64 = &rows[0];
    let r512 = rows.last().expect("four rows");
    eprintln!(
        "memory ratio 512/64: {:.2}x (paper: ~8x); channel-est ALUTs constant",
        r512.rx_total.memory_bits as f64 / r64.rx_total.memory_bits as f64
    );
    eprintln!();
}

fn bench(c: &mut Criterion) {
    print_scaling_table();

    c.bench_function("fig8/scaling_analysis", |b| {
        b.iter(|| SynthesisReport::scaling_analysis(SynthConfig::paper()))
    });

    // Functional check at a scaled size: the full link still closes at
    // 256-point, and we time it.
    let cfg = PhyConfig::from_geometry(LinkGeometry::mimo().with_fft_size(256));
    let tx = MimoTransmitter::new(cfg.clone()).expect("valid config");
    let mut rx = MimoReceiver::new(cfg).expect("valid config");
    let payload: Vec<u8> = (0..600).map(|i| (i * 11) as u8).collect();
    let burst = tx.transmit_burst(&payload).expect("burst");
    let received = IdealChannel::new(4).propagate(&burst.streams);
    c.bench_function("fig8/rx_256pt_600B", |b| {
        b.iter(|| rx.receive_burst(&received).expect("decode"))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
