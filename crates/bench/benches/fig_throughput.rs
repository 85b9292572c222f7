//! **Experiment F1 — the 1 Gbps headline.**
//!
//! Prints the line rate of every row of the MCS table at the 100 MHz
//! clock, and measures the software model's simulated sample
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mimo_core::{LinkGeometry, Mcs, MimoTransmitter, PhyConfig};

fn print_throughput_table() {
    let geom = LinkGeometry::mimo();
    eprintln!(
        "\n=== F1: Information throughput @ {:.0} MHz, 4x4, {}-pt OFDM ===",
        geom.clock_hz() / 1e6,
        geom.fft_size()
    );
    for mcs in Mcs::ALL {
        eprintln!("{:<14}{:>7.0}M", mcs.to_string(), mcs.data_rate_bps(&geom) / 1e6);
    }
    eprintln!(
        "Headline: {} -> {:.2} Gbps (paper claims 1 Gbps)\n",
        Mcs::Qam64R34,
        Mcs::Qam64R34.data_rate_bps(&geom) / 1e9
    );
}

fn bench(c: &mut Criterion) {
    print_throughput_table();

    // Measure the software transmitter's sample throughput so the
    // simulation speed is on record next to the modelled line rate.
    let tx = MimoTransmitter::new(PhyConfig::gigabit()).expect("valid config");
    let payload: Vec<u8> = (0..1000).map(|i| (i * 17) as u8).collect();
    let burst = tx.transmit_burst(&payload).expect("burst");
    let samples = (burst.len_samples() * burst.streams.len()) as u64;

    let mut group = c.benchmark_group("fig1_throughput");
    group.throughput(Throughput::Elements(samples));
    group.bench_function("tx_gigabit_1000B", |b| {
        b.iter(|| tx.transmit_burst(&payload).expect("burst"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
