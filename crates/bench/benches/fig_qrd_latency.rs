//! **Experiment F7 — CORDIC/QRD latency claims.**
//!
//! The paper: "Each CORDIC element has a latency of 20 clock cycles
//! ... The QRD circuit therefore has a data-path latency of 440 clock
//! cycles." Prints the closed-form model next to the clocked
//! `SystolicQrdArray`'s measured cycles, plus the channel-estimation
//! latency budget.

use criterion::{criterion_group, criterion_main, Criterion};
use mimo_chanest::{
    channel_estimation_latency_cycles, qrd_datapath_latency_cycles, Mat4, QrdScheduler,
    SystolicQrdArray,
};
use mimo_cordic::{Cordic, CORDIC_LATENCY_CYCLES};
use mimo_fixed::{Cf64, Q16};
use mimo_ofdm::SubcarrierMap;

fn print_latency_report(h: &Mat4) {
    let (_, measured) = SystolicQrdArray::new().run(&h.to_fixed());
    eprintln!("\n=== F7: Latency claims ===");
    eprintln!("CORDIC element latency: {CORDIC_LATENCY_CYCLES} cycles (paper: 20)");
    eprintln!(
        "QRD datapath latency: model {} cycles, clocked array {measured} cycles (paper: 440)",
        qrd_datapath_latency_cycles(4, CORDIC_LATENCY_CYCLES),
    );
    let sched = QrdScheduler::new(52);
    eprintln!(
        "QRD scheduler ingest, 52 subcarriers: {} cycles (bursts of {})",
        sched.total_ingest_cycles(),
        sched.burst_len()
    );
    for n in [64usize, 128, 256, 512] {
        let map = SubcarrierMap::new(n).expect("supported FFT size");
        let cycles = channel_estimation_latency_cycles(&map);
        eprintln!(
            "Channel-estimation total latency, {n}-pt: {cycles} cycles ({:.1} us @ 100 MHz)",
            cycles as f64 / 100.0
        );
    }
    eprintln!();
}

fn bench(c: &mut Criterion) {
    let h = Mat4::from_fn(|r, col| Cf64::new(0.1 * (r as f64 + 1.0), -0.07 * col as f64));
    print_latency_report(&h);

    let cordic = Cordic::new();
    let (x, y) = (Q16::from_f64(0.6), Q16::from_f64(0.8));
    c.bench_function("fig7/cordic_vectoring", |b| b.iter(|| cordic.vector(x, y)));
    c.bench_function("fig7/cordic_rotation", |b| {
        b.iter(|| cordic.rotate(x, y, Q16::from_f64(1.1)))
    });

    let mut array = SystolicQrdArray::new();
    let h = h.to_fixed();
    c.bench_function("fig7/qrd_latency_model", |b| b.iter(|| array.run(&h).1));

    let sched = QrdScheduler::new(512);
    c.bench_function("fig7/scheduler_512sc_column", |b| {
        b.iter(|| sched.column_schedule(0).len())
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
