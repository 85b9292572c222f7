//! **Experiment F10 — closed-loop link adaptation goodput.**
//!
//! The rate ladder only pays off when the link picks the rate itself.
//! This bench sweeps an AWGN link across SNR operating points and, at
//! each point, measures delivered **goodput** (bit-exact payload bits
//! per second of airtime) for
//!
//! * every **fixed** MCS row (a controller pinned to that row), and
//! * the **adaptive** loop (`LinkSimulation::run_adaptive` with the
//!   table-default `RateController`), warmed briefly at each point the
//!   way a live link tracks a slowly varying channel.
//!
//! The snapshot `BENCH_link_adapt.json` (written by full runs only,
//! not under `QUICK_BENCH=1`) records, per SNR point, the
//! adaptive goodput against the best fixed rate and the ratio between
//! them — the acceptance figure for the EVM-driven controller (the
//! ratio should stay ≥ 0.9 everywhere: the loop must neither under-
//! shoot the ladder nor lose bursts to overreach). A `ramp` section
//! runs the triangular SNR sweep and records the climb to 64-QAM
//! r=3/4 and the back-off.
//!
//! Sweep points sit in each rate's stable operating region rather
//! than on a decode cliff: on a cliff no policy — fixed or adaptive —
//! delivers reliably, and the comparison measures seed noise instead
//! of controller quality.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use mimo_channel::{AwgnChannel, TimeVaryingAwgn};
use mimo_core::{AdaptiveTrace, LinkSimulation, Mcs, PhyConfig, RateController};

/// Payload per burst: large enough that adjacent rates differ in
/// airtime, small enough to keep the sweep fast.
const PAYLOAD_BYTES: usize = 256;

/// SNR operating points, dB (see the module docs on cliff avoidance).
const SNR_POINTS: [f64; 6] = [13.0, 16.0, 18.0, 22.0, 26.0, 30.0];

struct Budget {
    /// Measured bursts per fixed-rate row per SNR point.
    fixed: u64,
    /// Un-measured warm-up bursts for the adaptive loop per point.
    warmup: u64,
    /// Measured adaptive bursts per point.
    measure: u64,
    /// Bursts per leg of the ramp demo.
    ramp_leg: usize,
}

/// A controller pinned to one row: dwell counters that can never
/// trip, so `run_adaptive` measures the fixed-rate baseline through
/// the identical TX→channel→RX machinery.
fn pinned(mcs: Mcs) -> RateController {
    RateController::default()
        .with_initial(mcs)
        .with_dwell(u32::MAX, u32::MAX)
}

fn goodput_mbps(trace: &AdaptiveTrace) -> f64 {
    trace.goodput_bps() / 1e6
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var_os("QUICK_BENCH").is_some();
    let budget = if quick {
        Budget { fixed: 6, warmup: 8, measure: 12, ramp_leg: 30 }
    } else {
        Budget { fixed: 24, warmup: 16, measure: 40, ramp_leg: 60 }
    };
    let cfg = PhyConfig::paper_synthesis();

    eprintln!("\n=== F10: link-adaptation goodput ({PAYLOAD_BYTES}-byte payloads) ===");
    let start = Instant::now();
    let mut rows = Vec::new();
    // One controller tracks the whole sweep, like a live link: each
    // point starts from the previous point's operating rate, and the
    // warm-up bursts absorb the transition.
    let mut controller = RateController::default();
    for (i, &snr_db) in SNR_POINTS.iter().enumerate() {
        // Fixed-rate baselines.
        let mut best_fixed = f64::MIN;
        let mut best_mcs = Mcs::most_robust();
        for mcs in Mcs::ALL {
            let mut link = LinkSimulation::new(cfg.clone(), 100 + i as u64).unwrap();
            let mut chan = AwgnChannel::new(4, snr_db, 900 + i as u64);
            let mut pin = pinned(mcs);
            let trace = link
                .run_adaptive(&mut pin, &mut chan, PAYLOAD_BYTES, budget.fixed)
                .expect("fixed-rate run");
            let gp = goodput_mbps(&trace);
            if gp > best_fixed {
                best_fixed = gp;
                best_mcs = mcs;
            }
        }

        // The adaptive loop: warm up at this point, then measure.
        let mut link = LinkSimulation::new(cfg.clone(), 200 + i as u64).unwrap();
        let mut chan = AwgnChannel::new(4, snr_db, 800 + i as u64);
        link.run_adaptive(&mut controller, &mut chan, PAYLOAD_BYTES, budget.warmup)
            .expect("adaptive warmup");
        let trace = link
            .run_adaptive(&mut controller, &mut chan, PAYLOAD_BYTES, budget.measure)
            .expect("adaptive run");
        let adaptive = goodput_mbps(&trace);
        // Guard the degenerate all-rates-fail point: 0/0 would write a
        // literal NaN and corrupt the JSON snapshot.
        let ratio = if best_fixed > 0.0 { adaptive / best_fixed } else { 0.0 };
        eprintln!(
            "SNR {snr_db:>4.1} dB | adaptive {adaptive:>7.1} Mbps @ {} | \
             best fixed {best_fixed:>7.1} Mbps @ {best_mcs} | ratio {ratio:.3}",
            controller.current()
        );
        rows.push(format!(
            "    {{\"snr_db\": {snr_db}, \"adaptive_goodput_mbps\": {adaptive:.3}, \
             \"adaptive_mcs\": \"{}\", \"best_fixed_goodput_mbps\": {best_fixed:.3}, \
             \"best_fixed_mcs\": \"{best_mcs}\", \"adaptive_over_best_fixed\": {ratio:.3}}}",
            controller.current()
        ));
    }

    // The triangular ramp: climb to the headline rate and back off.
    let mut link = LinkSimulation::new(cfg.clone(), 300).unwrap();
    let mut ramp_ctrl = RateController::default();
    let mut ramp = TimeVaryingAwgn::up_down(4, 8.0, 30.0, budget.ramp_leg, 21);
    let bursts = (2 * budget.ramp_leg - 1) as u64;
    let trace = link
        .run_adaptive(&mut ramp_ctrl, &mut ramp, 300, bursts)
        .expect("ramp run");
    let max_mcs = trace.max_mcs().expect("nonempty trace");
    let final_mcs = trace.records.last().expect("nonempty trace").mcs;
    eprintln!(
        "ramp 8→30→8 dB over {bursts} bursts | start {} | peak {max_mcs} | end {final_mcs} | \
         {} / {bursts} delivered",
        trace.records[0].mcs,
        trace.bursts_ok()
    );

    let json = format!(
        "{{\n  \"bench\": \"fig_link_adapt\",\n  \"payload_bytes\": {PAYLOAD_BYTES},\n  \
         \"bursts_per_fixed_point\": {},\n  \"adaptive_bursts_per_point\": {},\n  \
         \"results\": [\n{}\n  ],\n  \"ramp\": {{\"lo_db\": 8.0, \"hi_db\": 30.0, \
         \"bursts\": {bursts}, \"start_mcs\": \"{}\", \"peak_mcs\": \"{max_mcs}\", \
         \"end_mcs\": \"{final_mcs}\", \"delivered\": {}}}\n}}\n",
        budget.fixed,
        budget.measure,
        rows.join(",\n"),
        trace.records[0].mcs,
        trace.bursts_ok(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_link_adapt.json");
    if quick {
        eprintln!("quick mode: {path} not rewritten");
    } else if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("snapshot written to {path} ({:.1} s total)", start.elapsed().as_secs_f64());
    }

    // Criterion wrapper: the controller decision itself (the part that
    // would run per burst on a live link's feedback path).
    let mut group = c.benchmark_group("fig10_link_adapt");
    group.measurement_time(Duration::from_millis(if quick { 200 } else { 2000 }));
    group.bench_function("controller_update", |b| {
        let mut ctrl = RateController::default();
        let q = mimo_core::ChannelQuality {
            evm_db: -21.0,
            per_stream_evm_db: vec![-23.0, -22.0, -24.0, -21.0],
            mean_phase_rad: 0.01,
        };
        b.iter(|| criterion::black_box(ctrl.update(Some(&q))))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
