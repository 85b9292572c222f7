//! Closed-loop link adaptation on the repaired multi-stream EVM
//! diagnostics.
//!
//! The headline regression here is the stream-3 noise test:
//! `finish_result` used to report EVM/phase from stream workspace 0
//! only, so a 4×4 receiver could report pristine EVM while three
//! streams drowned in noise. These tests fail against that code.

use mimo_baseband::channel::{IdealChannel, TimeVaryingAwgn};
use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{
    LinkGeometry, LinkSimulation, Mcs, MimoReceiver, MimoTransmitter, PhyConfig,
    RateController, EVM_FLOOR_DB,
};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Adds deterministic uniform noise of ±`amp` to both components of
/// every sample in `stream[from..]`.
fn perturb_tail(stream: &mut [CQ15], from: usize, amp: f64, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for s in &mut stream[from..] {
        let (re, im) = s.to_f64();
        let dre: f64 = rng.gen_range(-amp..amp);
        let dim: f64 = rng.gen_range(-amp..amp);
        *s = CQ15::from_f64(re + dre, im + dim);
    }
}

/// The pre-PR `finish_result` read `stream_ws[0]` only: noise injected
/// on stream 3 alone left the reported EVM pristine. After the repair,
/// the aggregate degrades and the per-stream breakdown points at the
/// culprit.
#[test]
fn noise_on_stream_3_only_degrades_reported_evm() {
    let cfg = PhyConfig::paper_synthesis();
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let mut rx = MimoReceiver::new(cfg).unwrap();
    let payload: Vec<u8> = (0..180).map(|i| (i * 31 + 7) as u8).collect();
    let burst = tx.transmit_burst_with(Mcs::Qpsk12, &payload).unwrap();

    let clean = rx.receive_burst(&burst.streams).unwrap();
    assert_eq!(clean.payload, payload);

    // Noise on stream 3's payload region only: the preamble (channel
    // estimate) and stream 0's SIGNAL field stay clean.
    let mut noisy = burst.streams.clone();
    let payload_start =
        tx.preamble_schedule().data_offset() + burst.header_symbols * 80;
    perturb_tail(&mut noisy[3], payload_start, 0.015, 17);
    let result = rx.receive_burst(&noisy).unwrap();
    assert_eq!(result.payload, payload, "QPSK r=1/2 survives the noise");

    let (cq, nq) = (&clean.diagnostics.quality, &result.diagnostics.quality);
    assert_eq!(nq.per_stream_evm_db.len(), 4);
    // The aggregate must see the drowning stream (ws0-only reporting
    // stays within ~1 dB of clean and fails this).
    assert!(
        nq.evm_db > cq.evm_db + 6.0,
        "aggregate EVM must degrade: clean {} dB, noisy {} dB",
        cq.evm_db,
        nq.evm_db
    );
    // The per-stream breakdown names the culprit.
    assert!(
        nq.per_stream_evm_db[3] > nq.per_stream_evm_db[0] + 6.0,
        "stream 3 must report the damage: {:?}",
        nq.per_stream_evm_db
    );
    assert_eq!(
        nq.worst_stream_evm_db().to_bits(),
        nq.per_stream_evm_db[3].to_bits(),
        "worst-stream figure tracks stream 3"
    );
}

/// Every MCS row through a lossless channel: all EVM figures are
/// finite (never `-inf`) and respect the floor — the measurement a
/// rate controller can always do dB arithmetic on.
#[test]
fn lossless_link_reports_finite_floored_evm_for_every_mcs() {
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let mut rx = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    for mcs in Mcs::ALL {
        let payload: Vec<u8> = (0..96).map(|i| (i * 13) as u8).collect();
        let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
        let result = rx.receive_burst(&burst.streams).unwrap();
        let q = &result.diagnostics.quality;
        assert!(q.evm_db.is_finite(), "{mcs}: aggregate");
        assert!(q.evm_db >= EVM_FLOOR_DB, "{mcs}: floor");
        assert!(q.mean_phase_rad.is_finite(), "{mcs}: phase");
        for (k, &evm) in q.per_stream_evm_db.iter().enumerate() {
            assert!(
                evm.is_finite() && evm >= EVM_FLOOR_DB,
                "{mcs} stream {k}: {evm}"
            );
        }
    }
}

/// The full closed loop on a triangular SNR sweep: the controller
/// starts at BPSK r=1/2, climbs to the 64-QAM r=3/4 headline rate as
/// SNR rises, and backs off as it falls — the ISSUE's acceptance
/// trajectory.
#[test]
fn run_adaptive_climbs_the_ramp_and_backs_off() {
    let mut link = LinkSimulation::new(PhyConfig::paper_synthesis(), 9).unwrap();
    let mut controller = RateController::default();
    let mut chan = TimeVaryingAwgn::up_down(4, 8.0, 30.0, 60, 21);
    let trace = link
        .run_adaptive(&mut controller, &mut chan, 300, 119)
        .unwrap();

    assert_eq!(trace.records.len(), 119);
    assert_eq!(trace.records[0].mcs, Mcs::Bpsk12, "starts most robust");
    assert_eq!(
        trace.max_mcs(),
        Some(Mcs::Qam64R34),
        "reaches the 1 Gbps headline rate at the SNR peak"
    );
    let first_top = trace
        .records
        .iter()
        .position(|r| r.mcs == Mcs::Qam64R34)
        .unwrap();
    assert!(first_top < 75, "climbs on the way up, not after the peak");
    let last = trace.records.last().unwrap();
    assert!(
        last.mcs.index() <= 2,
        "backs off on the way down, ended at {}",
        last.mcs
    );
    assert!(trace.bursts_ok() > 60, "most bursts deliver");
    assert!(trace.goodput_bps() > 0.0);
    // Lost bursts carry no quality; delivered ones always do.
    for r in &trace.records {
        assert_eq!(r.ok, r.quality.is_some());
    }
}

/// Adaptive goodput on an ideal channel converges to the best fixed
/// rate: after the climb, every burst goes out at 64-QAM r=3/4.
#[test]
fn adaptive_goodput_approaches_best_fixed_rate_on_ideal_channel() {
    let mut link = LinkSimulation::new(PhyConfig::paper_synthesis(), 5).unwrap();
    let mut controller = RateController::default().with_dwell(1, 1);
    let mut chan = IdealChannel::new(4);
    let trace = link
        .run_adaptive(&mut controller, &mut chan, 400, 40)
        .unwrap();
    assert_eq!(trace.bursts_ok(), 40);
    // 7 climb steps at dwell 1, then steady state at the top.
    let top = trace
        .records
        .iter()
        .filter(|r| r.mcs == Mcs::Qam64R34)
        .count();
    assert!(top >= 32, "steady state at the headline rate, got {top}");
}

fn settle(evm_db: f64) -> u8 {
    let mut ctrl = RateController::default().with_dwell(1, 1);
    let q = mimo_baseband::phy::ChannelQuality {
        evm_db,
        per_stream_evm_db: vec![evm_db; 4],
        mean_phase_rad: 0.0,
    };
    for _ in 0..32 {
        ctrl.update(Some(&q));
    }
    ctrl.current().index()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The controller never leaves the MCS table, whatever feedback
    /// sequence it digests.
    #[test]
    fn controller_stays_on_table(seq in proptest::collection::vec((-85.0f64..5.0, 0u8..4), 1..80)) {
        let mut ctrl = RateController::default();
        for (evm, kind) in seq {
            let mcs = if kind == 0 {
                ctrl.update(None)
            } else {
                let q = mimo_baseband::phy::ChannelQuality {
                    evm_db: evm,
                    per_stream_evm_db: vec![evm; 4],
                    mean_phase_rad: 0.0,
                };
                ctrl.update(Some(&q))
            };
            prop_assert!((mcs.index() as usize) < Mcs::ALL.len());
            prop_assert_eq!(mcs, ctrl.current());
        }
    }

    /// Monotone in EVM: a cleaner link never settles on a slower rate.
    #[test]
    fn settled_rate_is_monotone_in_evm(a in -80.0f64..0.0, b in -80.0f64..0.0) {
        let (better, worse) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(settle(better) >= settle(worse));
    }

    /// Hysteresis: from a settled state, one outlier burst — in either
    /// direction — never changes the rate (the dwell counters demand
    /// consecutive evidence).
    #[test]
    fn single_burst_cannot_flap_the_rate(evm in -70.0f64..-10.0, delta in 5.0f64..30.0) {
        let mut ctrl = RateController::default();
        let steady = mimo_baseband::phy::ChannelQuality {
            evm_db: evm,
            per_stream_evm_db: vec![evm; 4],
            mean_phase_rad: 0.0,
        };
        for _ in 0..32 {
            ctrl.update(Some(&steady));
        }
        let settled = ctrl.current();

        // One much-better burst: no upshift yet.
        let better = mimo_baseband::phy::ChannelQuality {
            evm_db: evm - delta,
            per_stream_evm_db: vec![evm - delta; 4],
            mean_phase_rad: 0.0,
        };
        prop_assert_eq!(ctrl.update(Some(&better)), settled, "single good burst");

        // Re-settle, then one much-worse burst (or a loss): no
        // downshift yet.
        let mut ctrl = RateController::default();
        for _ in 0..32 {
            ctrl.update(Some(&steady));
        }
        let settled = ctrl.current();
        let worse = mimo_baseband::phy::ChannelQuality {
            evm_db: evm + delta,
            per_stream_evm_db: vec![evm + delta; 4],
            mean_phase_rad: 0.0,
        };
        prop_assert_eq!(ctrl.update(Some(&worse)), settled, "single bad burst");
        let mut ctrl = RateController::default();
        for _ in 0..32 {
            ctrl.update(Some(&steady));
        }
        let settled = ctrl.current();
        prop_assert_eq!(ctrl.update(None), settled, "single lost burst");
    }
}
