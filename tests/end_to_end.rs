//! End-to-end integration: the full TX → channel → RX loop across the
//! configuration space (Experiment E1).

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::phy::{LinkSimulation, Mcs, MimoReceiver, MimoTransmitter, PhyConfig};

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(197) ^ (i >> 3)) as u8).collect()
}

#[test]
fn loopback_configuration_matrix() {
    // The whole MCS grid through ONE transmitter and ONE receiver:
    // per-burst rate selection on the TX side, SIGNAL-field auto-rate
    // on the RX side.
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let mut rx = MimoReceiver::new(PhyConfig::paper_synthesis()).unwrap();
    for mcs in Mcs::ALL {
        let data = payload(97);
        let burst = tx.transmit_burst_with(mcs, &data).unwrap();
        let received = IdealChannel::new(4).propagate(&burst.streams);
        let result = rx.receive_burst(&received).unwrap();
        assert_eq!(result.payload, data, "{mcs}");
        assert_eq!(result.diagnostics.mcs, mcs, "{mcs}");
    }
}

#[test]
fn loopback_all_fft_sizes() {
    for n in [64usize, 128, 256, 512] {
        let cfg = PhyConfig::paper_synthesis().with_fft_size(n);
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        let data = payload(64);
        let burst = tx.transmit_burst(&data).unwrap();
        let received = IdealChannel::new(4).propagate(&burst.streams);
        let result = rx.receive_burst(&received).unwrap();
        assert_eq!(result.payload, data, "N={n}");
    }
}

#[test]
fn payload_size_edges() {
    let cfg = PhyConfig::paper_synthesis();
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let mut rx = MimoReceiver::new(cfg).unwrap();
    for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 255, 256, 1000] {
        let data = payload(n);
        let burst = tx.transmit_burst(&data).unwrap();
        let received = IdealChannel::new(4).propagate(&burst.streams);
        let result = rx.receive_burst(&received).unwrap();
        assert_eq!(result.payload, data, "payload size {n}");
    }
}

#[test]
fn gigabit_point_is_clean_at_high_snr() {
    let mut link = LinkSimulation::new(PhyConfig::gigabit(), 31).unwrap();
    let mut chan = AwgnChannel::new(4, 32.0, 77);
    let point = link.run(&mut chan, 300, 4).unwrap();
    assert_eq!(point.bit_errors, 0, "BER {} at 32 dB", point.ber());
}

#[test]
fn ber_decreases_with_snr() {
    // The waterfall must be monotone (within statistical noise) —
    // shape check for the E1 experiment.
    let mut bers = Vec::new();
    for snr in [6.0f64, 10.0, 14.0, 18.0] {
        let mut link = LinkSimulation::new(PhyConfig::paper_synthesis(), 5).unwrap();
        let mut chan = AwgnChannel::new(4, snr, 123);
        let point = link.run(&mut chan, 120, 6).unwrap();
        bers.push(point.ber());
    }
    for w in bers.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-3,
            "BER must not increase with SNR: {bers:?}"
        );
    }
    assert!(bers[0] > bers[3], "sweep must show a waterfall: {bers:?}");
}

#[test]
fn soft_decoding_outperforms_hard_at_threshold_snr() {
    let snr = 10.0;
    let mut soft_errors = 0u64;
    let mut hard_errors = 0u64;
    for seed in 0..6u64 {
        let cfg_soft = PhyConfig::paper_synthesis().with_soft_decoding(true);
        let mut link = LinkSimulation::new(cfg_soft, seed).unwrap();
        let mut chan = AwgnChannel::new(4, snr, 400 + seed);
        soft_errors += link.run(&mut chan, 120, 2).unwrap().bit_errors;

        let cfg_hard = PhyConfig::paper_synthesis().with_soft_decoding(false);
        let mut link = LinkSimulation::new(cfg_hard, seed).unwrap();
        let mut chan = AwgnChannel::new(4, snr, 400 + seed);
        hard_errors += link.run(&mut chan, 120, 2).unwrap().bit_errors;
    }
    assert!(
        soft_errors <= hard_errors,
        "soft ({soft_errors}) must not be worse than hard ({hard_errors})"
    );
}

#[test]
fn all_zero_payload_survives_the_scrambler() {
    let cfg = PhyConfig::paper_synthesis();
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let mut rx = MimoReceiver::new(cfg).unwrap();
    // Pathological payload: all zeros (the case scrambling exists for).
    let data = vec![0u8; 200];
    let burst = tx.transmit_burst(&data).unwrap();
    let received = IdealChannel::new(4).propagate(&burst.streams);
    assert_eq!(rx.receive_burst(&received).unwrap().payload, data);
}

#[test]
fn receiver_is_reusable_across_bursts() {
    let cfg = PhyConfig::paper_synthesis();
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let mut rx = MimoReceiver::new(cfg).unwrap();
    for i in 0..5 {
        let data = payload(50 + i * 13);
        let burst = tx.transmit_burst(&data).unwrap();
        let received = IdealChannel::new(4).propagate(&burst.streams);
        assert_eq!(rx.receive_burst(&received).unwrap().payload, data, "burst {i}");
    }
}
