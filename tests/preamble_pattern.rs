//! **Experiment F2 — Fig 2: the MIMO preamble pattern.**
//!
//! "STS data is transmitted from channel 0 only. ... LTS data is
//! transmitted from all four channels one after another."

use mimo_baseband::ofdm::preamble::{FieldKind, PreambleSchedule};
use mimo_baseband::phy::{MimoTransmitter, PhyConfig};

#[test]
fn schedule_is_sts_then_staggered_lts() {
    let sched = PreambleSchedule::new(4, 64);
    let slots = sched.slots();
    assert_eq!(slots.len(), 5);
    assert_eq!(slots[0].kind, FieldKind::Sts);
    assert_eq!(slots[0].tx, 0, "STS from channel 0 only");
    for (k, slot) in slots[1..].iter().enumerate() {
        assert_eq!(slot.kind, FieldKind::Lts);
        assert_eq!(slot.tx, k, "LTS slot order");
        assert_eq!(slot.offset, (1 + k) * 160, "LTS slots contiguous");
    }
}

#[test]
fn on_air_burst_matches_fig2() {
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let burst = tx.transmit_burst(&[0x5A; 64]).unwrap();
    let energy = |stream: &[mimo_baseband::fixed::CQ15]| -> f64 {
        stream
            .iter()
            .map(|s| {
                let (re, im) = s.to_f64();
                re * re + im * im
            })
            .sum()
    };
    // Slot occupancy matrix: exactly one transmitter per slot.
    for slot in 0..5 {
        let range = slot * 160..(slot + 1) * 160;
        let active: Vec<usize> = (0..4)
            .filter(|&a| energy(&burst.streams[a][range.clone()]) > 1e-6)
            .collect();
        let expected_tx = if slot == 0 { 0 } else { slot - 1 };
        assert_eq!(active, vec![expected_tx], "slot {slot}");
    }
    // Data region: all four simultaneously.
    for (a, stream) in burst.streams.iter().enumerate() {
        assert!(energy(&stream[800..]) > 1e-3, "antenna {a} silent in data");
    }
}

#[test]
fn lts_slots_carry_identical_fields() {
    // Every antenna sends the *same* LTS waveform, just shifted in
    // time — that is what lets one estimator handle all 16 paths.
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let burst = tx.transmit_burst(&[1, 2, 3]).unwrap();
    let slot0 = &burst.streams[0][160..320];
    for k in 1..4 {
        let slot_k = &burst.streams[k][160 * (1 + k)..160 * (2 + k)];
        assert_eq!(slot0, slot_k, "LTS field differs on antenna {k}");
    }
}

#[test]
fn preamble_scales_with_fft_size() {
    for n in [64usize, 256] {
        let sched = PreambleSchedule::new(4, n);
        assert_eq!(sched.data_offset(), 5 * (5 * n / 2), "N={n}");
        for slot in sched.slots() {
            assert_eq!(slot.len, 5 * n / 2);
        }
    }
}
