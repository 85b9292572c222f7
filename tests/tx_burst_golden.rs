//! Whole-burst transmit pins: one checksum per MCS over every sample
//! of all four streams of `transmit_burst_with`, for a fixed payload,
//! on the paper's 64-point geometry and on a 128-point one.
//!
//! The primitives have their own known-answer vectors
//! (`golden_vectors.rs`); these pin what the transmitter builds from
//! them — preamble, SIGNAL field, bit routing, mapping, pilots, IFFT
//! and cyclic prefix — so a refactor of the transmit chain that moves
//! any on-air sample fails here.

use mimo_baseband::phy::{LinkGeometry, Mcs, MimoTransmitter};

/// 1500 bytes: 375 per stream, so every MCS fills at least one whole
/// eight-symbol group and a partial one.
fn payload() -> Vec<u8> {
    (0..1500u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect()
}

/// FNV-1a over each sample's raw 16-bit I then Q, stream after stream.
fn checksum(streams: &[Vec<mimo_baseband::fixed::CQ15>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in streams.iter().flatten() {
        for part in [s.re.raw(), s.im.raw()] {
            for byte in (part as i16).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn burst_checksums(geometry: LinkGeometry) -> Vec<(Mcs, u64)> {
    let tx = MimoTransmitter::from_geometry(geometry).unwrap();
    let payload = payload();
    Mcs::ALL
        .iter()
        .map(|&mcs| {
            let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
            assert_eq!(burst.streams.len(), 4);
            (mcs, checksum(&burst.streams))
        })
        .collect()
}

fn assert_pinned(geometry: LinkGeometry, want: [u64; 8]) {
    let got = burst_checksums(geometry);
    let want: Vec<(Mcs, u64)> = Mcs::ALL.iter().copied().zip(want).collect();
    assert_eq!(got, want);
}

#[test]
fn mimo_bursts_are_pinned_at_every_mcs() {
    assert_pinned(
        LinkGeometry::mimo(),
        [
            11829105562781158913,
            12024600010890378803,
            17284273085854490124,
            9697020174808946185,
            88195018424995217,
            8363687486963675665,
            5203895919688280587,
            17343757681354284772,
        ],
    );
}

#[test]
fn fft128_bursts_are_pinned_at_every_mcs() {
    assert_pinned(
        LinkGeometry::mimo().with_fft_size(128),
        [
            11336129590360399803,
            10311795559720556267,
            18242155223379808147,
            11034948349201714061,
            11979404657138771821,
            8863062494774581903,
            5228955134025811452,
            529575054737951315,
        ],
    );
}
