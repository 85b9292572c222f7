//! The SIGNAL-field auto-rate contract (Experiment E2).
//!
//! A receiver built from link geometry alone must recover bursts
//! transmitted at every MCS in the table purely from the SIGNAL
//! header; corrupted headers must surface as typed errors (never a
//! panic, never garbage payload); and the serial, parallel and
//! `BurstPipeline` schedules must be bit-identical across the whole
//! rate grid, including mixed-rate batches on one pipeline.

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::signal::{encode_signal_field, parse_signal_field, SIGNAL_BITS};
use mimo_baseband::phy::{
    BurstParams, BurstPipeline, LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig,
    PhyError, RxResult,
};

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF) as u8
        })
        .collect()
}

#[test]
fn signal_field_golden_vector() {
    // The over-the-air header layout is a wire format: pin it.
    let params = BurstParams {
        mcs: Mcs::Qam16R34,
        length: 0x1234,
    };
    let mut bits = Vec::new();
    encode_signal_field(&params, &mut bits).unwrap();
    assert_eq!(bits.len(), SIGNAL_BITS);
    // Rate index 5 LSB-first, then 0x1234 LSB-first, then CRC-8.
    let expected_prefix = [
        1, 0, 1, 0, // rate = 5
        0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, // 0x1234
    ];
    assert_eq!(&bits[..20], &expected_prefix);
    assert_eq!(parse_signal_field(&bits).unwrap(), params);
}

#[test]
fn auto_rate_roundtrip_every_mcs_through_awgn() {
    // Property: for every MCS, TX at that rate → AWGN at high SNR →
    // a geometry-only receiver returns the exact payload and reports
    // the exact rate, bit-identically in serial, parallel and
    // pipeline schedules.
    let geom = LinkGeometry::mimo();
    let tx = MimoTransmitter::from_geometry(geom.clone()).unwrap();
    let mut rx_serial =
        MimoReceiver::from_geometry(geom.clone().with_parallelism(false)).unwrap();
    let mut rx_parallel =
        MimoReceiver::from_geometry(geom.clone().with_parallelism(true)).unwrap();
    let mut pipe = BurstPipeline::from_geometry(geom.clone()).unwrap();

    for (i, mcs) in Mcs::ALL.into_iter().enumerate() {
        let data = payload(i as u64 + 1, 60 + 37 * i);
        let burst = tx.transmit_burst_with(mcs, &data).unwrap();
        let received = AwgnChannel::new(4, 30.0, 900 + i as u64).propagate(&burst.streams);

        let serial = rx_serial.receive_burst(&received).unwrap();
        assert_eq!(serial.payload, data, "{mcs}: payload");
        assert_eq!(serial.diagnostics.mcs, mcs, "{mcs}: detected rate");

        let parallel = rx_parallel.receive_burst(&received).unwrap();
        assert_identical(&parallel, &serial, &format!("{mcs}: parallel"));

        let piped = pipe.process_batch(vec![received]);
        assert_identical(piped[0].as_ref().unwrap(), &serial, &format!("{mcs}: pipeline"));
    }
}

fn assert_identical(got: &RxResult, want: &RxResult, what: &str) {
    assert_eq!(got.payload, want.payload, "{what}: payload");
    assert_eq!(got.diagnostics.mcs, want.diagnostics.mcs, "{what}: mcs");
    assert_eq!(
        got.diagnostics.n_symbols, want.diagnostics.n_symbols,
        "{what}: n_symbols"
    );
    assert_eq!(
        got.diagnostics.evm_db().to_bits(),
        want.diagnostics.evm_db().to_bits(),
        "{what}: EVM"
    );
    assert_eq!(
        got.diagnostics.mean_phase_rad().to_bits(),
        want.diagnostics.mean_phase_rad().to_bits(),
        "{what}: mean phase"
    );
    let (gq, wq) = (&got.diagnostics.quality, &want.diagnostics.quality);
    assert_eq!(
        gq.per_stream_evm_db.len(),
        wq.per_stream_evm_db.len(),
        "{what}: stream count"
    );
    for (k, (g, w)) in gq.per_stream_evm_db.iter().zip(&wq.per_stream_evm_db).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: stream {k} EVM");
    }
}

#[test]
fn mixed_rate_batch_matches_serial_per_burst_decode() {
    // One pipeline, every burst at a different MCS: the pipeline must be
    // bit-identical to decoding each burst serially.
    let geom = LinkGeometry::mimo();
    let tx = MimoTransmitter::from_geometry(geom.clone()).unwrap();
    let mut batch = Vec::new();
    let mut expected = Vec::new();
    for (i, mcs) in Mcs::ALL.into_iter().enumerate() {
        let data = payload(100 + i as u64, 30 + 211 * i);
        let burst = tx.transmit_burst_with(mcs, &data).unwrap();
        let received = if i % 2 == 0 {
            IdealChannel::new(4).propagate(&burst.streams)
        } else {
            AwgnChannel::new(4, 28.0, i as u64).propagate(&burst.streams)
        };
        batch.push(received);
        expected.push(data);
    }

    let mut rx = MimoReceiver::from_geometry(geom.clone().with_parallelism(false)).unwrap();
    let serial: Vec<RxResult> = batch.iter().map(|b| rx.receive_burst(b).unwrap()).collect();

    for workers in [0usize, 1, 2, 4] {
        let mut pipe =
            BurstPipeline::with_workers(PhyConfig::from_geometry(geom.clone()), workers).unwrap();
        let results = pipe.process_batch(batch.clone());
        for (i, (got, want)) in results.iter().zip(&serial).enumerate() {
            let got = got.as_ref().unwrap();
            assert_eq!(got.payload, expected[i], "burst {i} ({workers} workers)");
            assert_identical(got, want, &format!("burst {i}, {workers} workers"));
        }
    }
}

#[test]
fn corrupted_header_is_rejected_cleanly_at_every_mcs() {
    let geom = LinkGeometry::mimo();
    let tx = MimoTransmitter::from_geometry(geom.clone()).unwrap();
    let mut rx = MimoReceiver::from_geometry(geom.clone()).unwrap();
    for (i, mcs) in Mcs::ALL.into_iter().enumerate() {
        let data = payload(i as u64 + 7, 120);
        let mut burst = tx.transmit_burst_with(mcs, &data).unwrap();
        // Kill the header region on stream 0 (silent SIGNAL symbols):
        // the all-zero decode cannot satisfy the 0xFF-seeded CRC.
        let pre = 800;
        let header_len = burst.header_symbols * 80;
        for s in &mut burst.streams[0][pre..pre + header_len] {
            *s = CQ15::ZERO;
        }
        match rx.receive_burst(&burst.streams) {
            Err(PhyError::HeaderCrc { expected, got }) => {
                assert_ne!(expected, got, "{mcs}: CRC error must carry the mismatch")
            }
            other => panic!("{mcs}: expected HeaderCrc, got {other:?}"),
        }
        // The receiver must remain usable for the next (clean) burst.
        let clean = tx.transmit_burst_with(mcs, &data).unwrap();
        assert_eq!(rx.receive_burst(&clean.streams).unwrap().payload, data);
    }
}

#[test]
fn burst_params_survive_the_full_length_range() {
    let geom = LinkGeometry::mimo();
    let tx = MimoTransmitter::from_geometry(geom.clone()).unwrap();
    let mut rx = MimoReceiver::from_geometry(geom).unwrap();
    // Length edges: empty, one byte, non-multiple-of-4 splits.
    for len in [0usize, 1, 2, 3, 4, 5, 255, 1021] {
        let data = payload(len as u64 + 31, len);
        let burst = tx.transmit_burst_with(Mcs::Qam64R34, &data).unwrap();
        let received = IdealChannel::new(4).propagate(&burst.streams);
        let result = rx.receive_burst(&received).unwrap();
        assert_eq!(result.payload, data, "length {len}");
    }
}
