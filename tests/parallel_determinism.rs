//! Parallel and serial schedules must be bit-identical.
//!
//! The receiver's two-stage fan-out (per-antenna FFT, then per-stream
//! detect → demap → Viterbi) and the transmitter's channel pipelines
//! run on a crew: the calling thread plus one scoped helper per extra
//! host CPU, each member owning a contiguous run of channels;
//! `with_parallelism(false)` is a crew of one. Every output cell
//! belongs to exactly one member, so thread scheduling can never
//! change a result. This suite pins that
//! guarantee over a seeded sweep of payload sizes, modulations and
//! channel impairments: payloads, diagnostics and raw TX samples all
//! match exactly between `with_parallelism(true)` and `(false)`.

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::phy::{Mcs, MimoReceiver, MimoTransmitter, PhyConfig};

fn payload(seed: u64, len: usize) -> Vec<u8> {
    // Small deterministic xorshift so the sweep is reproducible.
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

/// Runs one burst through both schedules and asserts exact equality of
/// everything observable.
fn assert_bit_identical(cfg: &PhyConfig, data: &[u8], channel_seed: Option<u64>) {
    let tx_par = MimoTransmitter::new(cfg.clone().with_parallelism(true)).unwrap();
    let tx_ser = MimoTransmitter::new(cfg.clone().with_parallelism(false)).unwrap();
    let burst_par = tx_par.transmit_burst(data).unwrap();
    let burst_ser = tx_ser.transmit_burst(data).unwrap();
    assert_eq!(
        burst_par.streams, burst_ser.streams,
        "TX samples diverge between schedules"
    );
    assert_eq!(burst_par.n_symbols, burst_ser.n_symbols);

    let received = match channel_seed {
        None => IdealChannel::new(4).propagate(&burst_par.streams),
        // Same seed → same noise realization for both receivers.
        Some(seed) => AwgnChannel::new(4, 25.0, seed).propagate(&burst_par.streams),
    };

    let mut rx_par = MimoReceiver::new(cfg.clone().with_parallelism(true)).unwrap();
    let mut rx_ser = MimoReceiver::new(cfg.clone().with_parallelism(false)).unwrap();
    let out_par = rx_par.receive_burst(&received).unwrap();
    let out_ser = rx_ser.receive_burst(&received).unwrap();

    assert_eq!(
        out_par.payload, out_ser.payload,
        "decoded payloads diverge between schedules"
    );
    let (dp, ds) = (&out_par.diagnostics, &out_ser.diagnostics);
    assert_eq!(dp.sync.lts_start, ds.sync.lts_start);
    assert_eq!(dp.sync.magnitude, ds.sync.magnitude);
    assert_eq!(dp.n_symbols, ds.n_symbols);
    // Diagnostics are f64 sums accumulated in the same order by the
    // same worker in both schedules: exact equality, not approximate.
    // Every stream's accumulators feed the aggregate now, so the
    // per-stream figures must match bit for bit too.
    assert_eq!(dp.evm_db().to_bits(), ds.evm_db().to_bits(), "EVM diverges");
    assert_eq!(
        dp.mean_phase_rad().to_bits(),
        ds.mean_phase_rad().to_bits(),
        "mean phase diverges"
    );
    assert_eq!(dp.quality.per_stream_evm_db.len(), 4);
    for (k, (p, s)) in dp
        .quality
        .per_stream_evm_db
        .iter()
        .zip(&ds.quality.per_stream_evm_db)
        .enumerate()
    {
        assert_eq!(p.to_bits(), s.to_bits(), "stream {k} EVM diverges");
    }
}

#[test]
fn seeded_burst_sweep_ideal_channel() {
    let cfg = PhyConfig::paper_synthesis();
    for (seed, len) in [(1u64, 16usize), (2, 100), (3, 257), (4, 1024), (5, 4000)] {
        let data = payload(seed, len);
        assert_bit_identical(&cfg, &data, None);
    }
}

#[test]
fn sweep_across_the_mcs_table() {
    for mcs in Mcs::ALL {
        let cfg = PhyConfig::paper_synthesis().with_mcs(mcs);
        let data = payload(77, 160);
        assert_bit_identical(&cfg, &data, None);
    }
}

#[test]
fn noisy_channel_stays_deterministic() {
    // Noise exercises nontrivial pilot corrections, EVM accumulation
    // and soft LLR paths; the two schedules must still agree exactly.
    let cfg = PhyConfig::paper_synthesis();
    for seed in [11u64, 12, 13] {
        let data = payload(seed, 300);
        assert_bit_identical(&cfg, &data, Some(seed));
    }
}

#[test]
fn gigabit_point_matches() {
    let data = payload(99, 2048);
    assert_bit_identical(&PhyConfig::gigabit(), &data, None);
}

#[test]
fn repeated_bursts_reuse_workspace_identically() {
    // The workspace persists across bursts; later bursts (with warm,
    // possibly larger buffers) must decode exactly like a fresh
    // receiver.
    let cfg = PhyConfig::paper_synthesis();
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let mut warm = MimoReceiver::new(cfg.clone()).unwrap();
    // Warm it with a large burst first, then decode a small one.
    let big = payload(21, 4000);
    let small = payload(22, 60);
    let big_burst = tx.transmit_burst(&big).unwrap();
    let small_burst = tx.transmit_burst(&small).unwrap();
    warm.receive_burst(&big_burst.streams).unwrap();
    let from_warm = warm.receive_burst(&small_burst.streams).unwrap();
    let mut fresh = MimoReceiver::new(cfg).unwrap();
    let from_fresh = fresh.receive_burst(&small_burst.streams).unwrap();
    assert_eq!(from_warm.payload, from_fresh.payload);
    assert_eq!(from_warm.payload, small);
    assert_eq!(
        from_warm.diagnostics.evm_db().to_bits(),
        from_fresh.diagnostics.evm_db().to_bits()
    );
}
