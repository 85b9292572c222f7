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
//!
//! The suite also pins endpoint state: every receiver decodes a burst
//! on a workspace warmed by earlier good and failed bursts exactly as a
//! fresh one does, and threads sharing one transmitter get the samples
//! of serial calls.

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{
    BurstPipeline, BurstStreams, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, PhyError,
    RxResult, StreamingReceiver,
};

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

/// Asserts that two decodes of the same burst agree on everything but
/// the sync position (a streaming receiver reports absolute stream
/// indices): payload, MCS, symbol count and every quality figure, bit
/// for bit.
fn assert_same_decode(warm: &RxResult, fresh: &RxResult, what: &str) {
    assert_eq!(warm.payload, fresh.payload, "{what}: payload");
    let (w, f) = (&warm.diagnostics, &fresh.diagnostics);
    assert_eq!(w.mcs, f.mcs, "{what}: MCS");
    assert_eq!(w.n_symbols, f.n_symbols, "{what}: symbol count");
    assert_eq!(w.sync.magnitude, f.sync.magnitude, "{what}: sync magnitude");
    let (wq, fq) = (&w.quality, &f.quality);
    assert_eq!(wq.evm_db.to_bits(), fq.evm_db.to_bits(), "{what}: EVM");
    assert_eq!(
        wq.mean_phase_rad.to_bits(),
        fq.mean_phase_rad.to_bits(),
        "{what}: mean phase"
    );
    let bits = |q: &[f64]| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&wq.per_stream_evm_db),
        bits(&fq.per_stream_evm_db),
        "{what}: per-stream EVM"
    );
}

/// Feeds `streams` to a streaming receiver in 160-sample chunks, then
/// flushes; returns every burst and error it reports, in order.
fn stream_all(
    rx: &mut StreamingReceiver,
    streams: &[Vec<CQ15>],
) -> Vec<Result<RxResult, PhyError>> {
    let mut out = Vec::new();
    let len = streams[0].len();
    let mut at = 0;
    loop {
        let end = (at + 160).min(len);
        let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
        let mut next = if at < len {
            rx.push_samples(&views)
        } else {
            rx.flush()
        };
        loop {
            match next {
                Ok(Some(burst)) => out.push(Ok(burst.result)),
                Ok(None) => break,
                Err(e) => out.push(Err(e)),
            }
            next = rx.poll();
        }
        if at == len {
            return out;
        }
        at = end;
    }
}

#[test]
fn repeated_bursts_reuse_workspace_identically() {
    // Every receiver keeps its workspace across bursts; a later burst,
    // decoded on buffers warmed by a bigger burst and by two failed
    // ones, must decode exactly like a fresh receiver.
    let cfg = PhyConfig::paper_synthesis();
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let big = payload(21, 4000);
    let small = payload(22, 60);
    let big_burst = tx.transmit_burst(&big).unwrap();
    let small_burst = tx.transmit_burst(&small).unwrap();

    // Two failed bursts: one cut off right after the SIGNAL field, one
    // whose SIGNAL field is silenced (the CRC's 0xFF init rejects the
    // all-zero decode).
    let failed = tx.transmit_burst(&payload(23, 500)).unwrap();
    let signal_end = tx.preamble_schedule().data_offset()
        + failed.header_symbols * cfg.geometry().symbol_samples();
    let truncated: Vec<Vec<CQ15>> = failed
        .streams
        .iter()
        .map(|s| s[..signal_end].to_vec())
        .collect();
    let mut silenced = failed.streams.clone();
    let signal_start = tx.preamble_schedule().data_offset();
    for s in &mut silenced[0][signal_start..signal_end] {
        *s = CQ15::ZERO;
    }
    let warmups = [&big_burst.streams, &truncated, &silenced];
    let expect_warmup = |i: usize, r: &Result<RxResult, PhyError>, what: &str| match (i, r) {
        (0, Ok(r)) => assert_eq!(r.payload, big, "{what}: warm-up burst"),
        (1, Err(PhyError::TruncatedBurst { .. })) | (2, Err(PhyError::HeaderCrc { .. })) => {}
        _ => panic!("{what}: warm-up {i} gave {:?}", r.as_ref().map(|r| r.payload.len())),
    };

    // Whole-capture receiver.
    let mut warm = MimoReceiver::new(cfg.clone()).unwrap();
    for (i, streams) in warmups.iter().enumerate() {
        expect_warmup(i, &warm.receive_burst(streams), "MimoReceiver");
    }
    let from_warm = warm.receive_burst(&small_burst.streams).unwrap();
    let from_fresh = MimoReceiver::new(cfg.clone())
        .unwrap()
        .receive_burst(&small_burst.streams)
        .unwrap();
    assert_eq!(from_warm.payload, small);
    assert_eq!(from_warm.diagnostics.sync.lts_start, from_fresh.diagnostics.sync.lts_start);
    assert_same_decode(&from_warm, &from_fresh, "MimoReceiver");

    // Batch pipeline, one member: one workspace serves every burst of
    // both batches.
    let mut warm = BurstPipeline::with_workers(cfg.clone(), 1).unwrap();
    let batch: Vec<BurstStreams> = warmups.iter().map(|&s| s.clone()).collect();
    for (i, r) in warm.process_batch(batch).iter().enumerate() {
        expect_warmup(i, r, "BurstPipeline");
    }
    let from_warm = warm.process_batch(vec![small_burst.streams.clone()]);
    let from_pipe_fresh = BurstPipeline::with_workers(cfg.clone(), 1)
        .unwrap()
        .process_batch(vec![small_burst.streams.clone()]);
    let (from_warm, from_pipe_fresh) = (
        from_warm[0].as_ref().unwrap(),
        from_pipe_fresh[0].as_ref().unwrap(),
    );
    assert_same_decode(from_warm, from_pipe_fresh, "BurstPipeline");
    assert_same_decode(from_warm, &from_fresh, "BurstPipeline vs receive_burst");

    // Streaming receiver: the same sequence as one continuous stream
    // per warm-up, then the good burst.
    let mut warm = StreamingReceiver::new(cfg.clone()).unwrap();
    for (i, streams) in warmups.iter().enumerate() {
        let got = stream_all(&mut warm, streams);
        assert_eq!(got.len(), 1, "StreamingReceiver: warm-up {i} reports once");
        expect_warmup(i, &got[0], "StreamingReceiver");
    }
    let from_warm = stream_all(&mut warm, &small_burst.streams);
    let from_stream_fresh =
        stream_all(&mut StreamingReceiver::new(cfg).unwrap(), &small_burst.streams);
    assert_eq!((from_warm.len(), from_stream_fresh.len()), (1, 1));
    let (from_warm, from_stream_fresh) = (
        from_warm[0].as_ref().unwrap(),
        from_stream_fresh[0].as_ref().unwrap(),
    );
    assert_same_decode(from_warm, from_stream_fresh, "StreamingReceiver");
    assert_same_decode(from_warm, &from_fresh, "StreamingReceiver vs receive_burst");
}

#[test]
fn shared_transmitter_is_bit_identical_across_threads() {
    // The transmitter keeps no scratch between bursts, so two threads
    // may share one `&MimoTransmitter`. Run every MCS on both threads
    // at once, in opposite orders so different rates overlap, and
    // compare with serial calls.
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    let data: Vec<Vec<u8>> = (0..Mcs::ALL.len())
        .map(|i| payload(40 + i as u64, 300 + 97 * i))
        .collect();
    let burst = |i: usize| tx.transmit_burst_with(Mcs::ALL[i], &data[i]).unwrap().streams;
    let serial: Vec<_> = (0..Mcs::ALL.len()).map(burst).collect();
    let (forward, backward) = std::thread::scope(|scope| {
        let forward = scope.spawn(|| (0..Mcs::ALL.len()).map(burst).collect::<Vec<_>>());
        let backward = scope.spawn(|| (0..Mcs::ALL.len()).rev().map(burst).collect::<Vec<_>>());
        (forward.join().unwrap(), backward.join().unwrap())
    });
    assert_eq!(forward, serial, "forward thread diverges from serial calls");
    let backward: Vec<_> = backward.into_iter().rev().collect();
    assert_eq!(backward, serial, "backward thread diverges from serial calls");
}
