//! The batch-of-bursts pipeline must be bit-identical to serial
//! per-burst processing.
//!
//! `BurstPipeline` decodes whole bursts on a scoped crew (the calling
//! thread plus helpers claiming burst indices), each member recycling
//! its own workspace between bursts. Every burst still runs the exact
//! front/back code of the serial receiver, so for any batch size and
//! any worker count the payloads and diagnostics must match
//! `receive_burst` exactly — this suite pins that, including the
//! 1-worker (caller-only) schedule, a crew wider than the batch and
//! per-burst error isolation.

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{BurstPipeline, MimoReceiver, MimoTransmitter, PhyConfig, RxResult};

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

/// Builds a batch of bursts with varied payload sizes; odd indices get
/// AWGN so pilot corrections and soft LLRs do real work.
fn make_batch(cfg: &PhyConfig, n: usize) -> (Vec<Vec<u8>>, Vec<Vec<Vec<CQ15>>>) {
    let tx = MimoTransmitter::new(cfg.clone()).unwrap();
    let mut payloads = Vec::new();
    let mut bursts = Vec::new();
    for i in 0..n {
        let data = payload(i as u64 + 1, 40 + 197 * i);
        let burst = tx.transmit_burst(&data).unwrap();
        let received = if i % 2 == 1 {
            AwgnChannel::new(4, 25.0, i as u64).propagate(&burst.streams)
        } else {
            IdealChannel::new(4).propagate(&burst.streams)
        };
        payloads.push(data);
        bursts.push(received);
    }
    (payloads, bursts)
}

/// Reference: one serial receiver, burst after burst.
fn serial_reference(cfg: &PhyConfig, bursts: &[Vec<Vec<CQ15>>]) -> Vec<RxResult> {
    let mut rx = MimoReceiver::new(cfg.clone().with_parallelism(false)).unwrap();
    bursts
        .iter()
        .map(|b| rx.receive_burst(b).unwrap())
        .collect()
}

fn assert_results_identical(got: &[Result<RxResult, mimo_baseband::phy::PhyError>], want: &[RxResult]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let g = g.as_ref().expect("pipeline burst failed");
        assert_eq!(g.payload, w.payload, "payload diverges for burst {i}");
        assert_eq!(g.diagnostics.sync.lts_start, w.diagnostics.sync.lts_start);
        assert_eq!(g.diagnostics.n_symbols, w.diagnostics.n_symbols);
        assert_eq!(
            g.diagnostics.evm_db().to_bits(),
            w.diagnostics.evm_db().to_bits(),
            "EVM diverges for burst {i}"
        );
        assert_eq!(
            g.diagnostics.mean_phase_rad().to_bits(),
            w.diagnostics.mean_phase_rad().to_bits(),
            "mean phase diverges for burst {i}"
        );
        for (k, (ge, we)) in g
            .diagnostics
            .quality
            .per_stream_evm_db
            .iter()
            .zip(&w.diagnostics.quality.per_stream_evm_db)
            .enumerate()
        {
            assert_eq!(
                ge.to_bits(),
                we.to_bits(),
                "stream {k} EVM diverges for burst {i}"
            );
        }
    }
}

#[test]
fn pipeline_matches_serial_for_any_batch_size() {
    let cfg = PhyConfig::paper_synthesis();
    // 4 workers forces helper threads even on a 1-CPU host; 1 worker
    // leaves the caller alone; 64 makes the crew wider than every
    // batch, the empty one included.
    for workers in [1usize, 4, 64] {
        let mut pipe = BurstPipeline::with_workers(cfg.clone(), workers).unwrap();
        for batch in [0usize, 1, 2, 5] {
            let (_, bursts) = make_batch(&cfg, batch);
            let want = serial_reference(&cfg, &bursts);
            let got = pipe.process_batch(bursts);
            assert_results_identical(&got, &want);
        }
    }
}

#[test]
fn pipeline_recovers_payloads_at_gigabit_point() {
    let cfg = PhyConfig::gigabit();
    let (payloads, bursts) = make_batch(&cfg, 4);
    let mut pipe = BurstPipeline::with_workers(cfg, 3).unwrap();
    let got = pipe.process_batch(bursts);
    for (r, want) in got.iter().zip(&payloads) {
        assert_eq!(&r.as_ref().unwrap().payload, want);
    }
}

#[test]
fn pipeline_reuses_state_across_batches() {
    // Warm workspaces from a large batch must decode a later small
    // batch exactly like a fresh pipeline.
    let cfg = PhyConfig::paper_synthesis();
    let (_, big) = make_batch(&cfg, 3);
    let (_, small) = make_batch(&cfg, 2);
    let mut warm = BurstPipeline::with_workers(cfg.clone(), 2).unwrap();
    warm.process_batch(big);
    let from_warm = warm.process_batch(small.clone());
    let mut fresh = BurstPipeline::with_workers(cfg.clone(), 2).unwrap();
    let from_fresh = fresh.process_batch(small.clone());
    let want = serial_reference(&cfg, &small);
    assert_results_identical(&from_warm, &want);
    assert_results_identical(&from_fresh, &want);
}

#[test]
fn pipeline_isolates_per_burst_failures() {
    let cfg = PhyConfig::paper_synthesis();
    // Both a crew with helpers and the caller-only schedule must
    // contain a bad burst to its own result slot.
    for workers in [1usize, 4] {
        let (payloads, mut bursts) = make_batch(&cfg, 3);
        // Burst 1 becomes undetectable junk; its neighbours must survive.
        bursts[1] = vec![vec![CQ15::from_f64(0.01, -0.01); 4000]; 4];
        let mut pipe = BurstPipeline::with_workers(cfg.clone(), workers).unwrap();
        let got = pipe.process_batch(bursts);
        assert_eq!(got[0].as_ref().unwrap().payload, payloads[0]);
        assert!(got[1].is_err(), "junk burst must fail, not hang or panic");
        assert_eq!(got[2].as_ref().unwrap().payload, payloads[2]);
    }
}

#[test]
fn auto_worker_count_degrades_on_single_cpu() {
    let pipe = BurstPipeline::new(PhyConfig::paper_synthesis()).unwrap();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if threads == 1 {
        assert_eq!(pipe.workers(), 0, "1-CPU host must use the serial schedule");
    } else {
        assert_eq!(pipe.workers(), threads.min(64));
    }
    // Explicit counts: 0 and 1 both mean the caller decodes alone;
    // large counts are capped at 64.
    for (asked, got) in [(0usize, 0usize), (1, 0), (100, 64)] {
        let pipe = BurstPipeline::with_workers(PhyConfig::paper_synthesis(), asked).unwrap();
        assert_eq!(pipe.workers(), got, "with_workers({asked})");
    }
}
