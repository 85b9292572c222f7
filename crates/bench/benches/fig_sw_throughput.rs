//! **Experiment F9 — software-model burst throughput.**
//!
//! End-to-end `transmit_burst → IdealChannel → receive_burst` rate of
//! the software model itself (bursts/sec and payload Mbit/s), at the
//! paper's two named operating points, in three schedules: serial,
//! parallel (4 scoped threads, one per spatial channel) and the
//! batch-of-bursts `BurstPipeline` (a scoped crew, the calling thread
//! included, decoding whole bursts side by side; on a 1-CPU host the
//! caller decodes alone, so its row then tracks the serial one).
//!
//! This is the trajectory metric for the ROADMAP's "as fast as the
//! hardware allows" goal: the workspace + parallelism refactor is
//! judged by this number. Alongside the criterion benches, the run
//! writes a `BENCH_sw_throughput.json` snapshot at the repo root so
//! successive PRs can track it.
//!
//! With the rate-agile API the snapshot also carries the rate-grid
//! extremes (`mcs_bpsk_r12`, `mcs_qam64_r34`): bursts transmitted via
//! `transmit_burst_with` and decoded through the SIGNAL-field
//! auto-rate path, so header parse + per-burst datapath selection are
//! inside the measured loop.
//!
//! The `streaming` rows decode through
//! `StreamingReceiver::push_samples` in 4096-sample chunks — tracking
//! the overhead of chunked ingest (history buffering, online sync
//! tracking, per-symbol scheduling) over the whole-capture batch path,
//! which shares the same per-symbol core.
//!
//! Note: the parallel-over-serial ratio is only meaningful on a
//! multi-core host (the snapshot records `host_threads`); on a 1-CPU
//! container both modes measure the same work.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mimo_channel::{ChannelModel, IdealChannel};
use mimo_core::{
    BurstPipeline, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, StreamingReceiver,
};

/// Payload for each burst: 2 KiB per stream keeps the Viterbi and FFT
/// stages firmly in steady state.
const PAYLOAD_BYTES: usize = 8192;

fn payload() -> Vec<u8> {
    (0..PAYLOAD_BYTES).map(|i| (i * 131 + 7) as u8).collect()
}

/// One timed measurement: bursts/sec over roughly `budget` of wall
/// time (at least 3 bursts). With `mcs`, bursts go through the
/// rate-agile path (`transmit_burst_with` + SIGNAL auto-rate decode);
/// without, through the default-rate wrappers.
fn measure_bursts_per_sec(cfg: &PhyConfig, mcs: Option<Mcs>, budget: Duration) -> f64 {
    let tx = MimoTransmitter::new(cfg.clone()).expect("config");
    let mut rx = MimoReceiver::new(cfg.clone()).expect("config");
    let mut chan = IdealChannel::new(4);
    let data = payload();
    let send = |tx: &MimoTransmitter| match mcs {
        Some(mcs) => tx.transmit_burst_with(mcs, &data).expect("tx"),
        None => tx.transmit_burst(&data).expect("tx"),
    };
    // Warm the workspaces (first burst grows every buffer).
    let burst = send(&tx);
    let received = chan.propagate(&burst.streams);
    let decoded = rx.receive_burst(&received).expect("rx");
    assert_eq!(decoded.payload, data, "loopback must be lossless");

    let start = Instant::now();
    let mut bursts = 0u64;
    while start.elapsed() < budget || bursts < 3 {
        let burst = send(&tx);
        let received = chan.propagate(&burst.streams);
        let decoded = rx.receive_burst(&received).expect("rx");
        criterion::black_box(decoded.payload.len());
        bursts += 1;
    }
    bursts as f64 / start.elapsed().as_secs_f64()
}

/// Bursts per `process_batch` call in pipeline mode.
const PIPELINE_BATCH: usize = 8;

/// Batched pipeline measurement: bursts/sec including transmit and
/// channel (like [`measure_bursts_per_sec`]), decoding through a
/// [`BurstPipeline`] with the auto worker count.
fn measure_pipeline_bursts_per_sec(cfg: &PhyConfig, budget: Duration) -> f64 {
    let tx = MimoTransmitter::new(cfg.clone()).expect("config");
    let mut pipe = BurstPipeline::new(cfg.clone()).expect("config");
    let mut chan = IdealChannel::new(4);
    let data = payload();
    let make_batch = |chan: &mut IdealChannel| -> Vec<_> {
        (0..PIPELINE_BATCH)
            .map(|_| {
                let burst = tx.transmit_burst(&data).expect("tx");
                chan.propagate(&burst.streams)
            })
            .collect()
    };
    // Warm the crew's workspaces and pin correctness.
    for result in pipe.process_batch(make_batch(&mut chan)) {
        assert_eq!(result.expect("rx").payload, data, "loopback must be lossless");
    }

    let start = Instant::now();
    let mut bursts = 0u64;
    while start.elapsed() < budget || bursts < 3 {
        let batch = make_batch(&mut chan);
        for result in pipe.process_batch(batch) {
            criterion::black_box(result.expect("rx").payload.len());
        }
        bursts += PIPELINE_BATCH as u64;
    }
    bursts as f64 / start.elapsed().as_secs_f64()
}

/// Chunk size for the streaming-ingest row: a DMA-page-ish 4096
/// samples per antenna per push.
const STREAM_CHUNK: usize = 4096;

/// Streaming-ingest measurement: the same tx + channel loop, decoding
/// through `StreamingReceiver::push_samples` in `STREAM_CHUNK`-sample
/// chunks — the streaming-vs-batch overhead tracker.
fn measure_streaming_bursts_per_sec(cfg: &PhyConfig, budget: Duration) -> f64 {
    let tx = MimoTransmitter::new(cfg.clone()).expect("config");
    let mut rx = StreamingReceiver::from_geometry(cfg.geometry().clone()).expect("config");
    let mut chan = IdealChannel::new(4);
    let data = payload();
    let decode = |rx: &mut StreamingReceiver, chan: &mut IdealChannel| -> usize {
        let burst = tx.transmit_burst(&data).expect("tx");
        let received = chan.propagate(&burst.streams);
        let len = received[0].len();
        let mut at = 0;
        let mut out = None;
        while at < len {
            let end = (at + STREAM_CHUNK).min(len);
            let views: Vec<&[_]> = received.iter().map(|s| &s[at..end]).collect();
            if let Some(b) = rx.push_samples(&views).expect("rx") {
                out = Some(b);
            }
            at = end;
        }
        out.expect("burst completes within its capture").result.payload.len()
    };
    // Warm the workspaces and pin correctness.
    assert_eq!(decode(&mut rx, &mut chan), data.len(), "loopback must be lossless");
    let start = Instant::now();
    let mut bursts = 0u64;
    while start.elapsed() < budget || bursts < 3 {
        criterion::black_box(decode(&mut rx, &mut chan));
        bursts += 1;
    }
    bursts as f64 / start.elapsed().as_secs_f64()
}

struct Point {
    name: &'static str,
    cfg: PhyConfig,
}

fn operating_points() -> Vec<Point> {
    vec![
        Point {
            name: "paper_synthesis",
            cfg: PhyConfig::paper_synthesis(),
        },
        Point {
            name: "gigabit",
            cfg: PhyConfig::gigabit(),
        },
    ]
}

/// Writes the JSON snapshot consumed by future PRs' trajectory checks.
fn write_snapshot(rows: &[(String, String, f64)]) {
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut entries = Vec::new();
    for (point, mode, bps) in rows {
        let mbps = bps * (PAYLOAD_BYTES * 8) as f64 / 1e6;
        entries.push(format!(
            "    {{\"operating_point\": \"{point}\", \"mode\": \"{mode}\", \
             \"bursts_per_sec\": {bps:.3}, \"payload_mbit_per_sec\": {mbps:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fig_sw_throughput\",\n  \"payload_bytes\": {PAYLOAD_BYTES},\n  \
         \"host_threads\": {host_threads},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sw_throughput.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("snapshot written to {path}");
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var_os("QUICK_BENCH").is_some();
    let budget = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(3)
    };

    // Direct measurement for the JSON snapshot (and the serial vs
    // parallel comparison printed below).
    let mut rows = Vec::new();
    eprintln!("\n=== F9: software burst throughput ({PAYLOAD_BYTES}-byte payloads) ===");
    for point in operating_points() {
        let serial =
            measure_bursts_per_sec(&point.cfg.clone().with_parallelism(false), None, budget);
        let parallel =
            measure_bursts_per_sec(&point.cfg.clone().with_parallelism(true), None, budget);
        let pipeline = measure_pipeline_bursts_per_sec(&point.cfg, budget);
        let streaming = measure_streaming_bursts_per_sec(&point.cfg, budget);
        eprintln!(
            "{:<16} serial {serial:>8.2} bursts/s | parallel {parallel:>8.2} bursts/s (x{:.2}) | \
             pipeline {pipeline:>8.2} bursts/s (x{:.2}) | streaming {streaming:>8.2} bursts/s (x{:.2})",
            point.name,
            parallel / serial,
            pipeline / serial,
            streaming / serial
        );
        rows.push((point.name.to_string(), "serial".to_string(), serial));
        rows.push((point.name.to_string(), "parallel".to_string(), parallel));
        rows.push((point.name.to_string(), "pipeline".to_string(), pipeline));
        rows.push((point.name.to_string(), "streaming".to_string(), streaming));
    }

    // Rate-grid extremes through the auto-rate hot path: the slowest
    // (most symbols) and fastest (fewest symbols) rows the SIGNAL
    // field can select.
    let base = PhyConfig::paper_synthesis();
    for (name, mcs) in [
        ("mcs_bpsk_r12", Mcs::Bpsk12),
        ("mcs_qam64_r34", Mcs::Qam64R34),
    ] {
        let serial =
            measure_bursts_per_sec(&base.clone().with_parallelism(false), Some(mcs), budget);
        let parallel =
            measure_bursts_per_sec(&base.clone().with_parallelism(true), Some(mcs), budget);
        eprintln!(
            "{name:<16} serial {serial:>8.2} bursts/s | parallel {parallel:>8.2} bursts/s (x{:.2})",
            parallel / serial
        );
        rows.push((name.to_string(), "serial".to_string(), serial));
        rows.push((name.to_string(), "parallel".to_string(), parallel));
    }
    write_snapshot(&rows);

    // Criterion wrappers: per-burst latency in both modes.
    let mut group = c.benchmark_group("fig9_sw_throughput");
    group.throughput(Throughput::Bytes(PAYLOAD_BYTES as u64));
    for point in operating_points() {
        for (mode, on) in [("serial", false), ("parallel", true)] {
            let cfg = point.cfg.clone().with_parallelism(on);
            let tx = MimoTransmitter::new(cfg.clone()).expect("config");
            let mut rx = MimoReceiver::new(cfg).expect("config");
            let mut chan = IdealChannel::new(4);
            let data = payload();
            group.bench_function(&format!("{}/{mode}", point.name), |b| {
                b.iter(|| {
                    let burst = tx.transmit_burst(&data).expect("tx");
                    let received = chan.propagate(&burst.streams);
                    rx.receive_burst(&received).expect("rx").payload.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
