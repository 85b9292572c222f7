//! **Transport frame codec: CRC-32 per CPU tier, encode and decode.**
//!
//! The paper's converters move samples over a 16-bit bus; the transport
//! carries that bus between link ends as CRC-sealed frames
//! (`mimo_transport::frame`). This bench times the codec on the
//! `stream_framed` geometry of the repository benchmark: one frame of
//! 4 streams × 160 samples, 2,575 B on the wire.
//!
//! * CRC-32 ns/B — the body of each `Isa` tier this CPU runs (the
//!   portable byte loop, the PCLMULQDQ fold from the AVX2 tier up) over
//!   the 2,575 B frame, one table row per tier.
//! * `encode_4x160` — `encode_frame` of one frame, CRC included.
//! * `decode_4x160` — one frame through `FrameDecoder`: push, scan,
//!   CRC check and sample parse.
//!
//! Writes no snapshot file.
//!
//! ```text
//! cargo bench -p mimo_bench --bench frame_codec
//! QUICK_BENCH=1 cargo bench -p mimo_bench --bench frame_codec   # smoke
//! ```

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mimo_fixed::{Fx, Isa, CQ15};
use mimo_transport::{crc32_with, encode_frame, frame_len, DecodeEvent, FrameDecoder};

const STREAMS: usize = 4;
const SAMPLES: usize = 160;

/// One deterministic 4 × 160 chunk spanning the 16-bit bus.
fn chunk() -> Vec<Vec<CQ15>> {
    (0..STREAMS)
        .map(|s| {
            (0..SAMPLES)
                .map(|i| {
                    let v = ((s * SAMPLES + i) as i64 * 7919) % 65536 - 32768;
                    CQ15 {
                        re: Fx::from_raw(v),
                        im: Fx::from_raw(-1 - v),
                    }
                })
                .collect()
        })
        .collect()
}

/// Nanoseconds per byte of `crc32_with(isa, …)` over ~`budget`.
fn crc_ns_per_byte(isa: Isa, bytes: &[u8], budget: Duration) -> f64 {
    let start = Instant::now();
    let mut runs = 0u64;
    while start.elapsed() < budget || runs < 3 {
        black_box(crc32_with(isa, black_box(bytes)));
        runs += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / (runs as f64 * bytes.len() as f64)
}

fn bench(c: &mut Criterion) {
    let chunks = chunk();
    let mut frame = Vec::new();
    encode_frame(0, &chunks, &mut frame).expect("4 × 160 is a valid geometry");
    assert_eq!(frame.len(), frame_len(STREAMS, SAMPLES));

    let budget = if std::env::var_os("QUICK_BENCH").is_some() {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(500)
    };
    eprintln!(
        "\n=== Frame codec: CRC-32 over a {} B frame ({STREAMS} × {SAMPLES} samples) ===",
        frame.len()
    );
    for &isa in Isa::tiers() {
        let ns = crc_ns_per_byte(isa, &frame, budget);
        eprintln!("{:<10}{ns:>8.3} ns/B", isa.name());
    }

    let mut group = c.benchmark_group("frame_codec");
    group.throughput(Throughput::Elements(1));
    let mut out = Vec::with_capacity(frame.len());
    group.bench_function("encode_4x160", |b| {
        b.iter(|| {
            out.clear();
            encode_frame(0, black_box(&chunks), &mut out).expect("valid geometry");
            out.len()
        })
    });
    let mut decoder = FrameDecoder::new();
    group.bench_function("decode_4x160", |b| {
        b.iter(|| {
            decoder.push(black_box(&frame));
            match decoder.next_event() {
                Some(DecodeEvent::Frame(f)) => f.seq,
                other => panic!("expected a frame, got {other:?}"),
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
