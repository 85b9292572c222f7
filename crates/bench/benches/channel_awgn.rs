//! **AWGN channel: ns per sample of `AwgnChannel::propagate`.**
//!
//! The paper's receiver is tested behind a channel; in the repository
//! benchmark that channel is `AwgnChannel`, serial on the caller's
//! thread, so its cost sits in every `mixed_short_awgn` burst. This
//! bench times `propagate` on one 4 × 4,096-sample burst at 21 dB (the
//! 64-QAM cliff) and at −10 dB (the 16-bit bus saturating), on the
//! CPU tier the channel detects, and prints the median and quartiles
//! of its repeats in ns per sample.
//!
//! Writes no snapshot file.
//!
//! ```text
//! cargo bench -p mimo_bench --bench channel_awgn
//! QUICK_BENCH=1 cargo bench -p mimo_bench --bench channel_awgn   # smoke
//! taskset -c 0 cargo bench -p mimo_bench --bench channel_awgn    # one CPU
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use mimo_channel::{AwgnChannel, ChannelModel};
use mimo_fixed::{Fx, Isa, CQ15};

const STREAMS: usize = 4;
const SAMPLES: usize = 4096;

/// One deterministic 4 × 4,096 burst spread over a third of the bus.
fn burst() -> Vec<Vec<CQ15>> {
    (0..STREAMS)
        .map(|s| {
            (0..SAMPLES)
                .map(|i| {
                    let k = ((s * SAMPLES + i) as u32).wrapping_mul(2_654_435_761);
                    let re = i64::from((k >> 16) as u16 as i16) / 3;
                    let im = i64::from(k as u16 as i16) / 3;
                    CQ15::new(Fx::from_raw(re), Fx::from_raw(im))
                })
                .collect()
        })
        .collect()
}

/// ns per sample of `repeats` timed rounds of `propagate`, each ~`budget`
/// long after one warm-up call; sorted.
fn ns_per_sample(snr_db: f64, tx: &[Vec<CQ15>], budget: Duration, repeats: usize) -> Vec<f64> {
    let mut chan = AwgnChannel::new(STREAMS, snr_db, 4242);
    black_box(chan.propagate(tx));
    let mut rounds: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < budget || calls < 3 {
                black_box(chan.propagate(black_box(tx)));
                calls += 1;
            }
            start.elapsed().as_secs_f64() * 1e9 / (calls as f64 * (STREAMS * SAMPLES) as f64)
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds
}

fn main() {
    let quick = std::env::var_os("QUICK_BENCH").is_some();
    let (budget, repeats) = if quick {
        (Duration::from_millis(20), 5)
    } else {
        (Duration::from_millis(200), 11)
    };
    let tx = burst();
    eprintln!(
        "\n=== AWGN channel: propagate on {STREAMS} × {SAMPLES} samples, tier {} ===",
        Isa::detected().name()
    );
    eprintln!("{:>8}  {:>10}  {:>10}  {:>10}", "SNR dB", "p25 ns/S", "p50 ns/S", "p75 ns/S");
    for snr_db in [21.0, -10.0] {
        let r = ns_per_sample(snr_db, &tx, budget, repeats);
        let at = |q: f64| r[((r.len() - 1) as f64 * q).round() as usize];
        eprintln!(
            "{snr_db:>8.1}  {:>10.2}  {:>10.2}  {:>10.2}",
            at(0.25),
            at(0.5),
            at(0.75)
        );
    }
}
