//! Receiver robustness: whatever capture the receivers are handed — a
//! real burst cut short, a burst with samples overwritten, or noise in
//! its place — they return a burst or a typed error and never panic.
//! An intact burst still decodes to its payload.
//!
//! Every capture goes to the batch receiver
//! (`MimoReceiver::receive_burst`) and to a fresh chunk-driven
//! `StreamingReceiver`, in random chunk sizes followed by `flush`. One
//! batch receiver serves a whole case, so intact bursts also decode on
//! a workspace that damaged ones just failed on.

use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, StreamingReceiver};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// What a case does to the transmitted burst before reception.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// The burst as transmitted: both receivers must decode it.
    Intact,
    /// Every stream cut at one random offset.
    Truncate,
    /// A few random samples on random antennas overwritten.
    Overwrite,
    /// Every sample replaced with uniform noise.
    Noise,
}

const DAMAGE: [Damage; 4] = [
    Damage::Intact,
    Damage::Truncate,
    Damage::Overwrite,
    Damage::Noise,
];

fn random_sample(rng: &mut ChaCha8Rng, amp: f64) -> CQ15 {
    CQ15::from_f64(rng.gen_range(-amp..amp), rng.gen_range(-amp..amp))
}

fn damage(streams: &mut [Vec<CQ15>], how: Damage, rng: &mut ChaCha8Rng) {
    let len = streams[0].len();
    match how {
        Damage::Intact => {}
        Damage::Truncate => {
            let cut = rng.gen_range(0..len);
            for s in streams.iter_mut() {
                s.truncate(cut);
            }
        }
        Damage::Overwrite => {
            for _ in 0..rng.gen_range(1..64) {
                let a = rng.gen_range(0..streams.len());
                let i = rng.gen_range(0..len);
                streams[a][i] = random_sample(rng, 1.0);
            }
        }
        Damage::Noise => {
            let amp = rng.gen_range(0.001..1.0);
            for s in streams.iter_mut() {
                for v in s.iter_mut() {
                    *v = random_sample(rng, amp);
                }
            }
        }
    }
}

/// Streams `streams` into a fresh streaming receiver in random chunks
/// of at most `max_chunk` samples, then flushes it; returns the
/// payloads of every burst it emitted. Per-burst errors are allowed:
/// the receiver re-arms and the feed goes on.
fn stream_in_chunks(streams: &[Vec<CQ15>], max_chunk: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<u8>> {
    let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut decoded = Vec::new();
    let len = streams[0].len();
    let mut at = 0;
    while at < len {
        let end = (at + rng.gen_range(1..max_chunk + 1)).min(len);
        let chunks: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
        if let Ok(Some(burst)) = rx.push_samples(&chunks) {
            decoded.push(burst.result.payload);
            while let Ok(Some(more)) = rx.poll() {
                decoded.push(more.result.payload);
            }
        }
        at = end;
    }
    if let Ok(Some(burst)) = rx.flush() {
        decoded.push(burst.result.payload);
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Each case runs every MCS row under every kind of damage, with
    /// its own payloads, damage draws and chunkings.
    #[test]
    fn damaged_captures_never_panic(seed in any::<u64>()) {
        let tx = MimoTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
        let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for mcs in Mcs::ALL {
            for how in DAMAGE {
                let payload: Vec<u8> = (0..rng.gen_range(0..160)).map(|_| rng.gen()).collect();
                let mut streams = tx.transmit_burst_with(mcs, &payload).unwrap().streams;
                damage(&mut streams, how, &mut rng);

                let got = batch.receive_burst(&streams);
                let max_chunk = [7usize, 160, 4096][rng.gen_range(0..3usize)];
                let streamed = stream_in_chunks(&streams, max_chunk, &mut rng);
                if how == Damage::Intact {
                    let got = got.map(|r| (r.payload, r.diagnostics.mcs));
                    prop_assert_eq!(got, Ok((payload.clone(), mcs)), "{} batch", mcs);
                    prop_assert_eq!(streamed, vec![payload], "{} streamed", mcs);
                }
            }
        }
    }
}
