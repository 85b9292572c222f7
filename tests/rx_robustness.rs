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
//!
//! Past acquisition every receiver runs one decoder, so they must also
//! agree on what they return: the same error for a burst cut anywhere,
//! and the same outcome for a SIGNAL field spliced in from another
//! burst, which passes its CRC but announces the wrong rate and length.

use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{
    BurstPipeline, LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyError, ReceivedBurst,
    RxResult, StreamingReceiver,
};
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

/// What a receiver made of a capture, compared across receivers:
/// payload, MCS and aggregate EVM bits, or the error.
type Outcome = Result<(Vec<u8>, Mcs, u64), PhyError>;

fn outcome(result: Result<RxResult, PhyError>) -> Outcome {
    result.map(|r| (r.payload, r.diagnostics.mcs, r.diagnostics.evm_db().to_bits()))
}

/// Records one streaming-receiver report in `seen`; true when it was a
/// burst, so more may be buffered.
fn record(got: Result<Option<ReceivedBurst>, PhyError>, seen: &mut Vec<Outcome>) -> bool {
    match got {
        Ok(Some(burst)) => {
            seen.push(outcome(Ok(burst.result)));
            true
        }
        Ok(None) => false,
        Err(e) => {
            seen.push(Err(e));
            false
        }
    }
}

/// Streams `streams` into a fresh streaming receiver in chunks of
/// `chunk` samples, then flushes it; returns every burst and error it
/// reported, in order.
fn stream_outcomes(streams: &[Vec<CQ15>], chunk: usize) -> Vec<Outcome> {
    let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut seen = Vec::new();
    let len = streams[0].len();
    let mut at = 0;
    while at < len {
        let end = (at + chunk).min(len);
        let chunks: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
        if record(rx.push_samples(&chunks), &mut seen) {
            while record(rx.poll(), &mut seen) {}
        }
        at = end;
    }
    record(rx.flush(), &mut seen);
    seen
}

#[test]
fn receivers_agree_on_every_cut_of_a_burst() {
    let tx = MimoTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut compared = 0;
    for mcs in Mcs::ALL {
        let payload: Vec<u8> = (0..48).map(|i| (i * 41 + 7) as u8).collect();
        let burst = tx.transmit_burst_with(mcs, &payload).unwrap().streams;
        for cut in (0..=burst[0].len()).step_by(20) {
            let streams: Vec<Vec<CQ15>> = burst.iter().map(|s| s[..cut].to_vec()).collect();
            let want = outcome(batch.receive_burst(&streams));
            for chunk in [1, 97, cut.max(1)] {
                let got = stream_outcomes(&streams, chunk);
                // A cut with no whole STS plateau is invisible to the
                // streaming search; only the batch path rescues it.
                if got.is_empty() {
                    continue;
                }
                assert_eq!(got, vec![want.clone()], "{mcs}, cut at {cut}, chunks of {chunk}");
                compared += 1;
            }
        }
    }
    assert!(compared > 0);
}

#[test]
fn receivers_agree_on_a_spliced_signal_field() {
    let tx = MimoTransmitter::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut batch = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut pipeline = BurstPipeline::from_geometry(LinkGeometry::mimo()).unwrap();
    let bursts: Vec<_> = [(Mcs::Bpsk12, 40), (Mcs::Qpsk34, 700), (Mcs::Qam64R34, 3000)]
        .into_iter()
        .map(|(mcs, len)| {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            tx.transmit_burst_with(mcs, &payload).unwrap()
        })
        .collect();
    let header = tx.preamble_schedule().data_offset()
        ..tx.preamble_schedule().data_offset()
            + bursts[0].header_symbols * LinkGeometry::mimo().symbol_samples();
    for (d, donor) in bursts.iter().enumerate() {
        for (r, recipient) in bursts.iter().enumerate() {
            if d == r {
                continue;
            }
            let mut streams = recipient.streams.clone();
            streams[0][header.clone()].copy_from_slice(&donor.streams[0][header.clone()]);
            let want = outcome(batch.receive_burst(&streams));
            let pooled = pipeline.process_batch(vec![streams.clone()]).remove(0);
            assert_eq!(outcome(pooled), want, "header of burst {d} on burst {r}: pipeline");
            let streamed = stream_outcomes(&streams, 97);
            assert_eq!(
                streamed.first(),
                Some(&want),
                "header of burst {d} on burst {r}: streaming"
            );
        }
    }
}
