//! Full duplex loopback over the framed sample transport: a
//! [`SampleSender`] paces mixed-rate bursts through a Unix socket as
//! CRC-framed CQ15 chunks, a [`SampleReceiver`] on the far end
//! decodes them — first over a clean wire (bit-exact delivery), then
//! over the same wire with a seeded [`FaultInjector`] dropping,
//! truncating, corrupting, duplicating and stalling frames. The
//! receiver heals around every fault: lost frames become typed
//! sample-gap notifications to the PHY, corruption dies at the CRC,
//! duplicates and late stalls are dropped by sequence tracking, and
//! surviving bursts still decode byte-exact.
//!
//! ```bash
//! cargo run --release --example duplex_loopback
//! ```

use std::time::Duration;

use mimo_baseband::channel::{FaultLottery, FaultSchedule};
use mimo_baseband::phy::{LinkGeometry, Mcs, PhyConfig, StreamingReceiver, StreamingTransmitter};
use mimo_baseband::transport::{
    Carrier, FaultInjector, LinkEvent, MemoryDuplex, SampleReceiver, SampleSender,
    StreamCarrier, SupervisedReceiver, SupervisedSender, SupervisorConfig, TransportError,
};

/// Samples per frame: the pacing quantum (two OFDM symbols' worth).
const CHUNK: usize = 160;

fn build_plan() -> Vec<(Mcs, Vec<u8>)> {
    (0..24)
        .map(|i| {
            let mcs = Mcs::ALL[i % Mcs::ALL.len()];
            let payload: Vec<u8> = (0..60 + (i * 67) % 500).map(|b| (b * 29 + i) as u8).collect();
            (mcs, payload)
        })
        .collect()
}

/// Decoded payloads plus the count of typed PHY errors observed.
type RunOutcome = (Vec<Vec<u8>>, usize);

/// Drives sender and receiver by turns until the queue drains.
fn run<C: Carrier, D: Carrier>(
    tx: &mut SampleSender<C>,
    rx: &mut SampleReceiver<D>,
) -> Result<RunOutcome, Box<dyn std::error::Error>> {
    let mut decoded = Vec::new();
    let mut typed = 0;
    while !tx.is_idle() {
        tx.pump()?;
        while let Some(ev) = rx.poll()? {
            match ev {
                LinkEvent::Burst(b) => decoded.push(b.result.payload),
                LinkEvent::Phy(_) => typed += 1,
                _ => {}
            }
        }
    }
    Ok((decoded, typed))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plan = build_plan();

    // --- Clean wire: a real kernel socket pair. ---
    println!("== Clean duplex over a Unix socket ==\n");
    let (near, far) = std::os::unix::net::UnixStream::pair()?;
    let mut tx = SampleSender::new(
        StreamingTransmitter::new(PhyConfig::paper_synthesis())?,
        StreamCarrier::unix(near)?,
        CHUNK,
    )?;
    let mut rx = SampleReceiver::new(
        StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
        StreamCarrier::unix(far)?,
    );
    for (mcs, payload) in &plan {
        tx.transmitter_mut().enqueue_with(*mcs, payload)?;
    }
    let (mut decoded, _) = run(&mut tx, &mut rx)?;
    if let Some(LinkEvent::Burst(b)) = rx.finish() {
        decoded.push(b.result.payload);
    }
    let stats = rx.stats();
    println!(
        "{} bursts in, {} decoded · {} frames · {} samples/antenna · 0 faults expected: crc={} gaps={}",
        plan.len(),
        decoded.len(),
        stats.frames_ok,
        stats.samples_ok,
        stats.crc_errors,
        stats.gap_events,
    );
    assert_eq!(decoded.len(), plan.len(), "clean wire must deliver every burst");
    for (i, (got, (_, want))) in decoded.iter().zip(&plan).enumerate() {
        assert_eq!(got, want, "burst {i} must round-trip byte-exact");
    }
    println!("every payload byte-exact through framing + socket + decode\n");

    // --- Hostile wire: seeded fault injection on the send side. ---
    println!("== Faulted duplex (seeded, reproducible) ==\n");
    let schedule = FaultSchedule::uniform(0.012);
    let (wire_a, wire_b) = MemoryDuplex::pair(1 << 22);
    let mut tx = SampleSender::new(
        StreamingTransmitter::new(PhyConfig::paper_synthesis())?,
        FaultInjector::new(wire_a, FaultLottery::new(schedule, 0xD1CE)),
        CHUNK,
    )?;
    let mut rx = SampleReceiver::new(
        StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
        wire_b,
    );
    for (mcs, payload) in &plan {
        tx.transmitter_mut().enqueue_with(*mcs, payload)?;
    }
    let (mut decoded, mut typed) = run(&mut tx, &mut rx)?;
    let mut injector = tx.into_carrier();
    injector.flush_held()?; // stalled frames arrive late, not never
    while let Some(ev) = rx.poll()? {
        match ev {
            LinkEvent::Burst(b) => decoded.push(b.result.payload),
            LinkEvent::Phy(_) => typed += 1,
            _ => {}
        }
    }
    match rx.finish() {
        Some(LinkEvent::Burst(b)) => decoded.push(b.result.payload),
        Some(LinkEvent::Phy(_)) => typed += 1,
        _ => {}
    }

    let counts = injector.counts();
    let stats = rx.stats();
    println!(
        "injected: {} drops, {} truncations, {} corruptions, {} duplicates, {} stalls ({} clean frames)",
        counts.dropped, counts.truncated, counts.corrupted, counts.duplicated, counts.stalled,
        counts.clean,
    );
    println!(
        "receiver ledger: {} crc rejects · {} resync bytes · {} gap episodes ({} frames lost) · {} stale dropped",
        stats.crc_errors, stats.resync_bytes, stats.gap_events, stats.missing_frames,
        stats.stale_frames,
    );
    println!(
        "goodput: {}/{} bursts decoded · {} bursts died to typed PHY errors (re-armed each time)",
        decoded.len(),
        plan.len(),
        typed,
    );
    for got in &decoded {
        assert!(
            plan.iter().any(|(_, want)| want == got),
            "a decoded payload must match something that was sent"
        );
    }
    assert!(counts.total_faults() > 0, "the schedule should have fired");
    println!("\nno panic, no deadlock: every fault recovered or surfaced as a typed event");

    // --- Supervised, flow-controlled wire: the full robustness stack. ---
    println!("\n== Supervised flow-controlled duplex (faulted, logical clock) ==\n");
    let (wire_a, wire_b) = MemoryDuplex::pair(1 << 22);
    let link_tx = SampleSender::new(
        StreamingTransmitter::new(PhyConfig::paper_synthesis())?.with_queue_capacity(4),
        FaultInjector::new(
            wire_a,
            FaultLottery::new(FaultSchedule::uniform(0.01), 0x5AFE),
        ),
        CHUNK,
    )?
    .with_flow_control(2048)?;
    let link_rx = SampleReceiver::new(
        StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
        wire_b,
    )
    .with_flow_control(2048, 512);
    // The in-memory wire cannot be re-dialled; the supervisors still
    // provide heartbeats, the watchdog and the HELLO/RESET handshake.
    let mut tx = SupervisedSender::new(
        link_tx,
        SupervisorConfig::default(),
        Box::new(|| Err(TransportError::Closed)),
    )?;
    let mut rx = SupervisedReceiver::new(
        link_rx,
        SupervisorConfig::default(),
        Box::new(|| Ok(None)),
    );
    let mut decoded = 0usize;
    let mut now = Duration::ZERO;
    let tick = Duration::from_millis(1);
    let mut queue_full = 0u64;
    for (mcs, payload) in &plan {
        loop {
            match tx.link_mut().transmitter_mut().enqueue_with(*mcs, payload) {
                Ok(()) => break,
                Err(mimo_baseband::phy::PhyError::QueueFull { .. }) => {
                    queue_full += 1;
                    now += tick;
                    tx.step(now)?;
                    while let Some(ev) = rx.step(now)? {
                        if let LinkEvent::Burst(_) = ev {
                            decoded += 1;
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    for _ in 0..200_000 {
        now += tick;
        tx.step(now)?;
        while let Some(ev) = rx.step(now)? {
            if let LinkEvent::Burst(_) = ev {
                decoded += 1;
            }
        }
        if tx.link().is_idle() {
            break;
        }
    }
    let s_tx = tx.link().stats();
    let s_rx = rx.link().stats();
    println!(
        "extended ledger: {} credit stalls · {} credits granted · {} heartbeats sent (tx) / {} received (rx) · {} hellos · {} queue-full rejections · max queue depth {}/4",
        s_tx.credit_stalls,
        s_rx.credits_sent,
        tx.stats().heartbeats_sent + rx.stats().heartbeats_sent,
        s_rx.heartbeats_rcvd,
        s_rx.hellos,
        queue_full,
        tx.link().transmitter().max_queue_depth(),
    );
    println!(
        "supervision: {} watchdog trips · {} reconnect attempts · {} reconnects · goodput {}/{} bursts",
        tx.stats().watchdog_trips + rx.stats().watchdog_trips,
        tx.stats().reconnect_attempts + rx.stats().reconnect_attempts,
        tx.stats().reconnects + rx.stats().reconnects,
        decoded,
        plan.len(),
    );
    assert!(
        tx.link().transmitter().max_queue_depth() <= 4,
        "bounded queue must hold its bound"
    );
    assert!(tx.link().is_established(), "handshake must have completed");
    println!("\nmemory bounded end-to-end: queue ≤ 4 bursts, ≤ 2048 samples in flight");
    Ok(())
}
