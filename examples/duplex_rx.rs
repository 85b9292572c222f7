//! Receive half of the two-process duplex soak: listens on TCP,
//! decodes the shared burst plan through a supervised, flow-controlled
//! link, and prints a timing-independent `LEDGER` line for the CI
//! harness to diff across runs.
//!
//! In `--mode clean` the decoded stream must be **bit-identical** to
//! feeding the same paced chunks straight into `StreamingReceiver`
//! in-process (the transport-free reference), and the peer's BYE
//! position must equal the samples consumed. In `--mode fault` the
//! run asserts invariants instead: every decoded payload is one the
//! plan actually contains, and the link survives whatever the fault
//! schedule and any sender reconnects throw at it.
//!
//! Once the first [`PROGRESS_BURSTS`] bursts are decoded it prints one
//! `PROGRESS bursts=…` line, so a harness can act on the run's progress
//! (the soak's fault leg kills the receiver there) rather than on a
//! clock. Runs of fewer bursts never print it.
//!
//! Exits 0 on success, 1 on verification failure, 2 on deadline.

#[path = "common/duplex_plan.rs"]
mod duplex_plan;

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use duplex_plan::{arg_value, build_plan, payload_hash, CHUNK, QUANTUM, WINDOW};
use mimo_baseband::phy::{
    LinkGeometry, PhyConfig, ReceivedBurst, StreamingReceiver, StreamingTransmitter,
};
use mimo_baseband::transport::{
    LinkEvent, SampleReceiver, StreamCarrier, SupervisedReceiver, SupervisorConfig,
};

/// Decoded bursts after which the receiver prints its `PROGRESS` line.
const PROGRESS_BURSTS: usize = 200;

/// Decodes the plan by direct `push_samples` of identically paced
/// chunks — the transport-free reference for clean-mode bit-identity.
fn direct_reference(bursts: usize) -> Vec<ReceivedBurst> {
    let mut tx = StreamingTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
    for (mcs, payload) in build_plan(bursts) {
        tx.enqueue_with(mcs, &payload).unwrap();
    }
    let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
    let mut out = Vec::new();
    let mut buf = Vec::new();
    while tx.pull_into(&mut buf, CHUNK).unwrap() > 0 {
        if let Some(b) = rx.push_samples(&buf).unwrap() {
            out.push(b);
            while let Some(more) = rx.poll().unwrap() {
                out.push(more);
            }
        }
    }
    if let Some(b) = rx.flush().unwrap() {
        out.push(b);
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:5555".into());
    let bursts: usize = arg_value(&args, "--bursts").map_or(24, |v| v.parse().unwrap());
    let fault_mode = arg_value(&args, "--mode").as_deref() == Some("fault");
    let deadline = Duration::from_secs(
        arg_value(&args, "--deadline-secs").map_or(60, |v| v.parse().unwrap()),
    );

    let listener = TcpListener::bind(&addr)?;
    listener.set_nonblocking(true)?;
    let epoch = Instant::now();
    // Block (politely) for the first connection; later ones arrive
    // through the supervisor's accept closure after an outage.
    let first: TcpStream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if epoch.elapsed() > deadline {
                    eprintln!("duplex_rx: no sender connected before the deadline");
                    std::process::exit(2);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e.into()),
        }
    };
    let link = SampleReceiver::new(
        StreamingReceiver::from_geometry(LinkGeometry::mimo())?,
        StreamCarrier::tcp(first)?,
    )
    .with_flow_control(WINDOW, QUANTUM);
    let accept = Box::new(move || match listener.accept() {
        Ok((stream, _)) => Ok(Some(StreamCarrier::tcp(stream)?)),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e.into()),
    });
    let mut rx = SupervisedReceiver::new(link, SupervisorConfig::default(), accept);

    let plan = build_plan(bursts);
    let mut decoded: Vec<ReceivedBurst> = Vec::new();
    let mut last_event = Duration::ZERO;
    let mut down_since: Option<Duration> = None;
    loop {
        let now = epoch.elapsed();
        if now > deadline {
            eprintln!("duplex_rx: deadline exceeded");
            std::process::exit(2);
        }
        match rx.step(now)? {
            Some(LinkEvent::Burst(b)) => {
                if fault_mode {
                    assert!(
                        plan.iter().any(|(_, p)| *p == b.result.payload),
                        "decoded a payload the plan never contained"
                    );
                }
                decoded.push(b);
                if decoded.len() == PROGRESS_BURSTS {
                    println!("PROGRESS bursts={}", decoded.len());
                }
                last_event = now;
            }
            Some(_) => last_event = now,
            None => {
                // Exit when the peer said BYE and the line has gone
                // quiet, or (fault mode) when the sender is gone for
                // good after its own clean exit got eaten.
                let quiet = now.saturating_sub(last_event);
                let bye = rx.link().peer_final_position().is_some();
                if bye && quiet > Duration::from_millis(300) {
                    break;
                }
                down_since = if rx.is_up() { None } else { Some(down_since.unwrap_or(now)) };
                if let Some(t) = down_since {
                    if fault_mode && now.saturating_sub(t) > Duration::from_secs(5) {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    let s = rx.link().stats();
    let hash = payload_hash(decoded.iter().map(|b| b.result.payload.as_slice()));
    // Canonical, timing-independent ledger: no heartbeat/credit/stall
    // counters here — those legitimately vary run to run.
    println!(
        "LEDGER bursts={} frames_ok={} samples_ok={} crc_errors={} hash={hash:016x}",
        s.bursts, s.frames_ok, s.samples_ok, s.crc_errors,
    );
    println!(
        "RX-LIVENESS control={} hellos={} heartbeats={} credits_sent={} gaps={} stale={} reconnect_attempts={} reconnects={}",
        s.control_frames,
        s.hellos,
        s.heartbeats_rcvd,
        s.credits_sent,
        s.gap_events,
        s.stale_frames,
        rx.stats().reconnect_attempts,
        rx.stats().reconnects,
    );

    if fault_mode {
        // Membership was asserted per burst; nothing further must hold.
        return Ok(());
    }
    // Clean mode: bit-identity against the in-process reference.
    let want = direct_reference(bursts);
    if decoded.len() != want.len() {
        eprintln!(
            "duplex_rx: decoded {} bursts, reference decodes {}",
            decoded.len(),
            want.len()
        );
        std::process::exit(1);
    }
    for (i, (g, w)) in decoded.iter().zip(&want).enumerate() {
        if g.result.payload != w.result.payload
            || g.result.diagnostics.mcs != w.result.diagnostics.mcs
            || g.burst_end != w.burst_end
        {
            eprintln!("duplex_rx: burst {i} differs from the direct-push reference");
            std::process::exit(1);
        }
    }
    let bye = rx.link().peer_final_position().unwrap_or(0);
    if s.samples_ok != bye {
        eprintln!(
            "duplex_rx: consumed {} samples but the peer sent {}",
            s.samples_ok, bye
        );
        std::process::exit(1);
    }
    if s.crc_errors + s.gap_events + s.stale_frames != 0 {
        eprintln!("duplex_rx: clean run recorded link faults");
        std::process::exit(1);
    }
    Ok(())
}
