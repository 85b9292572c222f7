//! Transmit half of the two-process duplex soak: connects to
//! `duplex_rx` over TCP, streams the shared burst plan through a
//! supervised, flow-controlled, bounded-queue link — optionally
//! through a seeded fault injector — and survives the receiver being
//! killed and restarted mid-run via watchdog + reconnect.
//!
//! ```bash
//! cargo run --release --example duplex_rx -- 127.0.0.1:5555 &
//! cargo run --release --example duplex_tx -- 127.0.0.1:5555
//! ```
//!
//! Flags: `--bursts N` (default 24), `--fault-rate P` (per-frame
//! probability, default 0 = clean), `--seed N`, `--deadline-secs N`
//! (exit 2 on overrun, default 60), `--expect-reconnect` (exit 1
//! unless the supervisor healed at least one outage).

#[path = "common/duplex_plan.rs"]
mod duplex_plan;

use std::cell::Cell;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use duplex_plan::{arg_value, build_plan, CHUNK, QUEUE_CAP, WINDOW};
use mimo_baseband::channel::{FaultLottery, FaultSchedule};
use mimo_baseband::phy::{PhyConfig, PhyError, StreamingTransmitter};
use mimo_baseband::transport::{
    ControlMsg, FaultInjector, SampleSender, StreamCarrier, SupervisedSender,
    SupervisorConfig, TransportError,
};

type Wire = FaultInjector<StreamCarrier<TcpStream>>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:5555".into());
    let bursts: usize = arg_value(&args, "--bursts").map_or(24, |v| v.parse().unwrap());
    let fault_rate: f64 = arg_value(&args, "--fault-rate").map_or(0.0, |v| v.parse().unwrap());
    let seed: u64 = arg_value(&args, "--seed").map_or(0x50AC, |v| v.parse().unwrap());
    let deadline = Duration::from_secs(
        arg_value(&args, "--deadline-secs").map_or(60, |v| v.parse().unwrap()),
    );
    let expect_reconnect = args.iter().any(|a| a == "--expect-reconnect");

    let schedule = if fault_rate > 0.0 {
        FaultSchedule::uniform(fault_rate)
    } else {
        FaultSchedule::clean()
    };
    // Each (re)dial draws a fresh lottery stream so a reconnected link
    // does not replay the outage that killed its predecessor.
    let dials = Cell::new(0u64);
    let dial_addr = addr.clone();
    let dial = move || -> Result<Wire, TransportError> {
        let stream = TcpStream::connect(&dial_addr).map_err(TransportError::from)?;
        let n = dials.get();
        dials.set(n + 1);
        Ok(FaultInjector::new(
            StreamCarrier::tcp(stream)?,
            FaultLottery::new(schedule.clone(), seed ^ (n << 32)),
        ))
    };

    // The receiver may still be starting up: retry the first dial.
    let start = Instant::now();
    let mut dial = Box::new(dial) as Box<dyn FnMut() -> Result<Wire, TransportError>>;
    let first = loop {
        match dial() {
            Ok(wire) => break wire,
            Err(_) if start.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("receiver never came up: {e}").into()),
        }
    };

    let phy = StreamingTransmitter::new(PhyConfig::paper_synthesis())?
        .with_queue_capacity(QUEUE_CAP);
    let link = SampleSender::new(phy, first, CHUNK)?.with_flow_control(WINDOW)?;
    let cfg = SupervisorConfig {
        // A kill/restart outage spans seconds; keep retrying long
        // enough to bridge it (capped backoff ≈ 0.4 s per attempt).
        max_attempts: 60,
        ..SupervisorConfig::default()
    };
    let mut tx = SupervisedSender::new(link, cfg, dial)?;

    let plan = build_plan(bursts);
    let epoch = Instant::now();
    let mut queue_full_retries = 0u64;
    for (mcs, payload) in &plan {
        loop {
            match tx.link_mut().transmitter_mut().enqueue_with(*mcs, payload) {
                Ok(()) => break,
                Err(PhyError::QueueFull { .. }) => {
                    queue_full_retries += 1;
                    let stepped = tx.step(epoch.elapsed())?;
                    if stepped == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                Err(e) => return Err(e.into()),
            }
            if epoch.elapsed() > deadline {
                eprintln!("duplex_tx: deadline exceeded while enqueueing");
                std::process::exit(2);
            }
            if tx.gave_up() {
                eprintln!("duplex_tx: supervisor gave up reconnecting");
                std::process::exit(2);
            }
        }
    }
    // Drain the queue, then announce the final position. BYE is
    // cumulative/idempotent, so offer it a few times in case the
    // fault schedule eats copies.
    let mut byes_sent = 0;
    loop {
        let now = epoch.elapsed();
        if now > deadline {
            eprintln!("duplex_tx: deadline exceeded while draining");
            std::process::exit(2);
        }
        if tx.gave_up() {
            eprintln!("duplex_tx: supervisor gave up reconnecting");
            std::process::exit(2);
        }
        let stepped = tx.step(now)?;
        if tx.is_up() && tx.link().is_idle() {
            if byes_sent < 3 {
                let position = tx.link().stats().samples_sent;
                tx.link_mut().send_control(ControlMsg::Bye { position })?;
                byes_sent += 1;
            } else {
                break;
            }
        } else if stepped == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    // Give the kernel a beat to flush, then report.
    std::thread::sleep(Duration::from_millis(50));

    let s = tx.link().stats();
    let sup = tx.stats();
    let depth = tx.link().transmitter().max_queue_depth();
    println!(
        "TX-LEDGER bursts={} frames={} samples={} queue_cap={} max_depth={}",
        plan.len(),
        s.frames_sent,
        s.samples_sent,
        QUEUE_CAP,
        depth,
    );
    println!(
        "TX-LIVENESS stalls={} backpressure={} queue_full_retries={} heartbeats={} watchdog_trips={} attempts={} reconnects={}",
        s.credit_stalls,
        s.backpressure,
        queue_full_retries,
        sup.heartbeats_sent,
        sup.watchdog_trips,
        sup.reconnect_attempts,
        sup.reconnects,
    );
    assert!(
        depth <= QUEUE_CAP,
        "transmit queue exceeded its bound: {depth} > {QUEUE_CAP}"
    );
    if expect_reconnect && sup.reconnects == 0 {
        eprintln!("duplex_tx: expected at least one reconnect, saw none");
        std::process::exit(1);
    }
    Ok(())
}
