//! The traced run: the same workloads, single-threaded per burst, with
//! a span around every call into a layer's public functions and the
//! replay checked bit for bit against the product on every burst.
//!
//! Per burst the traced loop makes the product call of each layer the
//! workload uses (`tx.burst`, `channel.propagate`, `rx.burst`,
//! `pipeline.batch`, the streaming calls) and replays the TX and RX
//! chains leaf by leaf (`replay.rs`). The product TX and RX are built
//! on the serial schedule here, so a product call and its replay do the
//! same work on one thread and `rx.uncovered_us` compares like with
//! like; the pipeline keeps its worker pool.

use std::time::Instant;

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{
    BurstPipeline, MimoReceiver, MimoTransmitter, PhyConfig, PhyError, RxResult, StreamingReceiver,
    StreamingTransmitter,
};
use mimo_baseband::transport::{
    encode_frame, Carrier, DecodeEvent, FrameDecoder, MemoryDuplex, SeqStatus, SeqTracker,
};

use crate::meta;
use crate::plan::{self, Burst};
use crate::replay::{Decoded, ErrClass, RxReplay, TxReplay};
use crate::stats::median;
use crate::trace::{Layer, SpanRecord, Tracer, RX_LEAVES};
use crate::workloads::{
    mixed_batch, mixed_check, serial_geometry, BoxError, Checks, Quality, Workload, BATCH,
    DUPLEX_BYTES, FRAME_SAMPLES, GUARD_SAMPLES, MIXED_SNR_DB,
};

/// Rows of the per-block table, in chain order.
pub const TABLE_ROWS: [Layer; 25] = [
    Layer::TxBurst,
    Layer::TxCoding,
    Layer::TxMap,
    Layer::TxOfdm,
    Layer::ChannelPropagate,
    Layer::RxBurst,
    Layer::RxSync,
    Layer::RxChanest,
    Layer::RxQrd,
    Layer::RxIngest,
    Layer::RxZf,
    Layer::RxPilotPhase,
    Layer::RxTiming,
    Layer::RxEvm,
    Layer::RxDemap,
    Layer::RxHeader,
    Layer::RxViterbi,
    Layer::RxDescramble,
    Layer::PipelineBatch,
    Layer::TxstreamPull,
    Layer::TransportEncode,
    Layer::TransportDecode,
    Layer::StreamRxPush,
    Layer::StreamRxClose,
    Layer::RxReplay,
];

/// What one traced run measured.
#[derive(Debug)]
pub struct Traced {
    pub workload: Workload,
    pub checks: Checks,
    /// Per-block table rows: layer, median self µs per burst, share of
    /// the burst's product chain (%).
    pub rows: Vec<(&'static str, f64, f64)>,
    pub chain_us: f64,
    pub uncovered_us: f64,
    /// Per-layer registry metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<SpanRecord>,
    pub lines: Vec<String>,
}

/// Counts over the plan's first pass.
#[derive(Debug, Default)]
struct Counts {
    quality: Quality,
    symbols: u64,
    info_bits: u64,
    frames: u64,
    wire_bytes: u64,
    workers: usize,
}

impl Counts {
    fn record(
        &mut self,
        sent: &[u8],
        product: &Result<RxResult, PhyError>,
        replay: &Result<Decoded, ErrClass>,
    ) {
        self.quality.record_result(sent, product);
        if let Ok(d) = replay {
            self.symbols += d.symbols as u64;
            self.info_bits += d.info_bits as u64;
        }
    }
}

/// The product TX/RX on the serial schedule plus their replays.
struct Chains {
    tx: MimoTransmitter,
    rx: MimoReceiver,
    txr: TxReplay,
    rxr: RxReplay,
}

impl Chains {
    fn new(cfg: PhyConfig) -> Result<Self, BoxError> {
        let cfg = cfg.with_parallelism(false);
        Ok(Self {
            txr: TxReplay::new(cfg.geometry().clone())?,
            rxr: RxReplay::new(cfg.geometry().clone())?,
            tx: MimoTransmitter::new(cfg.clone())?,
            rx: MimoReceiver::new(cfg)?,
        })
    }

    /// `transmit_burst_with`, then the TX replay, which must match it
    /// sample for sample.
    fn transmit(&mut self, t: &mut Tracer, b: &Burst) -> Result<Vec<Vec<CQ15>>, BoxError> {
        let tx = &self.tx;
        let burst = t.span(Layer::TxBurst, || tx.transmit_burst_with(b.mcs, &b.payload))?;
        let replayed = self.replay_tx(t, b)?;
        if replayed != burst.streams {
            return Err(format!("TX replay diverged from transmit_burst_with ({})", b.mcs).into());
        }
        Ok(burst.streams)
    }

    fn replay_tx(&mut self, t: &mut Tracer, b: &Burst) -> Result<Vec<Vec<CQ15>>, BoxError> {
        let root = t.begin(Layer::TxReplay);
        let replayed = self.txr.transmit(t, b.mcs, &b.payload);
        t.end(root);
        replayed
    }

    /// `receive_burst`, then the RX replay on the same capture, which
    /// must agree with it bit for bit.
    #[allow(clippy::type_complexity)]
    fn receive(
        &mut self,
        t: &mut Tracer,
        capture: &[Vec<CQ15>],
    ) -> Result<(Result<RxResult, PhyError>, Result<Decoded, ErrClass>), BoxError> {
        let rx = &mut self.rx;
        let product = t.span(Layer::RxBurst, || rx.receive_burst(capture));
        let root = t.begin(Layer::RxReplay);
        let replay = self.rxr.receive(t, capture);
        t.end(root);
        let agree = match (&product, &replay) {
            (Ok(p), Ok(r)) => {
                p.payload == r.payload && p.diagnostics.evm_db().to_bits() == r.evm_db.to_bits()
            }
            (Err(e), Err(c)) => ErrClass::of(e) == *c,
            _ => false,
        };
        if !agree {
            return Err(format!(
                "RX replay diverged from receive_burst: product {:?}, replay {:?}",
                product
                    .as_ref()
                    .map(|r| (r.payload.len(), r.diagnostics.evm_db())),
                replay.as_ref().map(|r| (r.payload.len(), r.evm_db)),
            )
            .into());
        }
        Ok((product, replay))
    }
}

/// Two product receive paths agree: same payload and EVM bits, or the
/// same class of typed error.
fn same_outcome(a: &Result<RxResult, PhyError>, b: &Result<RxResult, PhyError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.payload == y.payload
                && x.diagnostics.evm_db().to_bits() == y.diagnostics.evm_db().to_bits()
        }
        (Err(x), Err(y)) => ErrClass::of(x) == ErrClass::of(y),
        _ => false,
    }
}

fn done(start: Instant, seconds: f64, count: usize, min: usize) -> bool {
    count >= min && start.elapsed().as_secs_f64() >= seconds
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Traced, BoxError> {
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let plan = w.plan(seed);
    let checks = match w {
        Workload::GigabitBulk => gigabit(&plan, seconds, &mut t, &mut counts)?,
        Workload::MixedShortAwgn => mixed(seed, &plan, seconds, &mut t, &mut counts)?,
        Workload::StreamFramed => stream(&plan, seconds, &mut t, &mut counts)?,
    };
    Ok(summarize(w, t, counts, checks))
}

fn gigabit(
    plan: &[Burst],
    seconds: f64,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Checks, BoxError> {
    let mut c = Chains::new(PhyConfig::gigabit())?;
    let mut ch = IdealChannel::new(4);
    let mut scratch = Tracer::new();
    for b in plan.iter().take(2) {
        scratch.start_burst(0);
        let streams = c.transmit(&mut scratch, b)?;
        let _warm = c.receive(&mut scratch, &ch.propagate(&streams))?;
        scratch.finish_burst();
    }

    let mut out = Checks::default();
    let start = Instant::now();
    let mut i = 0;
    while !done(start, seconds, i, plan.len()) {
        let b = &plan[i % plan.len()];
        t.start_burst(i as u32);
        let streams = c.transmit(t, b)?;
        let capture = t.span(Layer::ChannelPropagate, || ch.propagate(&streams));
        let (product, replay) = c.receive(t, &capture)?;
        t.finish_burst();
        out.attempted += 1;
        if i < plan.len() {
            counts.record(&b.payload, &product, &replay);
        }
        if !matches!(&product, Ok(r) if r.payload == b.payload) {
            out.fail(format!("burst {i} not byte-exact"));
            break;
        }
        i += 1;
    }
    Ok(out)
}

fn mixed(
    seed: u64,
    plan: &[Burst],
    seconds: f64,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Checks, BoxError> {
    let geometry = serial_geometry();
    let mut c = Chains::new(PhyConfig::from_geometry(geometry.clone()))?;
    let mut pipe =
        BurstPipeline::with_workers(PhyConfig::from_geometry(geometry), meta::host_threads())?;
    let mut ch = AwgnChannel::new(4, MIXED_SNR_DB, plan::noise_seed(seed));
    counts.workers = pipe.workers();
    mixed_batch(&c.tx, &mut pipe, &mut ch.clone(), plan, 0)?;

    let mut out = Checks::default();
    let start = Instant::now();
    let mut i = 0;
    while !done(start, seconds, i, plan.len()) {
        let mut captures = Vec::with_capacity(BATCH);
        for id in i..i + BATCH {
            t.start_burst(id as u32);
            let streams = c.transmit(t, &plan[id % plan.len()])?;
            captures.push(t.span(Layer::ChannelPropagate, || ch.propagate(&streams)));
            t.finish_burst();
        }
        let t0 = Instant::now();
        let results = pipe.process_batch(captures.clone());
        let per_burst_us = t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64;
        for (k, (capture, pooled)) in captures.iter().zip(&results).enumerate() {
            let id = i + k;
            let b = &plan[id % plan.len()];
            t.charge(id as u32, Layer::PipelineBatch, per_burst_us);
            t.start_burst(id as u32);
            let (product, replay) = c.receive(t, capture)?;
            t.finish_burst();
            if !same_outcome(pooled, &product) {
                return Err(format!("burst {id}: BurstPipeline and receive_burst disagree").into());
            }
            out.attempted += 1;
            if id < plan.len() {
                counts.record(&b.payload, &product, &replay);
            }
            if let Some(why) = mixed_check(b, pooled) {
                out.fail(format!("burst {id}: {why}"));
            }
        }
        i += BATCH;
    }
    Ok(out)
}

/// The streaming stack driven call by call: `enqueue_with`,
/// `pull_into`, `encode_frame`, the carrier, `FrameDecoder` push/next
/// with sequence tracking, `push_samples`.
struct StreamStack {
    tx: StreamingTransmitter,
    rx: StreamingReceiver,
    near: MemoryDuplex,
    far: MemoryDuplex,
    decoder: FrameDecoder,
    seq_tx: u32,
    seq_rx: SeqTracker,
    chunk: Vec<Vec<CQ15>>,
    frame: Vec<u8>,
    io: Vec<u8>,
    bursts: usize,
}

/// One burst across the stack: the decoded result, the samples that
/// crossed the wire for it (leading guard included), frames and wire
/// bytes.
type Streamed = (RxResult, Vec<Vec<CQ15>>, u64, u64);

impl StreamStack {
    fn new(cfg: &PhyConfig) -> Result<Self, BoxError> {
        let cfg = cfg.clone().with_parallelism(false);
        let (near, far) = MemoryDuplex::pair(DUPLEX_BYTES);
        Ok(Self {
            tx: StreamingTransmitter::new(cfg.clone())?.with_guard_samples(GUARD_SAMPLES),
            rx: StreamingReceiver::new(cfg)?,
            near,
            far,
            decoder: FrameDecoder::new(),
            seq_tx: 0,
            seq_rx: SeqTracker::new(),
            chunk: Vec::new(),
            frame: Vec::new(),
            io: Vec::new(),
            bursts: 0,
        })
    }

    fn burst(&mut self, t: &mut Tracer, c: &mut Chains, b: &Burst) -> Result<Streamed, BoxError> {
        let tx = &mut self.tx;
        t.span(Layer::TxBurst, || tx.enqueue_with(b.mcs, &b.payload))?;
        let replayed = c.replay_tx(t, b)?;
        let guard = if self.bursts == 0 { 0 } else { GUARD_SAMPLES };
        self.bursts += 1;
        let mut capture: Vec<Vec<CQ15>> = vec![Vec::new(); replayed.len()];
        let (mut frames, mut bytes) = (0, 0);
        loop {
            let (tx, chunk) = (&mut self.tx, &mut self.chunk);
            let pulled = t.span(Layer::TxstreamPull, || tx.pull_into(chunk, FRAME_SAMPLES))?;
            if pulled == 0 {
                return Err("the transmitter went idle before the burst was emitted".into());
            }
            for (c, s) in capture.iter_mut().zip(&self.chunk) {
                c.extend_from_slice(s);
            }
            self.frame.clear();
            let (seq, chunk, frame) = (self.seq_tx, &self.chunk, &mut self.frame);
            t.span(Layer::TransportEncode, || encode_frame(seq, chunk, frame))?;
            self.seq_tx = self.seq_tx.wrapping_add(1);
            frames += 1;
            bytes += self.frame.len() as u64;
            self.near.send(&self.frame)?;
            self.io.clear();
            self.far.recv(&mut self.io)?;

            let sp = t.begin(Layer::TransportDecode);
            self.decoder.push(&self.io);
            let event = self.decoder.next_event();
            let in_order = match &event {
                Some(DecodeEvent::Frame(f)) => self.seq_rx.classify(f.seq) == SeqStatus::InOrder,
                _ => false,
            };
            t.end(sp);
            let Some(DecodeEvent::Frame(f)) = event.filter(|_| in_order) else {
                return Err("the decoder did not return the frame in order".into());
            };

            let sp = t.begin(Layer::StreamRxPush);
            match self.rx.push_samples(&f.streams) {
                Ok(Some(burst)) => {
                    t.end_as(sp, Layer::StreamRxClose);
                    let sent = capture
                        .iter()
                        .zip(&replayed)
                        .all(|(c, r)| c.get(guard..) == Some(r.as_slice()));
                    if !sent {
                        return Err(format!(
                            "TX replay diverged from the streamed samples ({})",
                            b.mcs
                        )
                        .into());
                    }
                    return Ok((burst.result, capture, frames, bytes));
                }
                Ok(None) => t.end(sp),
                Err(e) => {
                    t.end(sp);
                    return Err(format!("PHY error on a clean wire: {e}").into());
                }
            }
        }
    }
}

fn stream(
    plan: &[Burst],
    seconds: f64,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Checks, BoxError> {
    let cfg = PhyConfig::from_geometry(serial_geometry());
    let mut c = Chains::new(cfg.clone())?;
    let mut stack = StreamStack::new(&cfg)?;
    let mut scratch = Tracer::new();
    for b in plan.iter().take(2) {
        scratch.start_burst(0);
        stack.burst(&mut scratch, &mut c, b)?;
        scratch.finish_burst();
    }

    let mut out = Checks::default();
    let start = Instant::now();
    let mut i = 0;
    while !done(start, seconds, i, plan.len()) {
        let b = &plan[i % plan.len()];
        t.start_burst(i as u32);
        let (streamed, capture, frames, bytes) = stack.burst(t, &mut c, b)?;
        let (product, replay) = c.receive(t, &capture)?;
        t.finish_burst();
        let streamed = Ok(streamed);
        if !same_outcome(&streamed, &product) {
            return Err(format!("burst {i}: StreamingReceiver and receive_burst disagree").into());
        }
        out.attempted += 1;
        if i < plan.len() {
            counts.record(&b.payload, &streamed, &replay);
            counts.frames += frames;
            counts.wire_bytes += bytes;
        }
        if !matches!(&streamed, Ok(r) if r.payload == b.payload) {
            out.fail(format!("burst {i} not byte-exact"));
            break;
        }
        i += 1;
    }
    Ok(out)
}

/// The product calls that make up one burst of the workload; layer
/// shares are relative to their sum.
fn chain(w: Workload) -> &'static [Layer] {
    match w {
        Workload::GigabitBulk | Workload::MixedShortAwgn => {
            &[Layer::TxBurst, Layer::ChannelPropagate, Layer::RxBurst]
        }
        Workload::StreamFramed => &[
            Layer::TxBurst,
            Layer::TxstreamPull,
            Layer::TransportEncode,
            Layer::TransportDecode,
            Layer::StreamRxPush,
            Layer::StreamRxClose,
        ],
    }
}

fn summarize(w: Workload, t: Tracer, counts: Counts, checks: Checks) -> Traced {
    let bursts = t.per_burst();
    let med = |l: Layer| median(&bursts.iter().map(|b| b[l as usize]).collect::<Vec<_>>());
    let per_burst =
        |f: &dyn Fn(&[f64]) -> f64| median(&bursts.iter().map(|b| f(b)).collect::<Vec<_>>());
    let leaves = |b: &[f64]| RX_LEAVES.iter().map(|&l| b[l as usize]).collect::<Vec<_>>();

    let chain_us = per_burst(&|b| chain(w).iter().map(|&l| b[l as usize]).sum());
    let uncovered_us =
        per_burst(&|b| crate::stats::uncovered(b[Layer::RxBurst as usize], &leaves(b)));
    let overhead_pct = per_burst(&|b| {
        let replay = b[Layer::RxReplay as usize] + leaves(b).iter().sum::<f64>();
        let product = b[Layer::RxBurst as usize];
        100.0 * (replay - product) / product.max(f64::MIN_POSITIVE)
    });
    let share = |us: f64| 100.0 * us / chain_us.max(f64::MIN_POSITIVE);
    let rows: Vec<(&'static str, f64, f64)> = TABLE_ROWS
        .iter()
        .map(|&l| {
            let us = med(l);
            (l.name(), us, share(us))
        })
        .collect();

    let q = &counts.quality;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("tx.burst_us", med(Layer::TxBurst)),
        ("tx.coding_us", med(Layer::TxCoding)),
        ("tx.map_us", med(Layer::TxMap)),
        ("tx.ofdm_us", med(Layer::TxOfdm)),
        ("rx.sync_us", med(Layer::RxSync)),
        ("rx.chanest_us", med(Layer::RxChanest)),
        ("rx.qrd_us", med(Layer::RxQrd)),
        ("rx.ingest_us", med(Layer::RxIngest)),
        ("rx.zf_us", med(Layer::RxZf)),
        ("rx.pilot_phase_us", med(Layer::RxPilotPhase)),
        ("rx.timing_us", med(Layer::RxTiming)),
        ("rx.demap_us", med(Layer::RxDemap)),
        ("rx.evm_us", med(Layer::RxEvm)),
        ("rx.header_us", med(Layer::RxHeader)),
        ("rx.viterbi_us", med(Layer::RxViterbi)),
        ("rx.descramble_us", med(Layer::RxDescramble)),
        ("rx.burst_us", med(Layer::RxBurst)),
        ("rx.uncovered_us", uncovered_us),
    ];
    for (name, layer) in [
        ("channel.propagate_pct", Layer::ChannelPropagate),
        ("pipeline.batch_pct", Layer::PipelineBatch),
        ("txstream.pull_pct", Layer::TxstreamPull),
        ("stream_rx.push_pct", Layer::StreamRxPush),
        ("stream_rx.close_pct", Layer::StreamRxClose),
        ("transport.encode_pct", Layer::TransportEncode),
        ("transport.decode_pct", Layer::TransportDecode),
    ] {
        metrics.push((name, share(med(layer))));
    }
    metrics.extend([
        ("rx.symbols", counts.symbols as f64),
        ("viterbi.info_bits", counts.info_bits as f64),
        ("transport.frames", counts.frames as f64),
        ("transport.wire_bytes", counts.wire_bytes as f64),
        ("rx.err.sync", q.err_sync as f64),
        ("rx.err.header", q.err_header as f64),
        ("rx.err.other", q.err_other as f64),
        ("rx.decode_ok_ratio", q.decode_ok_ratio()),
        ("pipeline.workers", counts.workers as f64),
        ("ber", q.ber()),
        ("burst_fail_ratio", q.fail_ratio()),
        ("evm_db_mean", q.evm_db_mean()),
        ("trace.overhead_pct", overhead_pct),
    ]);

    let mut lines = vec![format!(
        "traced {}: {} bursts, replay bit-identical on every one, {} failed the check",
        w.name(),
        bursts.len(),
        checks.failed
    )];
    lines.extend(q.lines());
    lines.push(format!(
        "  counts: rx.symbols {}, viterbi.info_bits {}, transport.frames {}, transport.wire_bytes {}, pipeline.workers {}",
        counts.symbols, counts.info_bits, counts.frames, counts.wire_bytes, counts.workers
    ));
    lines.push(format!(
        "  tracing overhead: replayed RX {overhead_pct:+.2}% against receive_burst on the same capture; rx.uncovered {uncovered_us:.1} us"
    ));
    Traced {
        workload: w,
        checks,
        rows,
        chain_us,
        uncovered_us,
        metrics,
        spans: t.kept().to_vec(),
        lines,
    }
}

/// The per-block cost table: one row per layer, one column per traced
/// workload, each cell the median self time per burst and its share of
/// the workload's product chain.
pub fn table(runs: &[Traced]) -> String {
    let mut out = format!("{:<20}", "layer (us/burst, %)");
    for r in runs {
        out.push_str(&format!(" {:>24}", r.workload.name()));
    }
    out.push('\n');
    let cell = |us: f64, pct: f64| {
        if us == 0.0 {
            format!("{:>24}", "-")
        } else {
            format!("{:>24}", format!("{us:.1} ({pct:.1}%)"))
        }
    };
    for (row, layer) in TABLE_ROWS.iter().enumerate() {
        out.push_str(&format!("{:<20}", layer.name()));
        for r in runs {
            let (_, us, pct) = r.rows[row];
            out.push_str(&format!(" {}", cell(us, pct)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<20}", "rx.uncovered"));
    for r in runs {
        out.push_str(&format!(" {:>24}", format!("{:.1}", r.uncovered_us)));
    }
    out.push('\n');
    out.push_str(&format!("{:<20}", "chain (100%)"));
    for r in runs {
        out.push_str(&format!(" {:>24}", format!("{:.1}", r.chain_us)));
    }
    out.push('\n');
    out
}
