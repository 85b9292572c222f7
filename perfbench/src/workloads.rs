//! The three closed-loop workloads, untraced: end-to-end metrics from
//! the product entry points only (`transmit_burst_with`, `propagate`,
//! `receive_burst`, `process_batch`, `SampleSender::pump`,
//! `SampleReceiver::poll`). One caller thread drives each loop; every
//! input is generated from the seed before timing starts.

use std::time::Instant;

use mimo_baseband::channel::{AwgnChannel, ChannelModel, IdealChannel};
use mimo_baseband::coding::bits;
use mimo_baseband::phy::{
    BurstPipeline, LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, PhyError, RxResult,
    StreamingReceiver, StreamingTransmitter,
};
use mimo_baseband::transport::{LinkEvent, MemoryDuplex, SampleReceiver, SampleSender};

use crate::meta;
use crate::plan::{self, Burst};
use crate::replay::ErrClass;
use crate::stats::{median, summarize};

pub type BoxError = Box<dyn std::error::Error>;

/// Samples per antenna in each transport frame (the pacing quantum).
pub const FRAME_SAMPLES: usize = 160;
/// Silence between bursts on the stream.
pub const GUARD_SAMPLES: usize = 400;
/// AWGN SNR of `mixed_short_awgn`: the two 64-QAM rows sit on their
/// decode cliff (a quarter to a third of their bursts fail) and
/// 16-QAM r=3/4 on the tail of its own (about one burst in a hundred).
pub const MIXED_SNR_DB: f64 = 21.0;
/// Rows that must always decode byte-exact at [`MIXED_SNR_DB`]: BPSK
/// r=1/2 through 16-QAM r=1/2.
pub const ROBUST_ROWS: usize = 5;
/// Bursts per `BurstPipeline::process_batch` call.
pub const BATCH: usize = 8;
/// Constructions timed before the measuring loop starts.
pub const SETUP_REPEATS: usize = 11;
/// Constructions timed again at every window boundary; `setup_s` is
/// the median over all of them.
pub const SETUP_PER_WINDOW: usize = 3;
/// Length of one throughput window, seconds.
pub const WINDOW_SECONDS: f64 = 1.0;
/// Latency samples a run needs for p90 with ten samples beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 100;
/// In-memory duplex ring size per direction, bytes.
pub const DUPLEX_BYTES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GigabitBulk,
    MixedShortAwgn,
    StreamFramed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GigabitBulk,
        Workload::MixedShortAwgn,
        Workload::StreamFramed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GigabitBulk => "gigabit_bulk",
            Workload::MixedShortAwgn => "mixed_short_awgn",
            Workload::StreamFramed => "stream_framed",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn plan(self, seed: u64) -> Vec<Burst> {
        match self {
            Workload::GigabitBulk => plan::gigabit(seed),
            Workload::MixedShortAwgn => plan::mixed(seed),
            Workload::StreamFramed => plan::stream(seed),
        }
    }
}

/// Decode quality over a fixed set of bursts (the plan's first pass),
/// so it repeats exactly for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    pub bursts: u64,
    pub ok: u64,
    pub bits: u64,
    pub bit_errors: u64,
    pub evm_sum: f64,
    pub decoded: u64,
    pub err_sync: u64,
    pub err_header: u64,
    pub err_other: u64,
}

impl Quality {
    /// Records one burst: `got` is the decoded payload and its EVM, or
    /// the class of the typed error. A lost burst counts all its bits
    /// as wrong, as `LinkSimulation` does.
    pub fn record(&mut self, sent: &[u8], got: Result<(&[u8], f64), ErrClass>) {
        self.bursts += 1;
        self.bits += 8 * sent.len() as u64;
        match got {
            Ok((payload, evm_db)) => {
                self.decoded += 1;
                self.evm_sum += evm_db;
                if payload == sent {
                    self.ok += 1;
                } else {
                    let (a, b) = (bits::bytes_to_bits(sent), bits::bytes_to_bits(payload));
                    let common = a.len().min(b.len());
                    let diff = bits::hamming_distance(&a[..common], &b[..common]);
                    self.bit_errors += (diff + (a.len() - common)) as u64;
                }
            }
            Err(class) => {
                self.bit_errors += 8 * sent.len() as u64;
                match class {
                    ErrClass::Sync => self.err_sync += 1,
                    ErrClass::Header => self.err_header += 1,
                    ErrClass::Other => self.err_other += 1,
                }
            }
        }
    }

    pub fn record_result(&mut self, sent: &[u8], got: &Result<RxResult, PhyError>) {
        let got = match got {
            Ok(r) => Ok((r.payload.as_slice(), r.diagnostics.evm_db())),
            Err(e) => Err(ErrClass::of(e)),
        };
        self.record(sent, got);
    }

    pub fn ok_ratio(&self) -> f64 {
        self.ok as f64 / self.bursts.max(1) as f64
    }

    pub fn fail_ratio(&self) -> f64 {
        1.0 - self.ok_ratio()
    }

    pub fn ber(&self) -> f64 {
        self.bit_errors as f64 / self.bits.max(1) as f64
    }

    pub fn evm_db_mean(&self) -> f64 {
        self.evm_sum / self.decoded.max(1) as f64
    }

    pub fn decode_ok_ratio(&self) -> f64 {
        self.decoded as f64 / self.bursts.max(1) as f64
    }

    pub fn lines(&self) -> Vec<String> {
        vec![
            format!(
                "  quality over the first {} bursts: ok {} (ratio {:.4}), ber {:.3e}, evm_db_mean {:.2} dB",
                self.bursts,
                self.ok,
                self.ok_ratio(),
                self.ber(),
                self.evm_db_mean()
            ),
            format!(
                "  typed errors: sync {}, header {}, other {}",
                self.err_sync, self.err_header, self.err_other
            ),
        ]
    }
}

/// Why a `mixed_short_awgn` burst fails its check, if it does: the
/// rows below the cliffs ([`ROBUST_ROWS`]) must decode byte-exact, and
/// no burst may fail for a reason other than the channel (a pipeline
/// fault or a caught panic).
pub fn mixed_check(b: &Burst, got: &Result<RxResult, PhyError>) -> Option<String> {
    match got {
        Ok(r) if r.payload == b.payload => None,
        Err(PhyError::Pipeline(e)) => Some(format!("pipeline fault: {e}")),
        Err(PhyError::Decode(e)) if e.contains("panicked") => Some(format!("receiver panic: {e}")),
        _ if usize::from(b.mcs.index()) < ROBUST_ROWS => Some(format!(
            "{} burst of {} B not byte-exact at {MIXED_SNR_DB} dB",
            b.mcs,
            b.payload.len()
        )),
        _ => None,
    }
}

/// Builds the workload's objects `n` times, appending each
/// construction time to `times`; returns the last build.
fn time_builds<T>(
    build: &mut impl FnMut() -> Result<T, BoxError>,
    n: usize,
    times: &mut Vec<f64>,
) -> Result<T, BoxError> {
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let built = build()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    last.ok_or_else(|| "no constructions".into())
}

/// Bursts attempted and those that failed the workload's check (the
/// first few reasons kept for the report).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Whether the run's outputs were correct.
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What one untraced run measured.
#[derive(Debug)]
pub struct RunResult {
    pub checks: Checks,
    /// End-to-end metrics by registry name.
    pub metrics: Vec<(&'static str, f64)>,
    pub lines: Vec<String>,
}

/// The measuring loop's state. Rates are taken per window of
/// [`WINDOW_SECONDS`] and reported as the median window, and the
/// set-up time is re-sampled between windows, so a transient load
/// spike on the host moves a few windows rather than the result.
struct Tally {
    start: Instant,
    seconds: f64,
    window: Instant,
    window_bits: u64,
    window_samples: u64,
    goodput_mbps: Vec<f64>,
    msamples_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    checks: Checks,
    latency_ms: Vec<f64>,
    quality: Quality,
}

impl Tally {
    fn new(seconds: f64, setup_s: Vec<f64>) -> Self {
        let now = Instant::now();
        Self {
            start: now,
            seconds,
            window: now,
            window_bits: 0,
            window_samples: 0,
            goodput_mbps: Vec::new(),
            msamples_per_s: Vec::new(),
            setup_s,
            checks: Checks::default(),
            latency_ms: Vec::new(),
            quality: Quality::default(),
        }
    }

    /// Accounts one burst's on-air samples (per antenna) and, when it
    /// arrived byte-exact, its payload bits.
    fn add(&mut self, samples: usize, good_bits: usize) {
        self.window_samples += samples as u64;
        self.window_bits += good_bits as u64;
    }

    fn close_window(&mut self) {
        let secs = self.window.elapsed().as_secs_f64();
        self.goodput_mbps.push(self.window_bits as f64 / secs / 1e6);
        self.msamples_per_s
            .push(self.window_samples as f64 / secs / 1e6);
        self.window_bits = 0;
        self.window_samples = 0;
    }

    /// Closes the window once it is full and re-samples the set-up
    /// time outside it. Returns whether the run may stop: the time is
    /// up and `count` operations reached `min`.
    fn tick<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<T, BoxError>,
        count: usize,
        min: usize,
    ) -> Result<bool, BoxError> {
        if self.window.elapsed().as_secs_f64() >= WINDOW_SECONDS {
            self.close_window();
            time_builds(build, SETUP_PER_WINDOW, &mut self.setup_s)?;
            self.window = Instant::now();
        }
        Ok(count >= min && self.start.elapsed().as_secs_f64() >= self.seconds)
    }

    fn finish(mut self, w: Workload, extra: Vec<String>) -> RunResult {
        // A run shorter than one window still reports its rates.
        if self.goodput_mbps.is_empty() {
            self.close_window();
        }
        let wall = self.start.elapsed().as_secs_f64();
        let setup_s = median(&self.setup_s);
        let lat = summarize(&self.latency_ms);
        let q = &self.quality;
        let metrics = vec![
            ("setup_s", setup_s),
            ("goodput_mbps", median(&self.goodput_mbps)),
            ("msamples_per_s", median(&self.msamples_per_s)),
            ("burst_latency_ms_p50", lat.p50),
            ("burst_latency_ms_p90", lat.p90),
            ("burst_ok_ratio", q.ok_ratio()),
            ("mer_db_mean", -q.evm_db_mean()),
            ("peak_rss_mib", meta::peak_rss_mib()),
        ];
        let top = lat
            .top
            .map_or_else(|| "n/a".to_string(), |(p, v)| format!("p{p} {v:.3} ms"));
        let mut lines = vec![format!(
            "workload {}: {} bursts in {:.2} s, {} failed the check",
            w.name(),
            self.checks.attempted,
            wall,
            self.checks.failed
        )];
        lines.push(format!(
            "  burst_latency_ms: p50 {:.3}, p90 {:.3}, highest supported {top} (n={})",
            lat.p50, lat.p90, lat.n
        ));
        let good = summarize(&self.goodput_mbps);
        lines.push(format!(
            "  goodput_mbps over {} windows of {WINDOW_SECONDS} s: median {:.4}, p90 {:.4}",
            good.n, good.p50, good.p90
        ));
        let setup = summarize(&self.setup_s);
        lines.push(format!(
            "  setup_s over {} constructions: median {:.3e}, p90 {:.3e}",
            setup.n, setup.p50, setup.p90
        ));
        lines.extend(q.lines());
        lines.extend(extra);
        RunResult {
            checks: self.checks,
            metrics,
            lines,
        }
    }
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<RunResult, BoxError> {
    match w {
        Workload::GigabitBulk => gigabit_bulk(seed, seconds),
        Workload::MixedShortAwgn => mixed_short_awgn(seed, seconds),
        Workload::StreamFramed => stream_framed(seed, seconds),
    }
}

/// 8 KiB bursts, one at a time: `transmit_burst_with` → `propagate`
/// (ideal) → `receive_burst`, on the library-default schedule.
fn gigabit_bulk(seed: u64, seconds: f64) -> Result<RunResult, BoxError> {
    let plan = plan::gigabit(seed);
    let mut build = || -> Result<_, BoxError> {
        Ok((
            MimoTransmitter::new(PhyConfig::gigabit())?,
            MimoReceiver::new(PhyConfig::gigabit())?,
            IdealChannel::new(4),
        ))
    };
    let mut setup_s = Vec::new();
    let (tx, mut rx, mut ch) = time_builds(&mut build, SETUP_REPEATS, &mut setup_s)?;
    for b in plan.iter().take(2) {
        let burst = tx.transmit_burst_with(b.mcs, &b.payload)?;
        let _ = rx.receive_burst(&ch.propagate(&burst.streams));
    }

    let mut tally = Tally::new(seconds, setup_s);
    let mut i = 0;
    while !tally.tick(&mut build, i, plan.len().max(MIN_LATENCY_SAMPLES))? {
        let b = &plan[i % plan.len()];
        let burst = tx.transmit_burst_with(b.mcs, &b.payload)?;
        let capture = ch.propagate(&burst.streams);
        let t0 = Instant::now();
        let got = rx.receive_burst(&capture);
        tally.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.checks.attempted += 1;
        if i < plan.len() {
            tally.quality.record_result(&b.payload, &got);
        }
        let exact = matches!(&got, Ok(r) if r.payload == b.payload);
        tally.add(
            capture[0].len(),
            if exact { 8 * b.payload.len() } else { 0 },
        );
        if !exact {
            tally
                .checks
                .fail(format!("burst {i} not byte-exact: {:?}", got.err()));
            break;
        }
        i += 1;
    }
    let extra = vec![format!(
        "  schedule: parallel fan-out {}",
        PhyConfig::gigabit().parallelism()
    )];
    Ok(tally.finish(Workload::GigabitBulk, extra))
}

/// One decoded batch: each burst's on-air samples per antenna, the
/// `process_batch` wall time (s) and the per-burst results.
pub type Batch = (Vec<usize>, f64, Vec<Result<RxResult, PhyError>>);

/// One batch of the mixed plan: bursts `first..first + BATCH`
/// transmitted and propagated, then decoded by one `process_batch`.
/// Returns the captures' samples per antenna and the batch wall time.
pub fn mixed_batch(
    tx: &MimoTransmitter,
    pipe: &mut BurstPipeline,
    ch: &mut AwgnChannel,
    plan: &[Burst],
    first: usize,
) -> Result<Batch, BoxError> {
    let mut captures = Vec::with_capacity(BATCH);
    let mut samples = Vec::with_capacity(BATCH);
    for k in first..first + BATCH {
        let b = &plan[k % plan.len()];
        let burst = tx.transmit_burst_with(b.mcs, &b.payload)?;
        let capture = ch.propagate(&burst.streams);
        samples.push(capture[0].len());
        captures.push(capture);
    }
    let t0 = Instant::now();
    let results = pipe.process_batch(captures);
    Ok((samples, t0.elapsed().as_secs_f64(), results))
}

/// The link geometry of the mixed-MCS workloads: the paper's 4×4
/// geometry on the serial per-burst schedule, so the only threads are
/// the `BurstPipeline` pool's.
pub fn serial_geometry() -> LinkGeometry {
    LinkGeometry::mimo().with_parallelism(false)
}

/// The product objects of `mixed_short_awgn`.
pub fn mixed_objects(seed: u64) -> Result<(MimoTransmitter, BurstPipeline, AwgnChannel), BoxError> {
    Ok((
        MimoTransmitter::from_geometry(serial_geometry())?,
        BurstPipeline::with_workers(
            PhyConfig::from_geometry(serial_geometry()),
            meta::host_threads(),
        )?,
        AwgnChannel::new(4, MIXED_SNR_DB, plan::noise_seed(seed)),
    ))
}

/// Short mixed-MCS bursts through AWGN, decoded in batches by the
/// `BurstPipeline` pool (no more workers than the host's CPUs); TX and
/// channel run on the caller thread.
fn mixed_short_awgn(seed: u64, seconds: f64) -> Result<RunResult, BoxError> {
    let plan = plan::mixed(seed);
    let mut build = || mixed_objects(seed);
    let mut setup_s = Vec::new();
    let (tx, mut pipe, mut ch) = time_builds(&mut build, SETUP_REPEATS, &mut setup_s)?;
    // Warm up on a clone, so the measured bursts see the seed's noise
    // from its first draw.
    mixed_batch(&tx, &mut pipe, &mut ch.clone(), &plan, 0)?;

    let mut tally = Tally::new(seconds, setup_s);
    let mut row_fail = [0u64; 8];
    let mut i = 0;
    while !tally.tick(&mut build, i, plan.len().max(MIN_LATENCY_SAMPLES * BATCH))? {
        let (samples, secs, results) = mixed_batch(&tx, &mut pipe, &mut ch, &plan, i)?;
        tally.latency_ms.push(secs * 1e3 / BATCH as f64);
        for (k, (got, n)) in results.iter().zip(samples).enumerate() {
            let b = &plan[(i + k) % plan.len()];
            tally.checks.attempted += 1;
            if i + k < plan.len() {
                tally.quality.record_result(&b.payload, got);
            }
            let exact = matches!(got, Ok(r) if r.payload == b.payload);
            tally.add(n, if exact { 8 * b.payload.len() } else { 0 });
            if !exact {
                row_fail[usize::from(b.mcs.index())] += 1;
            }
            if let Some(why) = mixed_check(b, got) {
                tally.checks.fail(format!("burst {}: {why}", i + k));
            }
        }
        i += BATCH;
    }
    let rows: Vec<String> = Mcs::ALL
        .iter()
        .zip(row_fail)
        .map(|(m, f)| format!("{m}: {f}"))
        .collect();
    let extra = vec![
        format!(
            "  pipeline workers {}, SNR {MIXED_SNR_DB} dB, batch {BATCH}",
            pipe.workers()
        ),
        format!("  bursts not byte-exact per row: {}", rows.join(", ")),
    ];
    Ok(tally.finish(Workload::MixedShortAwgn, extra))
}

/// The streaming endpoints of `stream_framed`.
pub type Endpoints = (SampleSender<MemoryDuplex>, SampleReceiver<MemoryDuplex>);

pub fn stream_endpoints() -> Result<Endpoints, BoxError> {
    let geometry = serial_geometry();
    let (near, far) = MemoryDuplex::pair(DUPLEX_BYTES);
    let tx =
        StreamingTransmitter::from_geometry(geometry.clone())?.with_guard_samples(GUARD_SAMPLES);
    Ok((
        SampleSender::new(tx, near, FRAME_SAMPLES)?,
        SampleReceiver::new(StreamingReceiver::from_geometry(geometry)?, far),
    ))
}

/// Pumps and polls one enqueued burst across the link until the
/// receiver emits it. Returns the burst and the time from the start of
/// the pump that sent its last sample to the end of the poll that
/// emitted it.
fn deliver(
    sender: &mut SampleSender<MemoryDuplex>,
    receiver: &mut SampleReceiver<MemoryDuplex>,
) -> Result<(RxResult, f64), BoxError> {
    let mut last_pump = None;
    loop {
        let mut progressed = false;
        if !sender.is_idle() {
            let t0 = Instant::now();
            progressed |= sender.pump()? > 0;
            if sender.is_idle() {
                last_pump = Some(t0);
            }
        }
        while let Some(event) = receiver.poll()? {
            progressed = true;
            match event {
                LinkEvent::Burst(b) => {
                    let ms = last_pump.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
                    return Ok((b.result, ms));
                }
                LinkEvent::Phy(e) => return Err(format!("PHY error on a clean wire: {e}").into()),
                LinkEvent::Fault(f) => {
                    return Err(format!("link fault on a clean wire: {f:?}").into())
                }
                LinkEvent::Control(_) => {}
            }
        }
        if !progressed {
            return Err("the link went idle before the burst was emitted".into());
        }
    }
}

/// The mixed-MCS plan through the streaming stack on a clean in-memory
/// wire, one burst in flight at a time, all on the caller thread.
fn stream_framed(seed: u64, seconds: f64) -> Result<RunResult, BoxError> {
    let plan = plan::stream(seed);
    let mut build = stream_endpoints;
    let mut setup_s = Vec::new();
    let (mut sender, mut receiver) = time_builds(&mut build, SETUP_REPEATS, &mut setup_s)?;
    for b in plan.iter().take(4) {
        sender.transmitter_mut().enqueue_with(b.mcs, &b.payload)?;
        deliver(&mut sender, &mut receiver)?;
    }

    let mut tally = Tally::new(seconds, setup_s);
    let mut i = 0;
    while !tally.tick(&mut build, i, plan.len().max(MIN_LATENCY_SAMPLES))? {
        let b = &plan[i % plan.len()];
        let sent_before = sender.stats().samples_sent;
        sender.transmitter_mut().enqueue_with(b.mcs, &b.payload)?;
        let (result, ms) = deliver(&mut sender, &mut receiver)?;
        tally.latency_ms.push(ms);
        tally.checks.attempted += 1;
        let exact = result.payload == b.payload && result.diagnostics.mcs == b.mcs;
        let got = Ok(result);
        if i < plan.len() {
            tally.quality.record_result(&b.payload, &got);
        }
        let samples = (sender.stats().samples_sent - sent_before) as usize;
        tally.add(samples, if exact { 8 * b.payload.len() } else { 0 });
        if !exact {
            tally
                .checks
                .fail(format!("burst {i} ({}) not byte-exact", b.mcs));
            break;
        }
        i += 1;
    }
    let frames = sender.stats().frames_sent;
    let extra = vec![format!(
        "  {FRAME_SAMPLES}-sample frames, {GUARD_SAMPLES}-sample guards, {frames} frames sent"
    )];
    Ok(tally.finish(Workload::StreamFramed, extra))
}

/// The decode-quality pass of `mixed_short_awgn` alone: the first
/// `bursts` bursts of the seed's plan through fresh objects. Returns
/// the quality and the plan/noise fingerprint.
pub fn mixed_quality_pass(seed: u64, bursts: usize) -> Result<(Quality, u64), BoxError> {
    let plan = plan::mixed(seed);
    let (tx, mut pipe, mut ch) = mixed_objects(seed)?;
    let mut quality = Quality::default();
    let mut i = 0;
    while i < bursts.min(plan.len()) {
        let (_, _, results) = mixed_batch(&tx, &mut pipe, &mut ch, &plan, i)?;
        for (k, got) in results.iter().enumerate().take(bursts - i) {
            quality.record_result(&plan[i + k].payload, got);
        }
        i += BATCH;
    }
    Ok((quality, plan::fingerprint(&plan) ^ plan::noise_seed(seed)))
}

/// Same-seed runs must repeat the quality figures exactly; a different
/// seed must change the payload/noise plan.
pub fn self_check(seed: u64, bursts: usize) -> Result<Vec<String>, BoxError> {
    let (a, plan_a) = mixed_quality_pass(seed, bursts)?;
    let (b, plan_b) = mixed_quality_pass(seed, bursts)?;
    let (c, plan_c) = mixed_quality_pass(seed + 1, bursts)?;
    if a != b || a.evm_sum.to_bits() != b.evm_sum.to_bits() || plan_a != plan_b {
        return Err(format!("seed {seed} did not repeat: {a:?} vs {b:?}").into());
    }
    if plan_a == plan_c {
        return Err(format!("seeds {seed} and {} gave the same plan", seed + 1).into());
    }
    Ok(vec![
        format!("self-check: seed {seed} repeats exactly over {bursts} bursts ({a:?})"),
        format!(
            "self-check: seed {} gives a different plan ({c:?})",
            seed + 1
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_counts_lost_and_damaged_bursts_like_link_simulation() {
        let mut q = Quality::default();
        q.record(&[0xFF, 0x00], Ok((&[0xFF, 0x00], -30.0)));
        q.record(&[0xFF, 0x00], Ok((&[0xFE, 0x00], -20.0))); // one bit wrong
        q.record(&[0xFF], Ok((&[], -10.0))); // truncated: 8 bits missing
        q.record(&[0xAA, 0xAA], Err(ErrClass::Header)); // lost: all 16 wrong
        assert_eq!(q.bursts, 4);
        assert_eq!(q.ok, 1);
        assert_eq!(q.bits, 56);
        assert_eq!(q.bit_errors, 1 + 8 + 16);
        assert_eq!(q.err_header, 1);
        assert!((q.evm_db_mean() + 20.0).abs() < 1e-12);
        assert!((q.decode_ok_ratio() - 0.75).abs() < 1e-12);
        assert!((q.fail_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mixed_quality_repeats_for_a_seed() {
        let lines = self_check(5, 16).expect("deterministic");
        assert_eq!(lines.len(), 2);
    }
}
