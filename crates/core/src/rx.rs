//! The MIMO receiver (Fig 5), auto-rate per burst.
//!
//! The receiver is built from the static [`LinkGeometry`] alone — it
//! has **no prior knowledge of any burst's rate**. Each burst's MCS
//! and payload length are recovered from the SIGNAL-field header
//! (stream 0's first symbols, always BPSK r=1/2; see
//! [`crate::signal`]) before the payload is decoded, with the
//! rate-dependent datapath (demapper thresholds and the fused
//! interleaving/puncturing bit map) selected per burst from a prebuilt
//! [`RateTable`](crate::rates::RateTable).
//!
//! # Acquisition, then one burst decoder
//!
//! Every receiver is an acquisition stage in front of one shared
//! decoder, `RxCore::advance`. Acquisition is where the receivers
//! really differ: [`MimoReceiver`] and
//! [`BurstPipeline`](crate::BurstPipeline) scan a stored capture
//! (coarse STS plateau, fine correlator window, and a whole-capture
//! scan when no plateau shows); the
//! [`StreamingReceiver`](crate::StreamingReceiver) runs the chunk-driven
//! sync tracker. The sync event opens a `BurstState`, and `advance`
//! takes it as far as the samples at hand allow:
//!
//! 1. channel estimation and inversion once the four LTS fields are
//!    buffered;
//! 2. the SIGNAL field (stream 0, BPSK r=1/2) once the first payload
//!    symbol is buffered, parsed by `RxCore::parse_header`;
//! 3. every whole payload symbol as it arrives:
//!    [`SymbolIngest`](mimo_ofdm::SymbolIngest) (one per antenna, in
//!    the workspace) strips the CP and FFTs every symbol at hand in one
//!    call, which runs them through the lane-parallel FFT in groups
//!    the OFDM layer chooses; `RxCore::gather_occ` pulls out the
//!    occupied carriers of each frame straight into 16-bit bus words
//!    on `i32` lane groups ([`mimo_fixed::BusLanes`]); and
//!    `RxCore::process_symbol` runs each stream on those lane groups
//!    from end to end, one lane kernel per stage: zero-forcing
//!    detection (row `k` of `H⁻¹·r`, [`ZfDetector::detect_bus`]) against
//!    the burst's `H⁻¹` lane table, staged and range-checked once when
//!    the channel was inverted; the pilot common phase and timing read
//!    from the pilots' lanes and both de-rotations run in place on the
//!    symbol's groups ([`TimingCorrector::correct_bus_in_place`]); then
//!    one fused demap→deinterleave→depuncture scatter on `f64` lanes
//!    ([`SymbolDemapper::demap_bus_scatter_into`](mimo_modem::SymbolDemapper::demap_bus_scatter_into))
//!    that lands the LLRs in mother-code (Viterbi branch) order in the
//!    stream workspace and measures the EVM in the same pass. No stage
//!    converts a symbol to `CQ15` and back. The `CQ15` entry points
//!    that remain (`detect_stream_into`, the two `correct_in_place`
//!    passes, `soft_demap_scatter_into`) are the tests' oracles and the
//!    stage-by-stage replay's calls, not a second receive path;
//! 4. at the announced length, each stream's Viterbi decode and
//!    byte-wise descramble-and-pack (`RxCore::decode_stream`), the
//!    round-robin reassembly ([`assemble_payload`]) and the
//!    diagnostics ([`finish_result`]).
//!
//! An `end` flag says no more samples will come: a shortfall is then
//! [`PhyError::TruncatedBurst`] rather than a pending burst. A stored
//! capture always sets it; the streaming receiver sets it in `flush`.
//! The three receivers therefore return the same burst, or the same
//! error, for the same samples — enforced by `tests/streaming_rx.rs`,
//! `tests/burst_pipeline.rs`, `tests/parallel_determinism.rs` and
//! `tests/rx_robustness.rs`.
//!
//! `RxCore` holds the immutable half — rate kits, correlator taps,
//! estimator, detector, correctors, trellis, carrier maps — and every
//! method takes the scratch it writes as an explicit `&mut` workspace.
//! Each receiver holds one `RxCore` next to the workspaces it owns:
//! [`MimoReceiver`] one workspace, [`BurstPipeline`](crate::BurstPipeline)
//! one per crew member, [`StreamingReceiver`](crate::StreamingReceiver)
//! one plus its sample history and sync tracker.
//!
//! # Fan-out
//!
//! The payload's per-antenna ingest and its per-stream work (the
//! per-symbol core, then Viterbi at close) are embarrassingly parallel
//! across the four channels, so each runs on a crew of `width` members
//! that includes the calling thread; every member owns a contiguous
//! run of the channel workspaces. `receive_burst` uses one member per
//! host CPU when [`PhyConfig::parallelism`] is on; a
//! [`BurstPipeline`](crate::BurstPipeline) member and the streaming
//! receiver use width one, which is the plain loop on the caller. All
//! widths are bit-identical, because every output cell is computed by
//! exactly one member in a fixed order. The few SIGNAL-field symbols
//! are ingested and decoded on the caller. Since every burst announces
//! its own rate, a pipeline batch may mix rates freely.

use mimo_chanest::{ChannelEstimator, CordicQrd};
use mimo_coding::{CodeSpec, Scrambler, ViterbiDecoder};
use mimo_detect::{PilotPhaseCorrector, TimingCorrector, ZfDetector, ZfTable};
use mimo_fixed::{bus_carrier, lane_groups, BusLanes, Lanes, CQ15, LANES};
use mimo_ofdm::preamble::{sync_reference, DEFAULT_AMPLITUDE};
use mimo_ofdm::{OfdmDemodulator, SubcarrierMap};
use mimo_sync::{SyncEvent, TimeSynchronizer, DEFAULT_THRESHOLD_FACTOR};

use crate::config::{host_parallelism, LinkGeometry, PhyConfig, N_STREAMS};
use crate::crew::fan_out;
use crate::error::PhyError;
use crate::mcs::{BurstParams, Mcs};
use crate::rates::{RateKit, RateTable};
use crate::signal::parse_signal_field;
use crate::tx::{MAX_STREAM_BYTES, SCRAMBLER_SEED};
use crate::stream::ReceivedBurst;
use crate::workspace::{ChannelScratch, RxAntennaWorkspace, RxStreamWorkspace, RxWorkspace};

/// Samples the demodulation windows retreat into the cyclic
/// prefix/guard. Multipath makes the correlator lock on the strongest
/// (possibly delayed) tap; without backoff a late lock slides the FFT
/// window into the next symbol (inter-symbol interference). The
/// backoff's phase ramp appears identically in the LTS windows, so the
/// channel estimate absorbs it.
pub(crate) const WINDOW_BACKOFF: usize = 6;

/// Finite floor for every reported EVM figure, dB. A burst whose
/// equalized constellation matches its nearest points exactly
/// (zero error energy, e.g. BPSK through a noiseless wire) reports
/// this floor instead of `-inf`, so downstream consumers — rate
/// controllers, JSON snapshots, dB arithmetic — never meet a
/// non-finite value.
pub const EVM_FLOOR_DB: f64 = -80.0;

/// Per-burst link-quality measurement, aggregated over **every**
/// spatial stream — the feedback input of closed-loop link adaptation
/// (see [`crate::adapt`]).
///
/// The aggregate EVM is the error-energy ratio summed across streams
/// before the dB conversion,
/// `evm_db = 10·log₁₀(Σₖ numₖ / Σₖ denₖ)`, where `numₖ` is stream
/// `k`'s accumulated squared error against the nearest constellation
/// point and `denₖ` the accumulated squared reference power — so one
/// drowning stream degrades the aggregate no matter how clean the
/// other three are. Every figure is clamped to the finite
/// [`EVM_FLOOR_DB`] floor.
///
/// The per-stream vector is built once at burst close. On a warm
/// workspace at fan-out width 1, `receive_burst` makes two heap
/// allocations per burst: the payload `Vec` and this vector
/// (`tests/alloc_steady_state.rs` counts them). A wider fan-out also
/// starts its crew's helper threads. The coarse STS tracker, the
/// channel estimate, its LTS transforms, the inverted matrices and
/// their lane table reuse workspace buffers, and the per-symbol
/// steady-state loops allocate nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuality {
    /// Aggregate error-vector magnitude over all streams, dB (lower is
    /// better; never below [`EVM_FLOOR_DB`], never non-finite).
    pub evm_db: f64,
    /// Per-stream EVM, dB, one entry per spatial stream in stream
    /// order (same floor/finiteness guarantees as the aggregate).
    pub per_stream_evm_db: Vec<f64>,
    /// Mean pilot common-phase estimate over all streams and payload
    /// symbols, radians.
    pub mean_phase_rad: f64,
}

impl ChannelQuality {
    /// The worst (highest) per-stream EVM — the conservative figure a
    /// rate controller should adapt on, since the burst only decodes
    /// if the weakest stream decodes.
    pub fn worst_stream_evm_db(&self) -> f64 {
        self.per_stream_evm_db
            .iter()
            .copied()
            .fold(self.evm_db, f64::max)
    }
}

/// Per-burst receiver diagnostics.
///
/// The EVM/phase figures aggregate over **all** spatial streams (see
/// [`ChannelQuality`] for the exact formula); the per-stream
/// breakdown lives in [`RxDiagnostics::quality`].
#[derive(Debug, Clone)]
pub struct RxDiagnostics {
    /// The time-synchroniser detection.
    pub sync: SyncEvent,
    /// The MCS announced by the burst's SIGNAL-field header.
    pub mcs: Mcs,
    /// The link-quality measurement: aggregate + per-stream EVM and
    /// mean pilot phase.
    pub quality: ChannelQuality,
    /// Payload OFDM symbols decoded (header symbols excluded).
    pub n_symbols: usize,
}

impl RxDiagnostics {
    /// Aggregate error-vector magnitude over all streams, dB —
    /// shorthand for `quality.evm_db`.
    pub fn evm_db(&self) -> f64 {
        self.quality.evm_db
    }

    /// Mean pilot common-phase estimate over all streams and payload
    /// symbols, radians — shorthand for `quality.mean_phase_rad`.
    // phylint: allow(test_only_api) -- test support: tests/parallel_determinism.rs
    pub fn mean_phase_rad(&self) -> f64 {
        self.quality.mean_phase_rad
    }
}

/// A decoded burst.
#[derive(Debug, Clone)]
pub struct RxResult {
    /// The recovered payload bytes.
    pub payload: Vec<u8>,
    /// Link-quality diagnostics.
    pub diagnostics: RxDiagnostics,
}

/// A burst past acquisition, as far as [`RxCore::advance`] has taken
/// it. Every index is an absolute sample index of the receive streams.
#[derive(Debug, Clone)]
pub(crate) struct BurstState {
    event: SyncEvent,
    /// First sample the channel estimate reads: the sync point minus
    /// [`WINDOW_BACKOFF`], plus the half-field guard of the first LTS.
    lts: usize,
    /// First sample of the SIGNAL-field symbols.
    data_start: usize,
    /// End of the samples the next phase needs: the four LTS fields,
    /// then `header_symbols + 1` symbols, then the whole announced
    /// burst. A shortfall at end of input reports it as
    /// [`PhyError::TruncatedBurst`]'s `needed`.
    needed: usize,
    /// Whether the channel is estimated and inverted: the workspace's
    /// `H⁻¹` lane table then belongs to this burst.
    estimated: bool,
    /// The SIGNAL field and its payload symbol count, once parsed.
    params: Option<(BurstParams, usize)>,
    /// First sample of the next symbol the per-symbol core has not run.
    next: usize,
}

impl BurstState {
    /// The first sample the burst will still read: samples before it
    /// may be dropped.
    pub(crate) fn keep_from(&self) -> usize {
        if !self.estimated {
            self.lts
        } else {
            self.next
        }
    }
}

/// The immutable half of the 4×4 receiver: the rate kits, correlator
/// taps, channel estimator, QRD, detector, pilot correctors, trellis
/// and carrier maps, plus the stage methods that run on them. Every
/// method borrows the scratch it writes as an explicit workspace, so
/// one core serves any number of workspaces — one per
/// [`MimoReceiver`], one per [`BurstPipeline`](crate::BurstPipeline)
/// crew member, one per [`StreamingReceiver`](crate::StreamingReceiver).
#[derive(Debug, Clone)]
pub(crate) struct RxCore {
    cfg: PhyConfig,
    /// SIGNAL-field symbols at the front of every burst.
    header_symbols: usize,
    /// One datapath kit per MCS table row.
    rates: RateTable,
    /// The fine 32-tap correlator. The batch schedule only scans with
    /// it (`&self`); the streaming receiver's tracker takes a clone.
    pub(crate) sync: TimeSynchronizer,
    estimator: ChannelEstimator,
    qrd: CordicQrd,
    detector: ZfDetector,
    phase: PilotPhaseCorrector,
    timing: TimingCorrector,
    viterbi: ViterbiDecoder,
    /// Base pilot signs of the subcarrier map.
    pattern: Vec<i8>,
    /// Positions of data carriers within the occupied-carrier order.
    data_pos: Vec<usize>,
    /// Positions of pilot carriers within the occupied-carrier order.
    pilot_pos: Vec<usize>,
    /// Logical subcarrier numbers of the pilots (for tau estimation).
    pilot_indices: Vec<i32>,
    /// Logical indices of the occupied carriers.
    occupied: Vec<i32>,
    /// FFT bin of each occupied carrier (the gather map).
    occ_bins: Vec<usize>,
    /// Soft (LLR) or hard demapping into the Viterbi decoder.
    soft: bool,
}

impl RxCore {
    /// Builds the receiver tables for a configuration.
    pub(crate) fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        cfg.validate()?;
        let geometry = cfg.geometry();
        let demodulator = OfdmDemodulator::new(geometry.fft_size())?;
        let map = demodulator.map();
        let taps = sync_reference(demodulator.fft(), map, DEFAULT_AMPLITUDE)?;
        let sync = TimeSynchronizer::new(taps, DEFAULT_THRESHOLD_FACTOR)
            .map_err(|e| PhyError::BadConfig(e.to_string()))?;
        let (data_pos, pilot_pos, occupied) = carrier_positions(map);
        Ok(Self {
            header_symbols: geometry.header_symbols(),
            rates: RateTable::new(geometry)?,
            sync,
            estimator: ChannelEstimator::new(geometry.fft_size())?,
            qrd: CordicQrd::new(),
            detector: ZfDetector::new(),
            phase: PilotPhaseCorrector::new(),
            timing: TimingCorrector::new(),
            viterbi: ViterbiDecoder::new(CodeSpec::ieee80211a()),
            pattern: map.pilot_pattern().to_vec(),
            pilot_indices: pilot_pos.iter().map(|&p| occupied[p]).collect(),
            occ_bins: occupied.iter().map(|&l| map.bin(l)).collect(),
            data_pos,
            pilot_pos,
            occupied,
            soft: geometry.soft_decoding(),
            cfg,
        })
    }

    /// A workspace sized for this receiver's carrier geometry.
    pub(crate) fn workspace(&self) -> RxWorkspace {
        RxWorkspace::new(
            self.cfg.geometry(),
            self.occupied.len(),
            self.pilot_pos.len(),
        )
    }

    /// The configuration in use.
    pub(crate) fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// The static link geometry.
    pub(crate) fn geometry(&self) -> &LinkGeometry {
        self.cfg.geometry()
    }

    /// Occupied carriers per OFDM symbol.
    fn n_occupied(&self) -> usize {
        self.occupied.len()
    }

    /// Lane groups of one symbol's occupied carriers.
    fn occ_groups(&self) -> usize {
        lane_groups(self.n_occupied())
    }

    /// Gathers the occupied carriers out of one FFT frame, in the
    /// canonical occupied order, straight into bus-word lane groups —
    /// the single gather map every receive mode uses. The FFT saturates
    /// its output onto the 16-bit bus, so every word fits its lane;
    /// padding lanes are left as they are (zero).
    fn gather_occ(&self, frame: &[CQ15], re: &mut [Lanes], im: &mut [Lanes]) {
        let groups = re.iter_mut().zip(im.iter_mut());
        for ((re, im), bins) in groups.zip(self.occ_bins.chunks(LANES)) {
            for (k, &bin) in bins.iter().enumerate() {
                let c = frame[bin];
                debug_assert!(mimo_fixed::on_bus(c), "FFT output {c:?} off the bus");
                re[k] = c.re.raw() as i32;
                im[k] = c.im.raw() as i32;
            }
        }
    }

    /// Estimates and inverts the 4×4 channel from the staggered LTS
    /// views (`lts_views[rx][slot]`, each `2·N` samples), on the
    /// workspace's estimator buffers, and loads the inverses into the
    /// workspace's `H⁻¹` lane table.
    fn estimate_channel(
        &self,
        lts_views: &[[&[CQ15]; 4]; 4],
        scratch: &mut ChannelScratch,
    ) -> Result<(), PhyError> {
        self.estimator
            .estimate_into(lts_views, &mut scratch.lts_fft, &mut scratch.estimate)?;
        scratch.estimate.invert_all_into(&self.qrd, &mut scratch.h_inv)?;
        scratch.zf.load(&scratch.h_inv);
        Ok(())
    }

    /// Resets a stream workspace for a fresh accumulation pass of
    /// `n_syms` symbols at `kit`'s rate: zeroes the diagnostics
    /// accumulators and sizes + pre-zeroes the mother-code LLR stream
    /// the fused per-symbol scatter fills (the zero fill is the
    /// depuncturer's erasure insertion — see
    /// [`mimo_interleave::FusedDeinterleaver`]).
    fn begin_stream_pass(ws: &mut RxStreamWorkspace, n_syms: usize, kit: &RateKit) {
        ws.evm_num = 0.0;
        ws.evm_den = 0.0;
        ws.phase_acc = 0.0;
        ws.pass_fill = 0;
        ws.stream_llrs.clear();
        ws.stream_llrs.resize(n_syms * kit.mother_bits_per_symbol(), 0);
    }

    /// One stream × one symbol of the per-symbol core, on bus-word
    /// lane groups from end to end: row `k` of the zero-forcing
    /// detection over this symbol's gathered carriers (`rx_re[a]`,
    /// `rx_im[a]` = antenna `a`'s occupied carriers) against the
    /// burst's `H⁻¹` lane table; the pilot common phase φ from the
    /// pilots read out of the lanes, then the pilots alone
    /// phase-corrected for the feed-forward timing τ, then both
    /// de-rotations of the whole symbol (`−φ`, then `−l·τ`) in place on
    /// its lane groups; then the data carriers' lanes gathered and this
    /// symbol's LLRs scattered straight into their mother-code
    /// positions of `ws.stream_llrs` through the kit's fused
    /// deinterleave+depuncture table — demap, de-interleave and
    /// depuncture in **one pass** on `f64` lanes, which slices each
    /// carrier to its nearest constellation point from the same
    /// per-axis quotient and returns the symbol's EVM sums.
    /// `collect_diag` adds them, and the pilot phase, to the stream's
    /// diagnostics (the SIGNAL-field pass leaves it off). `sym` is the
    /// absolute symbol index after the LTS (= pilot polarity index).
    /// Zero heap allocation: every buffer lives in `ws` (sized by
    /// `begin_stream_pass` for the burst) and is reused across symbols
    /// and bursts.
    // phylint: hot
    #[expect(clippy::too_many_arguments, reason = "one argument per pipeline input")]
    fn process_symbol(
        &self,
        k: usize,
        ws: &mut RxStreamWorkspace,
        rx_re: &[&[Lanes]; 4],
        rx_im: &[&[Lanes]; 4],
        zf: &ZfTable,
        kit: &RateKit,
        sym: usize,
        collect_diag: bool,
    ) -> Result<(), PhyError> {
        let eq = &mut ws.eq;
        self.detector
            .detect_bus(zf, rx_re, rx_im, k, &mut eq.re, &mut eq.im)?;

        // Common phase from the de-scrambled pilot average.
        let polarity = mimo_coding::pilot_polarity(sym);
        for (sign, &base) in ws.signs.iter_mut().zip(&self.pattern) {
            *sign = base * polarity;
        }
        for (pilot, &p) in ws.pilots.iter_mut().zip(&self.pilot_pos) {
            *pilot = bus_carrier(&eq.re, &eq.im, p);
        }
        let phi = self.phase.estimate_phase(&ws.pilots, &ws.signs);
        if collect_diag {
            ws.phase_acc += phi.to_f64();
        }

        // Feed-forward timing (tau) from the phase-corrected pilots.
        // Every carrier rotates on its own, so correcting the pilots
        // alone gives the bits the whole-symbol pass would.
        self.phase.correct_in_place(&mut ws.pilots, phi);
        let tau = self
            .timing
            .estimate_tau(&ws.pilots, &ws.signs, &self.pilot_indices);

        // Both de-rotations of the whole symbol, −φ then −l·τ, in one
        // lane pass.
        self.timing
            .correct_bus_in_place(&mut eq.re, &mut eq.im, &self.occupied, phi, tau);

        // Demap the data carriers at this burst's rate: one pass
        // slices, scatters and measures EVM. The scatter through the
        // fused demap→deinterleave→depuncture map lands in this
        // symbol's pre-zeroed mother-code region (punctured positions
        // are never written, which *is* the zero-LLR erasure).
        let data = &mut ws.data;
        for (i, &p) in self.data_pos.iter().enumerate() {
            let ((dg, dk), (g, k)) = ((i / LANES, i % LANES), (p / LANES, p % LANES));
            data.re[dg][dk] = eq.re[g][k];
            data.im[dg][dk] = eq.im[g][k];
        }
        let mps = kit.mother_bits_per_symbol();
        let end = ws.pass_fill + mps;
        let len = ws.stream_llrs.len();
        let out = ws
            .stream_llrs
            .get_mut(end - mps..end)
            .ok_or(PhyError::LlrOverrun { end, len })?;
        let (num, den) = kit.demapper.demap_bus_scatter_into(
            &data.re,
            &data.im,
            self.data_pos.len(),
            kit.fused.map(),
            self.soft,
            out,
        );
        if collect_diag {
            ws.evm_num += num;
            ws.evm_den += den;
        }
        ws.pass_fill = end;
        Ok(())
    }
    // phylint: end-hot

    /// Decodes one stored capture on `workspace`: the batch acquisition
    /// (coarse STS plateau, fine correlator window, whole-capture scan
    /// as fallback), then [`RxCore::advance`] over the whole capture
    /// with the per-antenna and per-stream work fanned out on a crew of
    /// `width` members (1 = the caller alone).
    pub(crate) fn receive<S>(
        &self,
        workspace: &mut RxWorkspace,
        streams: &[S],
        width: usize,
    ) -> Result<RxResult, PhyError>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        if streams.len() != N_STREAMS {
            return Err(PhyError::BadStreamCount {
                expected: N_STREAMS,
                got: streams.len(),
            });
        }
        // Coarse: the gain-invariant lag-16 STS autocorrelation across
        // all antennas (a fixed cross-correlation threshold is defeated
        // by fading, and payload data — four antennas vs the STS's one —
        // can out-correlate a faded preamble). Fine: the paper's 32-tap
        // cross-correlator, scanned in a ±48-sample window around the
        // coarse estimate, best antenna wins. The coarse detector is the
        // same online CoarseTracker the streaming receiver runs chunk by
        // chunk, kept in the workspace; only a stored capture can fall
        // back to a whole scan.
        let event = match workspace.coarse.scan(streams) {
            Some(coarse) => {
                let lo = coarse.sts_end.saturating_sub(48);
                let hi = coarse.sts_end + 48;
                streams
                    .iter()
                    .filter_map(|s| self.sync.scan_peak_window(s.as_ref(), lo, hi))
                    .max_by_key(|e| e.magnitude)
            }
            None => streams
                .iter()
                .filter_map(|s| self.sync.scan_peak(s.as_ref()))
                .max_by_key(|e| e.magnitude),
        }
        .ok_or(PhyError::SyncNotFound)?;
        let mut burst = self.begin_burst(event);
        match self.advance(workspace, &mut burst, streams, 0, true, width) {
            Ok(Some(closed)) => Ok(closed.result),
            // `end` turns every shortfall into an error, so this arm
            // only restates it.
            Ok(None) => Err(PhyError::TruncatedBurst {
                needed: burst.needed,
                available: streams.iter().map(|s| s.as_ref().len()).min().unwrap_or(0),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// The decode state of a burst the sync stage has just located.
    pub(crate) fn begin_burst(&self, event: SyncEvent) -> BurstState {
        let n = self.cfg.geometry().fft_size();
        let lts0 = event.lts_start.saturating_sub(WINDOW_BACKOFF);
        let data_start = lts0 + 4 * (5 * n / 2);
        BurstState {
            event,
            lts: lts0 + n / 2,
            data_start,
            needed: data_start,
            estimated: false,
            params: None,
            next: data_start,
        }
    }

    /// Advances `burst` over the samples at hand — the one decoder
    /// behind every receiver. `samples[a]` holds antenna `a`'s samples
    /// from absolute index `base` on. In order, as the samples allow:
    ///
    /// 1. once the four LTS fields are buffered, estimate and invert
    ///    the channel;
    /// 2. once `header_symbols + 1` whole symbols follow the LTS,
    ///    ingest the SIGNAL-field symbols, run them through the
    ///    per-symbol core (stream 0, BPSK r=1/2) and parse the header;
    /// 3. ingest every whole payload symbol buffered so far and run it
    ///    through the per-symbol core on all four streams at the
    ///    announced rate;
    /// 4. after the last payload symbol, run each stream's Viterbi
    ///    decode and descramble, reassemble the payload and return the
    ///    closed burst.
    ///
    /// The per-antenna ingest and the per-stream work each fan out on
    /// a crew of `width`.
    ///
    /// Returns `Ok(None)` while the burst needs more samples. With
    /// `end` set no more will come, so a shortfall is
    /// [`PhyError::TruncatedBurst`] instead, raised before the header
    /// is parsed or before any payload symbol runs; `needed` is the end
    /// of `header_symbols + 1` symbols until the header is known and
    /// the burst end after. Every error comes with the absolute sample
    /// at which a search for the next burst resumes.
    pub(crate) fn advance<S>(
        &self,
        ws: &mut RxWorkspace,
        burst: &mut BurstState,
        samples: &[S],
        base: usize,
        end: bool,
        width: usize,
    ) -> Result<Option<ReceivedBurst>, (PhyError, usize)>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        let geometry = self.cfg.geometry();
        let n = geometry.fft_size();
        let field = 5 * n / 2;
        let sym_len = geometry.symbol_samples();
        let h = self.header_symbols;
        let data_start = burst.data_start;
        let failed = |e| (e, data_start);
        let available = base + samples.iter().map(|s| s.as_ref().len()).min().unwrap_or(0);
        let short = |needed| {
            if end {
                Err((PhyError::TruncatedBurst { needed, available }, available))
            } else {
                Ok(None)
            }
        };
        // Every window read below starts at or after `keep_from` and
        // ends at or before `available`, checked phase by phase.
        if burst.keep_from() < base {
            let desync = PhyError::Desync {
                window: burst.keep_from(),
                base,
            };
            return Err((desync, available));
        }
        let RxWorkspace {
            antennas,
            streams,
            header,
            channel,
            ..
        } = ws;

        if !burst.estimated {
            if available < burst.needed {
                return short(burst.needed);
            }
            // The four staggered LTS slots, viewed in place:
            // `lts_views[rx][slot]` borrows straight out of the samples.
            let lo = burst.lts - base;
            let lts_views: [[&[CQ15]; 4]; 4] = std::array::from_fn(|rx| {
                std::array::from_fn(|slot| {
                    let start = lo + slot * field;
                    &samples[rx].as_ref()[start..start + 2 * n]
                })
            });
            self.estimate_channel(&lts_views, channel).map_err(failed)?;
            burst.estimated = true;
            burst.needed = data_start + (h + 1) * sym_len;
        }

        let (params, n_symbols) = match burst.params {
            Some(known) => known,
            None => {
                if available < burst.needed {
                    return short(burst.needed);
                }
                let kit = self.rates.header_kit();
                self.ingest_rows(antennas, samples, data_start - base, h, 1)
                    .map_err(failed)?;
                let freq: [&BusLanes; 4] = std::array::from_fn(|a| &antennas[a].freq_occ);
                Self::begin_stream_pass(header, h, kit);
                self.run_rows(0, header, &freq, &channel.zf, kit, 0, false)
                    .map_err(failed)?;
                let params = self.parse_header(header).map_err(failed)?;
                let n_symbols = params.payload_symbols(geometry);
                for ws in streams.iter_mut() {
                    Self::begin_stream_pass(ws, n_symbols, self.rates.kit(params.mcs));
                }
                burst.next = data_start + h * sym_len;
                burst.needed = burst.next + n_symbols * sym_len;
                burst.params = Some((params, n_symbols));
                (params, n_symbols)
            }
        };

        let burst_end = burst.needed;
        if end && available < burst_end {
            return short(burst_end);
        }
        let count = available.min(burst_end).saturating_sub(burst.next) / sym_len;
        if count == 0 {
            return Ok(None);
        }
        let first = (burst.next - data_start) / sym_len;
        let closing = burst.next + count * sym_len == burst_end;
        let resume = if closing { burst_end } else { data_start };
        self.ingest_rows(antennas, samples, burst.next - base, count, width)
            .map_err(|e| (e, resume))?;
        let freq: [&BusLanes; 4] = std::array::from_fn(|a| &antennas[a].freq_occ);
        let kit = self.rates.kit(params.mcs);
        let zf = &channel.zf;
        let run_stream = |k: usize, ws: &mut RxStreamWorkspace| -> Result<(), PhyError> {
            self.run_rows(k, ws, &freq, zf, kit, first, true)?;
            if closing {
                self.decode_stream(params.stream_bytes(k, N_STREAMS), ws)?;
            }
            Ok(())
        };
        fan_out(width, streams, run_stream).map_err(|e| (e, resume))?;
        burst.next += count * sym_len;
        if !closing {
            return Ok(None);
        }
        let payload = assemble_payload(&params, streams).map_err(|e| (e, burst_end))?;
        Ok(Some(ReceivedBurst {
            result: finish_result(burst.event, params.mcs, n_symbols, streams, payload),
            burst_end,
        }))
    }

    /// Ingests `count` whole symbol periods per antenna, the first at
    /// index `lo` of `samples[a]`, into the rows of that antenna's
    /// `freq_occ`: one [`SymbolIngest`](mimo_ofdm::SymbolIngest) call
    /// strips the CPs and FFTs them all, and each frame's occupied
    /// carriers are gathered into its row of lane groups. The antennas fan out on a
    /// crew of `width`.
    fn ingest_rows<S>(
        &self,
        antennas: &mut [RxAntennaWorkspace],
        samples: &[S],
        lo: usize,
        count: usize,
        width: usize,
    ) -> Result<(), PhyError>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        let sym_len = self.cfg.geometry().symbol_samples();
        let groups = self.occ_groups();
        let run_antenna = |a: usize, ws: &mut RxAntennaWorkspace| -> Result<(), PhyError> {
            let RxAntennaWorkspace { ingest, freq_occ } = ws;
            freq_occ.resize(count * groups);
            let periods = &samples[a].as_ref()[lo..lo + count * sym_len];
            ingest.ingest_periods(periods, |m, frame| {
                let row = m * groups..(m + 1) * groups;
                self.gather_occ(frame, &mut freq_occ.re[row.clone()], &mut freq_occ.im[row]);
            })?;
            Ok(())
        };
        fan_out(width, antennas, run_antenna)
    }

    /// Runs every row of `freq` (`freq[a]` = antenna `a`'s gathered
    /// carriers, one row of lane groups per symbol) through the
    /// per-symbol core for stream `k` at `kit`'s rate. Row `m` is after-LTS symbol `first + m`,
    /// which is also its pilot polarity index (the SIGNAL field takes
    /// the first `header_symbols` positions of the 802.11a numbering).
    #[expect(clippy::too_many_arguments, reason = "one argument per pipeline input")]
    fn run_rows(
        &self,
        k: usize,
        ws: &mut RxStreamWorkspace,
        freq: &[&BusLanes; 4],
        zf: &ZfTable,
        kit: &RateKit,
        first: usize,
        collect_diag: bool,
    ) -> Result<(), PhyError> {
        let groups = self.occ_groups();
        for m in 0..freq[0].re.len() / groups {
            let row = m * groups..(m + 1) * groups;
            let rx_re: [&[Lanes]; 4] = std::array::from_fn(|a| &freq[a].re[row.clone()]);
            let rx_im: [&[Lanes]; 4] = std::array::from_fn(|a| &freq[a].im[row.clone()]);
            self.process_symbol(k, ws, &rx_re, &rx_im, zf, kit, first + m, collect_diag)?;
        }
        Ok(())
    }

    /// Decodes the SIGNAL-field LLRs accumulated in `ws` and parses the
    /// burst parameters (rate index, length, CRC), rejecting lengths
    /// beyond what the four streams of one burst can carry — the one
    /// header parse of the batch and streaming receivers.
    fn parse_header(&self, ws: &mut RxStreamWorkspace) -> Result<BurstParams, PhyError> {
        self.viterbi
            .decode_terminated_into(&ws.stream_llrs, &mut ws.viterbi, &mut ws.decoded)?;
        // The SIGNAL field is never scrambled: parse the bits as-is.
        let params = parse_signal_field(&ws.decoded)?;
        let max = N_STREAMS * MAX_STREAM_BYTES;
        if params.length > max {
            return Err(PhyError::SignalLengthTooLarge {
                length: params.length,
                max,
            });
        }
        Ok(params)
    }

    /// One stream's bit pipeline, inverse of the transmitter's:
    /// Viterbi over the mother-ordered LLR stream (the fused
    /// per-symbol scatter already de-interleaved and depunctured it) →
    /// descramble and pack exactly the bytes the SIGNAL field announced
    /// for this stream in one pass, all in workspace buffers.
    fn decode_stream(
        &self,
        expect_bytes: usize,
        ws: &mut RxStreamWorkspace,
    ) -> Result<(), PhyError> {
        self.viterbi
            .decode_terminated_into(&ws.stream_llrs, &mut ws.viterbi, &mut ws.decoded)?;
        if ws.decoded.len() < 8 * expect_bytes {
            return Err(PhyError::ShortStream {
                decoded_bits: ws.decoded.len(),
                announced_bytes: expect_bytes,
            });
        }
        let bits = &ws.decoded[..8 * expect_bytes];
        Scrambler::new(SCRAMBLER_SEED).descramble_into(bits, &mut ws.bytes);
        Ok(())
    }
}

/// The 4×4 MIMO receiver: time sync → FFT ×4 → channel estimation
/// (CORDIC QRD pipeline) → SIGNAL-field header parse → zero-forcing
/// detection → pilot corrections → demap → deinterleave → Viterbi,
/// per stream, at the rate each burst announces.
#[derive(Debug, Clone)]
pub struct MimoReceiver {
    core: RxCore,
    /// Preallocated hot-path scratch, rewritten by every burst.
    ws: RxWorkspace,
}

impl MimoReceiver {
    /// Builds the receiver from a configuration. Only the geometry
    /// half is used — the default MCS is ignored, because every burst
    /// announces its own rate.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] for invalid configurations.
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        let core = RxCore::new(cfg)?;
        let ws = core.workspace();
        Ok(Self { core, ws })
    }

    /// Builds the receiver from the static link geometry alone — the
    /// natural constructor for auto-rate reception, since nothing
    /// rate-dependent is needed until a burst's header has been
    /// parsed.
    ///
    /// # Errors
    ///
    /// Identical to [`MimoReceiver::new`].
    pub fn from_geometry(geometry: LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        self.core.config()
    }

    /// The static link geometry this receiver was built from.
    pub fn geometry(&self) -> &LinkGeometry {
        self.core.geometry()
    }

    /// Receives one burst from the four antenna streams, learning its
    /// rate and length from the SIGNAL-field header — no prior
    /// knowledge of the transmit MCS is used. Accepts any per-stream
    /// sample container (`Vec<CQ15>`, `&[CQ15]`, boxed slices, …), so
    /// borrowed stream views decode without copying.
    ///
    /// This whole-capture entry point is a batch schedule over the
    /// same per-symbol core the [`StreamingReceiver`](crate::StreamingReceiver)
    /// drives chunk by chunk; the two are bit-identical burst for
    /// burst.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::SyncNotFound`] when no preamble is detected,
    /// [`PhyError::TruncatedBurst`] when samples run out,
    /// [`PhyError::HeaderCrc`] / [`PhyError::UnsupportedMcs`] for
    /// corrupted or unknown SIGNAL fields, and estimation/decoding
    /// errors otherwise.
    pub fn receive_burst<S>(&mut self, streams: &[S]) -> Result<RxResult, PhyError>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        let width = self.config().parallelism().then(host_parallelism).unwrap_or(1);
        self.core.receive(&mut self.ws, streams, width)
    }
}

/// Round-robin byte reassembly of the per-stream decoded payloads —
/// the inverse of the transmitter's split, shared by the batch and
/// streaming burst closers.
fn assemble_payload(
    params: &BurstParams,
    stream_ws: &[RxStreamWorkspace],
) -> Result<Vec<u8>, PhyError> {
    let per_stream_bytes: [&[u8]; N_STREAMS] = std::array::from_fn(|s| stream_ws[s].bytes.as_slice());
    let total: usize = per_stream_bytes.iter().map(|b| b.len()).sum();
    debug_assert_eq!(total, params.length);
    // phylint: allow(hot_transitive) -- sizes the output payload once per completed burst
    let mut payload = Vec::with_capacity(total);
    let mut cursors = [0usize; N_STREAMS];
    for i in 0..total {
        let s = i % N_STREAMS;
        let Some(&b) = per_stream_bytes[s].get(cursors[s]) else {
            return Err(PhyError::StreamSplit {
                stream: s,
                got: per_stream_bytes[s].len(),
                expected: params.stream_bytes(s, N_STREAMS),
            });
        };
        payload.push(b);
        cursors[s] += 1;
    }
    Ok(payload)
}

/// Converts an accumulated error-energy ratio to dB with the finite
/// [`EVM_FLOOR_DB`] floor: zero error energy (or an empty
/// accumulation) reports the floor, never `-inf` or NaN.
fn evm_ratio_db(num: f64, den: f64) -> f64 {
    if num > 0.0 && den > 0.0 {
        (10.0 * (num / den).log10()).max(EVM_FLOOR_DB)
    } else {
        EVM_FLOOR_DB
    }
}

/// Builds the final [`RxResult`] from the per-stream workspaces'
/// diagnostics accumulators — one formula for every receive mode.
///
/// EVM aggregates across **all** stream workspaces as
/// `10·log₁₀(Σₖ numₖ / Σₖ denₖ)` (energies summed before the dB
/// conversion), the per-stream figures are each stream's own ratio,
/// and the mean phase averages every stream's accumulated pilot phase
/// over `streams × symbols`. All EVM figures are floored at
/// [`EVM_FLOOR_DB`].
fn finish_result(
    event: SyncEvent,
    mcs: Mcs,
    n_symbols: usize,
    stream_ws: &[RxStreamWorkspace],
    payload: Vec<u8>,
) -> RxResult {
    let mut num = 0.0;
    let mut den = 0.0;
    let mut phase = 0.0;
    let per_stream_evm_db = stream_ws
        .iter()
        .map(|ws| {
            num += ws.evm_num;
            den += ws.evm_den;
            phase += ws.phase_acc;
            evm_ratio_db(ws.evm_num, ws.evm_den)
        })
        // phylint: allow(hot_transitive) -- one per-stream EVM list per decoded burst, not per chunk
        .collect();
    let samples = (stream_ws.len() * n_symbols.max(1)).max(1);
    RxResult {
        payload,
        diagnostics: RxDiagnostics {
            sync: event,
            mcs,
            quality: ChannelQuality {
                evm_db: evm_ratio_db(num, den),
                per_stream_evm_db,
                mean_phase_rad: phase / samples as f64,
            },
            n_symbols,
        },
    }
}

/// Splits the occupied-carrier order into data and pilot positions.
fn carrier_positions(map: &SubcarrierMap) -> (Vec<usize>, Vec<usize>, Vec<i32>) {
    let occupied = map.occupied_indices();
    let pilots: std::collections::HashSet<i32> = map.pilot_indices().iter().copied().collect();
    let mut data_pos = Vec::new();
    let mut pilot_pos = Vec::new();
    for (i, &l) in occupied.iter().enumerate() {
        if pilots.contains(&l) {
            pilot_pos.push(i);
        } else {
            data_pos.push(i);
        }
    }
    (data_pos, pilot_pos, occupied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::MimoTransmitter;

    #[test]
    fn loopback_recovers_payload() {
        let cfg = PhyConfig::paper_synthesis();
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..120).map(|i| (i * 31 + 7) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        let result = rx.receive_burst(&burst.streams).unwrap();
        assert_eq!(result.payload, payload);
        assert_eq!(result.diagnostics.mcs, Mcs::Qam16R12);
        // Ideal channel: EVM well below -20 dB, on every stream.
        let q = &result.diagnostics.quality;
        assert!(q.evm_db < -20.0, "EVM {}", q.evm_db);
        assert_eq!(q.per_stream_evm_db.len(), 4);
        for (k, &evm) in q.per_stream_evm_db.iter().enumerate() {
            assert!(evm < -20.0 && evm.is_finite(), "stream {k}: EVM {evm}");
        }
        assert!(q.worst_stream_evm_db() >= q.evm_db);
    }

    #[test]
    fn evm_floor_is_finite_never_neg_infinity() {
        // Zero error energy (and the degenerate empty accumulation)
        // report the finite floor, not -inf/NaN.
        assert_eq!(super::evm_ratio_db(0.0, 1.0), EVM_FLOOR_DB);
        assert_eq!(super::evm_ratio_db(0.0, 0.0), EVM_FLOOR_DB);
        // Tiny-but-nonzero error clamps at the floor too.
        assert_eq!(super::evm_ratio_db(1e-30, 1.0), EVM_FLOOR_DB);
        // Ordinary ratios convert normally.
        assert!((super::evm_ratio_db(0.01, 1.0) + 20.0).abs() < 1e-12);
    }

    #[test]
    fn finish_result_aggregates_every_stream_workspace() {
        // A burst where stream 3's accumulators carry all the error
        // must degrade the aggregate: the pre-fix ws0-only formula
        // would report stream 0's pristine -40 dB.
        let mut ws = RxCore::new(PhyConfig::paper_synthesis()).unwrap().workspace();
        for (k, s) in ws.streams.iter_mut().enumerate() {
            s.evm_den = 100.0;
            s.evm_num = if k == 3 { 10.0 } else { 0.01 };
            s.phase_acc = 0.2;
        }
        let event = SyncEvent {
            peak_index: 0,
            lts_start: 0,
            magnitude: mimo_fixed::Q16::from_f64(0.0),
        };
        let result =
            finish_result(event, Mcs::Qam16R12, 10, &ws.streams, Vec::new());
        let q = &result.diagnostics.quality;
        // Σnum/Σden = 10.03/400 ≈ -16 dB, not stream 0's -40 dB.
        assert!((q.evm_db - 10.0 * (10.03f64 / 400.0).log10()).abs() < 1e-9);
        assert!((q.per_stream_evm_db[0] + 40.0).abs() < 1e-9);
        assert!((q.per_stream_evm_db[3] + 10.0).abs() < 1e-9);
        assert!((q.worst_stream_evm_db() + 10.0).abs() < 1e-9);
        // Phase averages over streams × symbols: 4·0.2 / (4·10).
        assert!((q.mean_phase_rad - 0.02).abs() < 1e-12);
    }

    #[test]
    fn header_symbols_do_not_pollute_payload_evm() {
        // The SIGNAL field is BPSK on stream 0 (streams 1-3 silent).
        // If those symbols leaked into the payload-MCS accumulators,
        // a 64-QAM burst would re-demap them against the 64-QAM grid
        // and report tens of dB of phantom error. Pinned here: the
        // header pass runs with collect_diag = false on the dedicated
        // header workspace, and begin_stream_pass resets the payload
        // accumulators, so an ideal-channel 64-QAM burst stays clean
        // on every stream.
        let cfg = PhyConfig::gigabit();
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..160).map(|i| (i * 53 + 11) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        let result = rx.receive_burst(&burst.streams).unwrap();
        assert_eq!(result.payload, payload);
        let q = &result.diagnostics.quality;
        for (k, &evm) in q.per_stream_evm_db.iter().enumerate() {
            assert!(evm < -25.0, "stream {k}: header leaked into EVM? {evm}");
        }
    }

    #[test]
    fn auto_rate_loopback_every_mcs() {
        // One geometry-only receiver decodes every table rate with no
        // reconfiguration between bursts.
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let mut rx = MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        for mcs in Mcs::ALL {
            let payload: Vec<u8> = (0..64).map(|i| (i * 17) as u8).collect();
            let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
            let result = rx.receive_burst(&burst.streams).unwrap();
            assert_eq!(result.payload, payload, "{mcs}");
            assert_eq!(result.diagnostics.mcs, mcs);
        }
    }

    #[test]
    fn every_product_decode_takes_the_viterbi_lanes() {
        // Soft LLRs are clamped to LLR_MAX and hard ones are ±HARD_LLR,
        // both inside the i16 lane tier's bound, so the header and every
        // stream's payload decode at every rate must dispatch to the
        // lanes, never to the scalar fallback.
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        for soft in [true, false] {
            let geometry = LinkGeometry::mimo().with_soft_decoding(soft);
            let mut rx = MimoReceiver::from_geometry(geometry).unwrap();
            for mcs in Mcs::ALL {
                let payload: Vec<u8> = (0..200).map(|i| (i * 29 + 3) as u8).collect();
                let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
                let result = rx.receive_burst(&burst.streams).unwrap();
                assert_eq!(result.payload, payload, "{mcs}, soft {soft}");
                let viterbi = &rx.core.viterbi;
                let header = viterbi.kernel_name(&rx.ws.header.stream_llrs);
                assert!(header.starts_with("simd-"), "{mcs}, soft {soft}: header on {header}");
                for (k, ws) in rx.ws.streams.iter().enumerate() {
                    let name = viterbi.kernel_name(&ws.stream_llrs);
                    assert!(name.starts_with("simd-"), "{mcs}, soft {soft}, stream {k}: {name}");
                }
            }
        }
    }

    #[test]
    fn borrowed_stream_views_decode_without_copying() {
        let cfg = PhyConfig::paper_synthesis();
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..50).map(|i| (i * 3) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        let views: Vec<&[CQ15]> = burst.streams.iter().map(Vec::as_slice).collect();
        let result = rx.receive_burst(&views).unwrap();
        assert_eq!(result.payload, payload);
    }

    #[test]
    fn serial_mode_loopback() {
        let cfg = PhyConfig::paper_synthesis().with_parallelism(false);
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..96).map(|i| (i * 13 + 1) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        let result = rx.receive_burst(&burst.streams).unwrap();
        assert_eq!(result.payload, payload);
    }

    #[test]
    fn missing_streams_rejected() {
        let mut rx = MimoReceiver::new(PhyConfig::paper_synthesis()).unwrap();
        assert!(matches!(
            rx.receive_burst(&vec![vec![CQ15::ZERO; 100]; 3]),
            Err(PhyError::BadStreamCount { got: 3, .. })
        ));
    }

    #[test]
    fn corrupted_header_is_a_typed_error_not_garbage() {
        let cfg = PhyConfig::paper_synthesis();
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..80).map(|i| i as u8).collect();
        let mut burst = tx.transmit_burst(&payload).unwrap();
        // Silence stream 0's SIGNAL region (a dropped header): the
        // decoder sees zero-energy symbols, and the CRC's 0xFF init
        // guarantees the all-zero decode fails the check. (Naive
        // sign-flipping would be *corrected away* by the pilot
        // common-phase corrector — the pilots flip too.)
        let pre = tx.preamble_schedule().data_offset();
        let header_len = burst.header_symbols * 80;
        for s in &mut burst.streams[0][pre..pre + header_len] {
            *s = CQ15::ZERO;
        }
        assert!(matches!(
            rx.receive_burst(&burst.streams),
            Err(PhyError::HeaderCrc { .. })
        ));
    }

    #[test]
    fn noise_only_input_fails_gracefully() {
        let mut rx = MimoReceiver::new(PhyConfig::paper_synthesis()).unwrap();
        // Constant-amplitude junk: either no sync or a failed decode,
        // never a panic.
        let junk = vec![vec![CQ15::from_f64(0.01, -0.01); 4000]; 4];
        let _ = rx.receive_burst(&junk);
    }
}
