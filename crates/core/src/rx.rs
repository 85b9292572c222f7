//! The MIMO receiver (Fig 5), auto-rate per burst.
//!
//! The receiver is built from the static [`LinkGeometry`] alone — it
//! has **no prior knowledge of any burst's rate**. Each burst's MCS
//! and payload length are recovered from the SIGNAL-field header
//! (stream 0's first symbols, always BPSK r=1/2; see
//! [`crate::signal`]) before the payload is decoded, with the
//! rate-dependent datapath (demapper thresholds, interleaver
//! permutation, puncture pattern) selected per burst from a prebuilt
//! [`RateTable`](crate::rates::RateTable).
//!
//! # One per-symbol core, three drivers
//!
//! Since the streaming refactor the per-symbol datapath exists exactly
//! once, shared by every receive mode:
//!
//! * [`SymbolIngest`](mimo_ofdm::SymbolIngest) (one per antenna, in
//!   the workspace) strips the CP and FFTs one on-air symbol period,
//!   or [`FFT_LANES`] consecutive periods in one lane-parallel FFT;
//!   `RxCore::gather_occ` pulls the occupied carriers out of each
//!   frame.
//! * `RxCore::process_symbol` runs one stream × one symbol:
//!   zero-forcing detection (row `k` of `H⁻¹·r`), then the shared
//!   [`SymbolPost`] stage — pilot common-phase and timing correction,
//!   then one fused demap→deinterleave→depuncture scatter that lands
//!   this symbol's LLRs directly in mother-code (Viterbi branch) order
//!   in the stream workspace.
//! * The burst-end bit pipeline ([`decode_bit_pipeline`]), SIGNAL
//!   parse ([`parse_header_ws`]) and round-robin reassembly
//!   ([`assemble_payload`]) close a burst.
//!
//! `RxCore` holds the immutable half — rate kits, correlator taps,
//! estimator, detector, trellis, carrier maps — and every method takes
//! the scratch it writes as an explicit `&mut` workspace. Each driver
//! holds one `RxCore` next to the workspaces it owns:
//! [`MimoReceiver`] one workspace, [`BurstPipeline`](crate::BurstPipeline)
//! one per crew member, [`StreamingReceiver`](crate::StreamingReceiver)
//! one plus its sample history and sync tracker. The drivers are thin
//! schedules over the same pieces, so their outputs are bit-identical
//! by construction — enforced by `tests/streaming_rx.rs`,
//! `tests/burst_pipeline.rs` and `tests/parallel_determinism.rs`.
//!
//! # The batch schedule
//!
//! The whole-capture hot path is organized in two parallel stages
//! around the preallocated [`RxWorkspace`](crate::workspace::RxWorkspace):
//!
//! 1. **Per antenna** — ingest every payload symbol and gather the
//!    occupied carriers into that antenna's flat frequency buffer.
//!    Each whole group of [`FFT_LANES`] symbols goes through
//!    `SymbolIngest::ingest_batch` (eight FFTs in lockstep on `i32`
//!    lanes); the last `available mod 8` symbols go one at a time
//!    through `ingest_period`, unpadded. Both give the same frames bit
//!    for bit, so the split never shows in the output.
//! 2. **Per stream** — the per-symbol core over all of the burst's
//!    symbols, then that stream's Viterbi decode and descramble,
//!    entirely inside stream `k`'s workspace at the burst's MCS.
//!
//! Both stages are embarrassingly parallel across the four channels.
//! Each runs on a crew that includes the calling thread, one member
//! per host CPU when [`PhyConfig::parallelism`] is on and the caller
//! alone otherwise; every member owns a contiguous run of the channel
//! workspaces. All widths are bit-identical, because every output cell
//! is computed by exactly one member in a fixed order.
//! The SIGNAL-field decode runs between the stages, on the already
//! gathered carriers, before the per-stream fan-out.
//!
//! `RxCore::receive` runs both stages on the workspace it is handed
//! at a given crew width. [`BurstPipeline`](crate::BurstPipeline)
//! calls it at width one on each member's own workspace and runs
//! whole bursts side by side instead — including **mixed-rate
//! batches**, since every burst announces its own rate.

use mimo_chanest::{ChannelEstimator, CordicQrd, FxMat4};
use mimo_coding::{bits, hard_to_llr, CodeSpec, Scrambler, ViterbiDecoder};
use mimo_fixed::{CQ15, Cf64};
use mimo_ofdm::preamble::{sync_reference, DEFAULT_AMPLITUDE};
use mimo_ofdm::{OfdmDemodulator, SubcarrierMap, FFT_LANES};
use mimo_sync::{SyncEvent, TimeSynchronizer, DEFAULT_THRESHOLD_FACTOR};

use crate::config::{host_parallelism, LinkGeometry, PhyConfig};
use crate::crew::fan_out;
use crate::error::PhyError;
use crate::mcs::{BurstParams, Mcs};
use crate::rates::{RateKit, RateTable};
use crate::signal::{parse_signal_field, SIGNAL_BITS};
use crate::tx::SCRAMBLER_SEED;
use crate::workspace::{RxStreamWorkspace, RxWorkspace};

/// Samples the demodulation windows retreat into the cyclic
/// prefix/guard. Multipath makes the correlator lock on the strongest
/// (possibly delayed) tap; without backoff a late lock slides the FFT
/// window into the next symbol (inter-symbol interference). The
/// backoff's phase ramp appears identically in the LTS windows, so the
/// channel estimate absorbs it.
pub(crate) const WINDOW_BACKOFF: usize = 6;

/// Finite floor for every reported EVM figure, dB. A burst whose
/// equalized constellation matches the re-mapped reference exactly
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
/// The per-stream vector is built once at burst close (alongside the
/// payload `Vec`, the receive path's one pre-existing per-burst
/// allocation) — the per-symbol steady-state loops remain
/// allocation-free.
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

/// Everything the front (antenna) stage hands the back (stream) stage:
/// the sync detection, the inverted channel matrices and the demodulated
/// symbol count. The gathered frequency-domain carriers travel in the
/// workspace itself.
#[derive(Debug, Clone)]
struct FrontInfo {
    event: SyncEvent,
    h_inv: Vec<FxMat4>,
    available: usize,
    /// Absolute sample index where the demodulated symbols begin, so
    /// the back stage can report truncation in the same absolute
    /// units the front stage uses.
    data_start: usize,
    /// Length of the shortest receive stream, samples.
    shortest: usize,
}

/// The post-equalization half of the per-symbol receive datapath:
/// pilot common-phase estimation/correction, feed-forward timing
/// correction, demap and de-interleave, with optional per-stream
/// EVM/phase diagnostics. It operates on the equalized occupied
/// carriers already sitting in `ws.eq`, so the 4×4 chain (after
/// zero-forcing detection), the 1×1 baseline (after its scalar
/// equalizer) and the streaming receiver all run **this one
/// implementation** — symbol for symbol, bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct SymbolPost {
    phase: mimo_detect::PilotPhaseCorrector,
    timing: mimo_detect::TimingCorrector,
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
    /// Soft (LLR) or hard demapping into the Viterbi decoder.
    soft: bool,
}

impl SymbolPost {
    pub(crate) fn new(map: &SubcarrierMap, soft: bool) -> Self {
        let (data_pos, pilot_pos, occupied) = carrier_positions(map);
        let pilot_indices = pilot_pos.iter().map(|&p| occupied[p]).collect();
        Self {
            phase: mimo_detect::PilotPhaseCorrector::new(),
            timing: mimo_detect::TimingCorrector::new(),
            pattern: map.pilot_pattern().to_vec(),
            data_pos,
            pilot_pos,
            pilot_indices,
            occupied,
            soft,
        }
    }

    /// Occupied carriers per symbol.
    pub(crate) fn n_occupied(&self) -> usize {
        self.occupied.len()
    }

    /// Pilot carriers per symbol.
    pub(crate) fn n_pilots(&self) -> usize {
        self.pilot_pos.len()
    }

    /// Runs the stage over `ws.eq` for absolute symbol index `sym`
    /// (the pilot polarity index), scattering this symbol's LLRs
    /// straight into their mother-code positions of `ws.stream_llrs`
    /// through the kit's fused deinterleave+depuncture table — demap,
    /// de-interleave and depuncture in **one pass**. Zero heap
    /// allocation: every buffer lives in `ws` (sized by
    /// `begin_stream_pass` for the burst) and is reused across symbols
    /// and bursts.
    pub(crate) fn run(
        &self,
        kit: &RateKit,
        sym: usize,
        collect_diag: bool,
        ws: &mut RxStreamWorkspace,
    ) -> Result<(), PhyError> {
        let ncbps = kit.coded_bits_per_symbol();

        // Common phase from the de-scrambled pilot average.
        let polarity = mimo_coding::pilot_polarity(sym);
        for (sign, &base) in ws.signs.iter_mut().zip(&self.pattern) {
            *sign = base * polarity;
        }
        for (pilot, &p) in ws.pilots.iter_mut().zip(&self.pilot_pos) {
            *pilot = ws.eq[p];
        }
        let phi = self.phase.estimate_phase(&ws.pilots, &ws.signs);
        self.phase.correct_in_place(&mut ws.eq, phi);
        if collect_diag {
            ws.phase_acc += phi.to_f64();
        }

        // Feed-forward timing (tau) from the corrected pilots.
        for (pilot, &p) in ws.pilots.iter_mut().zip(&self.pilot_pos) {
            *pilot = ws.eq[p];
        }
        let tau = self
            .timing
            .estimate_tau(&ws.pilots, &ws.signs, &self.pilot_indices);
        self.timing.correct_in_place(&mut ws.eq, &self.occupied, tau);

        // Demap the data carriers at this burst's rate.
        for (d, &p) in ws.data.iter_mut().zip(&self.data_pos) {
            *d = ws.eq[p];
        }
        if collect_diag {
            let (num, den) = evm_contribution(kit, ws)?;
            ws.evm_num += num;
            ws.evm_den += den;
        }
        // Fused demap→deinterleave→depuncture: one scatter into this
        // symbol's pre-zeroed mother-code region (punctured positions
        // are never written, which *is* the zero-LLR erasure).
        let mps = kit.mother_bits_per_symbol();
        let out = ws
            .stream_llrs
            .get_mut(ws.pass_fill..ws.pass_fill + mps)
            .ok_or_else(|| {
                PhyError::Decode("symbol pass overran the reserved LLR buffer".into())
            })?;
        if self.soft {
            kit.demapper
                .soft_demap_scatter_into(&ws.data, kit.fused.map(), out);
        } else {
            let hard = &mut ws.hard_bits[..ncbps];
            kit.demapper.hard_demap_into(&ws.data, hard);
            for (&bit, &pos) in hard.iter().zip(kit.fused.map()) {
                out[pos as usize] = hard_to_llr(bit);
            }
        }
        ws.pass_fill += mps;
        Ok(())
    }
}

/// The immutable half of the 4×4 receiver: the rate kits, correlator
/// taps, channel estimator, QRD, detector, trellis and carrier maps,
/// plus the stage methods that run on them. Every method borrows the
/// scratch it writes as an explicit workspace, so one core serves any
/// number of workspaces — one per [`MimoReceiver`], one per
/// [`BurstPipeline`](crate::BurstPipeline) crew member, one per
/// [`StreamingReceiver`](crate::StreamingReceiver).
#[derive(Debug, Clone)]
pub(crate) struct RxCore {
    cfg: PhyConfig,
    /// SIGNAL-field symbols at the front of every burst.
    pub(crate) header_symbols: usize,
    /// One datapath kit per MCS table row.
    pub(crate) rates: RateTable,
    /// The fine 32-tap correlator. The batch schedule only scans with
    /// it (`&self`); the streaming receiver's tracker takes a clone.
    pub(crate) sync: TimeSynchronizer,
    estimator: ChannelEstimator,
    qrd: CordicQrd,
    detector: mimo_detect::ZfDetector,
    pub(crate) viterbi: ViterbiDecoder,
    /// The shared post-equalization per-symbol stage.
    post: SymbolPost,
    /// FFT bin of each occupied carrier (the gather map).
    occ_bins: Vec<usize>,
}

impl RxCore {
    /// Builds the tables for a 4-stream configuration.
    pub(crate) fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        cfg.validate()?;
        if cfg.n_streams() != 4 {
            return Err(PhyError::BadConfig(format!(
                "MimoReceiver requires 4 streams, got {}",
                cfg.n_streams()
            )));
        }
        let geometry = cfg.geometry();
        let demodulator = OfdmDemodulator::new(geometry.fft_size())?;
        let taps = sync_reference(demodulator.fft(), demodulator.map(), DEFAULT_AMPLITUDE)?;
        let sync = TimeSynchronizer::new(taps, DEFAULT_THRESHOLD_FACTOR)
            .map_err(|e| PhyError::BadConfig(e.to_string()))?;
        let estimator = ChannelEstimator::new(geometry.fft_size())?;
        let rates = RateTable::new(geometry)?;
        let viterbi = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let post = SymbolPost::new(demodulator.map(), geometry.soft_decoding());
        let occ_bins = post
            .occupied
            .iter()
            .map(|&l| demodulator.map().bin(l))
            .collect();
        Ok(Self {
            header_symbols: geometry.header_symbols(),
            cfg,
            rates,
            sync,
            estimator,
            qrd: CordicQrd::new(),
            detector: mimo_detect::ZfDetector::new(),
            viterbi,
            post,
            occ_bins,
        })
    }

    /// A workspace sized for this receiver's carrier geometry at the
    /// max-MCS envelope.
    pub(crate) fn workspace(&self) -> RxWorkspace {
        RxWorkspace::new(
            self.cfg.geometry(),
            self.rates.max_coded_bits_per_symbol(),
            self.post.n_occupied(),
            self.post.n_pilots(),
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
    pub(crate) fn n_occupied(&self) -> usize {
        self.post.n_occupied()
    }

    /// Gathers the occupied carriers out of one FFT frame, in the
    /// canonical occupied order — the single gather map every receive
    /// mode uses.
    pub(crate) fn gather_occ(&self, frame: &[CQ15], dst: &mut [CQ15]) {
        for (d, &bin) in dst.iter_mut().zip(&self.occ_bins) {
            *d = frame[bin];
        }
    }

    /// Estimates and inverts the 4×4 channel from the staggered LTS
    /// views (`lts_views[rx][slot]`, each `2·N` samples).
    pub(crate) fn estimate_channel(
        &self,
        lts_views: &[[&[CQ15]; 4]; 4],
    ) -> Result<Vec<FxMat4>, PhyError> {
        let estimate = self.estimator.estimate(lts_views)?;
        Ok(estimate.invert_all(&self.qrd)?)
    }

    /// Resets a stream workspace for a fresh accumulation pass of
    /// `n_syms` symbols at `kit`'s rate: zeroes the diagnostics
    /// accumulators and sizes + pre-zeroes the mother-code LLR stream
    /// the fused per-symbol scatter fills (the zero fill is the
    /// depuncturer's erasure insertion — see
    /// [`mimo_interleave::FusedDeinterleaver`]).
    pub(crate) fn begin_stream_pass(ws: &mut RxStreamWorkspace, n_syms: usize, kit: &RateKit) {
        ws.evm_num = 0.0;
        ws.evm_den = 0.0;
        ws.phase_acc = 0.0;
        ws.pass_fill = 0;
        ws.stream_llrs.clear();
        ws.stream_llrs.resize(n_syms * kit.mother_bits_per_symbol(), 0);
    }

    /// One stream × one symbol of the per-symbol core: row `k` of the
    /// zero-forcing detection over this symbol's gathered carriers
    /// (`rx_occ[a]` = antenna `a`'s occupied carriers), then the
    /// shared [`SymbolPost`] stage. `sym` is the absolute symbol index
    /// after the LTS (= pilot polarity index).
    // phylint: hot
    #[allow(clippy::too_many_arguments)] // one argument per pipeline input
    pub(crate) fn process_symbol(
        &self,
        k: usize,
        ws: &mut RxStreamWorkspace,
        rx_occ: &[&[CQ15]; 4],
        h_inv: &[FxMat4],
        kit: &RateKit,
        sym: usize,
        collect_diag: bool,
    ) -> Result<(), PhyError> {
        self.detector
            .detect_stream_into(h_inv, rx_occ, k, &mut ws.eq)?;
        self.post.run(kit, sym, collect_diag, ws)
    }
    // phylint: end-hot

    /// Decodes one whole burst on `workspace`: the front (antenna)
    /// stage, then the back (stream) stage, each fanned out on a crew
    /// of `width` members (1 = the caller alone).
    pub(crate) fn receive<S>(
        &self,
        workspace: &mut RxWorkspace,
        streams: &[S],
        width: usize,
    ) -> Result<RxResult, PhyError>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        let front = self.front_stage(workspace, streams, width)?;
        self.back_stage(workspace, &front, width)
    }

    /// The front (antenna) stage of one burst: time sync, channel
    /// estimation/inversion, then per-antenna symbol ingest + carrier
    /// gather into the workspace. Entirely rate-independent — it runs
    /// before the SIGNAL field is parsed.
    fn front_stage<S>(
        &self,
        workspace: &mut RxWorkspace,
        streams: &[S],
        width: usize,
    ) -> Result<FrontInfo, PhyError>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        if streams.len() != 4 {
            return Err(PhyError::BadStreamCount {
                expected: 4,
                got: streams.len(),
            });
        }
        let n = self.cfg.fft_size();
        let field = 5 * n / 2;

        // --- Time synchronisation, two stages. Coarse: the
        // gain-invariant lag-16 STS autocorrelation across all
        // antennas (a fixed cross-correlation threshold is defeated by
        // fading, and payload data — four antennas vs the STS's one —
        // can out-correlate a faded preamble). Fine: the paper's
        // 32-tap cross-correlator, scanned in a ±48-sample window
        // around the coarse estimate, best antenna wins. The coarse
        // detector is the same online CoarseTracker the streaming
        // receiver runs chunk by chunk. ---
        let event = match mimo_sync::coarse_sts_end(streams) {
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
        let lts0 = event.lts_start.saturating_sub(WINDOW_BACKOFF);

        // --- Channel estimation from the four staggered LTS slots,
        // viewed in place: `lts_views[rx][slot]` borrows straight out
        // of the receive streams, no samples are copied. ---
        let needed = 4 * field;
        let shortest = streams.iter().map(|s| s.as_ref().len()).min().unwrap_or(0);
        if lts0 + needed > shortest {
            return Err(PhyError::TruncatedBurst {
                needed: lts0 + needed,
                available: shortest,
            });
        }
        let lts_views: [[&[CQ15]; 4]; 4] = std::array::from_fn(|rx| {
            std::array::from_fn(|slot| {
                let start = lts0 + slot * field + n / 2;
                &streams[rx].as_ref()[start..start + 2 * n]
            })
        });
        let h_inv = self.estimate_channel(&lts_views)?;

        // --- Demodulate every whole symbol after the preamble (the
        // SIGNAL header and payload both come from this gather; how
        // many symbols are *meaningful* is only known once the header
        // is parsed in the back stage). ---
        let data_start = lts0 + 4 * field;
        let sym_len = self.cfg.symbol_samples();
        let available = (shortest - data_start) / sym_len;
        if available == 0 {
            return Err(PhyError::TruncatedBurst {
                needed: data_start + sym_len,
                available: shortest,
            });
        }
        let n_occ = self.n_occupied();

        // Per antenna: ingest every symbol (CP strip + FFT via the
        // workspace's SymbolIngest) and gather the occupied carriers
        // (one grow per burst, none per symbol). Whole groups of
        // FFT_LANES symbols share one lane-parallel FFT; the remainder
        // goes one symbol at a time.
        let run_antenna = |a: usize,
                           ws: &mut crate::workspace::RxAntennaWorkspace|
         -> Result<(), PhyError> {
            ws.freq_occ.resize(available * n_occ, CQ15::ZERO);
            let periods = &streams[a].as_ref()[data_start..data_start + available * sym_len];
            let whole = available / FFT_LANES * FFT_LANES;
            let (batched, tail) = periods.split_at(whole * sym_len);
            let (occ_batched, occ_tail) = ws.freq_occ.split_at_mut(whole * n_occ);
            for (group, occ) in batched
                .chunks_exact(FFT_LANES * sym_len)
                .zip(occ_batched.chunks_exact_mut(FFT_LANES * n_occ))
            {
                let frames = ws.ingest.ingest_batch(group)?;
                for (frame, dst) in frames.chunks_exact(n).zip(occ.chunks_exact_mut(n_occ)) {
                    self.gather_occ(frame, dst);
                }
            }
            for (period, dst) in tail.chunks_exact(sym_len).zip(occ_tail.chunks_exact_mut(n_occ)) {
                let frame = ws.ingest.ingest_period(period)?;
                self.gather_occ(frame, dst);
            }
            Ok(())
        };
        fan_out(width, &mut workspace.antennas, run_antenna)?;

        Ok(FrontInfo {
            event,
            h_inv,
            available,
            data_start,
            shortest,
        })
    }

    /// The back (stream) stage of one burst: SIGNAL-field header
    /// decode (stream 0, most robust MCS), then per-stream runs of the
    /// per-symbol core at the announced rate over the carriers the
    /// front stage gathered, then the round-robin payload reassembly.
    fn back_stage(
        &self,
        workspace: &mut RxWorkspace,
        front: &FrontInfo,
        width: usize,
    ) -> Result<RxResult, PhyError> {
        let geometry = self.cfg.geometry();
        let sym_len = geometry.symbol_samples();
        let h = self.header_symbols;
        if front.available <= h {
            return Err(PhyError::TruncatedBurst {
                needed: front.data_start + (h + 1) * sym_len,
                available: front.shortest,
            });
        }
        let RxWorkspace {
            antennas,
            streams: stream_ws,
            header,
        } = workspace;
        let freq: [&[CQ15]; 4] = std::array::from_fn(|a| antennas[a].freq_occ.as_slice());

        // --- SIGNAL field: stream 0, symbols 0..h, BPSK r=1/2. ---
        self.run_stream_symbols(0, header, &freq, &front.h_inv, self.rates.header_kit(), 0, h, false)?;
        let max = self.cfg.n_streams() * crate::tx::MAX_STREAM_BYTES;
        let params = parse_header_ws(&self.viterbi, header, max)?;
        let n_symbols = params.payload_symbols(geometry);
        if front.available < h + n_symbols {
            return Err(PhyError::TruncatedBurst {
                needed: front.data_start + (h + n_symbols) * sym_len,
                available: front.shortest,
            });
        }

        // --- Payload: all streams, symbols h..h+n, announced MCS,
        // each stream decoded by whichever schedule ran its symbols. ---
        let kit = self.rates.kit(params.mcs);
        let n_streams = geometry.n_streams();
        let run_stream = |k: usize, ws: &mut RxStreamWorkspace| -> Result<(), PhyError> {
            self.run_stream_symbols(k, ws, &freq, &front.h_inv, kit, h, n_symbols, true)?;
            self.decode_stream(params.stream_bytes(k, n_streams), ws)
        };
        fan_out(width, stream_ws, run_stream)?;

        let payload = assemble_payload(&params, n_streams, stream_ws)?;
        Ok(finish_result(front.event, params.mcs, n_symbols, stream_ws, payload))
    }

    /// Stream `k`'s batch pass: the per-symbol core over symbols
    /// `first_sym..first_sym + n_syms` of the gathered carrier buffers
    /// at `kit`'s rate — exactly the loop the streaming receiver
    /// unrolls one symbol at a time.
    #[allow(clippy::too_many_arguments)] // the pipeline seam is the point
    fn run_stream_symbols(
        &self,
        k: usize,
        ws: &mut RxStreamWorkspace,
        freq: &[&[CQ15]; 4],
        h_inv: &[FxMat4],
        kit: &RateKit,
        first_sym: usize,
        n_syms: usize,
        collect_diag: bool,
    ) -> Result<(), PhyError> {
        let n_occ = self.n_occupied();
        Self::begin_stream_pass(ws, n_syms, kit);
        for m in 0..n_syms {
            // Absolute symbol index after the LTS — also the pilot
            // polarity index (the SIGNAL field occupies the first
            // header_symbols positions of the 802.11a numbering).
            let sym = first_sym + m;
            let rx_occ: [&[CQ15]; 4] =
                std::array::from_fn(|a| &freq[a][sym * n_occ..(sym + 1) * n_occ]);
            self.process_symbol(k, ws, &rx_occ, h_inv, kit, sym, collect_diag)?;
        }
        Ok(())
    }

    /// One stream's bit pipeline, inverse of the transmitter's:
    /// Viterbi over the already-mother-ordered LLR stream → descramble
    /// → exactly the byte count the SIGNAL field announced, all in
    /// workspace buffers.
    pub(crate) fn decode_stream(
        &self,
        expect_bytes: usize,
        ws: &mut RxStreamWorkspace,
    ) -> Result<(), PhyError> {
        decode_bit_pipeline(
            expect_bytes,
            &self.viterbi,
            &ws.stream_llrs,
            &mut ws.viterbi,
            &mut ws.decoded,
            &mut ws.bytes,
        )
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

/// Decodes the SIGNAL-field LLRs accumulated in `ws` and parses the
/// burst parameters (rate index, length, CRC), rejecting lengths
/// beyond `max_bytes` — the single header parse shared by the MIMO,
/// SISO and streaming receivers.
pub(crate) fn parse_header_ws(
    viterbi: &ViterbiDecoder,
    ws: &mut RxStreamWorkspace,
    max_bytes: usize,
) -> Result<BurstParams, PhyError> {
    viterbi.decode_terminated_into(&ws.stream_llrs, &mut ws.viterbi, &mut ws.decoded)?;
    // The SIGNAL field is never scrambled: parse the bits as-is.
    if ws.decoded.len() < SIGNAL_BITS {
        return Err(PhyError::Decode(
            "header shorter than the SIGNAL field".into(),
        ));
    }
    let params = parse_signal_field(&ws.decoded)?;
    if params.length > max_bytes {
        // phylint: allow(hot_transitive) -- error path: allocates only when the burst is already being rejected
        return Err(PhyError::Decode(format!(
            "SIGNAL length {} exceeds the {max_bytes}-byte burst maximum",
            params.length
        )));
    }
    Ok(params)
}

/// Round-robin byte reassembly of the per-stream decoded payloads —
/// the inverse of the transmitter's split, shared by the batch and
/// streaming burst closers.
pub(crate) fn assemble_payload(
    params: &BurstParams,
    n_streams: usize,
    stream_ws: &[RxStreamWorkspace],
) -> Result<Vec<u8>, PhyError> {
    // phylint: allow(hot_transitive) -- borrows per-stream slices once per completed burst, not per sample
    let per_stream_bytes: Vec<&[u8]> = stream_ws.iter().map(|ws| ws.bytes.as_slice()).collect();
    let total: usize = per_stream_bytes.iter().map(|b| b.len()).sum();
    debug_assert_eq!(total, params.length);
    // phylint: allow(hot_transitive) -- sizes the output payload once per completed burst
    let mut payload = Vec::with_capacity(total);
    let mut cursors = [0usize; 4];
    for i in 0..total {
        let s = i % n_streams;
        let Some(&b) = per_stream_bytes[s].get(cursors[s]) else {
            return Err(PhyError::Decode(
                "stream lengths inconsistent with round-robin split".into(),
            ));
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
pub(crate) fn finish_result(
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

/// EVM contribution of the current data symbol in `ws.data`: squared
/// error vs the nearest constellation point over squared reference
/// power. Uses the workspace's hard-bit and re-map scratch, so it
/// allocates nothing.
fn evm_contribution(kit: &RateKit, ws: &mut RxStreamWorkspace) -> Result<(f64, f64), PhyError> {
    let nbits = kit.coded_bits_per_symbol();
    let hard = &mut ws.hard_bits[..nbits];
    kit.demapper.hard_demap_into(&ws.data, hard);
    // The hard bits come from this kit's own demapper, so the re-map
    // can only fail if the workspace desynchronised from the kit — a
    // typed error, not a panic, since this sits on the payload path.
    kit.mapper.map_bits_into(hard, &mut ws.evm_points)?;
    let mut num = 0.0;
    let mut den = 0.0;
    for (&got, &want) in ws.data.iter().zip(&ws.evm_points) {
        num += (Cf64::from_fixed(got) - Cf64::from_fixed(want)).norm_sqr();
        den += Cf64::from_fixed(want).norm_sqr();
    }
    Ok((num, den))
}

/// The per-stream payload bit pipeline shared by the MIMO, SISO and
/// streaming receivers: Viterbi over the mother-ordered LLR stream
/// (the fused per-symbol scatter already de-interleaved and
/// depunctured it) → descramble → exactly the bytes the SIGNAL field
/// announced for this stream, entirely in caller-owned buffers. One
/// owner of the burst framing so the 1×1 baseline cannot drift from
/// the 4×4 chain.
pub(crate) fn decode_bit_pipeline(
    expect_bytes: usize,
    viterbi: &ViterbiDecoder,
    llrs: &[mimo_coding::Llr],
    viterbi_ws: &mut mimo_coding::ViterbiWorkspace,
    decoded: &mut Vec<u8>,
    bytes: &mut Vec<u8>,
) -> Result<(), PhyError> {
    viterbi.decode_terminated_into(llrs, viterbi_ws, decoded)?;
    Scrambler::new(SCRAMBLER_SEED).scramble_in_place(decoded);
    if decoded.len() < 8 * expect_bytes {
        // phylint: allow(hot_transitive) -- error path of a burst that failed to decode
        return Err(PhyError::Decode(format!(
            "stream decoded {} bits, SIGNAL field announced {} bytes",
            decoded.len(),
            expect_bytes
        )));
    }
    bits::bits_to_bytes_into(&decoded[..8 * expect_bytes], bytes);
    Ok(())
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
