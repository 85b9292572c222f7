//! The traced replay: the 4×4 TX and RX chains re-driven through the
//! leaf crates' public functions, in the order `mimo_core` calls them,
//! with a span around each layer call.
//!
//! The replay must reproduce the product bit for bit — the TX replay
//! the exact burst samples, the RX replay the exact payload and EVM
//! bits of `MimoReceiver::receive_burst` on the same capture — and the
//! traced run fails when it does not, so a replay that has gone stale
//! can never report a wrong per-layer split. Drift the comparison
//! cannot see (work the product added or dropped between the mirrored
//! calls) shows up as `rx.uncovered_us`.
//!
//! A few `mimo_core` constants are crate-private; they are restated
//! here and guarded by the same bit-identity check.

use mimo_baseband::chanest::{ChannelEstimator, CordicQrd, FxMat4};
use mimo_baseband::coding::{
    bits, pilot_polarity, puncture_into, BatchViterbiWorkspace, CodeRate, CodeSpec,
    ConvolutionalEncoder, Llr, Scrambler, ViterbiDecoder, ViterbiWorkspace,
};
use mimo_baseband::detect::{PilotPhaseCorrector, TimingCorrector, ZfDetector};
use mimo_baseband::fixed::{Cf64, CQ15};
use mimo_baseband::interleave::{BlockInterleaver, FusedDeinterleaver};
use mimo_baseband::modem::{SymbolDemapper, SymbolMapper};
use mimo_baseband::ofdm::preamble::{
    lts_time, sts_time, sync_reference, FieldKind, PreambleSchedule, DEFAULT_AMPLITUDE,
};
use mimo_baseband::ofdm::{OfdmDemodulator, OfdmModulator, SymbolIngest};
use mimo_baseband::phy::signal::{encode_signal_field, parse_signal_field, SIGNAL_BITS};
use mimo_baseband::phy::{BurstParams, LinkGeometry, Mcs, PhyError, EVM_FLOOR_DB};
use mimo_baseband::sync::{coarse_sts_end, TimeSynchronizer, DEFAULT_THRESHOLD_FACTOR};

use crate::trace::{Layer, Tracer};

/// `mimo_core`'s scrambler seed (shared by TX and RX).
const SCRAMBLER_SEED: u8 = 0x5D;
/// Trellis flush bits of the terminated encoder (K − 1).
const FLUSH_BITS: usize = 6;
/// Samples the RX demodulation windows retreat into the guard.
const WINDOW_BACKOFF: usize = 6;
/// Per-stream payload byte bound behind the SIGNAL length check.
const MAX_STREAM_BYTES: usize = 8190;
/// Half-width of the fine-sync scan window around the coarse estimate.
const FINE_WINDOW: usize = 48;

type BoxError = Box<dyn std::error::Error>;

/// Why a burst was not decoded, at the granularity the benchmark
/// tallies (`rx.err.sync`, `rx.err.header`, `rx.err.other`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrClass {
    Sync,
    Header,
    Other,
}

impl ErrClass {
    pub fn of(e: &PhyError) -> Self {
        match e {
            PhyError::SyncNotFound => ErrClass::Sync,
            PhyError::HeaderCrc { .. } | PhyError::UnsupportedMcs { .. } => ErrClass::Header,
            _ => ErrClass::Other,
        }
    }
}

/// The rate-dependent datapath pieces for one MCS row.
struct Kit {
    mapper: SymbolMapper,
    demapper: SymbolDemapper,
    interleaver: BlockInterleaver,
    fused: FusedDeinterleaver,
}

impl Kit {
    fn new(mcs: Mcs, geometry: &LinkGeometry) -> Result<Self, BoxError> {
        let mapper = SymbolMapper::new(mcs.modulation())?;
        let demapper = SymbolDemapper::matched_to(&mapper);
        let interleaver =
            BlockInterleaver::new(mcs.coded_bits_per_symbol(geometry), mcs.bits_per_symbol())?;
        let fused = FusedDeinterleaver::new(&interleaver, mcs.code_rate().keep_pattern())?;
        Ok(Self {
            mapper,
            demapper,
            interleaver,
            fused,
        })
    }

    fn ncbps(&self) -> usize {
        self.interleaver.block_size()
    }
}

fn kits(geometry: &LinkGeometry) -> Result<Vec<Kit>, BoxError> {
    Mcs::ALL.iter().map(|&m| Kit::new(m, geometry)).collect()
}

fn check_geometry(geometry: &LinkGeometry) -> Result<(), BoxError> {
    if geometry.n_streams() != 4 || !geometry.soft_decoding() {
        return Err("the replay mirrors the 4-stream soft-decision chain only".into());
    }
    Ok(())
}

/// The transmit chain: scramble → encode → puncture (`tx.coding`),
/// interleave → map (`tx.map`), IFFT + CP (`tx.ofdm`).
pub struct TxReplay {
    geometry: LinkGeometry,
    kits: Vec<Kit>,
    modulator: OfdmModulator,
    schedule: PreambleSchedule,
    sts: Vec<CQ15>,
    lts: Vec<CQ15>,
    info: Vec<u8>,
    mother: Vec<u8>,
    coded: Vec<u8>,
    interleaved: Vec<u8>,
    symbols: Vec<CQ15>,
    freq: Vec<CQ15>,
}

impl TxReplay {
    pub fn new(geometry: LinkGeometry) -> Result<Self, BoxError> {
        check_geometry(&geometry)?;
        let n = geometry.fft_size();
        let modulator = OfdmModulator::new(n)?;
        let sts = sts_time(modulator.fft(), modulator.map(), DEFAULT_AMPLITUDE)?;
        let lts = lts_time(modulator.fft(), modulator.map(), DEFAULT_AMPLITUDE)?;
        let kits = kits(&geometry)?;
        let max_ncbps = kits.iter().map(Kit::ncbps).max().unwrap_or(0);
        Ok(Self {
            schedule: PreambleSchedule::new(geometry.n_streams(), n),
            symbols: vec![CQ15::ZERO; geometry.data_carriers()],
            freq: vec![CQ15::ZERO; n],
            interleaved: vec![0; max_ncbps],
            info: Vec::new(),
            mother: Vec::new(),
            coded: Vec::new(),
            kits,
            modulator,
            sts,
            lts,
            geometry,
        })
    }

    /// The burst `MimoTransmitter::transmit_burst_with(mcs, payload)`
    /// produces, one sample stream per antenna.
    pub fn transmit(
        &mut self,
        t: &mut Tracer,
        mcs: Mcs,
        payload: &[u8],
    ) -> Result<Vec<Vec<CQ15>>, BoxError> {
        let g = self.geometry.clone();
        let n_streams = g.n_streams();
        let params = BurstParams {
            mcs,
            length: payload.len(),
        };
        let mut per_stream: Vec<Vec<u8>> = vec![Vec::new(); n_streams];
        for (i, &b) in payload.iter().enumerate() {
            per_stream[i % n_streams].push(b);
        }
        let n_symbols = params.payload_symbols(&g);
        let header_symbols = g.header_symbols();
        let pre_len = self.schedule.data_offset();
        let sym_len = g.symbol_samples();
        let header_len = header_symbols * sym_len;
        let total = pre_len + header_len + n_symbols * sym_len;
        let mut streams = vec![vec![CQ15::ZERO; total]; n_streams];
        for slot in self.schedule.slots() {
            let field = match slot.kind {
                FieldKind::Sts => &self.sts,
                FieldKind::Lts => &self.lts,
            };
            streams[slot.tx][slot.offset..slot.offset + slot.len].copy_from_slice(field);
        }

        // SIGNAL field: never scrambled, rate 1/2, stream 0 only.
        let header = Mcs::most_robust().index() as usize;
        let capacity = header_symbols * Mcs::most_robust().info_bits_per_symbol(&g) - FLUSH_BITS;
        self.info.clear();
        encode_signal_field(&params, &mut self.info)?;
        self.info.resize(capacity, 0);
        let sp = t.begin(Layer::TxCoding);
        ConvolutionalEncoder::new(CodeSpec::ieee80211a())
            .encode_terminated_into(&self.info, &mut self.mother);
        puncture_into(&self.mother, CodeRate::Half, &mut self.coded);
        t.end(sp);
        self.modulate(t, header, 0, &mut streams[0][pre_len..pre_len + header_len])?;

        let kit = mcs.index() as usize;
        let capacity = n_symbols * mcs.info_bits_per_symbol(&g) - FLUSH_BITS;
        for (stream, bytes) in streams.iter_mut().zip(&per_stream) {
            let sp = t.begin(Layer::TxCoding);
            self.info.clear();
            bits::bytes_to_bits_append(bytes, &mut self.info);
            self.info.resize(capacity, 0);
            if g.scramble() {
                Scrambler::new(SCRAMBLER_SEED).scramble_in_place(&mut self.info);
            }
            ConvolutionalEncoder::new(CodeSpec::ieee80211a())
                .encode_terminated_into(&self.info, &mut self.mother);
            puncture_into(&self.mother, mcs.code_rate(), &mut self.coded);
            t.end(sp);
            self.modulate(t, kit, header_symbols, &mut stream[pre_len + header_len..])?;
        }
        Ok(streams)
    }

    /// Interleave → map → IFFT + CP of `self.coded` onto consecutive
    /// symbols from pilot index `pilot_offset`.
    fn modulate(
        &mut self,
        t: &mut Tracer,
        kit: usize,
        pilot_offset: usize,
        out: &mut [CQ15],
    ) -> Result<(), BoxError> {
        let kit = &self.kits[kit];
        let ncbps = kit.ncbps();
        let sym_len = self.geometry.symbol_samples();
        let interleaved = &mut self.interleaved[..ncbps];
        for (i, (block, on_air)) in self
            .coded
            .chunks(ncbps)
            .zip(out.chunks_mut(sym_len))
            .enumerate()
        {
            let sp = t.begin(Layer::TxMap);
            let mapped: Result<(), BoxError> =
                match kit.interleaver.interleave_into(block, interleaved) {
                    Ok(()) => kit
                        .mapper
                        .map_bits_into(interleaved, &mut self.symbols)
                        .map_err(Into::into),
                    Err(e) => Err(e.into()),
                };
            t.end(sp);
            mapped?;
            let sp = t.begin(Layer::TxOfdm);
            let r = self.modulator.modulate_symbol_into(
                &self.symbols,
                pilot_offset + i,
                on_air,
                &mut self.freq,
            );
            t.end(sp);
            r?;
        }
        Ok(())
    }
}

/// One spatial stream's receive scratch.
#[derive(Default)]
struct StreamWs {
    eq: Vec<CQ15>,
    pilots: Vec<CQ15>,
    signs: Vec<i8>,
    data: Vec<CQ15>,
    hard: Vec<u8>,
    points: Vec<CQ15>,
    llrs: Vec<Llr>,
    fill: usize,
    evm_num: f64,
    evm_den: f64,
}

impl StreamWs {
    fn new(n_occ: usize, n_pilots: usize, n_data: usize, max_ncbps: usize) -> Self {
        Self {
            eq: vec![CQ15::ZERO; n_occ],
            pilots: vec![CQ15::ZERO; n_pilots],
            signs: vec![0; n_pilots],
            data: vec![CQ15::ZERO; n_data],
            hard: vec![0; max_ncbps],
            points: vec![CQ15::ZERO; n_data],
            ..Self::default()
        }
    }

    fn begin_pass(&mut self, n_syms: usize, kit: &Kit) {
        self.evm_num = 0.0;
        self.evm_den = 0.0;
        self.fill = 0;
        self.llrs.clear();
        self.llrs
            .resize(n_syms * kit.fused.mother_bits_per_symbol(), 0);
    }
}

/// A burst the RX replay decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoded {
    pub payload: Vec<u8>,
    pub evm_db: f64,
    /// Stream-symbols through the per-symbol core (header + payload).
    pub symbols: usize,
    /// Information bits out of the Viterbi decoder (header + payload).
    pub info_bits: usize,
}

/// The receive chain, span by span: `rx.sync`, `rx.chanest`, `rx.qrd`,
/// `rx.ingest`, then per stream and symbol `rx.zf`, `rx.pilot_phase`,
/// `rx.timing`, `rx.evm`, `rx.demap`, and at burst end `rx.header`,
/// `rx.viterbi`, `rx.descramble`.
pub struct RxReplay {
    geometry: LinkGeometry,
    kits: Vec<Kit>,
    sync: TimeSynchronizer,
    estimator: ChannelEstimator,
    qrd: CordicQrd,
    detector: ZfDetector,
    phase: PilotPhaseCorrector,
    timing: TimingCorrector,
    viterbi: ViterbiDecoder,
    pattern: Vec<i8>,
    data_pos: Vec<usize>,
    pilot_pos: Vec<usize>,
    pilot_indices: Vec<i32>,
    occupied: Vec<i32>,
    occ_bins: Vec<usize>,
    ingest: Vec<SymbolIngest>,
    freq: Vec<Vec<CQ15>>,
    header: StreamWs,
    streams: Vec<StreamWs>,
    header_vit: ViterbiWorkspace,
    header_bits: Vec<u8>,
    batch: BatchViterbiWorkspace,
    bytes: Vec<Vec<u8>>,
}

impl RxReplay {
    pub fn new(geometry: LinkGeometry) -> Result<Self, BoxError> {
        check_geometry(&geometry)?;
        let n = geometry.fft_size();
        let demod = OfdmDemodulator::new(n)?;
        let map = demod.map();
        let taps = sync_reference(demod.fft(), map, DEFAULT_AMPLITUDE)?;
        let occupied = map.occupied_indices();
        let (mut data_pos, mut pilot_pos) = (Vec::new(), Vec::new());
        for (i, l) in occupied.iter().enumerate() {
            if map.pilot_indices().contains(l) {
                pilot_pos.push(i);
            } else {
                data_pos.push(i);
            }
        }
        let pilot_indices = pilot_pos.iter().map(|&p| occupied[p]).collect();
        let occ_bins = occupied.iter().map(|&l| map.bin(l)).collect();
        let kits = kits(&geometry)?;
        let max_ncbps = kits.iter().map(Kit::ncbps).max().unwrap_or(0);
        let ws = || StreamWs::new(occupied.len(), pilot_pos.len(), data_pos.len(), max_ncbps);
        Ok(Self {
            sync: TimeSynchronizer::new(taps, DEFAULT_THRESHOLD_FACTOR)?,
            estimator: ChannelEstimator::new(n)?,
            qrd: CordicQrd::new(),
            detector: ZfDetector::new(),
            phase: PilotPhaseCorrector::new(),
            timing: TimingCorrector::new(),
            viterbi: ViterbiDecoder::new(CodeSpec::ieee80211a()),
            pattern: map.pilot_pattern().to_vec(),
            ingest: (0..4)
                .map(|_| SymbolIngest::new(n))
                .collect::<Result<_, _>>()?,
            freq: vec![Vec::new(); 4],
            header: ws(),
            streams: (0..4).map(|_| ws()).collect(),
            header_vit: ViterbiWorkspace::new(),
            header_bits: Vec::new(),
            batch: BatchViterbiWorkspace::new(),
            bytes: vec![Vec::new(); 4],
            data_pos,
            pilot_pos,
            pilot_indices,
            occupied,
            occ_bins,
            kits,
            geometry,
        })
    }

    /// Decodes one capture the way `MimoReceiver::receive_burst` does.
    pub fn receive<S: AsRef<[CQ15]>>(
        &mut self,
        t: &mut Tracer,
        streams: &[S],
    ) -> Result<Decoded, ErrClass> {
        use ErrClass::{Header, Other, Sync};
        if streams.len() != 4 {
            return Err(Other);
        }
        let g = self.geometry.clone();
        let n = g.fft_size();
        let field = 5 * n / 2;

        // Coarse STS plateau across all antennas, then the fine
        // correlator in a window around it; best antenna wins.
        let sp = t.begin(Layer::RxSync);
        self.sync.reset();
        let sync = &self.sync;
        let event = match coarse_sts_end(streams) {
            Some(coarse) => {
                let lo = coarse.sts_end.saturating_sub(FINE_WINDOW);
                let hi = coarse.sts_end + FINE_WINDOW;
                streams
                    .iter()
                    .filter_map(|s| sync.scan_peak_window(s.as_ref(), lo, hi))
                    .max_by_key(|e| e.magnitude)
            }
            None => streams
                .iter()
                .filter_map(|s| sync.scan_peak(s.as_ref()))
                .max_by_key(|e| e.magnitude),
        };
        t.end(sp);
        let event = event.ok_or(Sync)?;
        let lts0 = event.lts_start.saturating_sub(WINDOW_BACKOFF);

        let shortest = streams.iter().map(|s| s.as_ref().len()).min().unwrap_or(0);
        if lts0 + 4 * field > shortest {
            return Err(Other);
        }
        let views: [[&[CQ15]; 4]; 4] = std::array::from_fn(|rx| {
            std::array::from_fn(|slot| {
                let start = lts0 + slot * field + n / 2;
                &streams[rx].as_ref()[start..start + 2 * n]
            })
        });
        let estimate = t.span(Layer::RxChanest, || self.estimator.estimate(&views));
        let estimate = estimate.map_err(|_| Other)?;
        let qrd = &self.qrd;
        let h_inv = t.span(Layer::RxQrd, || estimate.invert_all(qrd));
        let h_inv = h_inv.map_err(|_| Other)?;

        // Per antenna: CP strip + FFT of every whole symbol, gather of
        // the occupied carriers.
        let data_start = lts0 + 4 * field;
        let sym_len = g.symbol_samples();
        let available = (shortest - data_start) / sym_len;
        if available == 0 {
            return Err(Other);
        }
        let n_occ = self.occupied.len();
        for (a, stream) in streams.iter().enumerate() {
            let stream = stream.as_ref();
            let freq = &mut self.freq[a];
            freq.resize(available * n_occ, CQ15::ZERO);
            for m in 0..available {
                let start = data_start + m * sym_len;
                let sp = t.begin(Layer::RxIngest);
                let frame = self.ingest[a].ingest_period(&stream[start..start + sym_len]);
                if let Ok(frame) = &frame {
                    let dst = &mut freq[m * n_occ..(m + 1) * n_occ];
                    for (d, &bin) in dst.iter_mut().zip(&self.occ_bins) {
                        *d = frame[bin];
                    }
                }
                t.end(sp);
                frame.map_err(|_| Other)?;
            }
        }

        // SIGNAL field: stream 0, symbols 0..h at BPSK r=1/2.
        let h = g.header_symbols();
        if available <= h {
            return Err(Other);
        }
        let header_kit = Mcs::most_robust().index() as usize;
        let mut header = std::mem::take(&mut self.header);
        let r = self.run_stream(t, 0, &mut header, &h_inv, header_kit, 0, h, false);
        self.header = header;
        r?;
        let sp = t.begin(Layer::RxHeader);
        let parsed = self
            .viterbi
            .decode_terminated_into(
                &self.header.llrs,
                &mut self.header_vit,
                &mut self.header_bits,
            )
            .map_err(|_| Other)
            .and_then(|()| {
                if self.header_bits.len() < SIGNAL_BITS {
                    return Err(Other);
                }
                parse_signal_field(&self.header_bits).map_err(|e| match ErrClass::of(&e) {
                    Header => Header,
                    _ => Other,
                })
            });
        t.end(sp);
        let params = parsed?;
        if params.length > g.n_streams() * MAX_STREAM_BYTES {
            return Err(Other);
        }
        let n_symbols = params.payload_symbols(&g);
        if available < h + n_symbols {
            return Err(Other);
        }

        // Payload: every stream through the per-symbol core at the
        // announced rate, then one batch Viterbi pass (the serial
        // schedule's decode).
        let kit = params.mcs.index() as usize;
        let mut streams_ws = std::mem::take(&mut self.streams);
        let mut r = Ok(());
        for (k, ws) in streams_ws.iter_mut().enumerate() {
            r = self.run_stream(t, k, ws, &h_inv, kit, h, n_symbols, true);
            if r.is_err() {
                break;
            }
        }
        self.streams = streams_ws;
        r?;
        let blocks: [&[Llr]; 4] = std::array::from_fn(|k| self.streams[k].llrs.as_slice());
        let batch = &mut self.batch;
        let viterbi = &self.viterbi;
        let decoded = t.span(Layer::RxViterbi, || {
            viterbi.decode_terminated_batch(&blocks, batch)
        });
        decoded.map_err(|_| Other)?;

        // Descramble, cut each stream's announced bytes, reassemble
        // round-robin.
        let sp = t.begin(Layer::RxDescramble);
        let outs = self.batch.outputs_mut();
        let mut info_bits = self.header_bits.len();
        let mut short = false;
        for (k, (bits_k, bytes)) in outs.iter_mut().zip(self.bytes.iter_mut()).enumerate() {
            info_bits += bits_k.len();
            if g.scramble() {
                Scrambler::new(SCRAMBLER_SEED).scramble_in_place(bits_k);
            }
            let expect = params.stream_bytes(k, g.n_streams());
            if bits_k.len() < 8 * expect {
                short = true;
                break;
            }
            bits::bits_to_bytes_into(&bits_k[..8 * expect], bytes);
        }
        let mut payload = Vec::with_capacity(params.length);
        if !short {
            let mut cursors = [0usize; 4];
            for i in 0..params.length {
                let s = i % g.n_streams();
                match self.bytes[s].get(cursors[s]) {
                    Some(&b) => payload.push(b),
                    None => {
                        short = true;
                        break;
                    }
                }
                cursors[s] += 1;
            }
        }
        t.end(sp);
        if short {
            return Err(Other);
        }

        let (num, den) = self
            .streams
            .iter()
            .fold((0.0, 0.0), |(n, d), ws| (n + ws.evm_num, d + ws.evm_den));
        Ok(Decoded {
            payload,
            evm_db: evm_ratio_db(num, den),
            symbols: h + g.n_streams() * n_symbols,
            info_bits,
        })
    }

    /// Stream `k` through the per-symbol core for symbols
    /// `first..first + n_syms` of the gathered carriers.
    #[allow(clippy::too_many_arguments)] // mirrors the product's pass signature
    fn run_stream(
        &self,
        t: &mut Tracer,
        k: usize,
        ws: &mut StreamWs,
        h_inv: &[FxMat4],
        kit: usize,
        first: usize,
        n_syms: usize,
        diag: bool,
    ) -> Result<(), ErrClass> {
        let kit = &self.kits[kit];
        let n_occ = self.occupied.len();
        let mps = kit.fused.mother_bits_per_symbol();
        ws.begin_pass(n_syms, kit);
        for sym in first..first + n_syms {
            let rx_occ: [&[CQ15]; 4] =
                std::array::from_fn(|a| &self.freq[a][sym * n_occ..(sym + 1) * n_occ]);
            let detected = t.span(Layer::RxZf, || {
                self.detector
                    .detect_stream_into(h_inv, &rx_occ, k, &mut ws.eq)
            });
            detected.map_err(|_| ErrClass::Other)?;

            let sp = t.begin(Layer::RxPilotPhase);
            let polarity = pilot_polarity(sym);
            for (sign, &base) in ws.signs.iter_mut().zip(&self.pattern) {
                *sign = base * polarity;
            }
            for (pilot, &p) in ws.pilots.iter_mut().zip(&self.pilot_pos) {
                *pilot = ws.eq[p];
            }
            let phi = self.phase.estimate_phase(&ws.pilots, &ws.signs);
            self.phase.correct_in_place(&mut ws.eq, phi);
            t.end(sp);

            let sp = t.begin(Layer::RxTiming);
            for (pilot, &p) in ws.pilots.iter_mut().zip(&self.pilot_pos) {
                *pilot = ws.eq[p];
            }
            let tau = self
                .timing
                .estimate_tau(&ws.pilots, &ws.signs, &self.pilot_indices);
            self.timing
                .correct_in_place(&mut ws.eq, &self.occupied, tau);
            t.end(sp);

            for (d, &p) in ws.data.iter_mut().zip(&self.data_pos) {
                *d = ws.eq[p];
            }
            if diag {
                let sp = t.begin(Layer::RxEvm);
                let hard = &mut ws.hard[..kit.ncbps()];
                kit.demapper.hard_demap_into(&ws.data, hard);
                let remapped = kit.mapper.map_bits_into(hard, &mut ws.points);
                if remapped.is_ok() {
                    for (&got, &want) in ws.data.iter().zip(&ws.points) {
                        ws.evm_num += (Cf64::from_fixed(got) - Cf64::from_fixed(want)).norm_sqr();
                        ws.evm_den += Cf64::from_fixed(want).norm_sqr();
                    }
                }
                t.end(sp);
                remapped.map_err(|_| ErrClass::Other)?;
            }

            let sp = t.begin(Layer::RxDemap);
            let out = ws.llrs.get_mut(ws.fill..ws.fill + mps);
            if let Some(out) = out {
                kit.demapper
                    .soft_demap_scatter_into(&ws.data, kit.fused.map(), out);
            }
            t.end(sp);
            ws.fill += mps;
            if ws.fill > ws.llrs.len() {
                return Err(ErrClass::Other);
            }
        }
        Ok(())
    }
}

/// `10·log₁₀(num/den)` floored at [`EVM_FLOOR_DB`], as the product
/// aggregates EVM.
fn evm_ratio_db(num: f64, den: f64) -> f64 {
    if num > 0.0 && den > 0.0 {
        (10.0 * (num / den).log10()).max(EVM_FLOOR_DB)
    } else {
        EVM_FLOOR_DB
    }
}
