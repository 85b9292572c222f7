//! The 1×1 SISO baseline transceiver.
//!
//! §V of the paper compares every MIMO entity against "the SISO
//! system": the same chain with one channel, no QRD (equalization is a
//! single complex multiply per carrier) and a two-slot preamble. The
//! burst format is the same rate-agile one as the 4×4 chain: SIGNAL
//! header first (BPSK r=1/2), payload at the announced [`Mcs`].
//!
//! The receive datapath is the **same per-symbol core** as the 4×4
//! chain: [`SymbolIngest`](mimo_ofdm::SymbolIngest) for CP strip +
//! FFT, the shared [`SymbolPost`](crate::rx::SymbolPost) stage for
//! pilot corrections/demap/de-interleave, and the shared bit pipeline
//! and SIGNAL parse — only the equalizer differs (one complex multiply
//! per carrier instead of a `H⁻¹` row). Running on workspace buffers,
//! the 1×1 payload loop is allocation-free like the 4×4 one, and the
//! baseline cannot drift from the MIMO chain because there is no
//! second copy of the symbol datapath to drift.

use mimo_coding::{CodeSpec, ViterbiDecoder};
use mimo_fixed::{CQ15, CQ16, Q16};
use mimo_ofdm::preamble::{lts_reference, sync_reference, DEFAULT_AMPLITUDE};
use mimo_ofdm::OfdmDemodulator;
use mimo_sync::{TimeSynchronizer, DEFAULT_THRESHOLD_FACTOR};

use crate::config::{LinkGeometry, PhyConfig};
use crate::error::PhyError;
use crate::mcs::Mcs;
use crate::rates::RateTable;
use crate::rx::{finish_result, parse_header_ws, RxResult, SymbolPost};
use crate::tx::{MimoTransmitter, TxBurst};
use crate::workspace::{RxAntennaWorkspace, RxStreamWorkspace, RxWorkspace};

/// The SISO transmitter: one instance of the Fig 1 per-channel chain
/// with an STS + single-LTS preamble and the same SIGNAL-field burst
/// framing as the MIMO chain.
#[derive(Debug, Clone)]
pub struct SisoTransmitter {
    inner: MimoTransmitter,
}

impl SisoTransmitter {
    /// Builds the transmitter (requires `n_streams == 1`).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] otherwise.
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        cfg.validate()?;
        if cfg.n_streams() != 1 {
            return Err(PhyError::BadConfig(format!(
                "SisoTransmitter requires 1 stream, got {}",
                cfg.n_streams()
            )));
        }
        Ok(Self {
            inner: MimoTransmitter::build(cfg)?,
        })
    }

    /// Builds a transmitter from the static link geometry alone.
    ///
    /// # Errors
    ///
    /// Identical to [`SisoTransmitter::new`].
    pub fn from_geometry(geometry: LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        self.inner.config()
    }

    /// Transmits one burst on the single antenna at the default MCS.
    ///
    /// # Errors
    ///
    /// See [`MimoTransmitter::transmit_burst`].
    pub fn transmit_burst(&self, payload: &[u8]) -> Result<TxBurst, PhyError> {
        self.inner.transmit_burst(payload)
    }

    /// Transmits one burst at an explicit per-burst MCS.
    ///
    /// # Errors
    ///
    /// See [`MimoTransmitter::transmit_burst_with`].
    pub fn transmit_burst_with(&self, mcs: Mcs, payload: &[u8]) -> Result<TxBurst, PhyError> {
        self.inner.transmit_burst_with(mcs, payload)
    }
}

/// The SISO receiver: scalar channel estimation from one LTS,
/// single-multiply equalization per carrier, and the same auto-rate
/// SIGNAL-field reception as the MIMO chain — it is built from link
/// geometry alone and learns each burst's rate from the air.
#[derive(Debug, Clone)]
pub struct SisoReceiver {
    cfg: PhyConfig,
    header_symbols: usize,
    rates: RateTable,
    sync: TimeSynchronizer,
    demodulator: OfdmDemodulator,
    lts_ref: Vec<i8>,
    inv_amplitude: Q16,
    viterbi: ViterbiDecoder,
    /// The shared post-equalization per-symbol stage.
    post: SymbolPost,
    /// FFT bin of each occupied carrier (the gather map).
    occ_bins: Vec<usize>,
    /// Symbol ingest + gather scratch for the single antenna.
    ant: RxAntennaWorkspace,
    /// Stream-side per-symbol and bit-pipeline scratch.
    ws: RxStreamWorkspace,
}

impl SisoReceiver {
    /// Builds the receiver (requires `n_streams == 1`). The
    /// configuration's modulation/code-rate fields are ignored —
    /// every burst announces its own rate.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] otherwise.
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        cfg.validate()?;
        if cfg.n_streams() != 1 {
            return Err(PhyError::BadConfig(format!(
                "SisoReceiver requires 1 stream, got {}",
                cfg.n_streams()
            )));
        }
        let geometry = cfg.geometry();
        let demodulator = OfdmDemodulator::new(geometry.fft_size())?;
        let taps = sync_reference(demodulator.fft(), demodulator.map(), DEFAULT_AMPLITUDE)?;
        let sync = TimeSynchronizer::new(taps, DEFAULT_THRESHOLD_FACTOR)
            .map_err(|e| PhyError::BadConfig(e.to_string()))?;
        let rates = RateTable::new(geometry)?;
        let viterbi = ViterbiDecoder::new(CodeSpec::ieee80211a());
        let lts_ref = lts_reference(demodulator.map());
        let post = SymbolPost::new(demodulator.map(), geometry.soft_decoding());
        let occ_bins: Vec<usize> = demodulator
            .map()
            .occupied_indices()
            .iter()
            .map(|&l| demodulator.map().bin(l))
            .collect();
        let workspace = RxWorkspace::new(
            geometry,
            rates.max_coded_bits_per_symbol(),
            post.n_occupied(),
            post.n_pilots(),
        );
        let RxWorkspace {
            mut antennas,
            mut streams,
            ..
        } = workspace;
        Ok(Self {
            header_symbols: geometry.header_symbols(),
            cfg,
            rates,
            sync,
            demodulator,
            lts_ref,
            inv_amplitude: Q16::from_f64(1.0 / DEFAULT_AMPLITUDE),
            viterbi,
            post,
            occ_bins,
            ant: antennas.remove(0),
            ws: streams.remove(0),
        })
    }

    /// Builds the receiver from the static link geometry alone.
    ///
    /// # Errors
    ///
    /// Identical to [`SisoReceiver::new`].
    pub fn from_geometry(geometry: LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Receives one burst from the single antenna stream, learning its
    /// rate from the SIGNAL-field header.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::MimoReceiver::receive_burst`].
    pub fn receive_burst(&mut self, stream: &[CQ15]) -> Result<RxResult, PhyError> {
        let n = self.cfg.fft_size();
        let field = 5 * n / 2;
        // Two-stage sync: coarse STS-periodicity detection (borrowing
        // the stream in place, no copy), then the fine cross-correlator
        // in a window (see MimoReceiver).
        let event = match mimo_sync::coarse_sts_end(&[stream]) {
            Some(coarse) => self.sync.scan_peak_window(
                stream,
                coarse.sts_end.saturating_sub(48),
                coarse.sts_end + 48,
            ),
            None => self.sync.scan_peak(stream),
        }
        .ok_or(PhyError::SyncNotFound)?;
        let lts0 = event.lts_start.saturating_sub(crate::rx::WINDOW_BACKOFF);
        if lts0 + 2 * field > stream.len() {
            return Err(PhyError::TruncatedBurst {
                needed: lts0 + 2 * field,
                available: stream.len(),
            });
        }

        // Scalar channel estimate from the two LTS repetitions.
        let reps = &stream[lts0 + n / 2..lts0 + n / 2 + 2 * n];
        let first = self.demodulator.fft_block(&reps[..n])?;
        let second = self.demodulator.fft_block(&reps[n..])?;
        let h: Vec<CQ16> = self
            .demodulator
            .map()
            .occupied_indices()
            .iter()
            .zip(&self.lts_ref)
            .map(|(&l, &sign)| {
                let bin = self.demodulator.map().bin(l);
                let avg = (first[bin] + second[bin]).shr_round(1);
                let wide: CQ16 = avg.convert();
                let signed = if sign >= 0 { wide } else { -wide };
                signed.scale(self.inv_amplitude)
            })
            .collect();
        let equalizer = mimo_detect::SisoEqualizer::new(&h);

        let data_start = lts0 + field;
        let sym_len = self.cfg.symbol_samples();
        let available = (stream.len() - data_start) / sym_len;
        let h_syms = self.header_symbols;
        if available <= h_syms {
            return Err(PhyError::TruncatedBurst {
                needed: data_start + (h_syms + 1) * sym_len,
                available: stream.len(),
            });
        }

        // --- SIGNAL field: symbols 0..h at BPSK r=1/2, through the
        // shared per-symbol core. ---
        self.run_symbols(stream, data_start, &equalizer, Mcs::most_robust(), 0, h_syms, false)?;
        let params = parse_header_ws(&self.viterbi, &mut self.ws, crate::tx::MAX_STREAM_BYTES)?;
        let n_symbols = params.payload_symbols(self.cfg.geometry());
        if available < h_syms + n_symbols {
            return Err(PhyError::TruncatedBurst {
                needed: data_start + (h_syms + n_symbols) * sym_len,
                available: stream.len(),
            });
        }

        // --- Payload at the announced rate. ---
        self.run_symbols(stream, data_start, &equalizer, params.mcs, h_syms, n_symbols, true)?;
        crate::rx::decode_bit_pipeline(
            self.cfg.scramble(),
            params.length,
            &self.viterbi,
            &self.ws.stream_llrs,
            &mut self.ws.viterbi,
            &mut self.ws.decoded,
            &mut self.ws.bytes,
        )?;
        // The output Vec is owned by the caller; taking it costs the
        // one unavoidable per-burst allocation (next burst's decode
        // refills a fresh buffer).
        let payload = std::mem::take(&mut self.ws.bytes);
        Ok(finish_result(
            event,
            params.mcs,
            n_symbols,
            std::slice::from_ref(&self.ws),
            payload,
        ))
    }

    /// Equalizes, corrects and demaps symbols `first..first + count`
    /// (absolute indices after the LTS, which are also the pilot
    /// polarity indices) through the shared per-symbol core,
    /// accumulating the de-interleaved LLR stream in the workspace.
    #[allow(clippy::too_many_arguments)] // mirrors the MIMO batch pass
    fn run_symbols(
        &mut self,
        stream: &[CQ15],
        data_start: usize,
        equalizer: &mimo_detect::SisoEqualizer,
        mcs: Mcs,
        first: usize,
        count: usize,
        collect_diag: bool,
    ) -> Result<(), PhyError> {
        let kit = self.rates.kit(mcs);
        let sym_len = self.cfg.symbol_samples();
        let n_occ = self.post.n_occupied();
        self.ant.freq_occ.resize(n_occ, CQ15::ZERO);
        crate::rx::RxCore::begin_stream_pass(&mut self.ws, count, kit);
        for m in first..first + count {
            let start = data_start + m * sym_len;
            let frame = self.ant.ingest.ingest_period(&stream[start..start + sym_len])?;
            for (d, &bin) in self.ant.freq_occ.iter_mut().zip(&self.occ_bins) {
                *d = frame[bin];
            }
            equalizer.equalize_into(&self.ant.freq_occ, &mut self.ws.eq)?;
            self.post.run(kit, m, collect_diag, &mut self.ws)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siso_loopback() {
        let cfg = PhyConfig::siso();
        let tx = SisoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = SisoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..80).map(|i| (i * 29 + 3) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        assert_eq!(burst.streams.len(), 1);
        let result = rx.receive_burst(&burst.streams[0]).unwrap();
        assert_eq!(result.payload, payload);
        // The shared core now measures real EVM for the baseline too:
        // one per-stream entry, finite, matching the aggregate.
        let q = &result.diagnostics.quality;
        assert!(q.evm_db < -20.0, "EVM {}", q.evm_db);
        assert_eq!(q.per_stream_evm_db.len(), 1);
        assert_eq!(q.per_stream_evm_db[0].to_bits(), q.evm_db.to_bits());
        assert!(q.mean_phase_rad.is_finite());
    }

    #[test]
    fn siso_quality_is_reproducible_bit_for_bit() {
        // The 1×1 baseline runs the same finish_result aggregation as
        // the 4×4 chain; decoding one capture twice must produce
        // bit-identical ChannelQuality.
        let cfg = PhyConfig::siso();
        let tx = SisoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = SisoReceiver::new(cfg).unwrap();
        let payload: Vec<u8> = (0..120).map(|i| (i * 7 + 5) as u8).collect();
        let burst = tx.transmit_burst_with(Mcs::Qam64R23, &payload).unwrap();
        let a = rx.receive_burst(&burst.streams[0]).unwrap();
        let b = rx.receive_burst(&burst.streams[0]).unwrap();
        assert_eq!(a.payload, b.payload);
        let (qa, qb) = (&a.diagnostics.quality, &b.diagnostics.quality);
        assert_eq!(qa.evm_db.to_bits(), qb.evm_db.to_bits());
        assert_eq!(qa.mean_phase_rad.to_bits(), qb.mean_phase_rad.to_bits());
        assert_eq!(qa.per_stream_evm_db.len(), qb.per_stream_evm_db.len());
        for (x, y) in qa.per_stream_evm_db.iter().zip(&qb.per_stream_evm_db) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn siso_preamble_is_two_fields() {
        let cfg = PhyConfig::siso();
        let tx = SisoTransmitter::new(cfg).unwrap();
        assert_eq!(tx.inner.preamble_schedule().data_offset(), 320);
    }

    #[test]
    fn siso_rejects_mimo_config() {
        assert!(SisoTransmitter::new(PhyConfig::paper_synthesis()).is_err());
        assert!(SisoReceiver::new(PhyConfig::paper_synthesis()).is_err());
    }

    #[test]
    fn siso_auto_rate_all_mcs() {
        // A geometry-only receiver decodes every table rate.
        let tx = SisoTransmitter::from_geometry(LinkGeometry::siso()).unwrap();
        let mut rx = SisoReceiver::from_geometry(LinkGeometry::siso()).unwrap();
        for mcs in Mcs::ALL {
            let payload: Vec<u8> = (0..32).map(|i| (i * 11) as u8).collect();
            let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
            let result = rx.receive_burst(&burst.streams[0]).unwrap();
            assert_eq!(result.payload, payload, "{mcs}");
            assert_eq!(result.diagnostics.mcs, mcs);
        }
    }
}
