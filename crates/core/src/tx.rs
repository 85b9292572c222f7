//! The MIMO transmitter (Fig 1), rate-agile per burst.
//!
//! Every burst is framed for auto-rate reception: after the Fig 2
//! staggered preamble, stream 0 carries the SIGNAL-field header
//! (always BPSK r=1/2 — see [`crate::signal`]) announcing the burst's
//! [`Mcs`] and payload length, then all streams carry the payload
//! symbols at that MCS. [`MimoTransmitter::transmit_burst_with`]
//! selects the rate per burst; [`MimoTransmitter::transmit_burst`] is
//! the single-rate wrapper using the configuration's default MCS.

use mimo_coding::{puncture, CodeRate, CodeSpec, ConvolutionalEncoder, Scrambler};
use mimo_fixed::CQ15;
use mimo_ofdm::preamble::{lts_time, sts_time, PreambleSchedule, DEFAULT_AMPLITUDE};
use mimo_ofdm::{OfdmModulator, FFT_LANES};

use crate::config::{host_parallelism, PhyConfig};
use crate::crew::fan_out;
use crate::error::PhyError;
use crate::mcs::{BurstParams, Mcs};
use crate::rates::{RateKit, RateTable};
use crate::signal::{encode_signal_field, FLUSH_BITS};
use crate::workspace::TxStreamWorkspace;

/// Scrambler seed shared by transmitter and receiver.
pub(crate) const SCRAMBLER_SEED: u8 = 0x5D;

/// Maximum per-stream payload bytes a burst can carry. Shared with
/// the receivers' SIGNAL-length plausibility check so the TX bound
/// and RX rejection threshold cannot drift apart.
pub(crate) const MAX_STREAM_BYTES: usize = 8190;

/// One transmitted burst: the per-antenna sample streams of Fig 2
/// (preamble), the SIGNAL-field header symbols on stream 0, then the
/// payload OFDM symbols.
#[derive(Debug, Clone)]
pub struct TxBurst {
    /// One Q1.15 sample stream per transmit antenna.
    pub streams: Vec<Vec<CQ15>>,
    /// Payload OFDM symbols per stream (excluding the header).
    pub n_symbols: usize,
    /// SIGNAL-field header symbols preceding the payload.
    pub header_symbols: usize,
    /// The MCS the payload symbols are encoded at.
    pub mcs: Mcs,
    /// Payload bytes carried.
    pub payload_len: usize,
}

impl TxBurst {
    /// Total burst length in samples (identical across streams).
    pub fn len_samples(&self) -> usize {
        self.streams.first().map_or(0, Vec::len)
    }

    /// Burst duration in seconds at a given clock.
    pub fn duration_s(&self, clock_hz: f64) -> f64 {
        self.len_samples() as f64 / clock_hz
    }

    /// The per-burst parameters the SIGNAL field carries.
    pub fn params(&self) -> BurstParams {
        BurstParams {
            mcs: self.mcs,
            length: self.payload_len,
        }
    }
}

/// The 4×4 MIMO transmitter: "the data is broken into four separate
/// and independent channels that will each be encoded and modulated
/// for transmission."
///
/// The transmitter holds only immutable tables (rate kits, modulator,
/// preamble fields), so [`MimoTransmitter::transmit_burst_with`] takes
/// `&self` and any number of threads may share one transmitter. Each
/// burst builds its own scratch — one set per spatial channel, at the
/// burst's MCS — so the per-symbol interleave → map → IFFT → CP loop
/// runs without heap allocation. The four channel pipelines, mirroring
/// the four parallel hardware chains of Fig 1, run on a crew that
/// includes the calling thread: one member per host CPU when
/// [`PhyConfig::parallelism`] is on, the caller alone otherwise.
#[derive(Debug, Clone)]
pub struct MimoTransmitter {
    cfg: PhyConfig,
    default_mcs: Mcs,
    rates: RateTable,
    modulator: OfdmModulator,
    schedule: PreambleSchedule,
    sts: Vec<CQ15>,
    lts: Vec<CQ15>,
}

impl MimoTransmitter {
    /// Builds the transmitter for a 4-stream configuration. The
    /// configuration's MCS is the **default** for
    /// [`MimoTransmitter::transmit_burst`];
    /// [`MimoTransmitter::transmit_burst_with`] overrides it per burst.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] for invalid configurations
    /// (including `n_streams != 4`; use [`crate::SisoTransmitter`] for
    /// the baseline).
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        cfg.validate()?;
        if cfg.n_streams() != 4 {
            return Err(PhyError::BadConfig(format!(
                "MimoTransmitter requires 4 streams, got {}",
                cfg.n_streams()
            )));
        }
        Self::build(cfg)
    }

    /// Builds a transmitter from the static link geometry alone; the
    /// default MCS is the paper's synthesis point (16-QAM r=1/2), and
    /// every burst may pick its own rate via
    /// [`MimoTransmitter::transmit_burst_with`].
    ///
    /// # Errors
    ///
    /// Identical to [`MimoTransmitter::new`].
    pub fn from_geometry(geometry: crate::LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    pub(crate) fn build(cfg: PhyConfig) -> Result<Self, PhyError> {
        let default_mcs = cfg.mcs();
        let rates = RateTable::new(cfg.geometry())?;
        let modulator = OfdmModulator::new(cfg.fft_size())?;
        let schedule = PreambleSchedule::new(cfg.n_streams(), cfg.fft_size());
        let sts = sts_time(modulator.fft(), modulator.map(), DEFAULT_AMPLITUDE)?;
        let lts = lts_time(modulator.fft(), modulator.map(), DEFAULT_AMPLITUDE)?;
        Ok(Self {
            cfg,
            default_mcs,
            rates,
            modulator,
            schedule,
            sts,
            lts,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// The MCS used by [`MimoTransmitter::transmit_burst`].
    pub fn default_mcs(&self) -> Mcs {
        self.default_mcs
    }

    /// The preamble schedule (Fig 2).
    // phylint: allow(test_only_api) -- test support: tests/parallel_determinism.rs
    pub fn preamble_schedule(&self) -> &PreambleSchedule {
        &self.schedule
    }

    /// Maximum payload bytes per burst (bounded by the SIGNAL field's
    /// 16-bit length).
    pub fn max_payload(&self) -> usize {
        (MAX_STREAM_BYTES * self.cfg.n_streams()).min(u16::MAX as usize)
    }

    /// Transmits one burst at the configuration's default MCS: a thin
    /// wrapper over [`MimoTransmitter::transmit_burst_with`].
    ///
    /// # Errors
    ///
    /// Identical to [`MimoTransmitter::transmit_burst_with`].
    pub fn transmit_burst(&self, payload: &[u8]) -> Result<TxBurst, PhyError> {
        self.transmit_burst_with(self.default_mcs, payload)
    }

    /// Transmits one burst at an explicit per-burst MCS: splits
    /// `payload` across the four streams (round-robin by byte),
    /// prepends the Fig 2 staggered preamble, emits the SIGNAL-field
    /// header (rate index + length + CRC-8, BPSK r=1/2 on stream 0),
    /// then runs each stream through the Fig 1 chain at `mcs`.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::PayloadTooLarge`] beyond
    /// [`MimoTransmitter::max_payload`].
    pub fn transmit_burst_with(&self, mcs: Mcs, payload: &[u8]) -> Result<TxBurst, PhyError> {
        let geometry = self.cfg.geometry();
        let n_streams = geometry.n_streams();
        if payload.len() > self.max_payload() {
            return Err(PhyError::PayloadTooLarge {
                got: payload.len(),
                max: self.max_payload(),
            });
        }
        let params = BurstParams {
            mcs,
            length: payload.len(),
        };
        // Round-robin byte split.
        let mut per_stream: Vec<Vec<u8>> = vec![Vec::new(); n_streams];
        for (i, &b) in payload.iter().enumerate() {
            per_stream[i % n_streams].push(b);
        }
        let n_symbols = params.payload_symbols(geometry);
        let header_symbols = geometry.header_symbols();

        // Assemble the output streams up front: preamble (Fig 2), the
        // SIGNAL header region (stream 0 only; other streams stay
        // silent), then each channel's worker writes its payload
        // region in place.
        let pre_len = self.schedule.data_offset();
        let sym_len = geometry.symbol_samples();
        let header_len = header_symbols * sym_len;
        let data_len = n_symbols * sym_len;
        let mut streams =
            vec![vec![CQ15::ZERO; pre_len + header_len + data_len]; n_streams];
        for slot in self.schedule.slots() {
            let field = match slot.kind {
                mimo_ofdm::preamble::FieldKind::Sts => &self.sts,
                mimo_ofdm::preamble::FieldKind::Lts => &self.lts,
            };
            streams[slot.tx][slot.offset..slot.offset + slot.len].copy_from_slice(field);
        }

        // SIGNAL-field header: stream 0's first symbols, most robust
        // MCS, pilot polarity indices 0..header_symbols.
        self.encode_header(
            &params,
            header_symbols,
            &mut streams[0][pre_len..pre_len + header_len],
        )?;

        // Per-stream payload pipeline — "four separate and independent
        // channels", each on its own workspace, split across the crew.
        let kit = self.rates.kit(mcs);
        let width = self.cfg.parallelism().then(host_parallelism).unwrap_or(1);
        let mut work: Vec<(&mut [CQ15], &[u8])> = streams
            .iter_mut()
            .zip(&per_stream)
            .map(|(stream, bytes)| (&mut stream[pre_len + header_len..], bytes.as_slice()))
            .collect();
        fan_out(width, &mut work, |_, (out, bytes)| {
            self.run_stream_pipeline(kit, bytes, n_symbols, header_symbols, out)
        })?;

        Ok(TxBurst {
            streams,
            n_symbols,
            header_symbols,
            mcs,
            payload_len: payload.len(),
        })
    }

    /// Encodes the SIGNAL field onto stream 0's header symbols: 28
    /// header bits (never scrambled, never punctured) → terminated
    /// rate-1/2 encode → BPSK interleave/map → IFFT + CP, at pilot
    /// polarity indices `0..header_symbols`.
    fn encode_header(
        &self,
        params: &BurstParams,
        header_symbols: usize,
        out: &mut [CQ15],
    ) -> Result<(), PhyError> {
        let geometry = self.cfg.geometry();
        let kit = self.rates.header_kit();
        let capacity = header_symbols * geometry.header_info_bits_per_symbol() - FLUSH_BITS;
        let mut info = Vec::with_capacity(capacity);
        encode_signal_field(params, &mut info)?;
        debug_assert!(info.len() <= capacity, "header under-provisioned");
        info.resize(capacity, 0);
        let mother = ConvolutionalEncoder::new(CodeSpec::ieee80211a()).encode_terminated(&info);
        let coded = puncture(&mother, CodeRate::Half);
        self.modulate_symbols(kit, &coded, 0, out)
    }

    /// One channel's complete payload pipeline: bit chain at the
    /// burst's MCS, then per symbol interleave → map → IFFT → CP
    /// written straight into the stream's data region.
    fn run_stream_pipeline(
        &self,
        kit: &RateKit,
        bytes: &[u8],
        n_symbols: usize,
        pilot_offset: usize,
        out: &mut [CQ15],
    ) -> Result<(), PhyError> {
        let coded = self.encode_stream(kit, bytes, n_symbols);
        self.modulate_symbols(kit, &coded, pilot_offset, out)
    }

    /// Maps a coded bit stream onto consecutive OFDM symbols starting
    /// at pilot polarity index `pilot_offset`, on one
    /// [`TxStreamWorkspace`] so the per-symbol loop allocates nothing.
    /// Each whole group of [`FFT_LANES`] symbols shares one
    /// lane-parallel IFFT; a last partial group goes one symbol at a
    /// time, unpadded, with the same bits.
    fn modulate_symbols(
        &self,
        kit: &RateKit,
        coded: &[u8],
        pilot_offset: usize,
        out: &mut [CQ15],
    ) -> Result<(), PhyError> {
        let geometry = self.cfg.geometry();
        let ncbps = kit.coded_bits_per_symbol();
        let (sym_len, n) = (geometry.symbol_samples(), geometry.fft_size());
        let n_data = geometry.data_carriers();
        let mut ws = TxStreamWorkspace::new(geometry, ncbps, out.len() / sym_len);
        for (group, (bits, on_air)) in coded
            .chunks(FFT_LANES * ncbps)
            .zip(out.chunks_mut(FFT_LANES * sym_len))
            .enumerate()
        {
            let first = pilot_offset + group * FFT_LANES;
            if bits.len() == FFT_LANES * ncbps && on_air.len() == FFT_LANES * sym_len {
                for (block, symbols) in bits.chunks(ncbps).zip(ws.symbols.chunks_mut(n_data)) {
                    kit.interleaver.interleave_into(block, &mut ws.interleaved)?;
                    kit.mapper.map_bits_into(&ws.interleaved, symbols)?;
                }
                self.modulator
                    .modulate_batch_into(&ws.symbols, first, on_air, &mut ws.freq, &mut ws.lanes)?;
                continue;
            }
            let symbols = bits.chunks(ncbps).zip(on_air.chunks_mut(sym_len));
            for (k, (block, on_air)) in symbols.enumerate() {
                kit.interleaver.interleave_into(block, &mut ws.interleaved)?;
                kit.mapper.map_bits_into(&ws.interleaved, &mut ws.symbols[..n_data])?;
                self.modulator.modulate_symbol_into(
                    &ws.symbols[..n_data],
                    first + k,
                    on_air,
                    &mut ws.freq[..n],
                )?;
            }
        }
        Ok(())
    }

    /// Runs one stream's bit pipeline: payload + pad → scramble →
    /// encode (terminated) → puncture. Returns exactly
    /// `n_symbols · N_CBPS(mcs)` coded bits.
    fn encode_stream(&self, kit: &RateKit, bytes: &[u8], n_symbols: usize) -> Vec<u8> {
        let geometry = self.cfg.geometry();
        let ndbps = kit.mcs.info_bits_per_symbol(geometry);
        let capacity = n_symbols * ndbps - FLUSH_BITS;
        debug_assert!(8 * bytes.len() <= capacity, "symbol count under-provisioned");

        let mut info = Vec::with_capacity(capacity);
        mimo_coding::bits::bytes_to_bits_append(bytes, &mut info);
        info.resize(capacity, 0); // zero pad to fill the burst

        Scrambler::new(SCRAMBLER_SEED).scramble_in_place(&mut info);

        let mother = ConvolutionalEncoder::new(CodeSpec::ieee80211a()).encode_terminated(&info);
        let coded = puncture(&mother, kit.mcs.code_rate());
        debug_assert_eq!(coded.len(), n_symbols * kit.coded_bits_per_symbol());
        coded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whole eight-symbol groups through the batch IFFT plus a tail of
    /// 1–7 symbols one at a time give exactly the symbol-at-a-time
    /// chain, pilot polarities included.
    #[test]
    fn batched_modulation_matches_symbol_at_a_time() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let kit = tx.rates.kit(Mcs::Qam64R34);
        let geometry = tx.cfg.geometry();
        let ncbps = kit.coded_bits_per_symbol();
        let (sym_len, n) = (geometry.symbol_samples(), geometry.fft_size());
        for n_symbols in 1..=17 {
            let coded: Vec<u8> = (0..n_symbols * ncbps)
                .map(|i| u8::from((i * 7 + i / 5) % 3 == 0))
                .collect();
            let mut got = vec![CQ15::ZERO; n_symbols * sym_len];
            tx.modulate_symbols(kit, &coded, 3, &mut got).unwrap();
            let mut want = vec![CQ15::ZERO; n_symbols * sym_len];
            let mut interleaved = vec![0; ncbps];
            let mut symbols = vec![CQ15::ZERO; geometry.data_carriers()];
            let mut frame = vec![CQ15::ZERO; n];
            let symbols_out = coded.chunks(ncbps).zip(want.chunks_mut(sym_len));
            for (m, (block, on_air)) in symbols_out.enumerate() {
                kit.interleaver.interleave_into(block, &mut interleaved).unwrap();
                kit.mapper.map_bits_into(&interleaved, &mut symbols).unwrap();
                tx.modulator.modulate_symbol_into(&symbols, 3 + m, on_air, &mut frame).unwrap();
            }
            assert!(got == want, "{n_symbols} symbols");
        }
    }

    #[test]
    fn burst_structure_matches_fig2_plus_signal_field() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let burst = tx.transmit_burst(&[0xAB; 40]).unwrap();
        assert_eq!(burst.streams.len(), 4);
        // Preamble: 5 slots × 160 samples.
        let pre = tx.preamble_schedule().data_offset();
        assert_eq!(pre, 800);
        // STS present only on stream 0.
        assert!(burst.streams[0][..160].iter().any(|s| !s.is_zero()));
        for tx_idx in 1..4 {
            assert!(
                burst.streams[tx_idx][..160].iter().all(|s| s.is_zero()),
                "STS leaked onto stream {tx_idx}"
            );
        }
        // LTS slot k active only on stream k.
        for slot in 0..4 {
            let range = 160 * (1 + slot)..160 * (2 + slot);
            for stream in 0..4 {
                let active = burst.streams[stream][range.clone()]
                    .iter()
                    .any(|s| !s.is_zero());
                assert_eq!(active, stream == slot, "slot {slot} stream {stream}");
            }
        }
        // SIGNAL header: stream 0 only, then all streams carry data.
        assert_eq!(burst.header_symbols, 2);
        let header = pre..pre + burst.header_symbols * 80;
        assert!(burst.streams[0][header.clone()].iter().any(|s| !s.is_zero()));
        for stream in 1..4 {
            assert!(
                burst.streams[stream][header.clone()].iter().all(|s| s.is_zero()),
                "SIGNAL field leaked onto stream {stream}"
            );
        }
        for stream in &burst.streams {
            assert!(stream[header.end..].iter().any(|s| !s.is_zero()));
            assert_eq!(
                stream.len(),
                pre + (burst.header_symbols + burst.n_symbols) * 80
            );
        }
    }

    #[test]
    fn streams_have_equal_length_for_ragged_payloads() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        for len in [1usize, 3, 17, 100, 257] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let burst = tx.transmit_burst(&payload).unwrap();
            let lens: Vec<usize> = burst.streams.iter().map(Vec::len).collect();
            assert!(lens.windows(2).all(|w| w[0] == w[1]), "payload {len}: {lens:?}");
        }
    }

    #[test]
    fn empty_payload_still_produces_a_burst() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let burst = tx.transmit_burst(&[]).unwrap();
        assert_eq!(burst.payload_len, 0);
        assert!(burst.n_symbols >= 1);
    }

    #[test]
    fn oversized_payload_rejected() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let too_big = vec![0u8; tx.max_payload() + 1];
        assert!(matches!(
            tx.transmit_burst(&too_big),
            Err(PhyError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn per_burst_mcs_overrides_the_default() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let payload = vec![0x55u8; 400];
        let fast = tx.transmit_burst_with(Mcs::Qam64R34, &payload).unwrap();
        let slow = tx.transmit_burst_with(Mcs::Bpsk12, &payload).unwrap();
        assert_eq!(fast.mcs, Mcs::Qam64R34);
        assert!(
            fast.n_symbols < slow.n_symbols,
            "64-QAM r=3/4 ({}) vs BPSK r=1/2 ({})",
            fast.n_symbols,
            slow.n_symbols
        );
        // Default is the config's rate.
        assert_eq!(tx.transmit_burst(&payload).unwrap().mcs, Mcs::Qam16R12);
    }

    #[test]
    fn samples_stay_on_the_16_bit_bus_at_every_mcs() {
        let tx = MimoTransmitter::new(PhyConfig::gigabit()).unwrap();
        let payload: Vec<u8> = (0..200).map(|i| (i * 13) as u8).collect();
        for mcs in Mcs::ALL {
            let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
            for stream in &burst.streams {
                assert!(stream.iter().all(|s| s.fits_bits(16)), "{mcs}");
            }
        }
    }
}
