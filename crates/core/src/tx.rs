//! The MIMO transmitter (Fig 1), rate-agile per burst.
//!
//! Every burst is framed for auto-rate reception: after the Fig 2
//! staggered preamble, stream 0 carries the SIGNAL-field header
//! (always BPSK r=1/2 — see [`crate::signal`]) announcing the burst's
//! [`Mcs`] and payload length, then all streams carry the payload
//! symbols at that MCS. [`MimoTransmitter::transmit_burst_with`]
//! selects the rate per burst; [`MimoTransmitter::transmit_burst`] is
//! the single-rate wrapper using the configuration's default MCS.
//!
//! The SIGNAL field and every payload stream go through one routine,
//! the mirror of the receiver's per-symbol core, on bits packed 64 to a
//! `u64` word (bit `i` of a stream is bit `i % 64` of word `i / 64`, so
//! a stream's payload bytes are simply its little-endian words): info
//! words → keystream XOR a word at a time (payload only) → terminated
//! rate-1/2 encode by shifted-word XORs, one packed stream per
//! generator → each symbol's coded bits gathered out of those streams
//! through the rate's bit map (puncturing and interleaving in one pass —
//! the table the receiver scatters its LLRs through) straight into
//! mapper LUT addresses → OFDM modulation of the whole run of symbols
//! in one call, which the OFDM layer splits into lane-parallel IFFT
//! groups.

use mimo_coding::{CodeSpec, Scrambler};
use mimo_fixed::CQ15;
use mimo_ofdm::preamble::{lts_time, sts_time, PreambleSchedule, DEFAULT_AMPLITUDE};
use mimo_ofdm::OfdmModulator;

use crate::config::{host_parallelism, PhyConfig, N_STREAMS};
use crate::crew::fan_out;
use crate::error::PhyError;
use crate::mcs::{BurstParams, Mcs};
use crate::rates::{RateKit, RateTable};
use crate::signal::{encode_signal_field, FLUSH_BITS, SIGNAL_BITS};

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
    /// Samples per OFDM symbol, cyclic prefix included.
    pub symbol_samples: usize,
}

impl TxBurst {
    /// Total burst length in samples (identical across streams).
    pub fn len_samples(&self) -> usize {
        self.streams.first().map_or(0, Vec::len)
    }

    /// The share of the burst's samples that carry payload symbols:
    /// what the preamble and the SIGNAL-field header leave of the air
    /// time.
    pub fn payload_share(&self) -> f64 {
        (self.n_symbols * self.symbol_samples) as f64 / self.len_samples() as f64
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
/// burst builds its own scratch — per spatial channel the packed info
/// words, the two packed generator streams, the mapped carriers and the
/// modulator's frame scratch, at the burst's MCS — so the per-symbol
/// gather → LUT → IFFT → CP loop runs without heap allocation. The four
/// channel pipelines, mirroring the four parallel hardware chains of
/// Fig 1, run on a crew that includes the calling thread: one member
/// per host CPU when [`PhyConfig::parallelism`] is on, the caller alone
/// otherwise.
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
    /// Builds the four-stream transmitter. The configuration's MCS is
    /// the **default** for [`MimoTransmitter::transmit_burst`];
    /// [`MimoTransmitter::transmit_burst_with`] overrides it per burst.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] for invalid configurations.
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        cfg.validate()?;
        let default_mcs = cfg.mcs();
        let rates = RateTable::new(cfg.geometry())?;
        let fft_size = cfg.geometry().fft_size();
        let modulator = OfdmModulator::new(fft_size)?;
        let schedule = PreambleSchedule::new(N_STREAMS, fft_size);
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
        (MAX_STREAM_BYTES * N_STREAMS).min(u16::MAX as usize)
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
        // Round-robin byte split, each stream's bytes landing straight
        // in its packed little-endian info words.
        let mut info: Vec<Vec<u64>> = (0..N_STREAMS)
            .map(|k| vec![0; params.stream_bytes(k, N_STREAMS).div_ceil(8)])
            .collect();
        for (i, &b) in payload.iter().enumerate() {
            let j = i / N_STREAMS;
            info[i % N_STREAMS][j / 8] |= u64::from(b) << (8 * (j % 8));
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
        let mut streams = vec![vec![CQ15::ZERO; pre_len + header_len + data_len]; N_STREAMS];
        for slot in self.schedule.slots() {
            let field = match slot.kind {
                mimo_ofdm::preamble::FieldKind::Sts => &self.sts,
                mimo_ofdm::preamble::FieldKind::Lts => &self.lts,
            };
            streams[slot.tx][slot.offset..slot.offset + slot.len].copy_from_slice(field);
        }

        // SIGNAL-field header: stream 0's first symbols, most robust
        // MCS, never scrambled, pilot polarity indices 0..header_symbols.
        let mut header = Vec::new();
        encode_signal_field(&params, &mut header)?;
        let header_word = header.iter().rev().fold(0, |w, &b| (w << 1) | u64::from(b));
        let header_out = &mut streams[0][pre_len..pre_len + header_len];
        self.modulate_info(self.rates.header_kit(), vec![header_word], false, 0, header_out)?;

        // Per-stream payload pipeline — "four separate and independent
        // channels", each on its own scratch, split across the crew.
        let kit = self.rates.kit(mcs);
        let width = self.cfg.parallelism().then(host_parallelism).unwrap_or(1);
        let mut work: Vec<(&mut [CQ15], Vec<u64>)> = streams
            .iter_mut()
            .zip(info)
            .map(|(stream, words)| (&mut stream[pre_len + header_len..], words))
            .collect();
        fan_out(width, &mut work, |_, (out, words)| {
            self.modulate_info(kit, std::mem::take(words), true, header_symbols, out)
        })?;

        Ok(TxBurst {
            streams,
            n_symbols,
            header_symbols,
            mcs,
            payload_len: payload.len(),
            symbol_samples: sym_len,
        })
    }

    /// The one bit-to-sample routine behind the SIGNAL field and every
    /// payload stream. `info` holds the info bits packed LSB-first,
    /// zero past the data; they are zero-padded to fill `out`'s symbols
    /// (less the encoder's flush bits) → keystream-XORed a word at a
    /// time (payload only) → encoded into one packed stream per
    /// generator → gathered through `kit`'s bit map into mapper LUT
    /// addresses ([`map_coded`]) → OFDM modulation of every symbol in
    /// one call, pilot polarity indices from `first_symbol` on.
    fn modulate_info(
        &self,
        kit: &RateKit,
        mut info: Vec<u64>,
        scramble: bool,
        first_symbol: usize,
        out: &mut [CQ15],
    ) -> Result<(), PhyError> {
        let geometry = self.cfg.geometry();
        let n_symbols = out.len() / geometry.symbol_samples();
        let capacity = n_symbols * kit.mcs.info_bits_per_symbol(geometry) - FLUSH_BITS;
        debug_assert!(info.len() <= capacity.div_ceil(64), "symbol count under-provisioned");
        info.resize(capacity.div_ceil(64), 0);
        if scramble {
            Scrambler::new(SCRAMBLER_SEED).scramble_words(&mut info);
        }
        // The encoder reads bits from `capacity` on as zero: the
        // keystream past the padding never reaches the air.
        let mut mother = Vec::new();
        let stride = CodeSpec::ieee80211a().encode_terminated_words(&info, capacity, &mut mother);
        let n_data = geometry.data_carriers();
        let mut data = vec![CQ15::ZERO; n_symbols * n_data];
        map_coded(kit, [&mother[..stride], &mother[stride..]], n_data, &mut data);
        let mut frames = self.modulator.frame_scratch(n_symbols);
        self.modulator.modulate_into(&data, first_symbol, out, &mut frames)?;
        Ok(())
    }
}

/// The transmit gather: for each symbol of `data` (`n_data` carriers
/// each), every carrier's coded bits read out of the two packed
/// generator streams through `kit`'s bit map, MSB first, as its mapper
/// LUT address. Mother bit `m` is bit `m / 2` of generator `m % 2`'s
/// stream, and symbol `s` starts at mother bit `s·M`.
// phylint: hot
fn map_coded(kit: &RateKit, generators: [&[u64]; 2], n_data: usize, data: &mut [CQ15]) {
    let half = kit.mother_bits_per_symbol() / 2;
    debug_assert_eq!(2 * half, kit.mother_bits_per_symbol(), "whole trellis steps per symbol");
    let bps = kit.mcs.bits_per_symbol();
    let lut = kit.mapper.lut();
    for (s, carriers) in data.chunks_exact_mut(n_data).enumerate() {
        let at = kit.fused.map().chunks_exact(bps);
        for (point, positions) in carriers.iter_mut().zip(at) {
            let mut addr = 0;
            for &m in positions {
                let t = s * half + (m / 2) as usize;
                let bit = (generators[(m % 2) as usize][t / 64] >> (t % 64)) & 1;
                addr = (addr << 1) | bit as usize;
            }
            *point = lut[addr];
        }
    }
}
// phylint: end-hot

/// The SIGNAL field rides in one packed info word.
const _: () = assert!(SIGNAL_BITS <= 64);

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_coding::ConvolutionalEncoder;

    /// The bit-per-byte chain the packed path replaces: info bits
    /// zero-padded to the symbols' capacity → scrambled bit by bit
    /// (payload only) → `encode_terminated` → per symbol, the coded
    /// bits gathered through the bit map → `map_bits_into` → one-symbol
    /// modulation, pilot polarity indices from `first` on.
    fn bit_serial_chain(
        tx: &MimoTransmitter,
        kit: &RateKit,
        info: &[u8],
        scramble: bool,
        n_symbols: usize,
        first: usize,
    ) -> Vec<CQ15> {
        let geometry = tx.cfg.geometry();
        let (sym_len, n) = (geometry.symbol_samples(), geometry.fft_size());
        let mut info = info.to_vec();
        info.resize(n_symbols * kit.mcs.info_bits_per_symbol(geometry) - FLUSH_BITS, 0);
        if scramble {
            Scrambler::new(SCRAMBLER_SEED).scramble_in_place(&mut info);
        }
        let mother = ConvolutionalEncoder::new(CodeSpec::ieee80211a()).encode_terminated(&info);
        let mut on_air = vec![CQ15::ZERO; n_symbols * sym_len];
        let mut symbols = vec![CQ15::ZERO; geometry.data_carriers()];
        let mut frame = vec![CQ15::ZERO; n];
        let per_symbol = mother
            .chunks(kit.mother_bits_per_symbol())
            .zip(on_air.chunks_mut(sym_len));
        for (m, (mother, out)) in per_symbol.enumerate() {
            let coded: Vec<u8> = kit.fused.map().iter().map(|&at| mother[at as usize]).collect();
            kit.mapper.map_bits_into(&coded, &mut symbols).unwrap();
            tx.modulator.modulate_symbol_into(&symbols, first + m, out, &mut frame).unwrap();
        }
        on_air
    }

    /// The packed path — word scramble, word encode, gather into LUT
    /// addresses, one modulation call over the whole run (the OFDM
    /// layer splits it into lane groups) — equals the bit-per-byte
    /// chain: unscrambled for 1–17 symbols (the SIGNAL-field case),
    /// and scrambled payloads of 0–70 bytes per stream at every MCS.
    #[test]
    fn batched_modulation_matches_symbol_at_a_time() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let geometry = tx.cfg.geometry();
        let sym_len = geometry.symbol_samples();
        let kit = tx.rates.kit(Mcs::Qam64R34);
        let ndbps = kit.mcs.info_bits_per_symbol(geometry);
        for n_symbols in 1..=17 {
            let info: Vec<u8> = (0..n_symbols * ndbps - FLUSH_BITS)
                .map(|i| u8::from((i * 7 + i / 5) % 3 == 0))
                .collect();
            let mut words = vec![0u64; info.len().div_ceil(64)];
            for (i, &bit) in info.iter().enumerate() {
                words[i / 64] |= u64::from(bit) << (i % 64);
            }
            let mut got = vec![CQ15::ZERO; n_symbols * sym_len];
            tx.modulate_info(kit, words, false, 3, &mut got).unwrap();
            let want = bit_serial_chain(&tx, kit, &info, false, n_symbols, 3);
            assert!(got == want, "{n_symbols} symbols");
        }
        for mcs in Mcs::ALL {
            let kit = tx.rates.kit(mcs);
            let ndbps = mcs.info_bits_per_symbol(geometry);
            for len in 0..=70usize {
                let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len * 11) as u8).collect();
                // The LSB-first bit order is a little-endian load.
                let words = bytes
                    .chunks(8)
                    .map(|c| {
                        let mut le = [0u8; 8];
                        le[..c.len()].copy_from_slice(c);
                        u64::from_le_bytes(le)
                    })
                    .collect();
                let n_symbols = (8 * len + FLUSH_BITS).div_ceil(ndbps);
                let mut got = vec![CQ15::ZERO; n_symbols * sym_len];
                tx.modulate_info(kit, words, true, 2, &mut got).unwrap();
                let info = mimo_coding::bits::bytes_to_bits(&bytes);
                let want = bit_serial_chain(&tx, kit, &info, true, n_symbols, 2);
                assert!(got == want, "{mcs}, {len} bytes");
            }
        }
    }

    /// The payload share counts the SIGNAL header as overhead: a
    /// 100-byte 64-QAM r=3/4 burst is one payload symbol of 80 samples
    /// behind 800 preamble and 160 header samples.
    #[test]
    fn payload_share_counts_preamble_and_header() {
        let tx = MimoTransmitter::new(PhyConfig::gigabit()).unwrap();
        let burst = tx.transmit_burst(&[0; 100]).unwrap();
        let preamble = tx.preamble_schedule().data_offset();
        let header = burst.header_symbols * burst.symbol_samples;
        let payload = burst.n_symbols * burst.symbol_samples;
        assert_eq!((preamble, header, payload), (800, 160, 80));
        assert_eq!(preamble + header + payload, burst.len_samples());
        assert_eq!(burst.payload_share(), 80.0 / 1040.0);
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
