//! The streaming (sample-at-a-time) receiver core.
//!
//! The paper's receiver is a streaming pipeline: samples flow from the
//! ADC through sync, FFT, detection and decoding continuously —
//! whole-burst buffers are a software simulation artifact.
//! [`StreamingReceiver`] is that datapath in chunk-driven form:
//! [`StreamingReceiver::push_samples`] accepts arbitrary-size sample
//! chunks (one sample, a DMA page, a whole capture) and emits
//! [`ReceivedBurst`]s as bursts complete, carrying every piece of
//! state — correlator sums, channel estimate, per-symbol position,
//! accumulated LLRs — across chunk boundaries.
//!
//! # The per-symbol state machine
//!
//! ```text
//! Searching ──sync──▶ Estimating ──H⁻¹──▶ HeaderDecode{sym}
//!     ▲                                        │ SIGNAL parsed
//!     │                                        ▼
//!     └────── burst emitted ◀──────── Payload{symbol_idx}
//! ```
//!
//! * **Searching** — the chunk-driven [`SyncTracker`] (online coarse
//!   STS plateau + fine 32-tap correlator window) looks for a burst.
//! * **Estimating** — once the preamble is located, the receiver waits
//!   for the four staggered LTS fields and runs the same CORDIC-QRD
//!   channel estimation the batch path runs, on identical samples.
//! * **HeaderDecode** — each arriving symbol is ingested
//!   (CP strip + FFT + carrier gather) per antenna and pushed through
//!   the shared per-symbol core for stream 0 at BPSK r=1/2; after
//!   `header_symbols` symbols the SIGNAL field is parsed.
//! * **Payload{symbol_idx}** — every arriving symbol runs the shared
//!   detect→demap core for all four streams at the announced MCS; at
//!   the announced length the per-stream Viterbi decodes run, the
//!   round-robin reassembly closes the burst, and the machine re-arms
//!   for the next one — back-to-back bursts in one stream decode
//!   naturally.
//!
//! Because every stage *is* the batch receiver's stage (this module
//! adds only buffering and scheduling), the emitted bursts are
//! **bit-identical** to [`MimoReceiver::receive_burst`] on the same
//! samples, for every MCS and every chunking — `tests/streaming_rx.rs`
//! enforces this across the grid, including preambles straddling chunk
//! boundaries.
//!
//! Steady-state processing allocates nothing: the per-symbol scratch
//! is the same `RxWorkspace` type the batch path uses (one gathered
//! carrier row per antenna instead of a whole burst), the receiver
//! buffers its own per-antenna sample history and hands the
//! [`SymbolIngest`](mimo_ofdm::SymbolIngest) one on-air period at a
//! time, and the history buffers retain their capacity across bursts,
//! compacting amortized-O(1) per sample.
//!
//! One deliberate divergence: the batch path falls back to a
//! whole-capture cross-correlation scan when the coarse detector finds
//! no plateau (deep-fade rescue). A continuous stream has no "whole
//! capture" to scan, so the streaming receiver searches on; bursts the
//! coarse stage cannot see are skipped rather than rescued.
//!
//! [`MimoReceiver::receive_burst`]: crate::MimoReceiver::receive_burst
//!
//! # Examples
//!
//! ```
//! use mimo_core::{LinkGeometry, MimoTransmitter, PhyConfig, StreamingReceiver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
//! let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo())?;
//! let payload: Vec<u8> = (0..48).map(|i| (i * 5) as u8).collect();
//! let burst = tx.transmit_burst(&payload)?;
//!
//! // Feed the on-air samples in ragged 7-sample chunks.
//! let mut recovered = None;
//! let len = burst.streams[0].len();
//! let mut at = 0;
//! while at < len {
//!     let end = (at + 7).min(len);
//!     let chunks: Vec<&[_]> = burst.streams.iter().map(|s| &s[at..end]).collect();
//!     if let Some(b) = rx.push_samples(&chunks)? {
//!         recovered = Some(b);
//!     }
//!     at = end;
//! }
//! assert_eq!(recovered.unwrap().result.payload, payload);
//! # Ok(())
//! # }
//! ```

use mimo_chanest::FxMat4;
use mimo_fixed::CQ15;
use mimo_sync::{SyncEvent, SyncTracker};

use crate::config::{LinkGeometry, PhyConfig, N_STREAMS};
use crate::error::PhyError;
use crate::mcs::{BurstParams, Mcs};
use crate::rx::{assemble_payload, finish_result, RxCore, RxResult, WINDOW_BACKOFF};
use crate::workspace::RxWorkspace;

/// History retained behind the read position while searching: enough
/// for the fine-sync window and the LTS estimation views of a burst
/// detected at the very edge.
const SEARCH_KEEP: usize = 512;

/// Minimum dead prefix before the history buffers compact (amortizes
/// the memmove; bounds steady-state capacity).
const COMPACT_SLACK: usize = 4096;

/// One burst recovered from the sample stream.
#[derive(Debug, Clone)]
pub struct ReceivedBurst {
    /// The decoded burst — bit-identical to what
    /// [`crate::MimoReceiver::receive_burst`] returns for the same samples.
    /// The sync event inside the diagnostics carries **absolute**
    /// stream indices.
    pub result: RxResult,
    /// Absolute stream index one past the burst's last payload sample;
    /// the search for the next burst resumes here.
    pub burst_end: usize,
}

/// Immutable context of the burst being decoded.
#[derive(Debug, Clone)]
struct BurstCtx {
    event: SyncEvent,
    /// Absolute index of the first header symbol sample.
    data_start: usize,
    /// Inverted channel matrices, one per occupied carrier.
    h_inv: Vec<FxMat4>,
}

/// The receive phases (see the module docs for the machine).
#[derive(Debug, Clone)]
enum Phase {
    Searching,
    Estimating {
        event: SyncEvent,
    },
    HeaderDecode {
        ctx: Box<BurstCtx>,
        sym: usize,
    },
    Payload {
        ctx: Box<BurstCtx>,
        params: BurstParams,
        n_symbols: usize,
        sym: usize,
    },
}

/// The chunk-driven 4×4 receiver: the per-symbol core that batch
/// ([`crate::MimoReceiver::receive_burst`]) and pipelined
/// ([`crate::BurstPipeline`]) reception also run, advanced one on-air
/// symbol at a time as samples arrive. See the module docs.
#[derive(Debug)]
pub struct StreamingReceiver {
    /// The immutable receiver tables (kits, correctors, gather maps) —
    /// the same type the batch schedules drive.
    core: RxCore,
    tracker: SyncTracker,
    /// Absolute watermark of samples already fed to the tracker.
    tracker_fed: usize,
    /// Per-antenna sample history (absolute base `hist_base`).
    hist: Vec<Vec<CQ15>>,
    hist_base: usize,
    /// Absolute samples ingested so far.
    pos: usize,
    /// Per-symbol scratch, reused across symbols and bursts.
    ws: RxWorkspace,
    phase: Phase,
}

impl StreamingReceiver {
    /// Builds the streaming receiver from a configuration (geometry
    /// half only, like [`crate::MimoReceiver::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] for invalid configurations.
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        let core = RxCore::new(cfg)?;
        let tracker = SyncTracker::from_correlator(core.sync.clone(), N_STREAMS);
        let ws = core.workspace();
        Ok(Self {
            tracker,
            tracker_fed: 0,
            hist: (0..N_STREAMS).map(|_| Vec::new()).collect(),
            hist_base: 0,
            pos: 0,
            ws,
            phase: Phase::Searching,
            core,
        })
    }

    /// Builds the streaming receiver from the static link geometry
    /// alone — like every receiver, it learns each burst's rate from
    /// the SIGNAL field.
    ///
    /// # Errors
    ///
    /// Identical to [`StreamingReceiver::new`].
    pub fn from_geometry(geometry: LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// The static link geometry in use.
    pub fn geometry(&self) -> &LinkGeometry {
        self.core.geometry()
    }

    /// Absolute samples consumed so far (per antenna).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Pushes one equal-length sample chunk per antenna (any length,
    /// including empty) and advances the state machine. Returns the
    /// first burst completed by these samples, if any; if a chunk
    /// completes more than one burst, the remainder stays buffered —
    /// drain with [`StreamingReceiver::poll`].
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadStreamCount`] / [`PhyError::BadConfig`]
    /// for malformed chunk sets, and surfaces per-burst decode
    /// failures ([`PhyError::HeaderCrc`], [`PhyError::UnsupportedMcs`],
    /// estimation and decode errors) exactly like
    /// [`crate::MimoReceiver::receive_burst`]; after such an error the
    /// receiver re-arms and keeps searching the stream, so one bad
    /// burst never wedges the datapath.
    // phylint: hot
    pub fn push_samples<S: AsRef<[CQ15]>>(
        &mut self,
        chunks: &[S],
    ) -> Result<Option<ReceivedBurst>, PhyError> {
        if chunks.len() != self.hist.len() {
            return Err(PhyError::BadStreamCount {
                expected: self.hist.len(),
                got: chunks.len(),
            });
        }
        let len = chunks[0].as_ref().len();
        if chunks.iter().any(|c| c.as_ref().len() != len) {
            return Err(PhyError::BadConfig(
                "push_samples chunks must be equal length across antennas".into(),
            ));
        }
        for (h, c) in self.hist.iter_mut().zip(chunks) {
            h.extend_from_slice(c.as_ref());
        }
        self.pos += len;
        self.pump(false)
    }
    // phylint: end-hot

    /// Declares a discontinuity in the sample stream: `missing`
    /// samples (per antenna) were lost in flight — dropped transport
    /// frames, a resync after garbage — and the samples before and
    /// after the gap must not be interpreted as contiguous.
    ///
    /// The receiver discards all buffered history, advances its
    /// absolute position past the gap and re-arms the search at the
    /// post-gap position, so the very next [`push_samples`] chunk is
    /// searched fresh. `missing` may be an estimate; it only keeps the
    /// absolute sample numbering monotonic.
    ///
    /// [`push_samples`]: StreamingReceiver::push_samples
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::StreamGap`] if a burst was mid-decode (its
    /// samples are unrecoverable, so the burst is abandoned); the
    /// receiver is already re-armed when the error is returned.
    /// Returns `Ok(())` when the gap fell between bursts.
    pub fn notify_gap(&mut self, missing: usize) -> Result<(), PhyError> {
        let interrupted = !matches!(self.phase, Phase::Searching);
        self.pos += missing;
        // The stream is discontinuous: nothing buffered can be
        // combined with post-gap samples, so drop it all (bounded
        // history under any fault schedule — a gap never grows state).
        for h in &mut self.hist {
            h.clear();
        }
        self.hist_base = self.pos;
        self.tracker.rearm_at(self.pos);
        self.tracker_fed = self.pos;
        self.phase = Phase::Searching;
        if interrupted {
            Err(PhyError::StreamGap { missing })
        } else {
            Ok(())
        }
    }

    /// Advances the state machine over already-buffered samples
    /// without pushing new ones — call repeatedly after
    /// [`StreamingReceiver::push_samples`] to drain a chunk that
    /// completed several bursts.
    ///
    /// # Errors
    ///
    /// See [`StreamingReceiver::push_samples`].
    pub fn poll(&mut self) -> Result<Option<ReceivedBurst>, PhyError> {
        self.pump(false)
    }

    /// Declares end-of-stream: finalizes a coarse plateau still open
    /// at the buffer edge (the batch end-of-capture rule) and reports
    /// a burst cut off mid-decode as [`PhyError::TruncatedBurst`].
    /// Returns a burst only if the buffered tail completed one.
    ///
    /// # Errors
    ///
    /// See [`StreamingReceiver::push_samples`].
    pub fn flush(&mut self) -> Result<Option<ReceivedBurst>, PhyError> {
        self.pump(true)
    }

    /// The state-machine driver; `end` marks end-of-stream.
    fn pump(&mut self, end: bool) -> Result<Option<ReceivedBurst>, PhyError> {
        let geometry = self.core.geometry().clone();
        let n = geometry.fft_size();
        let field = 5 * n / 2;
        let sym_len = geometry.symbol_samples();
        let h_syms = self.core.header_symbols;
        loop {
            match std::mem::replace(&mut self.phase, Phase::Searching) {
                Phase::Searching => {
                    if self.tracker.is_locked() {
                        // A previous flush latched the tracker with no
                        // burst in flight; new samples re-arm it.
                        self.tracker.rearm_at(self.tracker_fed);
                    }
                    let mut event = None;
                    if self.tracker_fed < self.pos {
                        let from = self.tracker_fed - self.hist_base;
                        let views: [&[CQ15]; 4] =
                            std::array::from_fn(|a| &self.hist[a][from..]);
                        event = self.tracker.push_chunks(&views);
                        self.tracker_fed = self.pos;
                    }
                    if event.is_none() && end && !self.tracker.is_locked() {
                        event = self.tracker.flush();
                    }
                    match event {
                        Some(event) => self.phase = Phase::Estimating { event },
                        None => {
                            self.compact_to(self.pos.saturating_sub(SEARCH_KEEP));
                            return Ok(None);
                        }
                    }
                }

                Phase::Estimating { event } => {
                    let lts0 = event.lts_start.saturating_sub(WINDOW_BACKOFF);
                    let needed = lts0 + 4 * field;
                    if self.pos < needed {
                        if end {
                            self.abort_search_at(self.pos);
                            return Err(PhyError::TruncatedBurst {
                                needed,
                                available: self.pos,
                            });
                        }
                        self.phase = Phase::Estimating { event };
                        return Ok(None);
                    }
                    let base = self.hist_base;
                    // The four staggered LTS views span exactly
                    // `lts0 + n/2 .. lts0 + 4·field` (field = 5n/2);
                    // the upper edge is covered by the `needed` check
                    // above, but a hostile stream can desynchronise
                    // the lower edge from the retained history.
                    if lts0 + n / 2 < base {
                        self.abort_search_at(self.pos);
                        // phylint: allow(hot_transitive) -- error path: allocates only when the stream has already desynchronised
                        return Err(PhyError::Desync(format!(
                            "LTS window at {} precedes retained history (base {base})",
                            lts0 + n / 2
                        )));
                    }
                    let lts_views: [[&[CQ15]; 4]; 4] = std::array::from_fn(|rx| {
                        std::array::from_fn(|slot| {
                            let start = lts0 + slot * field + n / 2 - base;
                            &self.hist[rx][start..start + 2 * n]
                        })
                    });
                    let data_start = lts0 + 4 * field;
                    let h_inv = match self.core.estimate_channel(&lts_views) {
                        Ok(h_inv) => h_inv,
                        Err(e) => {
                            self.abort_search_at(data_start);
                            return Err(e);
                        }
                    };
                    let n_occ = self.core.n_occupied();
                    for ant in &mut self.ws.antennas {
                        // One rolling row per antenna (the batch path
                        // gathers all symbols; streaming needs only
                        // the one in flight).
                        ant.freq_occ.resize(n_occ, CQ15::ZERO);
                    }
                    RxCore::begin_stream_pass(
                        &mut self.ws.header,
                        h_syms,
                        self.core.rates.header_kit(),
                    );
                    self.phase = Phase::HeaderDecode {
                        // phylint: allow(hot_transitive) -- one context box per burst header, amortised across the whole burst
                        ctx: Box::new(BurstCtx {
                            event,
                            data_start,
                            h_inv,
                        }),
                        sym: 0,
                    };
                }

                Phase::HeaderDecode { ctx, sym } => {
                    let start = ctx.data_start + sym * sym_len;
                    if self.pos < start + sym_len {
                        if end {
                            self.abort_search_at(self.pos);
                            return Err(PhyError::TruncatedBurst {
                                needed: start + sym_len,
                                available: self.pos,
                            });
                        }
                        self.phase = Phase::HeaderDecode { ctx, sym };
                        return Ok(None);
                    }
                    if let Err(e) = self.header_symbol(&ctx, sym) {
                        self.abort_search_at(ctx.data_start);
                        return Err(e);
                    }
                    let sym = sym + 1;
                    if sym < h_syms {
                        self.phase = Phase::HeaderDecode { ctx, sym };
                        continue;
                    }
                    let params = match self.core.parse_header(&mut self.ws.header) {
                        Ok(params) => params,
                        Err(e) => {
                            self.abort_search_at(ctx.data_start);
                            return Err(e);
                        }
                    };
                    let n_symbols = params.payload_symbols(&geometry);
                    let kit = self.core.rates.kit(params.mcs);
                    for ws in &mut self.ws.streams {
                        RxCore::begin_stream_pass(ws, n_symbols, kit);
                    }
                    self.phase = Phase::Payload {
                        ctx,
                        params,
                        n_symbols,
                        sym: 0,
                    };
                }

                Phase::Payload {
                    ctx,
                    params,
                    n_symbols,
                    sym,
                } => {
                    let start = ctx.data_start + (h_syms + sym) * sym_len;
                    if self.pos < start + sym_len {
                        if end {
                            self.abort_search_at(self.pos);
                            return Err(PhyError::TruncatedBurst {
                                needed: start + sym_len,
                                available: self.pos,
                            });
                        }
                        self.phase = Phase::Payload {
                            ctx,
                            params,
                            n_symbols,
                            sym,
                        };
                        return Ok(None);
                    }
                    if let Err(e) = self.payload_symbol(&ctx, params.mcs, h_syms + sym) {
                        self.abort_search_at(ctx.data_start);
                        return Err(e);
                    }
                    let sym = sym + 1;
                    // Consumed symbols (and the preamble) are history.
                    self.compact_to(ctx.data_start + (h_syms + sym) * sym_len);
                    if sym < n_symbols {
                        self.phase = Phase::Payload {
                            ctx,
                            params,
                            n_symbols,
                            sym,
                        };
                        continue;
                    }

                    // --- Burst end: Viterbi per stream, reassemble,
                    // re-arm the search. ---
                    let burst_end = ctx.data_start + (h_syms + n_symbols) * sym_len;
                    let result: Result<RxResult, PhyError> = (|| {
                        for (k, ws) in self.ws.streams.iter_mut().enumerate() {
                            self.core
                                .decode_stream(params.stream_bytes(k, N_STREAMS), ws)?;
                        }
                        let payload = assemble_payload(&params, &self.ws.streams)?;
                        Ok(finish_result(
                            ctx.event,
                            params.mcs,
                            n_symbols,
                            &self.ws.streams,
                            payload,
                        ))
                    })();
                    match result {
                        Ok(result) => {
                            self.abort_search_at(burst_end);
                            return Ok(Some(ReceivedBurst { result, burst_end }));
                        }
                        Err(e) => {
                            self.abort_search_at(burst_end);
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Ingests absolute symbol period `start..start + sym_len` on
    /// every antenna into the rolling gathered-carrier rows.
    fn ingest_symbol_rows(&mut self, start: usize, sym_len: usize) -> Result<(), PhyError> {
        let base = self.hist_base;
        let lo = start.checked_sub(base).ok_or_else(|| {
            // phylint: allow(hot_transitive) -- error path: allocates only when the stream has already desynchronised
            PhyError::Desync(format!(
                "symbol window at {start} precedes retained history (base {base})"
            ))
        })?;
        for (ant, hist) in self.ws.antennas.iter_mut().zip(&self.hist) {
            let period = hist.get(lo..lo + sym_len).ok_or_else(|| {
                // phylint: allow(hot_transitive) -- error path: allocates only when the stream has already desynchronised
                PhyError::Desync(format!(
                    "symbol window {start}..{} exceeds buffered samples",
                    start + sym_len
                ))
            })?;
            let frame = ant.ingest.ingest_period(period)?;
            self.core.gather_occ(frame, &mut ant.freq_occ);
        }
        Ok(())
    }

    /// One SIGNAL-field symbol through the shared core (stream 0 only,
    /// BPSK r=1/2, no diagnostics — exactly the batch header pass).
    fn header_symbol(&mut self, ctx: &BurstCtx, sym: usize) -> Result<(), PhyError> {
        let sym_len = self.core.geometry().symbol_samples();
        self.ingest_symbol_rows(ctx.data_start + sym * sym_len, sym_len)?;
        let RxWorkspace {
            antennas, header, ..
        } = &mut self.ws;
        let rows: [&[CQ15]; 4] = std::array::from_fn(|a| antennas[a].freq_occ.as_slice());
        self.core.process_symbol(
            0,
            header,
            &rows,
            &ctx.h_inv,
            self.core.rates.header_kit(),
            sym,
            false,
        )
    }

    /// One payload symbol through the shared core for all four
    /// streams; `sym` is the absolute after-LTS symbol index (= pilot
    /// polarity index, header included).
    fn payload_symbol(&mut self, ctx: &BurstCtx, mcs: Mcs, sym: usize) -> Result<(), PhyError> {
        let sym_len = self.core.geometry().symbol_samples();
        self.ingest_symbol_rows(ctx.data_start + sym * sym_len, sym_len)?;
        let RxWorkspace {
            antennas, streams, ..
        } = &mut self.ws;
        let rows: [&[CQ15]; 4] = std::array::from_fn(|a| antennas[a].freq_occ.as_slice());
        let kit = self.core.rates.kit(mcs);
        for (k, ws) in streams.iter_mut().enumerate() {
            self.core
                .process_symbol(k, ws, &rows, &ctx.h_inv, kit, sym, true)?;
        }
        Ok(())
    }

    /// Returns to `Searching` with the sync tracker re-armed at
    /// `resume` (clamped to the buffered range); history before it is
    /// eligible for compaction.
    fn abort_search_at(&mut self, resume: usize) {
        let resume = resume.clamp(self.hist_base, self.pos);
        self.tracker.rearm_at(resume);
        self.tracker_fed = resume;
        self.phase = Phase::Searching;
        self.compact_to(resume);
    }

    /// Drops history before `keep_from` once the dead prefix is large
    /// enough to amortize the move.
    fn compact_to(&mut self, keep_from: usize) {
        let keep_from = keep_from.min(self.pos).max(self.hist_base);
        let drop = keep_from - self.hist_base;
        if drop >= COMPACT_SLACK {
            for h in &mut self.hist {
                h.drain(..drop);
            }
            self.hist_base = keep_from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::MimoTransmitter;

    fn feed(
        rx: &mut StreamingReceiver,
        streams: &[Vec<CQ15>],
        chunk: usize,
    ) -> Vec<ReceivedBurst> {
        let len = streams[0].len();
        let mut out = Vec::new();
        let mut at = 0;
        while at < len {
            let end = (at + chunk).min(len);
            let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
            if let Some(b) = rx.push_samples(&views).expect("push") {
                out.push(b);
                while let Some(more) = rx.poll().expect("poll") {
                    out.push(more);
                }
            }
            at = end;
        }
        out
    }

    #[test]
    fn single_burst_roundtrip_over_chunks() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let payload: Vec<u8> = (0..100).map(|i| (i * 7 + 3) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        let got = feed(&mut rx, &burst.streams, 13);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].result.payload, payload);
        // The demodulation windows retreat WINDOW_BACKOFF samples into
        // the guard, so the burst closes just shy of the capture end.
        let len = burst.streams[0].len();
        assert!(
            got[0].burst_end <= len && got[0].burst_end + 2 * WINDOW_BACKOFF >= len,
            "burst_end {} vs capture {len}",
            got[0].burst_end
        );
    }

    #[test]
    fn header_error_rearms_the_search() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let payload: Vec<u8> = (0..40).map(|i| i as u8).collect();
        let mut bad = tx.transmit_burst(&payload).unwrap();
        let pre = tx.preamble_schedule().data_offset();
        let header_len = bad.header_symbols * 80;
        for s in &mut bad.streams[0][pre..pre + header_len] {
            *s = CQ15::ZERO;
        }
        // Bad burst, then a good one in the same stream.
        let good = tx.transmit_burst(&payload).unwrap();
        let streams: Vec<Vec<CQ15>> = (0..4)
            .map(|a| {
                let mut s = bad.streams[a].clone();
                s.extend_from_slice(&good.streams[a]);
                s
            })
            .collect();
        let len = streams[0].len();
        let mut bursts = Vec::new();
        let mut errors = 0;
        let mut at = 0;
        while at < len {
            let end = (at + 64).min(len);
            let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
            match rx.push_samples(&views) {
                Ok(Some(b)) => bursts.push(b),
                Ok(None) => {}
                Err(PhyError::HeaderCrc { .. }) => errors += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
            at = end;
        }
        assert_eq!(errors, 1, "bad header surfaces once");
        assert_eq!(bursts.len(), 1, "good burst still decodes");
        assert_eq!(bursts[0].result.payload, payload);
    }

    #[test]
    fn flush_reports_truncation() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let burst = tx.transmit_burst(&[0xA5; 64]).unwrap();
        let cut = burst.streams[0].len() - 100;
        let views: Vec<&[CQ15]> = burst.streams.iter().map(|s| &s[..cut]).collect();
        assert!(rx.push_samples(&views).unwrap().is_none());
        assert!(matches!(
            rx.flush(),
            Err(PhyError::TruncatedBurst { .. })
        ));
        // The receiver is re-armed, not wedged.
        let full: Vec<&[CQ15]> = burst.streams.iter().map(Vec::as_slice).collect();
        let got = rx.push_samples(&full).unwrap().expect("recovers");
        assert_eq!(got.result.payload, vec![0xA5; 64]);
    }

    #[test]
    fn gap_mid_burst_surfaces_and_rearms() {
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let payload: Vec<u8> = (0..120).map(|i| (i * 3 + 1) as u8).collect();
        let burst = tx.transmit_burst(&payload).unwrap();
        // Feed the preamble plus one data symbol, then declare a gap:
        // the burst in flight must surface as a typed loss.
        let cut = tx.preamble_schedule().data_offset() + 80;
        let views: Vec<&[CQ15]> = burst.streams.iter().map(|s| &s[..cut]).collect();
        assert!(rx.push_samples(&views).unwrap().is_none());
        assert!(matches!(
            rx.notify_gap(1000),
            Err(PhyError::StreamGap { missing: 1000 })
        ));
        // A gap between bursts is silent.
        assert!(rx.notify_gap(64).is_ok());
        // The receiver re-armed past the gap: a fresh burst decodes.
        let full: Vec<&[CQ15]> = burst.streams.iter().map(Vec::as_slice).collect();
        let got = rx.push_samples(&full).unwrap().expect("recovers after gap");
        assert_eq!(got.result.payload, payload);
        // Absolute numbering stayed monotonic across the gap.
        assert!(got.burst_end > cut + 1064);
    }

    #[test]
    fn chunk_shape_errors_are_typed() {
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let a = [CQ15::ZERO; 8];
        let b = [CQ15::ZERO; 7];
        assert!(matches!(
            rx.push_samples(&[&a[..], &a[..], &a[..]]),
            Err(PhyError::BadStreamCount { expected: 4, got: 3 })
        ));
        assert!(matches!(
            rx.push_samples(&[&a[..], &a[..], &a[..], &b[..]]),
            Err(PhyError::BadConfig(_))
        ));
    }
}
