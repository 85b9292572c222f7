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
//! # Search, then the shared decoder
//!
//! The receiver is either searching or holding one burst:
//!
//! * **Searching** — the chunk-driven [`SyncTracker`] (online coarse
//!   STS plateau + fine 32-tap correlator window) looks for a burst in
//!   the samples it has not seen yet.
//! * **A burst in flight** — from the sync event on, every pushed
//!   chunk goes to the decoder [`MimoReceiver::receive_burst`] also
//!   runs, which takes the burst as far as the buffered samples allow:
//!   channel estimate once the LTS fields are in, SIGNAL field once
//!   the first payload symbol is, then every whole payload symbol the
//!   chunk completed (handed to the OFDM ingest in one call, which
//!   takes the lane FFT whenever they fill a lane group) through the
//!   per-symbol core and, per stream, the Viterbi forward pass over the
//!   branches those symbols completed, and the close at the announced
//!   length. The push that closes a burst therefore runs only its own
//!   symbols, their branches, the traceback, the descramble and the
//!   reassembly: decoding keeps pace with the samples, as in the
//!   paper's datapath, instead of starting at the burst's end
//!   (`tests::viterbi_forward_pass_keeps_pace_with_the_chunks` pins
//!   it). When it closes or fails, the
//!   search re-arms at the sample the decoder names — the burst end
//!   after a close, the first SIGNAL-field sample after a failed
//!   estimate or decode — so back-to-back bursts in one stream decode
//!   naturally.
//!
//! This module adds only the sample history, the search and the
//! re-arming, so the emitted bursts are **bit-identical** to
//! [`MimoReceiver::receive_burst`] on the same samples, for every MCS
//! and every chunking — `tests/streaming_rx.rs` enforces this across
//! the grid, including preambles straddling chunk boundaries — and a
//! burst cut short reports the same [`PhyError::TruncatedBurst`] at
//! [`StreamingReceiver::flush`] that `receive_burst` reports for the
//! stored cut (`tests/rx_robustness.rs`).
//!
//! Steady-state processing allocates nothing: the decode scratch is
//! the same `RxWorkspace` type the batch path uses (its gathered
//! carrier rows hold the symbols decoded from the current chunk, its
//! Viterbi workspaces the forward pass so far), the receiver buffers
//! its own per-antenna sample history and hands the decoder views of
//! it, and the history buffers retain their capacity across bursts,
//! compacting amortized-O(1) per sample. Once warm, a push allocates
//! only when it closes a burst, and then only the burst's result
//! (`tests/alloc_steady_state.rs` counts it).
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

use mimo_fixed::CQ15;
use mimo_sync::{SyncEvent, SyncTracker};

use crate::config::{LinkGeometry, PhyConfig, N_STREAMS};
use crate::error::PhyError;
use crate::rx::{BurstState, RxCore, RxResult};
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

/// The chunk-driven 4×4 receiver: a sync search in front of the burst
/// decoder that batch ([`crate::MimoReceiver::receive_burst`]) and
/// pipelined ([`crate::BurstPipeline`]) reception also run, advanced
/// as samples arrive. See the module docs.
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
    /// Decode scratch, reused across symbols and bursts.
    ws: RxWorkspace,
    /// The burst past acquisition, if any.
    burst: Option<BurstState>,
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
            burst: None,
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
    /// including empty) and advances the receiver. Returns the
    /// first burst completed by these samples, if any; if a chunk
    /// completes more than one burst, the remainder stays buffered —
    /// drain with [`StreamingReceiver::poll`].
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadStreamCount`] / [`PhyError::UnequalChunks`]
    /// for malformed chunk sets, and surfaces per-burst decode
    /// failures ([`PhyError::HeaderCrc`], [`PhyError::UnsupportedMcs`],
    /// estimation and decode errors) exactly like
    /// [`crate::MimoReceiver::receive_burst`]; a shortfall is only an
    /// error at [`StreamingReceiver::flush`]. After an error the
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
        let lens = chunks.iter().map(|c| c.as_ref().len());
        if let Some((antenna, got)) = lens.enumerate().find(|&(_, got)| got != len) {
            return Err(PhyError::UnequalChunks {
                antenna,
                expected: len,
                got,
            });
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
        let interrupted = self.burst.take().is_some();
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
        if interrupted {
            Err(PhyError::StreamGap { missing })
        } else {
            Ok(())
        }
    }

    /// Advances the receiver over already-buffered samples
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
    /// a burst cut off mid-decode as [`PhyError::TruncatedBurst`], with
    /// the fields [`crate::MimoReceiver::receive_burst`] reports for
    /// the same samples.
    /// Returns a burst only if the buffered tail completed one.
    ///
    /// # Errors
    ///
    /// See [`StreamingReceiver::push_samples`].
    pub fn flush(&mut self) -> Result<Option<ReceivedBurst>, PhyError> {
        self.pump(true)
    }

    /// The driver; `end` marks end-of-stream. Without a burst in
    /// flight it feeds the new samples to the sync tracker; a burst it
    /// holds or finds goes to the shared decoder, which takes it as far
    /// as the buffered samples allow.
    fn pump(&mut self, end: bool) -> Result<Option<ReceivedBurst>, PhyError> {
        let mut burst = match self.burst.take() {
            Some(burst) => burst,
            None => match self.search(end) {
                Some(event) => self.core.begin_burst(event),
                None => {
                    self.compact_to(self.pos.saturating_sub(SEARCH_KEEP));
                    return Ok(None);
                }
            },
        };
        let held: [&[CQ15]; N_STREAMS] = std::array::from_fn(|a| self.hist[a].as_slice());
        match self
            .core
            .advance(&mut self.ws, &mut burst, &held, self.hist_base, end, 1)
        {
            Ok(None) => {
                self.compact_to(burst.keep_from());
                self.burst = Some(burst);
                Ok(None)
            }
            Ok(Some(closed)) => {
                self.rearm_at(closed.burst_end);
                Ok(Some(closed))
            }
            Err((e, resume)) => {
                self.rearm_at(resume);
                Err(e)
            }
        }
    }

    /// Feeds the samples the tracker has not seen yet and, at
    /// end-of-stream, finalizes a plateau still open at the buffer
    /// edge. Returns the sync event of a located burst.
    fn search(&mut self, end: bool) -> Option<SyncEvent> {
        if self.tracker.is_locked() {
            // A previous flush latched the tracker with no burst in
            // flight; new samples re-arm it.
            self.tracker.rearm_at(self.tracker_fed);
        }
        let mut event = None;
        if self.tracker_fed < self.pos {
            let from = self.tracker_fed - self.hist_base;
            let views: [&[CQ15]; N_STREAMS] = std::array::from_fn(|a| &self.hist[a][from..]);
            event = self.tracker.push_chunks(&views);
            self.tracker_fed = self.pos;
        }
        if event.is_none() && end && !self.tracker.is_locked() {
            event = self.tracker.flush();
        }
        event
    }

    /// Re-arms the sync tracker at `resume` (clamped to the buffered
    /// range); history before it is eligible for compaction.
    fn rearm_at(&mut self, resume: usize) {
        let resume = resume.clamp(self.hist_base, self.pos);
        self.tracker.rearm_at(resume);
        self.tracker_fed = resume;
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
    use crate::mcs::Mcs;
    use crate::rx::WINDOW_BACKOFF;
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
    fn viterbi_forward_pass_keeps_pace_with_the_chunks() {
        // No bit-identity test can see where the forward pass runs: pin
        // that each push of a 64-QAM burst has already run every
        // branch its symbols finalized, so the closing push is left
        // with only its own chunk's branches and the traceback.
        let tx = MimoTransmitter::new(PhyConfig::paper_synthesis()).unwrap();
        let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let payload: Vec<u8> = (0..2000).map(|i| (i * 19 + 5) as u8).collect();
        let burst = tx.transmit_burst_with(Mcs::Qam64R34, &payload).unwrap();
        let len = burst.streams[0].len();
        let (mut at, mut mid_burst, mut closed) = (0, 0, None);
        while at < len && closed.is_none() {
            let end = (at + 160).min(len);
            let views: Vec<&[CQ15]> = burst.streams.iter().map(|s| &s[at..end]).collect();
            closed = rx.push_samples(&views).unwrap();
            if closed.is_none() {
                for (k, ws) in rx.ws.streams.iter().enumerate() {
                    assert_eq!(
                        ws.viterbi.forward_branches(),
                        ws.pass_fill / 2,
                        "stream {k} after the chunk at {at}"
                    );
                }
                mid_burst += usize::from(rx.ws.streams[0].pass_fill > 0);
            }
            at = end;
        }
        let closed = closed.expect("the burst closes");
        assert_eq!(closed.result.payload, payload);
        // A 160-sample chunk completes two payload symbols, so every
        // chunk but the last ran a forward pass.
        let n_symbols = closed.result.diagnostics.n_symbols;
        assert!(n_symbols >= 10, "{n_symbols} symbols");
        assert!(
            mid_burst + 1 >= n_symbols / 2,
            "{mid_burst} of {n_symbols} symbols ran early"
        );
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
            Err(PhyError::UnequalChunks {
                antenna: 3,
                expected: 8,
                got: 7
            })
        ));
    }
}
