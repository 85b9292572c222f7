//! Chunk-driven burst acquisition: the online form of the two-stage
//! (coarse STS → fine cross-correlator) synchroniser.
//!
//! The batch receiver sees a whole capture at once and can run
//! [`coarse_sts_end`](crate::coarse_sts_end) followed by
//! [`TimeSynchronizer::scan_peak_window`] over stored samples. A
//! streaming receiver sees arbitrary-size sample chunks — one sample,
//! a DMA page, anything in between — and must carry the correlator
//! state across chunk boundaries. [`CoarseTracker`] and
//! [`SyncTracker`] are those online forms, and the batch entry points
//! are thin wrappers over them, so there is exactly **one**
//! implementation of the acquisition arithmetic. Feeding any split of
//! a capture through the trackers is bit-identical to the whole-capture
//! scan: every floating-point accumulation happens in the same order.
//!
//! ## The chunk-boundary off-by-one
//!
//! The whole-capture loop evaluates plateau position `n` only once
//! sample `n + 48` exists (its loop bound is `len - WINDOW - LAG`,
//! one position short of what the sliding sums alone would allow,
//! because the slide to `n + 1` touches sample `n + 48`). A naive
//! streaming port evaluates `n` as soon as sample `n + 47` arrives —
//! one sample *earlier* — which shifts every run-length comparison and
//! end-of-stream plateau rule by one and breaks bit-identity for
//! captures whose plateau touches the buffer edge. [`CoarseTracker`]
//! therefore defers evaluation of position `n` to the arrival of
//! sample `n + 48`, exactly mirroring the batch loop; the
//! `chunked_equals_batch_*` tests pin this.

use mimo_fixed::{CQ15, Cf64};

use crate::coarse::{CoarseSts, LAG, MIN_ENERGY, MIN_RUN, THRESHOLD, WINDOW};
use crate::correlator::{SyncEvent, TimeSynchronizer};

/// Ring depth for the coarse sliding sums: the slide at position `n`
/// touches samples `n..=n + WINDOW + LAG`, so 49 columns must stay
/// addressable. A power of two keeps the index a mask.
const RING: usize = 64;

/// Trailing history (samples per antenna) the fine stage may reach
/// back for: the scan window starts at `sts_end - 48` and primes the
/// 32-tap shift register from 31 samples before that.
const FINE_REACH: usize = WINDOW + LAG + crate::CORRELATOR_TAPS;

/// History retained per antenna while searching, with compaction slack
/// so the buffers stop growing at steady state.
const KEEP: usize = 2 * FINE_REACH;

/// The online coarse STS detector: the lag-16 plateau tracker of
/// [`coarse_sts_end`](crate::coarse_sts_end), consuming one
/// multi-antenna sample column at a time.
///
/// Positions are **local**: column 0 is the first sample pushed after
/// construction or [`CoarseTracker::reset`].
#[derive(Debug, Clone)]
pub struct CoarseTracker {
    n_ant: usize,
    /// Column ring: sample `j` of antenna `a` lives at
    /// `ring[(j & (RING-1)) * n_ant + a]`.
    ring: Vec<CQ15>,
    /// Columns ingested so far (the next column's local index).
    count: usize,
    corr: Cf64,
    energy: f64,
    run_start: Option<usize>,
    best: Option<CoarseSts>,
}

impl CoarseTracker {
    /// Creates a tracker combining `n_antennas` receive streams (the
    /// metric sums every antenna's correlation and energy, as the
    /// batch detector does).
    pub fn new(n_antennas: usize) -> Self {
        Self {
            n_ant: n_antennas.max(1),
            ring: vec![CQ15::ZERO; RING * n_antennas.max(1)],
            count: 0,
            corr: Cf64::ZERO,
            energy: 0.0,
            run_start: None,
            best: None,
        }
    }

    /// Re-arms the tracker: the next pushed column is local position 0.
    pub fn reset(&mut self) {
        self.count = 0;
        self.corr = Cf64::ZERO;
        self.energy = 0.0;
        self.run_start = None;
        self.best = None;
    }

    /// Columns ingested since construction/reset.
    pub fn samples_seen(&self) -> usize {
        self.count
    }

    #[inline]
    fn col(&self, j: usize, a: usize) -> CQ15 {
        self.ring[(j & (RING - 1)) * self.n_ant + a]
    }

    /// The lag product and energy of the sample pair `(p, p + LAG)`,
    /// summed over antennas — `term(i, n)` of the batch detector with
    /// `p = n + i`.
    #[inline]
    fn term(&self, p: usize) -> (Cf64, f64) {
        let mut c = Cf64::ZERO;
        let mut e = 0.0;
        for a in 0..self.n_ant {
            let x = Cf64::from_fixed(self.col(p, a));
            let y = Cf64::from_fixed(self.col(p + LAG, a));
            c += x * y.conj();
            e += y.norm_sqr();
        }
        (c, e)
    }

    /// Plateau bookkeeping at position `n`; `true` when the first
    /// qualifying plateau just closed (the detection is latched).
    fn evaluate(&mut self, n: usize) -> bool {
        let plateau = self.energy > MIN_ENERGY * WINDOW as f64
            && self.corr.norm_sqr() >= (THRESHOLD * self.energy) * (THRESHOLD * self.energy);
        match (plateau, self.run_start) {
            (true, None) => self.run_start = Some(n),
            (false, Some(start)) => {
                if n - start >= MIN_RUN && self.best.is_none() {
                    self.best = Some(CoarseSts {
                        sts_end: n - 1 + WINDOW + LAG,
                        plateau_start: start,
                    });
                    return true;
                }
                self.run_start = None;
            }
            _ => {}
        }
        false
    }

    /// Pushes one sample column (`column[a]` = antenna `a`'s sample).
    /// Returns the detection on the clock where the first plateau of
    /// sufficient length closes; the tracker then stays latched until
    /// [`CoarseTracker::reset`].
    ///
    /// # Panics
    ///
    /// Panics when `column.len()` differs from the antenna count.
    pub fn push_column(&mut self, column: &[CQ15]) -> Option<CoarseSts> {
        assert_eq!(column.len(), self.n_ant, "coarse tracker column width");
        let base = (self.count & (RING - 1)) * self.n_ant;
        self.ring[base..base + self.n_ant].copy_from_slice(column);
        self.advance()
    }

    /// Scans a whole capture from a fresh start: resets the tracker,
    /// writes each column of `streams` straight into the ring, and
    /// applies the end-of-stream rule if no plateau closed first. The
    /// whole-capture detector without any allocation, so one tracker
    /// can serve every burst of a receiver.
    ///
    /// Returns `None` when the stream count differs from the antenna
    /// count, or when no plateau of sufficient length exists.
    pub fn scan<S: AsRef<[CQ15]>>(&mut self, streams: &[S]) -> Option<CoarseSts> {
        if streams.len() != self.n_ant {
            return None;
        }
        self.reset();
        let len = streams.iter().map(|s| s.as_ref().len()).min()?;
        for j in 0..len {
            let base = (j & (RING - 1)) * self.n_ant;
            for (slot, s) in self.ring[base..base + self.n_ant].iter_mut().zip(streams) {
                *slot = s.as_ref()[j];
            }
            if let Some(coarse) = self.advance() {
                return Some(coarse);
            }
        }
        self.finish()
    }

    /// Runs the detector on the column just written at ring slot
    /// `count`.
    fn advance(&mut self) -> Option<CoarseSts> {
        let j = self.count;
        self.count += 1;
        if self.best.is_some() {
            return None;
        }
        if j + 1 == WINDOW + LAG {
            // All samples of the first window present: build the
            // initial sums exactly as the batch loop does.
            for i in 0..WINDOW {
                let (c, e) = self.term(i);
                self.corr += c;
                self.energy += e;
            }
        } else if j >= WINDOW + LAG {
            // Sample n + 48 just arrived: evaluate position n, *then*
            // slide the window — the batch evaluation order (see the
            // module docs on the off-by-one this prevents).
            let n = j - (WINDOW + LAG);
            let fired = self.evaluate(n);
            let (c_old, e_old) = self.term(n);
            self.corr -= c_old;
            self.energy -= e_old;
            let (c_new, e_new) = self.term(n + WINDOW);
            self.corr += c_new;
            self.energy += e_new;
            if self.energy < 0.0 {
                self.energy = 0.0;
            }
            if fired {
                return self.best;
            }
        }
        None
    }

    /// Applies the end-of-stream rule without consuming more samples:
    /// a plateau still open after the last evaluable position is
    /// accepted if long enough — the batch detector's
    /// plateau-runs-to-the-buffer-edge branch. Idempotent and
    /// non-destructive.
    pub fn finish(&self) -> Option<CoarseSts> {
        if self.best.is_some() {
            return self.best;
        }
        if self.count < WINDOW + LAG {
            return None;
        }
        let positions = self.count - WINDOW - LAG;
        if let Some(start) = self.run_start {
            if positions - start >= MIN_RUN {
                return Some(CoarseSts {
                    sts_end: positions - 1 + WINDOW + LAG,
                    plateau_start: start,
                });
            }
        }
        None
    }
}

/// Acquisition state of a [`SyncTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrackState {
    /// Running the coarse plateau detector.
    Searching,
    /// Coarse fired at `sts_end`; buffering until the fine scan window
    /// `[sts_end - 48, sts_end + 48)` is fully covered.
    FineWait { sts_end: usize },
    /// A detection was delivered (or the stream was flushed); the
    /// tracker is idle until [`SyncTracker::rearm_at`].
    Locked,
}

/// The chunk-driven two-stage synchroniser: an online
/// [`CoarseTracker`] feeding the 32-tap fine cross-correlator scanned
/// in a ±48-sample window around the coarse estimate — the exact
/// acquisition sequence of the batch receiver, consuming
/// arbitrary-size sample chunks and carrying all state (sliding sums,
/// plateau run, trailing sample history) across chunk boundaries.
///
/// All reported indices are **absolute** stream positions (the first
/// sample ever pushed is index 0; [`SyncTracker::rearm_at`] re-bases
/// the search without disturbing absolute numbering).
///
/// # Examples
///
/// ```
/// use mimo_fft::FixedFft;
/// use mimo_ofdm::{preamble, SubcarrierMap};
/// use mimo_sync::{SyncTracker, TimeSynchronizer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fft = FixedFft::new(64)?;
/// let map = SubcarrierMap::new(64)?;
/// let taps = preamble::sync_reference(&fft, &map, 0.5)?;
/// let scan = TimeSynchronizer::new(taps, mimo_sync::DEFAULT_THRESHOLD_FACTOR)?;
/// let mut tracker = SyncTracker::from_correlator(scan, 1);
///
/// let mut burst = preamble::sts_time(&fft, &map, 0.5)?;
/// let lts_start = burst.len();
/// burst.extend(preamble::lts_time(&fft, &map, 0.5)?);
///
/// // Feed the burst in ragged chunks; the event carries absolute indices.
/// let mut found = None;
/// for chunk in burst.chunks(7) {
///     if let Some(event) = tracker.push_chunks(&[chunk]) {
///         found = Some(event);
///         break;
///     }
/// }
/// let event = found.or_else(|| tracker.flush()).expect("preamble located");
/// assert_eq!(event.lts_start, lts_start);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyncTracker {
    /// Fine-correlator prototype (taps + threshold); scans are `&self`.
    scan: TimeSynchronizer,
    coarse: CoarseTracker,
    n_ant: usize,
    /// Absolute index where the current coarse search began.
    origin: usize,
    /// Absolute samples ingested (next sample's index).
    ingested: usize,
    /// Trailing per-antenna history backing the fine scan. A caller
    /// holding its own sample buffers (the streaming receiver does)
    /// stores these ~`2·KEEP` samples twice; the duplication is
    /// bounded and keeps the tracker usable standalone against any
    /// sample source.
    hist: Vec<Vec<CQ15>>,
    /// Absolute index of `hist[a][0]`.
    hist_base: usize,
    state: TrackState,
    /// Column assembly scratch (one sample per antenna).
    column: Vec<CQ15>,
}

impl SyncTracker {

    /// Builds a tracker around an existing fine-correlator prototype
    /// (same taps and threshold the batch receiver scans with).
    pub fn from_correlator(scan: TimeSynchronizer, n_antennas: usize) -> Self {
        let n_ant = n_antennas.max(1);
        Self {
            scan,
            coarse: CoarseTracker::new(n_ant),
            n_ant,
            origin: 0,
            ingested: 0,
            hist: (0..n_ant).map(|_| Vec::new()).collect(),
            hist_base: 0,
            state: TrackState::Searching,
            column: vec![CQ15::ZERO; n_ant],
        }
    }

    /// Absolute samples consumed so far.
    pub fn position(&self) -> usize {
        self.ingested
    }

    /// `true` once a detection has been delivered (or the stream
    /// flushed); push further samples only after
    /// [`SyncTracker::rearm_at`].
    pub fn is_locked(&self) -> bool {
        self.state == TrackState::Locked
    }

    /// Re-arms the tracker for the next burst: the coarse search
    /// restarts fresh at absolute `position` (≥ the current position
    /// is typical — the caller replays any already-buffered samples it
    /// holds past that point). History is discarded.
    pub fn rearm_at(&mut self, position: usize) {
        self.coarse.reset();
        self.origin = position;
        self.ingested = position;
        for h in &mut self.hist {
            h.clear();
        }
        self.hist_base = position;
        self.state = TrackState::Searching;
    }

    /// Pushes one equal-length chunk per antenna and returns a
    /// detection if acquisition completes inside this chunk. After a
    /// detection the tracker is latched ([`SyncTracker::is_locked`])
    /// until re-armed.
    ///
    /// # Panics
    ///
    /// Panics on a wrong antenna count, unequal chunk lengths, or a
    /// push while locked.
    pub fn push_chunks<S: AsRef<[CQ15]>>(&mut self, chunks: &[S]) -> Option<SyncEvent> {
        assert_eq!(chunks.len(), self.n_ant, "sync tracker antenna count");
        let len = chunks[0].as_ref().len();
        assert!(
            chunks.iter().all(|c| c.as_ref().len() == len),
            "sync tracker chunks must be equal length"
        );
        assert!(
            self.state != TrackState::Locked,
            "sync tracker pushed while locked; call rearm_at first"
        );
        for (h, c) in self.hist.iter_mut().zip(chunks) {
            h.extend_from_slice(c.as_ref());
        }
        self.ingested += len;

        if self.state == TrackState::Searching {
            // Drive the coarse detector column by column over the new
            // samples (local column index = absolute - origin).
            let start = self.origin + self.coarse.samples_seen();
            for j in start..self.ingested {
                for (slot, hist) in self.column.iter_mut().zip(&self.hist) {
                    *slot = hist[j - self.hist_base];
                }
                if let Some(coarse) = self.coarse.push_column(&self.column) {
                    self.state = TrackState::FineWait {
                        sts_end: self.origin + coarse.sts_end,
                    };
                    break;
                }
            }
        }

        if let TrackState::FineWait { sts_end } = self.state {
            if self.ingested >= sts_end + WINDOW + LAG {
                return self.resolve_fine(sts_end, sts_end + WINDOW + LAG);
            }
        } else {
            self.compact();
        }
        None
    }

    /// Finalizes at end-of-stream: applies the coarse end-of-buffer
    /// plateau rule and runs the fine scan over whatever window is
    /// buffered (the batch path's `hi.min(len)` clamp). The tracker is
    /// locked afterwards.
    pub fn flush(&mut self) -> Option<SyncEvent> {
        let sts_end = match self.state {
            TrackState::Locked => return None,
            TrackState::FineWait { sts_end } => Some(sts_end),
            TrackState::Searching => self.coarse.finish().map(|c| self.origin + c.sts_end),
        };
        let event = sts_end
            .and_then(|sts_end| self.resolve_fine(sts_end, (sts_end + WINDOW + LAG).min(self.ingested)));
        self.state = TrackState::Locked;
        event
    }

    /// The fine stage: scan every antenna's history in
    /// `[sts_end - 48, hi)` and keep the strongest peak — identical
    /// antenna fold to the batch receiver (later antennas win ties).
    fn resolve_fine(&mut self, sts_end: usize, hi: usize) -> Option<SyncEvent> {
        let lo = sts_end.saturating_sub(WINDOW + LAG);
        let mut best: Option<SyncEvent> = None;
        for hist in &self.hist {
            // The scan helper saturates its priming window at slice
            // start; history always reaches back `FINE_REACH` samples
            // (or to absolute 0), so local and absolute saturation
            // coincide.
            let lo_local = lo.saturating_sub(self.hist_base);
            let hi_local = hi.saturating_sub(self.hist_base).min(hist.len());
            if let Some(mut event) = self.scan.scan_peak_window(hist, lo_local, hi_local) {
                event.peak_index += self.hist_base;
                event.lts_start += self.hist_base;
                if best.is_none_or(|b| event.magnitude >= b.magnitude) {
                    best = Some(event);
                }
            }
        }
        match best {
            Some(event) => {
                self.state = TrackState::Locked;
                // History is the receiver's business from here on.
                for h in &mut self.hist {
                    h.clear();
                }
                self.hist_base = self.ingested;
                Some(event)
            }
            None => {
                // Degenerate window (e.g. all-zero samples after a
                // false coarse plateau): resume searching past it.
                self.coarse.reset();
                self.origin = self.ingested;
                self.state = TrackState::Searching;
                self.compact();
                None
            }
        }
    }

    /// Drops history the fine stage can no longer reach. Amortized
    /// O(1) per sample; buffer capacity stops growing at steady state.
    fn compact(&mut self) {
        let keep_from = self.ingested.saturating_sub(KEEP);
        if keep_from > self.hist_base && self.hist[0].len() > 2 * KEEP {
            let drop = keep_from - self.hist_base;
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

    fn new_tracker(taps: &[CQ15], n_antennas: usize) -> SyncTracker {
        let scan = TimeSynchronizer::new(taps.to_vec(), crate::DEFAULT_THRESHOLD_FACTOR).unwrap();
        SyncTracker::from_correlator(scan, n_antennas)
    }
    use mimo_fft::FixedFft;
    use mimo_ofdm::{preamble, SubcarrierMap};

    fn preamble_burst() -> (Vec<CQ15>, usize, Vec<CQ15>) {
        let fft = FixedFft::new(64).unwrap();
        let map = SubcarrierMap::new(64).unwrap();
        let taps = preamble::sync_reference(&fft, &map, 0.5).unwrap();
        let mut burst = preamble::sts_time(&fft, &map, 0.5).unwrap();
        let lts_start = burst.len();
        burst.extend(preamble::lts_time(&fft, &map, 0.5).unwrap());
        (burst, lts_start, taps)
    }

    /// Whole-capture reference: the batch two-stage acquisition.
    fn batch_acquire(streams: &[Vec<CQ15>], taps: &[CQ15]) -> Option<SyncEvent> {
        let sync = TimeSynchronizer::new(taps.to_vec(), crate::DEFAULT_THRESHOLD_FACTOR).unwrap();
        let coarse = crate::coarse_sts_end(streams)?;
        streams
            .iter()
            .filter_map(|s| {
                sync.scan_peak_window(s, coarse.sts_end.saturating_sub(48), coarse.sts_end + 48)
            })
            .max_by_key(|e| e.magnitude)
    }

    fn feed_chunked(
        tracker: &mut SyncTracker,
        streams: &[Vec<CQ15>],
        chunk: usize,
    ) -> Option<SyncEvent> {
        let len = streams[0].len();
        let mut at = 0;
        while at < len {
            let end = (at + chunk).min(len);
            let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
            if let Some(event) = tracker.push_chunks(&views) {
                return Some(event);
            }
            at = end;
        }
        tracker.flush()
    }

    #[test]
    fn chunked_equals_batch_every_chunk_size() {
        let (burst, _, taps) = preamble_burst();
        // Pad with a payload-ish tail so the plateau closes mid-capture.
        let mut stream = vec![CQ15::ZERO; 33];
        stream.extend_from_slice(&burst);
        stream.extend((0..500).map(|i| CQ15::from_f64(0.05 * ((i % 7) as f64 - 3.0), 0.02)));
        let streams = vec![stream];
        let want = batch_acquire(&streams, &taps).expect("batch acquires");
        for chunk in [1usize, 7, 13, 64, 80, 333, streams[0].len()] {
            let mut tracker = new_tracker(&taps, 1);
            let got = feed_chunked(&mut tracker, &streams, chunk).expect("tracker acquires");
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn chunked_equals_batch_when_plateau_touches_buffer_end() {
        // Truncate right after the STS so the coarse plateau runs to
        // the end of the capture: the flush() path must reproduce the
        // batch end-of-buffer rule, including its one-sample-deferred
        // evaluation order.
        let (burst, lts_start, taps) = preamble_burst();
        for cut in [lts_start, lts_start + 5, lts_start + 33] {
            let streams = vec![burst[..cut].to_vec()];
            let want = batch_acquire(&streams, &taps);
            for chunk in [1usize, 7, 80, cut] {
                let mut tracker = new_tracker(&taps, 1);
                let got = feed_chunked(&mut tracker, &streams, chunk);
                assert_eq!(got, want, "cut {cut} chunk {chunk}");
            }
        }
    }

    #[test]
    fn multi_antenna_fold_matches_batch_tie_breaking() {
        let (burst, _, taps) = preamble_burst();
        // Two antennas with different gains; the batch fold keeps the
        // strongest (last among ties).
        let faded: Vec<CQ15> = burst.iter().map(|s| s.shr_round(2)).collect();
        let mut s0 = faded;
        let mut s1 = burst;
        s0.extend(std::iter::repeat_n(CQ15::ZERO, 300));
        s1.extend(std::iter::repeat_n(CQ15::ZERO, 300));
        let streams = vec![s0, s1];
        let want = batch_acquire(&streams, &taps).expect("batch acquires");
        for chunk in [1usize, 17, 4096] {
            let mut tracker = new_tracker(&taps, 2);
            let got = feed_chunked(&mut tracker, &streams, chunk).expect("tracker acquires");
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn rearm_finds_back_to_back_bursts_at_absolute_positions() {
        let (burst, lts_start, taps) = preamble_burst();
        let gap = 700usize;
        let mut stream = burst.clone();
        stream.extend(std::iter::repeat_n(CQ15::ZERO, gap));
        stream.extend_from_slice(&burst);
        stream.extend(std::iter::repeat_n(CQ15::ZERO, 300));
        let mut tracker = new_tracker(&taps, 1);

        let mut events = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let end = (at + 64).min(stream.len());
            if let Some(event) = tracker.push_chunks(&[&stream[at..end]]) {
                events.push(event);
                // Re-arm just past the detection and replay the rest.
                let resume = event.lts_start + 1;
                tracker.rearm_at(resume);
                let replay_from = resume.min(end);
                if replay_from < end {
                    tracker.push_chunks(&[&stream[replay_from..end]]);
                }
            }
            at = end;
        }
        assert_eq!(events.len(), 2, "both bursts located");
        assert_eq!(events[0].lts_start, lts_start);
        assert_eq!(events[1].lts_start, burst.len() + gap + lts_start);
    }

    #[test]
    fn history_stays_bounded_during_long_idle() {
        let (_, _, taps) = preamble_burst();
        let mut tracker = new_tracker(&taps, 1);
        let idle = vec![CQ15::ZERO; 257];
        for _ in 0..200 {
            assert!(tracker.push_chunks(&[idle.as_slice()]).is_none());
        }
        assert!(
            tracker.hist[0].len() <= 2 * KEEP + idle.len(),
            "history grew to {}",
            tracker.hist[0].len()
        );
    }
}
