//! Deterministic fault injection on any carrier.
//!
//! [`FaultInjector`] wraps a [`Carrier`] and applies the frame-level
//! faults drawn by a seeded [`mimo_channel::FaultLottery`] to every
//! outgoing frame: drops, truncations, bit corruption, duplication,
//! and stalls (hold a frame back, release it after later frames have
//! overtaken it — reordering). The receive path passes through
//! untouched, so one injector on the sender side faults exactly one
//! direction of a duplex link.
//!
//! Everything is driven by the lottery's ChaCha8 stream: a schedule +
//! seed pair replays the identical fault pattern on every run, which
//! is what makes the loopback soak tests debuggable.

use mimo_channel::{FaultKind, FaultLottery};

use crate::carrier::Carrier;
use crate::error::TransportError;

/// Counts of each fault actually applied to the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames delivered unmolested.
    pub clean: u64,
    /// Frames discarded.
    pub dropped: u64,
    /// Frames delivered as a prefix only.
    pub truncated: u64,
    /// Frames delivered with flipped bits.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back and released late (reordered).
    pub stalled: u64,
}

impl FaultCounts {
    /// Total faults applied (everything but clean deliveries).
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.truncated + self.corrupted + self.duplicated + self.stalled
    }
}

/// The fault-injecting carrier wrapper. See the module docs.
#[derive(Debug)]
pub struct FaultInjector<C> {
    inner: C,
    lottery: FaultLottery,
    /// Stalled frames: (frames still to overtake, bytes).
    held: Vec<(u8, Vec<u8>)>,
    counts: FaultCounts,
}

impl<C: Carrier> FaultInjector<C> {
    /// Wraps `inner`, faulting its send path per the lottery.
    pub fn new(inner: C, lottery: FaultLottery) -> Self {
        Self {
            inner,
            lottery,
            held: Vec::new(),
            counts: FaultCounts::default(),
        }
    }

    /// Faults applied so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Releases every stalled frame immediately (end of stream: a
    /// stall must mean delay, not silent loss).
    ///
    /// # Errors
    ///
    /// Propagates the inner carrier's errors;
    /// [`TransportError::Backpressure`] leaves the unreleased frames
    /// held, so the call can be retried.
    pub fn flush_held(&mut self) -> Result<(), TransportError> {
        while let Some((_, frame)) = self.held.first() {
            // Borrow dance: send may fail, keep the frame until done.
            let frame = frame.clone();
            self.inner.send(&frame)?;
            self.held.remove(0);
        }
        Ok(())
    }

    /// Unwraps, discarding any still-held frames.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Ages held frames by one sent frame and releases the ones due.
    fn age_held(&mut self) -> Result<(), TransportError> {
        for h in &mut self.held {
            h.0 = h.0.saturating_sub(1);
        }
        while let Some(idx) = self.held.iter().position(|h| h.0 == 0) {
            let (_, frame) = self.held.remove(idx);
            // A release refused by backpressure re-queues at due
            // status; the next send or flush retries it.
            if let Err(e) = self.inner.send(&frame) {
                self.held.insert(idx, (0, frame));
                return Err(e);
            }
        }
        Ok(())
    }
}

impl<C: Carrier> Carrier for FaultInjector<C> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        match self.lottery.draw() {
            None => {
                self.inner.send(frame)?;
                self.counts.clean += 1;
            }
            Some(FaultKind::Drop) => {
                self.counts.dropped += 1;
            }
            Some(FaultKind::Truncate) => {
                let keep = self.lottery.cut_point(frame.len());
                if keep > 0 {
                    self.inner.send(&frame[..keep])?;
                }
                self.counts.truncated += 1;
            }
            Some(FaultKind::Corrupt { bits }) => {
                let mut bad = frame.to_vec();
                for _ in 0..bits {
                    let bit = self.lottery.bit_index(bad.len() * 8);
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.send(&bad)?;
                self.counts.corrupted += 1;
            }
            Some(FaultKind::Duplicate) => {
                self.inner.send(frame)?;
                self.inner.send(frame)?;
                self.counts.duplicated += 1;
            }
            Some(FaultKind::Stall { frames }) => {
                self.held.push((frames, frame.to_vec()));
                self.counts.stalled += 1;
            }
        }
        self.age_held()
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        self.inner.recv(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::MemoryDuplex;
    use mimo_channel::FaultSchedule;

    fn wire(schedule: FaultSchedule, seed: u64, frames: &[&[u8]]) -> (Vec<u8>, FaultCounts) {
        let (a, mut b) = MemoryDuplex::pair(1 << 20);
        let mut inj = FaultInjector::new(a, FaultLottery::new(schedule, seed));
        for f in frames {
            inj.send(f).unwrap();
        }
        inj.flush_held().unwrap();
        let mut got = Vec::new();
        let _ = b.recv(&mut got);
        (got, inj.counts())
    }

    #[test]
    fn clean_lottery_is_transparent() {
        let frames: Vec<&[u8]> = vec![b"one", b"two", b"three"];
        let (got, counts) = wire(FaultSchedule::clean(), 1, &frames);
        assert_eq!(got, b"onetwothree");
        assert_eq!(counts.clean, 3);
        assert_eq!(counts.total_faults(), 0);
    }

    #[test]
    fn same_seed_faults_identically() {
        let frames: Vec<Vec<u8>> = (0..200).map(|i| vec![i as u8; 32]).collect();
        let views: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let (x, cx) = wire(FaultSchedule::uniform(0.08), 42, &views);
        let (y, cy) = wire(FaultSchedule::uniform(0.08), 42, &views);
        assert_eq!(x, y);
        assert_eq!(cx, cy);
        assert!(cx.total_faults() > 0, "schedule should have fired");
    }

    #[test]
    fn stall_reorders_but_never_loses() {
        // Only stalls: every frame must still arrive, just shuffled.
        let schedule = FaultSchedule {
            stall: 0.5,
            ..FaultSchedule::clean()
        };
        let frames: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8]).collect();
        let views: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let (got, counts) = wire(schedule, 7, &views);
        assert_eq!(got.len(), 50, "stalls must not lose frames");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).map(|i| i as u8).collect::<Vec<_>>());
        assert!(counts.stalled > 5);
        assert_ne!(got, sorted, "with 50% stalls some frame must reorder");
    }

    #[test]
    fn duplicates_and_drops_change_the_frame_count() {
        let frames: Vec<Vec<u8>> = (0..100).map(|i| vec![i as u8]).collect();
        let views: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let drop = FaultSchedule {
            drop: 0.2,
            ..FaultSchedule::clean()
        };
        let (got, counts) = wire(drop, 3, &views);
        assert_eq!(got.len(), 100 - counts.dropped as usize);
        let duplicate = FaultSchedule {
            duplicate: 0.2,
            ..FaultSchedule::clean()
        };
        let (got, counts) = wire(duplicate, 3, &views);
        assert_eq!(got.len(), 100 + counts.duplicated as usize);
    }

    #[test]
    fn corruption_flips_bits_but_keeps_length() {
        let frame = vec![0u8; 64];
        let views: Vec<&[u8]> = vec![&frame; 20];
        let corrupt = FaultSchedule {
            corrupt: 0.5,
            ..FaultSchedule::clean()
        };
        let (got, counts) = wire(corrupt, 11, &views);
        assert_eq!(got.len(), 20 * 64);
        assert!(counts.corrupted > 2);
        assert!(got.iter().any(|&b| b != 0), "some bit must have flipped");
    }
}
