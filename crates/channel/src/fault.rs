//! Deterministic link-fault schedules — the impairment model for the
//! **digital** half of the link.
//!
//! The analog models in this crate (AWGN, fading, CFO) corrupt
//! *samples*; real inter-module sample transports (the SFP/CPRI-class
//! serial links of RaPro-style base stations) also corrupt *frames*:
//! they drop them, truncate them mid-flight, flip bits, replay
//! duplicates, and stall. [`FaultSchedule`] describes the per-frame
//! probability of each of those events, and [`FaultLottery`] turns it
//! into a **reproducible** event stream from a ChaCha8 seed — the same
//! seed yields the same fault sequence on every run, so a soak test
//! failure replays exactly.
//!
//! The consumer is `mimo_transport`'s `FaultInjector`, which applies
//! drawn [`FaultKind`]s to encoded frames on any carrier; the types
//! live here so fault scenarios sit beside the other channel
//! impairment models and need no transport dependency.
//!
//! # Examples
//!
//! ```
//! use mimo_channel::{FaultKind, FaultLottery, FaultSchedule};
//!
//! let schedule = FaultSchedule {
//!     drop: 0.5,
//!     duplicate: 0.5,
//!     ..FaultSchedule::clean()
//! };
//! let mut lottery = FaultLottery::new(schedule.clone(), 7);
//! // Every frame draws exactly one verdict; seeded, so reruns agree.
//! let first: Vec<Option<FaultKind>> = (0..4).map(|_| lottery.draw()).collect();
//! let mut replay = FaultLottery::new(schedule, 7);
//! let second: Vec<Option<FaultKind>> = (0..4).map(|_| replay.draw()).collect();
//! assert_eq!(first, second);
//! ```

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One frame-level fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Discard the frame entirely (a lost link-layer packet).
    Drop,
    /// Deliver only a prefix of the frame's bytes (a link cut
    /// mid-frame); the cut point is drawn per event.
    Truncate,
    /// Flip `bits` bit positions drawn uniformly over the frame (bit
    /// errors the frame CRC must catch).
    Corrupt {
        /// Number of bit flips to apply (≥ 1).
        bits: u8,
    },
    /// Deliver the frame twice (a retransmit gone wrong).
    Duplicate,
    /// Hold the frame back and release it only after `frames`
    /// subsequent frames have been sent — a stalled then flushed
    /// buffer, observed by the receiver as reordering (or, at the end
    /// of a stream, as pure delay).
    Stall {
        /// Frames that overtake the stalled one (≥ 1).
        frames: u8,
    },
}

/// Per-frame fault probabilities plus the bounds for parameterized
/// faults. Probabilities are independent weights summing to at most 1;
/// at most one fault fires per frame.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// P(frame dropped).
    pub drop: f64,
    /// P(frame truncated).
    pub truncate: f64,
    /// P(frame bit-corrupted).
    pub corrupt: f64,
    /// P(frame duplicated).
    pub duplicate: f64,
    /// P(frame stalled/reordered).
    pub stall: f64,
    /// Upper bound (inclusive) on bits flipped by a `Corrupt` event.
    pub max_corrupt_bits: u8,
    /// Upper bound (inclusive) on frames a `Stall` event holds across.
    pub max_stall_frames: u8,
}

impl FaultSchedule {
    /// The fault-free schedule: every probability zero.
    pub fn clean() -> Self {
        Self {
            drop: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            stall: 0.0,
            max_corrupt_bits: 4,
            max_stall_frames: 3,
        }
    }

    /// An even mix: each of the five fault kinds fires with
    /// probability `per_fault` (so a frame is faulted with probability
    /// `5 · per_fault`).
    pub fn uniform(per_fault: f64) -> Self {
        Self {
            drop: per_fault,
            truncate: per_fault,
            corrupt: per_fault,
            duplicate: per_fault,
            stall: per_fault,
            ..Self::clean()
        }
    }

    /// Total per-frame fault probability (clamped to 1 when drawing).
    pub fn total(&self) -> f64 {
        self.drop + self.truncate + self.corrupt + self.duplicate + self.stall
    }
}

/// The seeded per-frame fault drawing: one [`FaultLottery::draw`] per
/// frame, plus helpers for the parameters a fault needs (cut points,
/// bit positions). Everything comes from one ChaCha8 stream, so a
/// schedule + seed pair fully determines the fault pattern.
#[derive(Debug, Clone)]
pub struct FaultLottery {
    schedule: FaultSchedule,
    rng: ChaCha8Rng,
}

impl FaultLottery {
    /// Builds the lottery from a schedule and a stream seed.
    pub fn new(schedule: FaultSchedule, seed: u64) -> Self {
        Self {
            schedule,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Adjudicates one frame: `None` (deliver clean) or the fault to
    /// apply. Exactly one uniform draw decides the kind; parameterized
    /// kinds draw their parameter immediately after, keeping the
    /// stream aligned with the event sequence.
    pub fn draw(&mut self) -> Option<FaultKind> {
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let s = &self.schedule;
        let mut edge = s.drop;
        let fault = if x < edge {
            FaultKind::Drop
        } else if x < {
            edge += s.truncate;
            edge
        } {
            FaultKind::Truncate
        } else if x < {
            edge += s.corrupt;
            edge
        } {
            let max = s.max_corrupt_bits.max(1);
            FaultKind::Corrupt {
                bits: self.rng.gen_range(1..u32::from(max) + 1) as u8,
            }
        } else if x < {
            edge += s.duplicate;
            edge
        } {
            FaultKind::Duplicate
        } else if x < {
            edge += s.stall;
            edge
        } {
            let max = s.max_stall_frames.max(1);
            FaultKind::Stall {
                frames: self.rng.gen_range(1..u32::from(max) + 1) as u8,
            }
        } else {
            return None;
        };
        Some(fault)
    }

    /// Draws a truncation cut point: keep `1..len` bytes of a
    /// `len`-byte frame (at least one byte is always cut, and at least
    /// one survives, so a truncation is never a silent drop or a
    /// no-op). `len < 2` degenerates to keeping nothing.
    pub fn cut_point(&mut self, len: usize) -> usize {
        if len < 2 {
            return 0;
        }
        self.rng.gen_range(1..len)
    }

    /// Draws a bit index into an `n_bits`-bit frame.
    ///
    /// # Panics
    ///
    /// Panics when `n_bits` is zero.
    pub fn bit_index(&mut self, n_bits: usize) -> usize {
        assert!(n_bits > 0, "bit_index over an empty frame");
        self.rng.gen_range(0..n_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_schedule_never_faults() {
        let mut lottery = FaultLottery::new(FaultSchedule::clean(), 1);
        assert!((0..10_000).all(|_| lottery.draw().is_none()));
    }

    #[test]
    fn same_seed_replays_the_same_fault_pattern() {
        let schedule = FaultSchedule::uniform(0.05);
        let mut a = FaultLottery::new(schedule.clone(), 42);
        let mut b = FaultLottery::new(schedule, 42);
        for _ in 0..2_000 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let schedule = FaultSchedule::uniform(0.1);
        let mut a = FaultLottery::new(schedule.clone(), 1);
        let mut b = FaultLottery::new(schedule, 2);
        let xs: Vec<_> = (0..500).map(|_| a.draw()).collect();
        let ys: Vec<_> = (0..500).map(|_| b.draw()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn fault_rate_tracks_the_schedule() {
        let mut lottery = FaultLottery::new(FaultSchedule::uniform(0.02), 9);
        let n = 50_000;
        let mut counts = [0u32; 5];
        for _ in 0..n {
            match lottery.draw() {
                None => {}
                Some(FaultKind::Drop) => counts[0] += 1,
                Some(FaultKind::Truncate) => counts[1] += 1,
                Some(FaultKind::Corrupt { bits }) => {
                    assert!((1..=4).contains(&bits));
                    counts[2] += 1;
                }
                Some(FaultKind::Duplicate) => counts[3] += 1,
                Some(FaultKind::Stall { frames }) => {
                    assert!((1..=3).contains(&frames));
                    counts[4] += 1;
                }
            }
        }
        let total: u32 = counts.iter().sum();
        let rate = f64::from(total) / f64::from(n);
        assert!((rate - 0.1).abs() < 0.01, "total fault rate {rate}");
        for (i, &c) in counts.iter().enumerate() {
            let r = f64::from(c) / f64::from(n);
            assert!((r - 0.02).abs() < 0.006, "fault {i} rate {r}");
        }
    }

    #[test]
    fn cut_points_and_bit_indices_stay_in_range() {
        let mut lottery = FaultLottery::new(FaultSchedule::clean(), 3);
        for len in [2usize, 3, 64, 4096] {
            for _ in 0..100 {
                let cut = lottery.cut_point(len);
                assert!((1..len).contains(&cut), "cut {cut} of {len}");
                let bit = lottery.bit_index(len * 8);
                assert!(bit < len * 8);
            }
        }
        assert_eq!(lottery.cut_point(1), 0);
        assert_eq!(lottery.cut_point(0), 0);
    }
}
