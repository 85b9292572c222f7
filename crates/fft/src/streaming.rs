//! Streaming FFT model with hardware framing and latency.
//!
//! The paper's FFT/IFFT cores are streaming megacore-style blocks: one
//! complex sample enters per clock, and a transformed frame begins to
//! emerge a fixed latency later, delimited by `sop`/`eop`-style flags.
//! [`StreamingFft`] reproduces that contract on top of [`FixedFft`] so
//! the cycle-accounting experiments (Experiment F7) can measure
//! realistic block latencies.

use std::collections::VecDeque;

use mimo_fixed::CQ15;

use crate::fixed::{FftError, FixedFft};

/// Clock cycles from a frame's first input sample to its first output
/// sample in an `n`-point streaming core: the input reorder buffer (`n`)
/// plus `2·log₂n + 4` butterfly pipeline stages.
pub fn streaming_latency_cycles(n: usize) -> u32 {
    n as u32 + 2 * n.trailing_zeros() + 4
}

/// Direction of a streaming transform instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// A streaming wrapper around [`FixedFft`]: accepts one sample per
/// clock and emits each transformed frame after the core's pipeline
/// latency, one sample per clock.
///
/// Latency model: a frame's first output appears
/// [`streaming_latency_cycles`] clocks after its first input, the
/// ballpark of vendor streaming FFT cores at 1 sample/cycle.
///
/// # Examples
///
/// ```
/// use mimo_fft::StreamingFft;
/// use mimo_fixed::CQ15;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fft = StreamingFft::forward(64)?;
/// let mut outputs = Vec::new();
/// // Feed an impulse frame then idle until the frame drains.
/// for cycle in 0..(64 + fft.latency_cycles() as usize + 64) {
///     let input = if cycle < 64 {
///         Some(if cycle == 0 { CQ15::from_f64(0.5, 0.0) } else { CQ15::ZERO })
///     } else {
///         None
///     };
///     if let Some(out) = fft.clock(input) {
///         outputs.push(out);
///     }
/// }
/// assert_eq!(outputs.len(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingFft {
    core: FixedFft,
    direction: Direction,
    /// Samples of the frame currently being collected.
    collecting: Vec<CQ15>,
    /// Computed frames waiting behind the pipeline delay:
    /// `(cycles_until_first_output, samples)`.
    in_flight: VecDeque<(u64, Vec<CQ15>)>,
    /// Frame currently draining out, reversed so `pop` yields in order.
    draining: Vec<CQ15>,
    /// Recycled frame buffers: drained frames return here so the
    /// steady-state streaming loop allocates nothing per frame.
    pool: Vec<Vec<CQ15>>,
    cycle: u64,
}

impl StreamingFft {
    /// Creates a streaming forward FFT (receiver side).
    ///
    /// # Errors
    ///
    /// Propagates [`FftError::UnsupportedSize`].
    pub fn forward(n: usize) -> Result<Self, FftError> {
        Ok(Self::with_core(FixedFft::new(n)?, Direction::Forward))
    }

    /// Creates a streaming inverse FFT (transmitter side).
    ///
    /// # Errors
    ///
    /// Propagates [`FftError::UnsupportedSize`].
    pub fn inverse(n: usize) -> Result<Self, FftError> {
        Ok(Self::with_core(FixedFft::new(n)?, Direction::Inverse))
    }

    fn with_core(core: FixedFft, direction: Direction) -> Self {
        let n = core.size();
        Self {
            core,
            direction,
            collecting: Vec::with_capacity(n),
            in_flight: VecDeque::with_capacity(4),
            draining: Vec::with_capacity(n),
            pool: Vec::new(),
            cycle: 0,
        }
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.core.size()
    }

    /// Clock cycles from a frame's first input sample to its first
    /// output sample.
    pub fn latency_cycles(&self) -> u32 {
        streaming_latency_cycles(self.core.size())
    }

    /// Advances one clock cycle, optionally consuming an input sample,
    /// and produces an output sample when one is scheduled.
    pub fn clock(&mut self, input: Option<CQ15>) -> Option<CQ15> {
        let n = self.core.size();
        if let Some(sample) = input {
            if self.collecting.is_empty() {
                // Frame's first input: schedule its output start time.
                let ready_at = self.cycle + u64::from(self.latency_cycles());
                self.in_flight.push_back((ready_at, Vec::new()));
            }
            self.collecting.push(sample);
            if self.collecting.len() == n {
                // Transform into a recycled buffer: at steady state no
                // allocation happens per frame.
                let mut transformed = self.pool.pop().unwrap_or_else(|| vec![CQ15::ZERO; n]);
                transformed.resize(n, CQ15::ZERO);
                match self.direction {
                    Direction::Forward => self.core.fft_into(&self.collecting, &mut transformed),
                    Direction::Inverse => self.core.ifft_into(&self.collecting, &mut transformed),
                }
                // phylint: allow(panic_path) -- `collecting.len() == n` was checked two lines up and `transformed` was resized to `n`, the exact lengths `fft_into` requires
                .expect("frame length enforced by collection");
                self.collecting.clear();
                // Attach result to the oldest un-filled in-flight slot.
                let slot = self
                    .in_flight
                    .iter_mut()
                    .find(|(_, data)| data.is_empty())
                    // phylint: allow(panic_path) -- an empty slot is pushed when a frame's first sample arrives and filled exactly once when its last sample arrives, so one empty slot always exists here
                    .expect("slot was pushed at frame start");
                slot.1 = transformed;
            }
        }

        self.cycle += 1;

        if self.draining.is_empty()
            && self
                .in_flight
                .front()
                .is_some_and(|(ready_at, _)| self.cycle > *ready_at)
        {
            if let Some((_, mut data)) = self.in_flight.pop_front() {
                debug_assert_eq!(data.len(), n, "frame completed before latency elapsed");
                data.reverse();
                // Recycle the previous (now empty) draining buffer.
                let spent = std::mem::replace(&mut self.draining, data);
                if spent.capacity() > 0 && self.pool.len() < 4 {
                    self.pool.push(spent);
                }
            }
        }
        self.draining.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_value() {
        let fft = StreamingFft::forward(64).unwrap();
        assert_eq!(fft.latency_cycles(), 64 + 12 + 4);
        let fft = StreamingFft::forward(512).unwrap();
        assert_eq!(fft.latency_cycles(), 512 + 18 + 4);
    }

    #[test]
    fn first_output_exactly_at_latency() {
        let mut fft = StreamingFft::forward(64).unwrap();
        let latency = fft.latency_cycles() as u64;
        let mut first_out = None;
        for cycle in 0..2000u64 {
            let input = if cycle < 64 { Some(CQ15::from_f64(0.1, 0.0)) } else { None };
            if fft.clock(input).is_some() && first_out.is_none() {
                first_out = Some(cycle);
                break;
            }
        }
        assert_eq!(first_out, Some(latency));
    }

    #[test]
    fn streams_back_to_back_frames_without_loss() {
        let n = 64;
        let mut fft = StreamingFft::forward(n).unwrap();
        let frames = 5usize;
        let mut outputs = Vec::new();
        let total = frames * n + fft.latency_cycles() as usize + n;
        for cycle in 0..total {
            let input = if cycle < frames * n {
                Some(CQ15::from_f64(if cycle % n == 0 { 0.5 } else { 0.0 }, 0.0))
            } else {
                None
            };
            if let Some(out) = fft.clock(input) {
                outputs.push(out);
            }
        }
        assert_eq!(outputs.len(), frames * n);
        // Each frame is an impulse -> flat spectrum.
        let expected = 0.5 / 16.0;
        for out in &outputs {
            assert!((out.re.to_f64() - expected).abs() < 1e-3);
        }
    }

    #[test]
    fn matches_block_core_output_order() {
        let n = 64;
        let core = FixedFft::new(n).unwrap();
        let frame: Vec<CQ15> = (0..n)
            .map(|i| CQ15::from_f64(0.3 * ((i as f64) * 0.2).sin(), 0.1))
            .collect();
        let expected = core.fft(&frame).unwrap();

        let mut fft = StreamingFft::forward(n).unwrap();
        let mut outputs = Vec::new();
        for cycle in 0..(n + fft.latency_cycles() as usize + n) {
            let input = frame.get(cycle).copied();
            if let Some(out) = fft.clock(input) {
                outputs.push(out);
            }
        }
        assert_eq!(outputs, expected);
    }
}
