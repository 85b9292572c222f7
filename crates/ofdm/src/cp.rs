//! Cyclic-prefix insertion and the Fig 3 dual-port ping-pong buffer.

use std::collections::VecDeque;

use mimo_fixed::CQ15;

use crate::{cp_len, symbol_len, OfdmError};

/// Prepends the cyclic prefix: the last 25 % of the symbol is copied in
/// front ("the last 25% of the OFDM symbol is selected as the cyclic
/// prefix and must be transmitted first").
///
/// # Examples
///
/// ```
/// use mimo_fixed::CQ15;
/// use mimo_ofdm::add_cyclic_prefix;
///
/// let symbol: Vec<CQ15> = (0..64).map(|i| CQ15::from_f64(i as f64 / 128.0, 0.0)).collect();
/// let framed = add_cyclic_prefix(&symbol);
/// assert_eq!(framed.len(), 80);
/// assert_eq!(framed[0], symbol[48]);
/// ```
pub fn add_cyclic_prefix(symbol: &[CQ15]) -> Vec<CQ15> {
    let n = symbol.len();
    let cp = n / crate::CP_FRACTION;
    let mut out = vec![CQ15::ZERO; n + cp];
    add_cyclic_prefix_into(symbol, &mut out);
    out
}

/// Allocation-free [`add_cyclic_prefix`] into a caller-provided buffer
/// of exactly `symbol.len() + symbol.len()/4` samples.
///
/// # Panics
///
/// Panics on a wrong-size output buffer.
pub fn add_cyclic_prefix_into(symbol: &[CQ15], out: &mut [CQ15]) {
    let n = symbol.len();
    let cp = n / crate::CP_FRACTION;
    assert_eq!(out.len(), n + cp, "cyclic-prefix buffer size");
    out[..cp].copy_from_slice(&symbol[n - cp..]);
    out[cp..].copy_from_slice(symbol);
}

/// Strips the cyclic prefix from an on-air frame of `fft_size + N/4`
/// samples: the `fft_size` FFT-input samples are a subslice of the
/// frame, so stripping is free.
///
/// # Errors
///
/// Returns [`OfdmError::FrameLengthMismatch`] on a wrong-size frame.
pub fn strip_cyclic_prefix_ref(frame: &[CQ15], fft_size: usize) -> Result<&[CQ15], OfdmError> {
    let expected = symbol_len(fft_size);
    if frame.len() != expected {
        return Err(OfdmError::FrameLengthMismatch {
            expected,
            got: frame.len(),
        });
    }
    Ok(&frame[cp_len(fft_size)..])
}

/// Which half of the double-size memory holds a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Half {
    Lower,
    Upper,
}

impl Half {
    fn other(self) -> Half {
        match self {
            Half::Lower => Half::Upper,
            Half::Upper => Half::Lower,
        }
    }
}

/// The transmitter's cyclic-prefix block (Fig 3): "a single dual port
/// memory element ... twice the size of the OFDM frame. This is
/// necessary to enable continuous data streaming. ... while one
/// complete frame is being transmitted through the read port of the
/// memory, the other half of the memory is able to collect incoming
/// data through the write port."
///
/// Clock the buffer once per cycle. The IFFT writes `N` samples per
/// symbol; the read port emits `N + N/4` samples per symbol (CP first),
/// so at steady state the write port must idle 25 % of cycles — the
/// [`CpBuffer::ready_for_data`] (`rfd`) signal applies exactly that
/// back-pressure, and the read port never gaps between queued frames.
#[derive(Debug, Clone)]
pub struct CpBuffer {
    fft_size: usize,
    /// Dual-port memory, twice the frame size (two halves).
    mem: Vec<CQ15>,
    write_half: Half,
    write_pos: usize,
    /// Complete frames awaiting transmission (at most one can wait).
    ready: VecDeque<Half>,
    /// `Some((half, pos))` while a frame drains; `pos` indexes the
    /// on-air frame (0..N+N/4), CP first.
    read: Option<(Half, usize)>,
    cycles: u64,
}

impl CpBuffer {
    /// Creates the buffer for a given FFT size.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::UnsupportedFftSize`] for sizes outside the
    /// supported set.
    pub fn new(fft_size: usize) -> Result<Self, OfdmError> {
        if !crate::SUPPORTED_FFT_SIZES.contains(&fft_size) {
            return Err(OfdmError::UnsupportedFftSize(fft_size));
        }
        Ok(Self {
            fft_size,
            mem: vec![CQ15::ZERO; 2 * fft_size],
            write_half: Half::Lower,
            write_pos: 0,
            ready: VecDeque::new(),
            read: None,
            cycles: 0,
        })
    }

    /// FFT size.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Total memory words — twice the frame size, as in Fig 3.
    pub fn memory_words(&self) -> usize {
        self.mem.len()
    }

    /// `true` when the write port can accept a sample this cycle (the
    /// `rfd` — ready-for-data — signal towards the IFFT).
    ///
    /// A write into the half currently being transmitted is only legal
    /// once the read pointer has passed the target address *twice* —
    /// the cyclic prefix re-reads the last quarter, so address `a` is
    /// free only when the read position exceeds `a + N/4`. This is the
    /// pacing that throttles the IFFT to one symbol per `N + N/4`
    /// cycles at steady state.
    pub fn ready_for_data(&self) -> bool {
        match self.read {
            None => self.ready.len() < 2,
            Some((half, pos)) => {
                half != self.write_half || pos > self.write_pos + cp_len(self.fft_size)
            }
        }
    }

    /// Clock cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances one clock: optionally writes one IFFT output sample,
    /// and produces one on-air sample if a frame is draining.
    ///
    /// # Panics
    ///
    /// Panics if a sample is pushed while [`CpBuffer::ready_for_data`]
    /// is false (hardware would corrupt the in-flight frame; the model
    /// makes the protocol violation loud).
    pub fn clock(&mut self, input: Option<CQ15>) -> Option<CQ15> {
        self.cycles += 1;
        // Read port: chain directly onto the next queued frame so
        // back-to-back symbols stream without a gap.
        if self.read.is_none() {
            if let Some(half) = self.ready.pop_front() {
                self.read = Some((half, 0));
            }
        }
        let output = self.read.map(|(half, pos)| {
            let n = self.fft_size;
            let cp = cp_len(n);
            let base = match half {
                Half::Lower => 0,
                Half::Upper => n,
            };
            let idx = if pos < cp {
                base + n - cp + pos // CP: last quarter first
            } else {
                base + pos - cp
            };
            self.mem[idx]
        });
        if let Some((half, pos)) = self.read {
            let next = pos + 1;
            self.read = if next == symbol_len(self.fft_size) {
                None
            } else {
                Some((half, next))
            };
        }

        // Write port.
        if let Some(sample) = input {
            assert!(
                self.ready_for_data(),
                "CpBuffer write while not ready (rfd low)"
            );
            let base = match self.write_half {
                Half::Lower => 0,
                Half::Upper => self.fft_size,
            };
            self.mem[base + self.write_pos] = sample;
            self.write_pos += 1;
            if self.write_pos == self.fft_size {
                self.ready.push_back(self.write_half);
                self.write_half = self.write_half.other();
                self.write_pos = 0;
            }
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: usize) -> CQ15 {
        CQ15::from_f64((v % 1000) as f64 / 4096.0, 0.0)
    }

    #[test]
    fn add_strip_roundtrip() {
        let symbol: Vec<CQ15> = (0..64).map(sample).collect();
        let framed = add_cyclic_prefix(&symbol);
        assert_eq!(framed.len(), 80);
        assert_eq!(strip_cyclic_prefix_ref(&framed, 64).unwrap(), &symbol[..]);
    }

    #[test]
    fn prefix_is_cyclic() {
        let symbol: Vec<CQ15> = (0..64).map(sample).collect();
        let framed = add_cyclic_prefix(&symbol);
        for i in 0..16 {
            assert_eq!(framed[i], symbol[48 + i], "CP sample {i}");
        }
    }

    #[test]
    fn buffer_emits_cp_first() {
        let n = 64;
        let mut buf = CpBuffer::new(n).unwrap();
        let symbol: Vec<CQ15> = (0..n).map(sample).collect();
        let mut out = Vec::new();
        for cycle in 0..(n + symbol_len(n) + 1) {
            let input = symbol.get(cycle).copied();
            if let Some(s) = buf.clock(input) {
                out.push(s);
            }
        }
        assert_eq!(out, add_cyclic_prefix(&symbol));
    }

    #[test]
    fn continuous_streaming_with_backpressure() {
        // Drive the writer as fast as rfd allows across many symbols;
        // the output must be gap-free and correct at steady state.
        let n = 64;
        let frames = 8usize;
        let mut buf = CpBuffer::new(n).unwrap();
        let symbols: Vec<Vec<CQ15>> = (0..frames)
            .map(|s| (0..n).map(|i| sample(s * 100 + i)).collect())
            .collect();
        let mut flat = symbols.iter().flatten().copied().peekable();
        let mut out = Vec::new();
        let mut out_cycles = Vec::new();
        let total_cycles = frames * symbol_len(n) + 4 * n;
        for cycle in 0..total_cycles {
            let input = if buf.ready_for_data() {
                flat.next()
            } else {
                None
            };
            if let Some(s) = buf.clock(input) {
                out.push(s);
                out_cycles.push(cycle);
            }
        }
        let expected: Vec<CQ15> = symbols.iter().flat_map(|s| add_cyclic_prefix(s)).collect();
        assert_eq!(out, expected);
        // Output must be strictly contiguous: no gaps once started.
        for w in out_cycles.windows(2) {
            assert_eq!(w[1], w[0] + 1, "gap in on-air sample stream");
        }
    }

    #[test]
    fn steady_state_write_duty_cycle_is_80_percent() {
        // The writer should be stalled ~N/4 out of every N+N/4 cycles.
        let n = 64;
        let mut buf = CpBuffer::new(n).unwrap();
        let mut writes = 0u64;
        let cycles = 50 * symbol_len(n) as u64;
        let mut v = 0usize;
        for _ in 0..cycles {
            let input = if buf.ready_for_data() {
                v += 1;
                Some(sample(v))
            } else {
                None
            };
            buf.clock(input);
            if input.is_some() {
                writes += 1;
            }
        }
        let duty = writes as f64 / cycles as f64;
        assert!(
            (duty - 0.8).abs() < 0.02,
            "write duty cycle {duty:.3}, expected ~0.8"
        );
    }

    #[test]
    fn rfd_overwrite_boundary_is_exact() {
        // Regression guard for the write-while-reading rule: address
        // `a` of the draining half is re-read by the cyclic prefix, so
        // it is only free once the read pointer passed `a + N/4`. The
        // streaming straddle work audited this boundary; pin it by
        // writing the moment rfd rises and checking no in-flight frame
        // is corrupted across several back-to-back symbols.
        let n = 64;
        let mut buf = CpBuffer::new(n).unwrap();
        let frames = 6usize;
        let symbols: Vec<Vec<CQ15>> = (0..frames)
            .map(|s| (0..n).map(|i| sample(7 * s + i + 1)).collect())
            .collect();
        let mut input = symbols.iter().flatten().copied().peekable();
        let mut out = Vec::new();
        let mut stalls = 0u32;
        for _ in 0..(frames + 3) * symbol_len(n) {
            let write = if buf.ready_for_data() {
                // Exercise the exact rising edge: the first write after
                // a stall lands on the just-freed address.
                input.next()
            } else {
                if input.peek().is_some() {
                    stalls += 1;
                }
                None
            };
            if let Some(s) = buf.clock(write) {
                out.push(s);
            }
        }
        assert!(stalls > 0, "back-pressure must engage at steady state");
        let expected: Vec<CQ15> = symbols.iter().flat_map(|s| add_cyclic_prefix(s)).collect();
        assert_eq!(out, expected, "a write on the rfd edge corrupted a frame");
    }

    #[test]
    fn memory_is_twice_frame_size() {
        let buf = CpBuffer::new(64).unwrap();
        assert_eq!(buf.memory_words(), 128);
        let buf = CpBuffer::new(512).unwrap();
        assert_eq!(buf.memory_words(), 1024);
    }

    #[test]
    fn wrong_frame_length_rejected() {
        assert!(strip_cyclic_prefix_ref(&[CQ15::ZERO; 70], 64).is_err());
        assert!(CpBuffer::new(100).is_err());
    }
}
