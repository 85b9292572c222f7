//! Per-symbol receive ingest: cyclic-prefix strip + FFT of whole OFDM
//! symbol periods.
//!
//! The paper's receive datapath is a streaming pipeline — samples flow
//! from the ADC through CP removal into the FFT core continuously,
//! with the Fig 3 ping-pong memory providing the symbol framing. The
//! software model's counterpart is [`SymbolIngest`]: the per-antenna
//! stage that turns one on-air sample period (`N + N/4` samples, CP
//! first) into a frequency-domain frame. It is the period-level
//! equivalent of clocking [`CpBuffer`](crate::CpBuffer) and
//! [`mimo_fft::StreamingFft`] sample per sample — same frames, same
//! bits — without paying a function call per sample, and it is the
//! **single** CP-strip + FFT implementation every receiver runs: the
//! whole-burst receivers slice periods out of a stored capture, the
//! streaming receiver out of its own sample history.

use mimo_fixed::CQ15;

use crate::{symbol_len, OfdmError};
use mimo_fft::{FixedFft, FFT_LANES};

/// One antenna's symbol-ingest stage: strips the cyclic prefix and
/// FFTs, emitting one frequency-domain frame per on-air symbol period.
///
/// [`SymbolIngest::ingest_periods`] takes any number of whole
/// `N + N/4`-sample periods without copying them and transforms the
/// bodies into the stage's own frame scratch, [`FFT_LANES`] at a time
/// through one lane-parallel FFT, so the steady state allocates
/// nothing and the scratch never holds more than [`FFT_LANES`]
/// frames. [`SymbolIngest::ingest_period`] is its one-period case.
///
/// # Examples
///
/// ```
/// use mimo_fixed::CQ15;
/// use mimo_fft::FixedFft;
/// use mimo_ofdm::{add_cyclic_prefix, SymbolIngest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let symbol: Vec<CQ15> = (0..64).map(|i| CQ15::from_f64(i as f64 / 256.0, 0.0)).collect();
/// let on_air = add_cyclic_prefix(&symbol);
///
/// let mut ingest = SymbolIngest::new(64)?;
/// let frame = ingest.ingest_period(&on_air)?;
///
/// // The CP is skipped: the frame is the FFT of the symbol body.
/// assert_eq!(frame, FixedFft::new(64)?.fft(&symbol)?.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolIngest {
    fft: FixedFft,
    /// FFT output frames: one at first, grown on first use to as many
    /// as one call's runs hold, at most [`FFT_LANES`].
    frames: Vec<CQ15>,
}

impl SymbolIngest {
    /// Creates the stage for one antenna at a given FFT size.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::UnsupportedFftSize`] for sizes outside the
    /// supported set.
    pub fn new(fft_size: usize) -> Result<Self, OfdmError> {
        if !crate::SUPPORTED_FFT_SIZES.contains(&fft_size) {
            return Err(OfdmError::UnsupportedFftSize(fft_size));
        }
        let fft = FixedFft::new(fft_size).map_err(|_| OfdmError::UnsupportedFftSize(fft_size))?;
        Ok(Self {
            fft,
            frames: vec![CQ15::ZERO; fft_size],
        })
    }

    /// FFT size.
    pub fn fft_size(&self) -> usize {
        self.fft.size()
    }

    /// On-air samples per symbol period (`N + N/4`).
    pub fn symbol_samples(&self) -> usize {
        symbol_len(self.fft_size())
    }

    /// Ingests one whole on-air symbol period without copying: the CP
    /// is skipped in place and the body is transformed. Returns the
    /// frequency-domain frame (valid until the next ingest). The
    /// one-period case of [`SymbolIngest::ingest_periods`].
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::FrameLengthMismatch`] on a wrong-size
    /// period.
    pub fn ingest_period(&mut self, period: &[CQ15]) -> Result<&[CQ15], OfdmError> {
        crate::strip_cyclic_prefix_ref(period, self.fft_size())?;
        self.ingest_periods(period, |_, _| {})?;
        Ok(&self.frames[..self.fft_size()])
    }

    /// Ingests any number of consecutive on-air periods (`N + N/4`
    /// samples each, back to back) and hands `each(m, frame)` the
    /// frequency-domain frame of period `m`, in order. Each run of
    /// [`FFT_LANES`] periods goes through one lane-parallel FFT and a
    /// last shorter run one lane per period, all bit-identical to
    /// transforming each period alone.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::FrameLengthMismatch`] unless `periods`
    /// holds a whole number of periods.
    pub fn ingest_periods(
        &mut self,
        periods: &[CQ15],
        mut each: impl FnMut(usize, &[CQ15]),
    ) -> Result<(), OfdmError> {
        let n = self.fft_size();
        let sym_len = self.symbol_samples();
        let count = periods.len() / sym_len;
        if periods.len() != count * sym_len {
            return Err(OfdmError::FrameLengthMismatch {
                expected: (count + 1) * sym_len,
                got: periods.len(),
            });
        }
        let run = count.min(FFT_LANES);
        if self.frames.len() < run * n {
            self.frames.resize(run * n, CQ15::ZERO);
        }
        for (r, group) in periods.chunks(FFT_LANES * sym_len).enumerate() {
            let frames = group.len() / sym_len;
            self.fft
                .fft_batch_into(&group[crate::cp_len(n)..], sym_len, &mut self.frames, n, frames)
                .map_err(|_| OfdmError::FrameLengthMismatch {
                    expected: frames * sym_len,
                    got: group.len(),
                })?;
            for (k, frame) in self.frames.chunks_exact(n).take(frames).enumerate() {
                each(r * FFT_LANES + k, frame);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::add_cyclic_prefix;
    use mimo_fft::StreamingFft;

    fn periods(n: usize, count: usize) -> (Vec<Vec<CQ15>>, Vec<Vec<CQ15>>) {
        let fft = FixedFft::new(n).unwrap();
        let symbols: Vec<Vec<CQ15>> = (0..count)
            .map(|s| {
                (0..n)
                    .map(|i| {
                        CQ15::from_f64(
                            0.3 * ((i * (s + 1)) as f64 * 0.13).sin(),
                            0.2 * ((i + s) as f64 * 0.07).cos(),
                        )
                    })
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<CQ15>> = symbols.iter().map(|s| fft.fft(s).unwrap()).collect();
        let on_air: Vec<Vec<CQ15>> = symbols.iter().map(|s| add_cyclic_prefix(s)).collect();
        (on_air, expected)
    }

    #[test]
    fn period_ingest_matches_block_fft() {
        let (on_air, expected) = periods(64, 3);
        let mut ingest = SymbolIngest::new(64).unwrap();
        for (period, want) in on_air.iter().zip(&expected) {
            assert_eq!(ingest.ingest_period(period).unwrap(), want.as_slice());
        }
    }

    #[test]
    fn matches_clocked_streaming_fft_frames() {
        // The period-level ingest and the cycle-accurate StreamingFft
        // disagree only in latency bookkeeping, never in values.
        let n = 64;
        let (on_air, _) = periods(n, 3);
        let mut ingest = SymbolIngest::new(n).unwrap();
        let mut fast: Vec<Vec<CQ15>> = Vec::new();
        for period in &on_air {
            fast.push(ingest.ingest_period(period).unwrap().to_vec());
        }

        let mut clocked = StreamingFft::forward(n).unwrap();
        let mut slow: Vec<CQ15> = Vec::new();
        let bodies: Vec<CQ15> = on_air
            .iter()
            .flat_map(|p| p[n / 4..].iter().copied())
            .collect();
        for cycle in 0..(bodies.len() + clocked.latency_cycles() as usize + n) {
            if let Some(out) = clocked.clock(bodies.get(cycle).copied()) {
                slow.push(out);
            }
        }
        let fast_flat: Vec<CQ15> = fast.into_iter().flatten().collect();
        assert_eq!(slow, fast_flat);
    }

    /// Any period count — whole runs of eight plus a one-lane tail of
    /// 1–7 periods, never padded — gives exactly the per-period
    /// frames, in order, and the frame scratch stays at eight frames.
    #[test]
    fn batch_ingest_matches_period_ingest() {
        for n in crate::SUPPORTED_FFT_SIZES {
            let mut ingest = SymbolIngest::new(n).unwrap();
            for count in 1..=17 {
                let (on_air, _) = periods(n, count);
                let mut single = SymbolIngest::new(n).unwrap();
                let want: Vec<CQ15> = on_air
                    .iter()
                    .flat_map(|p| single.ingest_period(p).unwrap().to_vec())
                    .collect();
                let mut got = Vec::new();
                let mut next = 0;
                ingest
                    .ingest_periods(&on_air.concat(), |m, frame| {
                        assert_eq!(m, next);
                        next += 1;
                        got.extend_from_slice(frame);
                    })
                    .unwrap();
                assert!(got == want, "n={n} count={count}");
                assert_eq!(ingest.frames.len(), count.min(FFT_LANES) * n);
            }
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(SymbolIngest::new(100).is_err());
        let mut ingest = SymbolIngest::new(64).unwrap();
        assert!(ingest.ingest_period(&vec![CQ15::ZERO; 70]).is_err());
        assert!(ingest.ingest_periods(&vec![CQ15::ZERO; 7 * 80 + 1], |_, _| {}).is_err());
        assert!(ingest.ingest_period(&vec![CQ15::ZERO; 2 * 80]).is_err());
    }
}
