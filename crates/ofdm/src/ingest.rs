//! Per-symbol receive ingest: cyclic-prefix strip + FFT, one OFDM
//! symbol at a time.
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
use mimo_fft::{FftLaneScratch, FixedFft, FFT_LANES};

/// One antenna's symbol-ingest stage: strips the cyclic prefix and
/// FFTs, emitting one frequency-domain frame per on-air symbol period.
///
/// [`SymbolIngest::ingest_period`] takes a whole `N + N/4`-sample
/// period without copying it and transforms the body into the stage's
/// own frame scratch, so the steady state allocates nothing.
/// [`SymbolIngest::ingest_batch`] does the same for [`FFT_LANES`]
/// consecutive periods in one lane-parallel FFT; its frames and lane
/// data are sized on first use.
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
    /// FFT output frames: the first serves `ingest_period`, all
    /// [`FFT_LANES`] (sized on first use) serve `ingest_batch`.
    frames: Vec<CQ15>,
    /// Lane data of the batch FFT.
    lanes: FftLaneScratch,
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
            lanes: FftLaneScratch::default(),
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
    /// frequency-domain frame (valid until the next ingest).
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::FrameLengthMismatch`] on a wrong-size
    /// period.
    pub fn ingest_period(&mut self, period: &[CQ15]) -> Result<&[CQ15], OfdmError> {
        let n = self.fft_size();
        let body = crate::strip_cyclic_prefix_ref(period, n)?;
        let frame = &mut self.frames[..n];
        self.fft.fft_into(body, frame).map_err(|_| {
            OfdmError::FrameLengthMismatch {
                expected: n,
                got: body.len(),
            }
        })?;
        Ok(frame)
    }

    /// Ingests [`FFT_LANES`] consecutive on-air periods
    /// (`FFT_LANES · (N + N/4)` samples, back to back) in one
    /// lane-parallel FFT. Returns their frequency-domain frames back to
    /// back (`FFT_LANES · N` bins, valid until the next ingest), frame
    /// `k` bit-identical to [`SymbolIngest::ingest_period`] on period
    /// `k`.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::FrameLengthMismatch`] unless `periods`
    /// holds exactly [`FFT_LANES`] periods.
    pub fn ingest_batch(&mut self, periods: &[CQ15]) -> Result<&[CQ15], OfdmError> {
        let n = self.fft_size();
        let sym_len = self.symbol_samples();
        let mismatch = OfdmError::FrameLengthMismatch {
            expected: FFT_LANES * sym_len,
            got: periods.len(),
        };
        if periods.len() != FFT_LANES * sym_len {
            return Err(mismatch);
        }
        self.frames.resize(FFT_LANES * n, CQ15::ZERO);
        let bodies = &periods[crate::cp_len(n)..];
        self.fft
            .fft_batch_into(bodies, sym_len, &mut self.frames, n, &mut self.lanes)
            .map_err(|_| mismatch)?;
        Ok(&self.frames)
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

    /// Whole batches plus a one-lane tail of 1–7 symbols (never
    /// padded) give exactly the per-period frames.
    #[test]
    fn batch_ingest_matches_period_ingest() {
        for n in crate::SUPPORTED_FFT_SIZES {
            for count in 1..=17 {
                let (on_air, _) = periods(n, count);
                let flat: Vec<CQ15> = on_air.concat();
                let mut single = SymbolIngest::new(n).unwrap();
                let want: Vec<CQ15> = on_air
                    .iter()
                    .flat_map(|p| single.ingest_period(p).unwrap().to_vec())
                    .collect();
                let mut ingest = SymbolIngest::new(n).unwrap();
                let sym_len = ingest.symbol_samples();
                let mut got = Vec::new();
                let whole = count / FFT_LANES * FFT_LANES;
                for group in flat[..whole * sym_len].chunks(FFT_LANES * sym_len) {
                    got.extend_from_slice(ingest.ingest_batch(group).unwrap());
                }
                for period in flat[whole * sym_len..].chunks(sym_len) {
                    got.extend_from_slice(ingest.ingest_period(period).unwrap());
                }
                assert!(got == want, "n={n} count={count}");
            }
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(SymbolIngest::new(100).is_err());
        let mut ingest = SymbolIngest::new(64).unwrap();
        assert!(ingest.ingest_period(&vec![CQ15::ZERO; 70]).is_err());
        assert!(ingest.ingest_batch(&vec![CQ15::ZERO; 7 * 80]).is_err());
    }
}
