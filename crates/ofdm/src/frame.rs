//! One antenna's OFDM symbol chain: map → IFFT → CP, and the inverse.

use mimo_coding::pilot_polarity;
use mimo_fft::{FftLaneScratch, FixedFft, FFT_LANES};
use mimo_fixed::{CQ15, Q15};

use crate::subcarriers::{OfdmError, SubcarrierMap};

/// Transmit-side OFDM symbol assembly for one antenna: places data and
/// pilots on their carriers, transforms to the time domain and prepends
/// the cyclic prefix.
///
/// # Examples
///
/// ```
/// use mimo_fixed::CQ15;
/// use mimo_ofdm::{OfdmDemodulator, OfdmModulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tx = OfdmModulator::new(64)?;
/// let rx = OfdmDemodulator::new(64)?;
/// let data = vec![CQ15::from_f64(0.3, -0.3); 48];
/// let (mut on_air, mut scratch) = (vec![CQ15::ZERO; 80], vec![CQ15::ZERO; 64]);
/// tx.modulate_symbol_into(&data, 0, &mut on_air, &mut scratch)?;
/// // Drop the 16-sample cyclic prefix and return to the carriers.
/// let freq = rx.fft_block(&on_air[16..])?;
/// let (recovered, _pilots) = rx.map().extract(&freq)?;
/// // Loopback recovers data up to the known chain gain.
/// let gain = recovered[0].re.to_f64() / data[0].re.to_f64();
/// assert!(gain > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OfdmModulator {
    fft: FixedFft,
    map: SubcarrierMap,
    pilot_amplitude: Q15,
}

impl OfdmModulator {
    /// Creates a modulator for the given FFT size with the default
    /// training/pilot amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::UnsupportedFftSize`] for bad sizes.
    pub fn new(fft_size: usize) -> Result<Self, OfdmError> {
        let map = SubcarrierMap::new(fft_size)?;
        let fft = FixedFft::new(fft_size).map_err(|_| OfdmError::UnsupportedFftSize(fft_size))?;
        Ok(Self {
            fft,
            map,
            pilot_amplitude: crate::preamble::default_amplitude(),
        })
    }

    /// The subcarrier allocation in use.
    pub fn map(&self) -> &SubcarrierMap {
        &self.map
    }

    /// The IFFT core in use (shared scaling with the preamble path).
    pub fn fft(&self) -> &FixedFft {
        &self.fft
    }

    /// Modulates one OFDM symbol: `data` symbols (one per data carrier)
    /// plus pilots with the polarity of `symbol_index`, writing the
    /// `N + N/4` on-air samples into `out` and using `scratch` (`N`
    /// bins) for the frequency-domain frame.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::DataLengthMismatch`] /
    /// [`OfdmError::FrameLengthMismatch`] on bad lengths.
    pub fn modulate_symbol_into(
        &self,
        data: &[CQ15],
        symbol_index: usize,
        out: &mut [CQ15],
        scratch: &mut [CQ15],
    ) -> Result<(), OfdmError> {
        let n = self.map.fft_size();
        let cp = crate::cp_len(n);
        if out.len() != crate::symbol_len(n) {
            return Err(OfdmError::FrameLengthMismatch {
                expected: crate::symbol_len(n),
                got: out.len(),
            });
        }
        let polarity = pilot_polarity(symbol_index);
        self.map
            .assemble_into(data, polarity, self.pilot_amplitude, scratch)?;
        // IFFT straight into the post-prefix region, then copy the
        // last quarter in front of it.
        let (prefix, body) = out.split_at_mut(cp);
        self.fft.ifft_into(scratch, body).map_err(|_| {
            OfdmError::FrameLengthMismatch {
                expected: n,
                got: scratch.len(),
            }
        })?;
        prefix.copy_from_slice(&body[n - cp..]);
        Ok(())
    }

    /// [`FFT_LANES`] consecutive OFDM symbols at once, each
    /// bit-identical to [`OfdmModulator::modulate_symbol_into`]:
    /// symbol `k` takes its data from
    /// `data[k·D..(k + 1)·D]` (`D` = data carriers), its pilots the
    /// polarity of `first_symbol_index + k`, and lands in
    /// `out[k·(N + N/4)..]`. `scratch` holds the [`FFT_LANES`]
    /// frequency-domain frames (`FFT_LANES · N` bins), and `lanes` the
    /// batch IFFT's lane data; both live in the caller's workspace.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::DataLengthMismatch`] /
    /// [`OfdmError::FrameLengthMismatch`] on bad lengths.
    pub fn modulate_batch_into(
        &self,
        data: &[CQ15],
        first_symbol_index: usize,
        out: &mut [CQ15],
        scratch: &mut [CQ15],
        lanes: &mut FftLaneScratch,
    ) -> Result<(), OfdmError> {
        let n = self.map.fft_size();
        let (cp, sym_len, n_data) = (crate::cp_len(n), crate::symbol_len(n), self.map.data_count());
        if data.len() != FFT_LANES * n_data {
            return Err(OfdmError::DataLengthMismatch {
                expected: FFT_LANES * n_data,
                got: data.len(),
            });
        }
        for (expected, got) in [(FFT_LANES * sym_len, out.len()), (FFT_LANES * n, scratch.len())] {
            if got != expected {
                return Err(OfdmError::FrameLengthMismatch { expected, got });
            }
        }
        for (k, (symbol, frame)) in data
            .chunks_exact(n_data)
            .zip(scratch.chunks_exact_mut(n))
            .enumerate()
        {
            let polarity = pilot_polarity(first_symbol_index + k);
            self.map
                .assemble_into(symbol, polarity, self.pilot_amplitude, frame)?;
        }
        // IFFT every frame straight into its post-prefix region, then
        // copy each body's last quarter in front of it.
        self.fft
            .ifft_batch_into(scratch, n, &mut out[cp..], sym_len, lanes)
            .map_err(|_| OfdmError::FrameLengthMismatch {
                expected: FFT_LANES * n,
                got: scratch.len(),
            })?;
        for on_air in out.chunks_exact_mut(sym_len) {
            let (prefix, body) = on_air.split_at_mut(cp);
            prefix.copy_from_slice(&body[n - cp..]);
        }
        Ok(())
    }
}

/// Receive-side OFDM symbol disassembly for one antenna: strips the
/// cyclic prefix, transforms to the frequency domain and separates
/// data from pilot carriers.
#[derive(Debug, Clone)]
pub struct OfdmDemodulator {
    fft: FixedFft,
    map: SubcarrierMap,
}

impl OfdmDemodulator {
    /// Creates a demodulator for the given FFT size.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::UnsupportedFftSize`] for bad sizes.
    pub fn new(fft_size: usize) -> Result<Self, OfdmError> {
        let map = SubcarrierMap::new(fft_size)?;
        let fft = FixedFft::new(fft_size).map_err(|_| OfdmError::UnsupportedFftSize(fft_size))?;
        Ok(Self { fft, map })
    }

    /// The subcarrier allocation in use.
    pub fn map(&self) -> &SubcarrierMap {
        &self.map
    }

    /// The FFT core in use.
    pub fn fft(&self) -> &FixedFft {
        &self.fft
    }

    /// Transforms a raw `N`-sample block (no cyclic prefix — e.g. one
    /// LTS repetition) into the full `N`-bin frequency frame.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::FrameLengthMismatch`] on bad input length.
    pub fn fft_block(&self, block: &[CQ15]) -> Result<Vec<CQ15>, OfdmError> {
        self.fft.fft(block).map_err(|_| OfdmError::FrameLengthMismatch {
            expected: self.map.fft_size(),
            got: block.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_fixed::Cf64;

    fn modulate(tx: &OfdmModulator, data: &[CQ15], symbol_index: usize) -> Vec<CQ15> {
        let n = tx.map().fft_size();
        let mut out = vec![CQ15::ZERO; crate::symbol_len(n)];
        let mut scratch = vec![CQ15::ZERO; n];
        tx.modulate_symbol_into(data, symbol_index, &mut out, &mut scratch).unwrap();
        out
    }

    /// Strips the cyclic prefix and returns `(data, pilots)` carriers.
    fn demodulate(rx: &OfdmDemodulator, on_air: &[CQ15]) -> (Vec<CQ15>, Vec<CQ15>) {
        let time = crate::strip_cyclic_prefix_ref(on_air, rx.map().fft_size()).unwrap();
        rx.map().extract(&rx.fft_block(time).unwrap()).unwrap()
    }

    /// End-to-end known gain of the TX→RX symbol chain:
    /// ifft (2/N) then fft (N >> forward_shift) = 2^(1-forward_shift).
    fn chain_gain(fft: &FixedFft) -> f64 {
        2.0 / (1u64 << fft.scaling().forward_shift) as f64
    }

    #[test]
    fn loopback_recovers_constellation() {
        let tx = OfdmModulator::new(64).unwrap();
        let rx = OfdmDemodulator::new(64).unwrap();
        let data: Vec<CQ15> = (0..48)
            .map(|i| CQ15::from_f64(0.2 * ((i % 3) as f64 - 1.0), 0.2 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect();
        let on_air = modulate(&tx, &data, 3);
        let (recovered, _) = demodulate(&rx, &on_air);
        let g = chain_gain(tx.fft());
        for (r, d) in recovered.iter().zip(&data) {
            let want = Cf64::from_fixed(*d).scale(g);
            let got = Cf64::from_fixed(*r);
            assert!((got - want).norm() < 5e-3, "got {got}, want {want}");
        }
    }

    #[test]
    fn pilots_carry_polarity() {
        let tx = OfdmModulator::new(64).unwrap();
        let rx = OfdmDemodulator::new(64).unwrap();
        let data = vec![CQ15::ZERO; 48];
        // Symbol 0 has polarity +1; symbol 4 has polarity −1 (p4 = -1).
        let g = chain_gain(tx.fft());
        let (_, p0) = demodulate(&rx, &modulate(&tx, &data, 0));
        let (_, p4) = demodulate(&rx, &modulate(&tx, &data, 4));
        let expect = 0.5 * g;
        assert!((Cf64::from_fixed(p0[0]).re - expect).abs() < 3e-3);
        assert!((Cf64::from_fixed(p4[0]).re + expect).abs() < 3e-3);
    }

    #[test]
    fn works_at_all_supported_sizes() {
        for n in crate::SUPPORTED_FFT_SIZES {
            let tx = OfdmModulator::new(n).unwrap();
            let rx = OfdmDemodulator::new(n).unwrap();
            let count = tx.map().data_count();
            let data = vec![CQ15::from_f64(0.25, -0.25); count];
            let on_air = modulate(&tx, &data, 1);
            assert_eq!(on_air.len(), crate::symbol_len(n));
            let (rec, pilots) = demodulate(&rx, &on_air);
            assert_eq!(rec.len(), count);
            assert_eq!(pilots.len(), tx.map().pilot_indices().len());
        }
    }

    #[test]
    fn cp_makes_symbol_robust_to_intra_guard_shift() {
        // Sampling anywhere inside the guard must yield the same data
        // up to a per-carrier phase ramp — the property channel
        // equalization relies on. Check magnitudes survive a 3-sample
        // early FFT window.
        let tx = OfdmModulator::new(64).unwrap();
        let rx = OfdmDemodulator::new(64).unwrap();
        let data: Vec<CQ15> = (0..48).map(|_| CQ15::from_f64(0.3, 0.0)).collect();
        let on_air = modulate(&tx, &data, 0);
        // Shift the FFT window 3 samples into the guard.
        let shifted: Vec<CQ15> = on_air[13..77].to_vec();
        let freq = rx.fft_block(&shifted).unwrap();
        let (rec, _) = rx.map().extract(&freq).unwrap();
        let g = chain_gain(tx.fft());
        for r in rec {
            let mag = Cf64::from_fixed(r).norm();
            assert!((mag - 0.3 * g).abs() < 8e-3, "magnitude {mag}");
        }
    }

    #[test]
    fn batch_modulation_matches_symbol_modulation() {
        for n in crate::SUPPORTED_FFT_SIZES {
            let tx = OfdmModulator::new(n).unwrap();
            let (n_data, sym_len) = (tx.map().data_count(), crate::symbol_len(n));
            let data: Vec<CQ15> = (0..FFT_LANES * n_data)
                .map(|i| CQ15::from_f64(0.6 * ((i * 7) as f64).sin(), -0.6 * ((i * 3) as f64).cos()))
                .collect();
            let first = 5;
            let mut want = vec![CQ15::ZERO; FFT_LANES * sym_len];
            let mut frame = vec![CQ15::ZERO; n];
            for (k, (symbol, on_air)) in data
                .chunks(n_data)
                .zip(want.chunks_mut(sym_len))
                .enumerate()
            {
                tx.modulate_symbol_into(symbol, first + k, on_air, &mut frame).unwrap();
            }
            let mut got = vec![CQ15::ZERO; FFT_LANES * sym_len];
            let mut frames = vec![CQ15::ZERO; FFT_LANES * n];
            let mut lanes = FftLaneScratch::default();
            tx.modulate_batch_into(&data, first, &mut got, &mut frames, &mut lanes)
                .unwrap();
            assert!(got == want, "n={n}");
            assert!(matches!(
                tx.modulate_batch_into(&data[1..], first, &mut got, &mut frames, &mut lanes),
                Err(OfdmError::DataLengthMismatch { .. })
            ));
            assert!(matches!(
                tx.modulate_batch_into(&data, first, &mut got[1..], &mut frames, &mut lanes),
                Err(OfdmError::FrameLengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn bad_lengths_rejected() {
        let rx = OfdmDemodulator::new(64).unwrap();
        assert!(rx.fft_block(&[CQ15::ZERO; 63]).is_err());
        let tx = OfdmModulator::new(64).unwrap();
        let (mut out, mut scratch) = ([CQ15::ZERO; 80], [CQ15::ZERO; 64]);
        assert!(tx.modulate_symbol_into(&[CQ15::ZERO; 47], 0, &mut out, &mut scratch).is_err());
    }
}
