//! Subcarrier allocation: data, pilot, DC and guard bins.

use std::error::Error;
use std::fmt;

use mimo_fixed::{CQ15, Fx};

/// Errors from OFDM framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OfdmError {
    /// FFT size not one of the supported values.
    UnsupportedFftSize(usize),
    /// Data symbol count does not match the map's data-carrier count.
    DataLengthMismatch {
        /// Carriers available.
        expected: usize,
        /// Symbols supplied.
        got: usize,
    },
    /// A time/frequency frame had the wrong length.
    FrameLengthMismatch {
        /// Expected samples.
        expected: usize,
        /// Samples supplied.
        got: usize,
    },
}

impl fmt::Display for OfdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfdmError::UnsupportedFftSize(n) => {
                write!(f, "unsupported FFT size {n} (expected 64, 128, 256 or 512)")
            }
            OfdmError::DataLengthMismatch { expected, got } => {
                write!(f, "{got} data symbols supplied for {expected} data carriers")
            }
            OfdmError::FrameLengthMismatch { expected, got } => {
                write!(f, "frame length {got}, expected {expected}")
            }
        }
    }
}

impl Error for OfdmError {}

/// Subcarrier allocation for one OFDM symbol.
///
/// For the 64-point baseline this is the 802.11a layout: 52 occupied
/// carriers at logical indices −26…−1, +1…+26, of which ±7 and ±21 are
/// pilots (48 data + 4 pilots), DC and the band edges are null.
///
/// For scaled sizes `N = 64·m` the occupied band is ±26·m and a carrier
/// is a pilot iff `|index| mod 52 ∈ {7, 21, 31, 45}` — this reduces to
/// the standard ±7/±21 for m=1 and keeps exactly `4m` pilots and `48m`
/// data carriers with ~13-carrier pilot spacing for every size, which
/// is the property the paper's pilot-processing datapath relies on.
///
/// # Examples
///
/// ```
/// use mimo_ofdm::SubcarrierMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let map = SubcarrierMap::new(64)?;
/// assert_eq!(map.data_count(), 48);
/// assert_eq!(map.pilot_indices().len(), 4);
/// assert_eq!(map.pilot_indices(), &[-21, -7, 7, 21]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SubcarrierMap {
    fft_size: usize,
    /// Logical indices (negative = below DC) of data carriers, ascending.
    data: Vec<i32>,
    /// Logical indices of pilot carriers, ascending.
    pilots: Vec<i32>,
    /// Base pilot BPSK pattern (±1) per pilot, before per-symbol
    /// polarity scrambling. For 64-point: +1, +1, +1, −1.
    pilot_pattern: Vec<i8>,
}

impl SubcarrierMap {
    /// Builds the allocation for `fft_size` ∈ {64, 128, 256, 512}.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::UnsupportedFftSize`] otherwise.
    pub fn new(fft_size: usize) -> Result<Self, OfdmError> {
        if !crate::SUPPORTED_FFT_SIZES.contains(&fft_size) {
            return Err(OfdmError::UnsupportedFftSize(fft_size));
        }
        let m = (fft_size / 64) as i32;
        let edge = 26 * m;
        let mut data = Vec::new();
        let mut pilots = Vec::new();
        let mut pilot_pattern = Vec::new();
        for l in -edge..=edge {
            if l == 0 {
                continue;
            }
            let residue = l.unsigned_abs() % 52;
            if matches!(residue, 7 | 21 | 31 | 45) {
                pilots.push(l);
                // 802.11a pattern: the pilot at +21 is inverted. Keep
                // the generalization "positive pilots congruent to 21
                // are inverted" so m=1 reproduces {+1,+1,+1,−1}.
                let inverted = l > 0 && residue == 21;
                pilot_pattern.push(if inverted { -1 } else { 1 });
            } else {
                data.push(l);
            }
        }
        Ok(Self {
            fft_size,
            data,
            pilots,
            pilot_pattern,
        })
    }

    /// FFT size this map covers.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Number of data carriers (48 per 64-point unit).
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    /// Logical indices of data carriers, ascending.
    pub fn data_indices(&self) -> &[i32] {
        &self.data
    }

    /// Logical indices of pilot carriers, ascending.
    pub fn pilot_indices(&self) -> &[i32] {
        &self.pilots
    }

    /// The per-pilot base BPSK pattern (±1), aligned with
    /// [`SubcarrierMap::pilot_indices`].
    pub fn pilot_pattern(&self) -> &[i8] {
        &self.pilot_pattern
    }

    /// Converts a logical carrier index (−N/2..N/2, negative below DC)
    /// to an FFT bin (0..N).
    pub fn bin(&self, logical: i32) -> usize {
        if logical >= 0 {
            logical as usize
        } else {
            (self.fft_size as i32 + logical) as usize
        }
    }

    /// Assembles one frequency-domain OFDM symbol into a
    /// caller-provided `fft_size`-bin frame buffer: data symbols onto
    /// data carriers (ascending logical order), pilots with the given
    /// polarity (±1, from the 127-periodic sequence) at `amplitude`,
    /// zeros on DC and guards.
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::DataLengthMismatch`] /
    /// [`OfdmError::FrameLengthMismatch`] on bad lengths.
    pub fn assemble_into(
        &self,
        data: &[CQ15],
        polarity: i8,
        amplitude: Fx<15>,
        frame: &mut [CQ15],
    ) -> Result<(), OfdmError> {
        if data.len() != self.data.len() {
            return Err(OfdmError::DataLengthMismatch {
                expected: self.data.len(),
                got: data.len(),
            });
        }
        if frame.len() != self.fft_size {
            return Err(OfdmError::FrameLengthMismatch {
                expected: self.fft_size,
                got: frame.len(),
            });
        }
        frame.fill(CQ15::ZERO);
        for (&l, &sym) in self.data.iter().zip(data) {
            frame[self.bin(l)] = sym;
        }
        for (i, &l) in self.pilots.iter().enumerate() {
            let sign = i32::from(self.pilot_pattern[i]) * i32::from(polarity);
            let value = if sign >= 0 { amplitude } else { -amplitude };
            frame[self.bin(l)] = CQ15::from_re(value);
        }
        Ok(())
    }

    /// Extracts `(data, pilots)` from a frequency-domain frame, in the
    /// same ascending order used by [`SubcarrierMap::assemble_into`].
    ///
    /// # Errors
    ///
    /// Returns [`OfdmError::FrameLengthMismatch`] on a wrong-size frame.
    // phylint: allow(test_only_api) -- oracle: crates/ofdm/tests/proptests.rs
    pub fn extract(&self, frame: &[CQ15]) -> Result<(Vec<CQ15>, Vec<CQ15>), OfdmError> {
        if frame.len() != self.fft_size {
            return Err(OfdmError::FrameLengthMismatch {
                expected: self.fft_size,
                got: frame.len(),
            });
        }
        let data = self.data.iter().map(|&l| frame[self.bin(l)]).collect();
        let pilots = self.pilots.iter().map(|&l| frame[self.bin(l)]).collect();
        Ok((data, pilots))
    }

    /// Iterates over all occupied logical indices (data + pilots),
    /// ascending. Used by the channel estimator, which estimates H on
    /// every occupied carrier.
    pub fn occupied_indices(&self) -> Vec<i32> {
        let mut all: Vec<i32> = self.data.iter().chain(self.pilots.iter()).copied().collect();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assembles one frame through [`SubcarrierMap::assemble_into`].
    fn assemble(
        map: &SubcarrierMap,
        data: &[CQ15],
        polarity: i8,
        amplitude: Fx<15>,
    ) -> Result<Vec<CQ15>, OfdmError> {
        let mut frame = vec![CQ15::ZERO; map.fft_size()];
        map.assemble_into(data, polarity, amplitude, &mut frame)?;
        Ok(frame)
    }

    #[test]
    fn standard_64_point_layout() {
        let map = SubcarrierMap::new(64).unwrap();
        assert_eq!(map.data_count(), 48);
        assert_eq!(map.pilot_indices().len(), 4);
        assert_eq!(map.pilot_indices(), &[-21, -7, 7, 21]);
        assert_eq!(map.pilot_pattern(), &[1, 1, 1, -1]);
        // Data carriers span ±26 minus pilots.
        assert_eq!(map.data_indices().first(), Some(&-26));
        assert_eq!(map.data_indices().last(), Some(&26));
        assert!(!map.data_indices().contains(&0));
        assert!(!map.data_indices().contains(&7));
    }

    #[test]
    fn scaled_sizes_keep_ratios() {
        for (n, m) in [(128usize, 2usize), (256, 4), (512, 8)] {
            let map = SubcarrierMap::new(n).unwrap();
            assert_eq!(map.data_count(), 48 * m, "N={n}");
            assert_eq!(map.pilot_indices().len(), 4 * m, "N={n}");
        }
    }

    #[test]
    fn pilots_are_spread_across_the_band() {
        let map = SubcarrierMap::new(512).unwrap();
        let pilots = map.pilot_indices();
        // Max gap between adjacent pilots stays near the 64-pt spacing.
        let max_gap = pilots.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(max_gap <= 28, "pilot gap {max_gap} too wide");
    }

    #[test]
    fn bin_mapping_wraps_negatives() {
        let map = SubcarrierMap::new(64).unwrap();
        assert_eq!(map.bin(1), 1);
        assert_eq!(map.bin(26), 26);
        assert_eq!(map.bin(-1), 63);
        assert_eq!(map.bin(-26), 38);
    }

    #[test]
    fn assemble_extract_roundtrip() {
        let map = SubcarrierMap::new(64).unwrap();
        let data: Vec<CQ15> = (0..48)
            .map(|i| CQ15::from_f64(0.01 * i as f64, -0.01 * i as f64))
            .collect();
        let amp = Fx::<15>::from_f64(0.5);
        let frame = assemble(&map, &data, 1, amp).unwrap();
        assert_eq!(frame.len(), 64);
        // DC must be empty.
        assert!(frame[0].is_zero());
        let (d, p) = map.extract(&frame).unwrap();
        assert_eq!(d, data);
        // Pilot values follow pattern {+1,+1,+1,-1} * amplitude.
        assert_eq!(p[0].re.to_f64(), 0.5);
        assert_eq!(p[3].re.to_f64(), -0.5);
    }

    #[test]
    fn polarity_flips_all_pilots() {
        let map = SubcarrierMap::new(64).unwrap();
        let data = vec![CQ15::ZERO; 48];
        let amp = Fx::<15>::from_f64(0.5);
        let plus = assemble(&map, &data, 1, amp).unwrap();
        let minus = assemble(&map, &data, -1, amp).unwrap();
        for &l in map.pilot_indices() {
            let b = map.bin(l);
            assert_eq!(plus[b].re.to_f64(), -minus[b].re.to_f64());
        }
    }

    #[test]
    fn guards_are_null() {
        let map = SubcarrierMap::new(64).unwrap();
        let data = vec![CQ15::from_f64(0.3, 0.3); 48];
        let frame = assemble(&map, &data, 1, Fx::from_f64(0.5)).unwrap();
        // bins 27..=37 are the guard band (logical ±27..=±31 plus
        // the wrap); all unoccupied bins must be zero.
        for (l, bin) in frame.iter().enumerate().take(38).skip(27) {
            assert!(bin.is_zero(), "guard bin {l} not null");
        }
    }

    #[test]
    fn wrong_sizes_rejected() {
        assert!(SubcarrierMap::new(96).is_err());
        let map = SubcarrierMap::new(64).unwrap();
        assert!(assemble(&map, &[CQ15::ZERO; 10], 1, Fx::ZERO).is_err());
        assert!(map.extract(&vec![CQ15::ZERO; 32]).is_err());
    }

    #[test]
    fn occupied_is_data_plus_pilots_sorted() {
        let map = SubcarrierMap::new(128).unwrap();
        let occ = map.occupied_indices();
        assert_eq!(occ.len(), map.data_count() + map.pilot_indices().len());
        assert!(occ.windows(2).all(|w| w[0] < w[1]));
    }
}
