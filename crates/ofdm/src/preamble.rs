//! Training sequences (STS/LTS) and the MIMO preamble schedule.
//!
//! "The transmitter must transmit preamble data before each burst of
//! OFDM frames. ... The transmitter is preloaded with the frequency
//! domain values for the short and long training sequences (STS and
//! LTS)" (§IV.A). For MIMO, Fig 2: "STS data is transmitted from
//! channel 0 only. ... LTS data is transmitted from all four channels
//! one after another. This is essential for channel estimation at the
//! receiver."

use mimo_coding::Scrambler;
use mimo_fft::FixedFft;
use mimo_fixed::{CQ15, Cf64, Q15};

use crate::subcarriers::{OfdmError, SubcarrierMap};

/// The 802.11a STS sign pattern on carriers −24, −20, …, +24 (step 4),
/// as (re, im) signs; every value is scaled by √(13/6).
const STS_PATTERN: [(f64, f64); 12] = [
    (1.0, 1.0),   // -24
    (-1.0, -1.0), // -20
    (1.0, 1.0),   // -16
    (-1.0, -1.0), // -12
    (-1.0, -1.0), // -8
    (1.0, 1.0),   // -4
    (-1.0, -1.0), // +4
    (-1.0, -1.0), // +8
    (1.0, 1.0),   // +12
    (1.0, 1.0),   // +16
    (1.0, 1.0),   // +20
    (1.0, 1.0),   // +24
];

/// The 802.11a LTS values on carriers −26…−1 then +1…+26.
const LTS_64: [i8; 52] = [
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, // -26..-1
    1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1, // +1..+26
];

/// Frequency-domain STS frame (N bins) at the given amplitude.
///
/// For scaled sizes `N = 64m` the twelve nonzero carriers sit at
/// `±4m·j`, preserving the 16-sample time-domain periodicity the
/// 32-tap synchroniser correlates against.
pub fn sts_freq(map: &SubcarrierMap, amplitude: f64) -> Vec<CQ15> {
    let n = map.fft_size();
    let m = (n / 64) as i32;
    let scale = amplitude * (13.0f64 / 6.0).sqrt();
    let mut frame = vec![CQ15::ZERO; n];
    let positions: Vec<i32> = (-6..=6).filter(|&j| j != 0).map(|j| 4 * j * m).collect();
    for (&(re, im), &pos) in STS_PATTERN.iter().zip(positions.iter()) {
        frame[map.bin(pos)] = CQ15::from_f64(re * scale, im * scale);
    }
    frame
}

/// LTS reference values (±1) for every *occupied* carrier, ascending
/// logical order — the values the receiver's channel estimator divides
/// by.
///
/// The 64-point map uses the exact 802.11a sequence; scaled maps fill
/// the wider band with the deterministic ±1 output of the standard
/// scrambler LFSR (documented substitution: any known BPSK sequence
/// serves channel estimation identically).
pub fn lts_reference(map: &SubcarrierMap) -> Vec<i8> {
    let occupied = map.occupied_indices();
    if map.fft_size() == 64 {
        // occupied is -26..-1, 1..26 ascending, matching LTS_64 order.
        return LTS_64.to_vec();
    }
    let mut s = Scrambler::new(0x7F);
    occupied
        .iter()
        .map(|_| if s.next_bit() == 0 { 1 } else { -1 })
        .collect()
}

/// Frequency-domain LTS frame (N bins) at the given amplitude.
pub fn lts_freq(map: &SubcarrierMap, amplitude: f64) -> Vec<CQ15> {
    let n = map.fft_size();
    let mut frame = vec![CQ15::ZERO; n];
    let refs = lts_reference(map);
    for (&l, &sign) in map.occupied_indices().iter().zip(refs.iter()) {
        frame[map.bin(l)] = CQ15::from_f64(f64::from(sign) * amplitude, 0.0);
    }
    frame
}

/// Time-domain STS field: `2.5·N` samples (ten repetitions of the
/// 16-sample short symbol for N=64), produced through the same IFFT
/// core as data so all system gains match.
///
/// # Errors
///
/// Propagates FFT errors (the map and core must agree on size).
pub fn sts_time(fft: &FixedFft, map: &SubcarrierMap, amplitude: f64) -> Result<Vec<CQ15>, OfdmError> {
    let block = ifft_frame(fft, &sts_freq(map, amplitude), map)?;
    let n = map.fft_size();
    let mut field = Vec::with_capacity(5 * n / 2);
    field.extend_from_slice(&block);
    field.extend_from_slice(&block);
    field.extend_from_slice(&block[..n / 2]);
    Ok(field)
}

/// Time-domain LTS field: `2.5·N` samples — a double-length guard
/// (N/2 cyclic prefix) followed by two repetitions of the long symbol.
///
/// # Errors
///
/// Propagates FFT errors (the map and core must agree on size).
pub fn lts_time(fft: &FixedFft, map: &SubcarrierMap, amplitude: f64) -> Result<Vec<CQ15>, OfdmError> {
    let block = ifft_frame(fft, &lts_freq(map, amplitude), map)?;
    let n = map.fft_size();
    let mut field = Vec::with_capacity(5 * n / 2);
    field.extend_from_slice(&block[n / 2..]);
    field.extend_from_slice(&block);
    field.extend_from_slice(&block);
    Ok(field)
}

fn ifft_frame(
    fft: &FixedFft,
    frame: &[CQ15],
    map: &SubcarrierMap,
) -> Result<Vec<CQ15>, OfdmError> {
    fft.ifft(frame).map_err(|_| OfdmError::FrameLengthMismatch {
        expected: map.fft_size(),
        got: frame.len(),
    })
}

/// Correlation reference for the time synchroniser: the complex
/// conjugates of the last 16 STS samples and the first 16 LTS samples
/// ("the circuit is preloaded with the complex conjugate values of the
/// last 16 STS symbols and the first 16 LTS symbols", §IV.B).
///
/// # Errors
///
/// Propagates FFT errors.
pub fn sync_reference(
    fft: &FixedFft,
    map: &SubcarrierMap,
    amplitude: f64,
) -> Result<Vec<CQ15>, OfdmError> {
    let sts = sts_time(fft, map, amplitude)?;
    let lts = lts_time(fft, map, amplitude)?;
    let mut taps = Vec::with_capacity(32);
    taps.extend(sts[sts.len() - 16..].iter().map(|c| c.conj()));
    taps.extend(lts[..16].iter().map(|c| c.conj()));
    Ok(taps)
}

/// The field carried in one preamble slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Short training sequence (time synchronisation).
    Sts,
    /// Long training sequence (channel estimation).
    Lts,
}

/// One slot of the MIMO preamble: a field transmitted by exactly one
/// antenna while the others are silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreambleSlot {
    /// Transmit antenna index.
    pub tx: usize,
    /// Which training field.
    pub kind: FieldKind,
    /// Start sample offset within the burst.
    pub offset: usize,
    /// Length in samples (always `2.5·N`).
    pub len: usize,
}

/// The staggered MIMO preamble pattern of Fig 2.
///
/// # Examples
///
/// ```
/// use mimo_ofdm::preamble::{FieldKind, PreambleSchedule};
///
/// let sched = PreambleSchedule::new(4, 64);
/// let slots = sched.slots();
/// assert_eq!(slots.len(), 5);               // 1 STS + 4 LTS
/// assert_eq!(slots[0].kind, FieldKind::Sts);
/// assert_eq!(slots[0].tx, 0);               // STS from channel 0 only
/// assert_eq!(sched.data_offset(), 5 * 160); // data starts after 800 samples
/// ```
#[derive(Debug, Clone)]
pub struct PreambleSchedule {
    n_tx: usize,
    fft_size: usize,
    slots: Vec<PreambleSlot>,
}

impl PreambleSchedule {
    /// Builds the schedule for `n_tx` antennas at a given FFT size.
    pub fn new(n_tx: usize, fft_size: usize) -> Self {
        let field_len = 5 * fft_size / 2;
        let mut slots = Vec::with_capacity(1 + n_tx);
        slots.push(PreambleSlot {
            tx: 0,
            kind: FieldKind::Sts,
            offset: 0,
            len: field_len,
        });
        for tx in 0..n_tx {
            slots.push(PreambleSlot {
                tx,
                kind: FieldKind::Lts,
                offset: field_len * (1 + tx),
                len: field_len,
            });
        }
        Self {
            n_tx,
            fft_size,
            slots,
        }
    }

    /// Number of transmit antennas.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// The slot list: STS (TX 0), then one LTS per antenna in order.
    pub fn slots(&self) -> &[PreambleSlot] {
        &self.slots
    }

    /// Sample offset at which payload OFDM symbols begin.
    pub fn data_offset(&self) -> usize {
        (1 + self.n_tx) * (5 * self.fft_size / 2)
    }
}

/// Quantization helper shared by preamble tests: RMS of a sample block.
pub fn rms(block: &[CQ15]) -> f64 {
    if block.is_empty() {
        return 0.0;
    }
    let power: f64 = block.iter().map(|&c| Cf64::from_fixed(c).norm_sqr()).sum();
    (power / block.len() as f64).sqrt()
}

/// The standard training amplitude used across the transceiver: the
/// constellation scale (see `mimo-modem`), so preamble and data share
/// one system gain.
pub fn default_amplitude() -> Q15 {
    Q15::from_f64(crate::preamble::DEFAULT_AMPLITUDE)
}

/// Default training amplitude as a float (matches
/// `mimo_modem::CONSTELLATION_SCALE`).
pub const DEFAULT_AMPLITUDE: f64 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (FixedFft, SubcarrierMap) {
        (FixedFft::new(n).unwrap(), SubcarrierMap::new(n).unwrap())
    }

    #[test]
    fn sts_time_has_period_16() {
        let (fft, map) = setup(64);
        let sts = sts_time(&fft, &map, 0.5).unwrap();
        assert_eq!(sts.len(), 160);
        for i in 0..(160 - 16) {
            let a = Cf64::from_fixed(sts[i]);
            let b = Cf64::from_fixed(sts[i + 16]);
            assert!(
                (a - b).norm() < 2e-3,
                "STS not 16-periodic at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn sts_period_16_for_scaled_sizes() {
        let (fft, map) = setup(256);
        let sts = sts_time(&fft, &map, 0.5).unwrap();
        assert_eq!(sts.len(), 640);
        for i in 0..128 {
            let a = Cf64::from_fixed(sts[i]);
            let b = Cf64::from_fixed(sts[i + 16]);
            assert!((a - b).norm() < 2e-3, "scaled STS not 16-periodic at {i}");
        }
    }

    #[test]
    fn lts_repeats_after_guard() {
        let (fft, map) = setup(64);
        let lts = lts_time(&fft, &map, 0.5).unwrap();
        assert_eq!(lts.len(), 160);
        for i in 0..64 {
            assert_eq!(lts[32 + i], lts[96 + i], "LTS symbol repeat at {i}");
        }
        // Guard is cyclic: first 32 samples equal last 32 of the symbol.
        for i in 0..32 {
            assert_eq!(lts[i], lts[64 + i], "LTS guard at {i}");
        }
    }

    #[test]
    fn lts_reference_is_pm_one_on_occupied() {
        for n in [64usize, 128, 512] {
            let map = SubcarrierMap::new(n).unwrap();
            let refs = lts_reference(&map);
            assert_eq!(refs.len(), map.data_count() + map.pilot_indices().len());
            assert!(refs.iter().all(|&v| v == 1 || v == -1));
        }
    }

    #[test]
    fn lts_64_matches_standard_prefix() {
        // Spot-check the first carriers of the 802.11a LTS: L(-26)=1,
        // L(-25)=1, L(-24)=-1, L(-23)=-1, L(-22)=1.
        let map = SubcarrierMap::new(64).unwrap();
        let refs = lts_reference(&map);
        assert_eq!(&refs[..5], &[1, 1, -1, -1, 1]);
        // And around DC: L(-1)=1, L(+1)=1.
        assert_eq!(refs[25], 1);
        assert_eq!(refs[26], 1);
    }

    #[test]
    fn preamble_schedule_matches_fig2() {
        let sched = PreambleSchedule::new(4, 64);
        let slots = sched.slots();
        // STS only on TX0.
        assert_eq!(slots[0].tx, 0);
        assert_eq!(slots[0].kind, FieldKind::Sts);
        // LTS staggered on TX0..TX3, non-overlapping, contiguous.
        for tx in 0..4 {
            let s = slots[1 + tx];
            assert_eq!(s.tx, tx);
            assert_eq!(s.kind, FieldKind::Lts);
            assert_eq!(s.offset, 160 * (1 + tx));
            assert_eq!(s.len, 160);
        }
        assert_eq!(sched.data_offset(), 800);
    }

    #[test]
    fn siso_schedule_is_sts_plus_one_lts() {
        let sched = PreambleSchedule::new(1, 64);
        assert_eq!(sched.slots().len(), 2);
        assert_eq!(sched.data_offset(), 320);
    }

    #[test]
    fn sync_reference_is_32_conjugated_taps() {
        let (fft, map) = setup(64);
        let taps = sync_reference(&fft, &map, 0.5).unwrap();
        assert_eq!(taps.len(), 32);
        let sts = sts_time(&fft, &map, 0.5).unwrap();
        assert_eq!(taps[0], sts[144].conj());
        let lts = lts_time(&fft, &map, 0.5).unwrap();
        assert_eq!(taps[16], lts[0].conj());
    }

    #[test]
    fn training_fields_have_sane_levels() {
        let (fft, map) = setup(64);
        let sts = sts_time(&fft, &map, 0.5).unwrap();
        let lts = lts_time(&fft, &map, 0.5).unwrap();
        // Comparable RMS to data symbols (~0.12), nothing clipped.
        for field in [&sts, &lts] {
            let r = rms(field);
            assert!(r > 0.02 && r < 0.4, "rms {r}");
            assert!(field.iter().all(|s| s.fits_bits(16)));
        }
    }
}
