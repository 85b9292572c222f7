//! The channel estimator: LTS averaging, per-subcarrier H assembly and
//! the full matrix-inversion pipeline.
//!
//! "Each subcarrier output is averaged from the two LTS frames ...
//! using an adder followed by right-shift logic. ... For each
//! subcarrier within the OFDM symbol a 4x4 complex matrix is obtained.
//! This is the channel matrix. For each burst of OFDM symbols an array
//! of 16 memories will be populated with the channel matrices."
//! (§IV.B)

use std::error::Error;
use std::fmt;

use mimo_cordic::LANES;
use mimo_fft::FixedFft;
use mimo_fixed::{CFx, CQ15, Q16};
use mimo_ofdm::preamble::lts_reference;
use mimo_ofdm::SubcarrierMap;

use crate::matrix::FxMat4;
use crate::product::mul_group;
use crate::rinv::invert_upper_triangular;
use crate::systolic::{CordicQrd, QrDecomposition};
use crate::N_ANTENNAS;

/// Errors from channel estimation and inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChanestError {
    /// Unsupported FFT size.
    UnsupportedFftSize(usize),
    /// Wrong number of receive streams or LTS slots.
    BadSlotShape {
        /// Streams/slots expected (= antenna count).
        expected: usize,
        /// Streams/slots supplied.
        got: usize,
    },
    /// An LTS block had the wrong sample count.
    BadBlockLength {
        /// Expected samples (2·N: two LTS repetitions).
        expected: usize,
        /// Samples supplied.
        got: usize,
    },
    /// The channel matrix at some subcarrier is (numerically) singular:
    /// the R diagonal fell below the divider's input range.
    SingularChannel {
        /// Index of the offending diagonal entry.
        diagonal: usize,
    },
}

impl fmt::Display for ChanestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChanestError::UnsupportedFftSize(n) => write!(f, "unsupported FFT size {n}"),
            ChanestError::BadSlotShape { expected, got } => {
                write!(f, "expected {expected} streams/slots, got {got}")
            }
            ChanestError::BadBlockLength { expected, got } => {
                write!(f, "LTS block of {got} samples, expected {expected}")
            }
            ChanestError::SingularChannel { diagonal } => {
                write!(f, "channel matrix singular at R diagonal {diagonal}")
            }
        }
    }
}

impl Error for ChanestError {}

/// Per-subcarrier channel matrices — the "array of 16 memories".
///
/// The default value is empty: a buffer for
/// [`ChannelEstimator::estimate_into`] to fill.
#[derive(Debug, Clone, Default)]
pub struct ChannelEstimate {
    occupied: Vec<i32>,
    h: Vec<FxMat4>,
}

impl ChannelEstimate {
    /// Logical indices of the occupied (estimated) subcarriers.
    pub fn occupied(&self) -> &[i32] {
        &self.occupied
    }

    /// The channel matrix for each occupied subcarrier, aligned with
    /// [`ChannelEstimate::occupied`]. `h[s][(i, k)]` is the path gain
    /// from TX antenna `k` to RX antenna `i` (including the known
    /// TX/RX chain gain — which is exactly what the equalizer needs).
    pub fn h_matrices(&self) -> &[FxMat4] {
        &self.h
    }

    /// Runs the full inversion pipeline on every subcarrier:
    /// QRD → R⁻¹ → R⁻¹·Qᴴ, returning the per-subcarrier `H⁻¹`
    /// ("channel estimate inverted matrices" memories of Fig 5).
    ///
    /// Subcarriers run in groups of [`LANES`]: the QRD on the lane
    /// CORDIC ([`CordicQrd`] documents the bit-exact contract), R⁻¹
    /// per carrier in carrier order, so the first singular carrier is
    /// the one reported, then R⁻¹·Qᴴ on carrier lanes whenever every
    /// word of the group fits an `i32` (per carrier otherwise, with
    /// the same bits).
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::SingularChannel`] if any subcarrier's
    /// matrix cannot be inverted.
    pub fn invert_all(&self, qrd: &CordicQrd) -> Result<Vec<FxMat4>, ChanestError> {
        let mut inverses = Vec::with_capacity(self.h.len());
        self.invert_all_into(qrd, &mut inverses)?;
        Ok(inverses)
    }

    /// [`ChannelEstimate::invert_all`] into a caller-owned buffer, which
    /// is cleared first and keeps its capacity: a receiver that reuses
    /// one buffer inverts every burst without allocating. On error the
    /// buffer holds the inverses of the carriers before the singular
    /// group.
    ///
    /// # Errors
    ///
    /// As [`ChannelEstimate::invert_all`].
    pub fn invert_all_into(
        &self,
        qrd: &CordicQrd,
        inverses: &mut Vec<FxMat4>,
    ) -> Result<(), ChanestError> {
        inverses.clear();
        let mut group = [QrDecomposition::default(); LANES];
        let mut r_inv = [FxMat4::zero(); LANES];
        let mut q_h = [FxMat4::zero(); LANES];
        for h in self.h.chunks(LANES) {
            let n = h.len();
            qrd.decompose_group(h, &mut group);
            for ((r, q), decomp) in r_inv.iter_mut().zip(&mut q_h).zip(&group[..n]) {
                *r = invert_upper_triangular(&decomp.r)?;
                *q = decomp.q_h;
            }
            mul_group(&r_inv[..n], &q_h[..n], qrd.isa, inverses);
        }
        Ok(())
    }
}

/// The channel estimation block: consumes the four staggered LTS
/// fields (one per TX antenna) as seen by the four receive antennas and
/// produces a [`ChannelEstimate`].
#[derive(Debug, Clone)]
pub struct ChannelEstimator {
    fft: FixedFft,
    map: SubcarrierMap,
    /// Logical indices of the occupied carriers.
    occupied: Vec<i32>,
    /// FFT bin of each occupied carrier.
    bins: Vec<usize>,
    lts_ref: Vec<i8>,
    /// 1/amplitude of the training symbols (the de-reference multiply).
    inv_amplitude: Q16,
}

impl ChannelEstimator {
    /// Creates an estimator for the given FFT size with the default
    /// training amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::UnsupportedFftSize`] for bad sizes.
    pub fn new(fft_size: usize) -> Result<Self, ChanestError> {
        Self::with_amplitude(fft_size, mimo_ofdm::preamble::DEFAULT_AMPLITUDE)
    }

    /// Creates an estimator matched to a custom training amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::UnsupportedFftSize`] for bad sizes.
    pub fn with_amplitude(fft_size: usize, amplitude: f64) -> Result<Self, ChanestError> {
        let map = SubcarrierMap::new(fft_size)
            .map_err(|_| ChanestError::UnsupportedFftSize(fft_size))?;
        let fft =
            FixedFft::new(fft_size).map_err(|_| ChanestError::UnsupportedFftSize(fft_size))?;
        let lts_ref = lts_reference(&map);
        let occupied = map.occupied_indices();
        Ok(Self {
            fft,
            bins: occupied.iter().map(|&l| map.bin(l)).collect(),
            occupied,
            map,
            lts_ref,
            inv_amplitude: Q16::from_f64(1.0 / amplitude),
        })
    }

    /// The subcarrier allocation in use.
    pub fn map(&self) -> &SubcarrierMap {
        &self.map
    }

    /// Estimates the channel from the received LTS fields.
    ///
    /// `lts_blocks[rx][tx_slot]` holds the `2·N` samples of the two
    /// LTS repetitions (guard already stripped) received on antenna
    /// `rx` during TX antenna `tx_slot`'s preamble slot (Fig 2).
    ///
    /// Generic over borrowed views: pass owned `Vec<Vec<Vec<CQ15>>>`
    /// storage or zero-copy `[[&[CQ15]; 4]; 4]` slices into the raw
    /// receive streams.
    ///
    /// Per carrier: both repetitions are transformed, averaged with the
    /// adder + right-shift, and divided by the known ±1 training value
    /// (a sign flip and a constant multiply).
    ///
    /// The allocating form of [`ChannelEstimator::estimate_into`]; the
    /// results are equal.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::BadSlotShape`]/[`ChanestError::BadBlockLength`]
    /// on malformed input.
    pub fn estimate<R, B>(&self, lts_blocks: &[R]) -> Result<ChannelEstimate, ChanestError>
    where
        R: AsRef<[B]>,
        B: AsRef<[CQ15]>,
    {
        let mut out = ChannelEstimate::default();
        self.estimate_into(lts_blocks, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    /// [`ChannelEstimator::estimate`] into caller-owned buffers: `out`
    /// is overwritten, and `fft_scratch` holds one receive antenna's
    /// eight LTS half-fields and their spectra at a time. Each
    /// antenna's eight transforms run in one
    /// [`FixedFft::fft_batch_into`] call, a whole lane group of the
    /// lane FFT. Both buffers keep their capacity, so a receiver that
    /// holds them across bursts estimates without allocating.
    ///
    /// # Errors
    ///
    /// As [`ChannelEstimator::estimate`]; `out` is unspecified after an
    /// error.
    pub fn estimate_into<R, B>(
        &self,
        lts_blocks: &[R],
        fft_scratch: &mut Vec<CQ15>,
        out: &mut ChannelEstimate,
    ) -> Result<(), ChanestError>
    where
        R: AsRef<[B]>,
        B: AsRef<[CQ15]>,
    {
        let n = self.map.fft_size();
        if lts_blocks.len() != N_ANTENNAS {
            return Err(ChanestError::BadSlotShape {
                expected: N_ANTENNAS,
                got: lts_blocks.len(),
            });
        }
        for per_rx in lts_blocks {
            let per_rx = per_rx.as_ref();
            if per_rx.len() != N_ANTENNAS {
                return Err(ChanestError::BadSlotShape {
                    expected: N_ANTENNAS,
                    got: per_rx.len(),
                });
            }
            for block in per_rx {
                if block.as_ref().len() != 2 * n {
                    return Err(ChanestError::BadBlockLength {
                        expected: 2 * n,
                        got: block.as_ref().len(),
                    });
                }
            }
        }

        // Frame 2·slot is that block's first repetition and frame
        // 2·slot + 1 its second: the antenna's blocks laid end to end.
        let frames = 2 * N_ANTENNAS;
        fft_scratch.resize(2 * frames * n, CQ15::ZERO);
        let (time, spectra) = fft_scratch.split_at_mut(frames * n);
        out.occupied.clone_from(&self.occupied);
        out.h.clear();
        out.h.resize(self.bins.len(), FxMat4::zero());
        for (rx, per_rx) in lts_blocks.iter().enumerate() {
            for (dst, block) in time.chunks_exact_mut(2 * n).zip(per_rx.as_ref()) {
                dst.copy_from_slice(block.as_ref());
            }
            // Every length was validated above; an FFT length complaint
            // can only mean that check and this call disagree, which
            // surfaces as the same typed error instead of a panic.
            self.fft
                .fft_batch_into(time, n, spectra, n, frames)
                .map_err(|_| ChanestError::BadBlockLength {
                    expected: 2 * n,
                    got: 2 * n,
                })?;
            for ((h, &bin), &sign) in out.h.iter_mut().zip(&self.bins).zip(&self.lts_ref) {
                for (tx, first) in spectra.chunks_exact(2 * n).enumerate() {
                    // "averaged using an adder followed by right-shift
                    // logic"
                    let averaged = (first[bin] + first[n + bin]).shr_round(1);
                    let y: CFx<16> = averaged.convert();
                    let v = if sign >= 0 { y } else { -y };
                    h[(rx, tx)] = v.scale(self.inv_amplitude);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat4;
    use mimo_fixed::Cf64;
    use mimo_ofdm::preamble::lts_time;

    /// Simulates the staggered LTS preamble through a flat channel
    /// `h[rx][tx]` and returns the estimator's input blocks.
    fn lts_through_channel(h: &Mat4, fft_size: usize) -> Vec<Vec<Vec<CQ15>>> {
        let fft = FixedFft::new(fft_size).unwrap();
        let map = SubcarrierMap::new(fft_size).unwrap();
        let field = lts_time(&fft, &map, 0.5).unwrap();
        // Strip the N/2 guard: keep the two repetitions.
        let reps = &field[fft_size / 2..];
        (0..N_ANTENNAS)
            .map(|rx| {
                (0..N_ANTENNAS)
                    .map(|tx| {
                        reps.iter()
                            .map(|&s| {
                                (h[(rx, tx)] * Cf64::from_fixed(s))
                                    .to_fixed::<15>()
                                    .saturate_bits(16)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Known end-to-end gain of the LTS estimation path: IFFT (2/N),
    /// FFT (N >> fwd), so H_est = h · 2^(1 − forward_shift).
    fn known_gain(fft: &FixedFft) -> f64 {
        2.0 / (1u64 << fft.scaling().forward_shift) as f64
    }

    #[test]
    fn recovers_identity_channel() {
        let est = ChannelEstimator::new(64).unwrap();
        let h = Mat4::identity();
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        let g = known_gain(&FixedFft::new(64).unwrap());
        for (s, m) in ce.h_matrices().iter().enumerate() {
            let err = m.to_f64().max_distance(&Mat4::from_fn(|r, c| {
                if r == c { Cf64::new(g, 0.0) } else { Cf64::ZERO }
            }));
            assert!(err < 6e-3, "carrier {s}: err {err}");
        }
    }

    #[test]
    fn recovers_mixing_channel() {
        let est = ChannelEstimator::new(64).unwrap();
        let h = Mat4::from_fn(|r, c| {
            Cf64::new(0.3 * (r as f64 - c as f64), 0.2 * (r + c) as f64 * 0.5)
        });
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        let g = known_gain(&FixedFft::new(64).unwrap());
        let expect = Mat4::from_fn(|r, c| h[(r, c)].scale(g));
        for m in ce.h_matrices() {
            assert!(m.to_f64().max_distance(&expect) < 8e-3);
        }
    }

    #[test]
    fn inversion_pipeline_inverts_estimates() {
        let est = ChannelEstimator::new(64).unwrap();
        // Well-conditioned channel.
        let h = Mat4::from_fn(|r, c| {
            if r == c {
                Cf64::new(0.9, 0.2)
            } else {
                Cf64::new(0.1 * (r as f64 - c as f64), -0.1)
            }
        });
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        let inverses = ce.invert_all(&CordicQrd::new()).unwrap();
        for (m, inv) in ce.h_matrices().iter().zip(&inverses) {
            let prod = inv.mul_mat(m).to_f64();
            let err = prod.max_distance(&Mat4::identity());
            assert!(err < 0.05, "||H⁻¹H − I|| = {err}");
        }
    }

    #[test]
    fn estimate_count_matches_occupied_carriers() {
        let est = ChannelEstimator::new(64).unwrap();
        let blocks = lts_through_channel(&Mat4::identity(), 64);
        let ce = est.estimate(&blocks).unwrap();
        assert_eq!(ce.h_matrices().len(), 52);
        assert_eq!(ce.occupied().len(), 52);
    }

    #[test]
    fn rejects_malformed_input() {
        let est = ChannelEstimator::new(64).unwrap();
        assert!(matches!(
            est.estimate(&vec![vec![vec![CQ15::ZERO; 128]; 4]; 3]),
            Err(ChanestError::BadSlotShape { got: 3, .. })
        ));
        assert!(matches!(
            est.estimate(&vec![vec![vec![CQ15::ZERO; 64]; 4]; 4]),
            Err(ChanestError::BadBlockLength { got: 64, .. })
        ));
    }

    #[test]
    fn singular_channel_detected_in_inversion() {
        let est = ChannelEstimator::new(64).unwrap();
        // Rank-1 channel: every RX sees the same mix.
        let h = Mat4::from_fn(|_, c| Cf64::new(0.3 + 0.1 * c as f64, 0.0));
        let blocks = lts_through_channel(&h, 64);
        let ce = est.estimate(&blocks).unwrap();
        assert!(matches!(
            ce.invert_all(&CordicQrd::new()),
            Err(ChanestError::SingularChannel { .. })
        ));
    }

    /// The per-frame estimate the batched one replaced: two single
    /// FFT calls per LTS block.
    fn per_frame_estimate(est: &ChannelEstimator, blocks: &[Vec<Vec<CQ15>>]) -> Vec<FxMat4> {
        let n = est.map.fft_size();
        let (mut first, mut second) = (vec![CQ15::ZERO; n], vec![CQ15::ZERO; n]);
        let mut averaged = vec![vec![vec![CQ15::ZERO; est.bins.len()]; N_ANTENNAS]; N_ANTENNAS];
        for (rx, per_rx) in blocks.iter().enumerate() {
            for (slot, block) in per_rx.iter().enumerate() {
                est.fft.fft_into(&block[..n], &mut first).unwrap();
                est.fft.fft_into(&block[n..], &mut second).unwrap();
                for (s, &bin) in est.bins.iter().enumerate() {
                    averaged[rx][slot][s] = (first[bin] + second[bin]).shr_round(1);
                }
            }
        }
        (0..est.bins.len())
            .map(|s| {
                FxMat4::from_fn(|rx, tx| {
                    let y: CFx<16> = averaged[rx][tx][s].convert();
                    let v = if est.lts_ref[s] >= 0 { y } else { -y };
                    v.scale(est.inv_amplitude)
                })
            })
            .collect()
    }

    #[test]
    fn batched_estimate_matches_per_frame_ffts() {
        // Full-scale blocks with the bus corners, and blocks holding
        // samples off the 16-bit bus (those frames take the scalar FFT
        // inside the batch).
        let raw = |re: i64, im: i64| CFx::new(mimo_fixed::Fx::from_raw(re), mimo_fixed::Fx::from_raw(im));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            i64::from((state >> 48) as i16)
        };
        let mut sample = |i: usize| match i % 13 {
            0 => raw(-32_768, -32_768),
            1 => raw(32_767, -32_768),
            _ => raw(next(), next()),
        };
        for fft_size in [64usize, 128] {
            let est = ChannelEstimator::new(fft_size).unwrap();
            let mut scratch = Vec::new();
            let mut out = ChannelEstimate::default();
            for trial in 0..4 {
                let mut blocks: Vec<Vec<Vec<CQ15>>> = (0..N_ANTENNAS)
                    .map(|_| {
                        (0..N_ANTENNAS)
                            .map(|_| (0..2 * fft_size).map(&mut sample).collect())
                            .collect()
                    })
                    .collect();
                if trial % 2 == 1 {
                    blocks[trial][2][5] = raw(50_000, -1 << 20);
                    blocks[0][trial][fft_size + 3] = raw(-40_000, 0);
                }
                let want = per_frame_estimate(&est, &blocks);
                assert_eq!(est.estimate(&blocks).unwrap().h_matrices(), want.as_slice());
                // Reused buffers give the same result as fresh ones.
                est.estimate_into(&blocks, &mut scratch, &mut out).unwrap();
                assert_eq!(out.h_matrices(), want.as_slice(), "size {fft_size} trial {trial}");
                assert_eq!(out.occupied(), est.map.occupied_indices().as_slice());
            }
        }
    }

    #[test]
    fn averaging_suppresses_repetition_noise() {
        // Perturb the two repetitions in opposite directions; the
        // average must cancel the perturbation.
        let est = ChannelEstimator::new(64).unwrap();
        let clean = lts_through_channel(&Mat4::identity(), 64);
        let mut noisy = clean.clone();
        for per_rx in &mut noisy {
            for block in per_rx {
                for (i, s) in block.iter_mut().enumerate() {
                    // Same structured perturbation on both repetitions,
                    // opposite signs: spreads across all bins and must
                    // cancel in the average.
                    let base = 0.002 * (((i % 64) % 7) as f64 - 3.0) / 3.0;
                    let delta = CQ15::from_f64(base, -base);
                    *s = if i < 64 { *s + delta } else { *s - delta };
                }
            }
        }
        let ce_clean = est.estimate(&clean).unwrap();
        let ce_noisy = est.estimate(&noisy).unwrap();
        for (a, b) in ce_clean.h_matrices().iter().zip(ce_noisy.h_matrices()) {
            assert!(a.to_f64().max_distance(&b.to_f64()) < 1e-3);
        }
    }
}

/// Differential tests of the lane QRD: `invert_all` on each lane build
/// against the per-carrier scalar pipeline.
#[cfg(test)]
mod lane_tests {
    use super::*;
    use mimo_cordic::{Cordic, CordicLanes};
    use mimo_fixed::Isa;
    use proptest::prelude::*;

    /// The array on every tier this CPU runs.
    fn qrds() -> impl Iterator<Item = CordicQrd> {
        Isa::tiers()
            .iter()
            .map(|&isa| CordicQrd::with_isa(Cordic::new(), isa))
    }

    fn estimate(h: Vec<FxMat4>) -> ChannelEstimate {
        ChannelEstimate {
            occupied: (0..h.len() as i32).collect(),
            h,
        }
    }

    fn scalar_invert_all(h: &[FxMat4], qrd: &CordicQrd) -> Result<Vec<FxMat4>, ChanestError> {
        h.iter()
            .map(|m| {
                let d = qrd.decompose(m);
                Ok(invert_upper_triangular(&d.r)?.mul_mat(&d.q_h))
            })
            .collect()
    }

    /// Checks every group decomposition and the whole pipeline against
    /// the scalar path, on both builds.
    fn check(h: Vec<FxMat4>) {
        let ce = estimate(h);
        for qrd in qrds() {
            let name = qrd.isa.name();
            let mut group = [QrDecomposition::default(); LANES];
            for (g, chunk) in ce.h.chunks(LANES).enumerate() {
                qrd.decompose_group(chunk, &mut group);
                for (s, m) in chunk.iter().enumerate() {
                    assert_eq!(
                        group[s],
                        qrd.decompose(m),
                        "{name}: carrier {}",
                        g * LANES + s
                    );
                }
            }
            assert_eq!(
                ce.invert_all(&qrd),
                scalar_invert_all(&ce.h, &qrd),
                "{name}"
            );
        }
    }

    fn raw_matrix(words: &[(i64, i64)]) -> FxMat4 {
        FxMat4::from_fn(|r, c| {
            let (re, im) = words[r * N_ANTENNAS + c];
            CFx::new(Q16::from_raw(re), Q16::from_raw(im))
        })
    }

    /// A full-rank matrix with column `col` zeroed: the R diagonal
    /// `col` collapses.
    fn without_column(col: usize, seed: i64) -> FxMat4 {
        FxMat4::from_fn(|r, c| {
            if c == col {
                CFx::ZERO
            } else {
                let v = if r == c {
                    40_000
                } else {
                    3_000 * (r as i64 - c as i64) + seed
                };
                CFx::new(Q16::from_raw(v), Q16::from_raw(seed - 1_000 * r as i64))
            }
        })
    }

    const EDGE: i64 = (1 << 24) - 1;

    #[test]
    fn identity_matches_scalar() {
        check(vec![crate::Mat4::identity().to_fixed(); 52]);
    }

    #[test]
    fn first_singular_carrier_is_reported() {
        let good = FxMat4::from_fn(|r, c| {
            if r == c {
                CFx::ONE
            } else {
                CFx::new(Q16::from_raw(5_000), Q16::ZERO)
            }
        });
        // Carriers 13 (diagonal 2) and 40 (diagonal 1): 13 wins.
        let mut h = vec![good; 52];
        h[13] = without_column(2, 7);
        h[40] = without_column(1, -3);
        check(h.clone());
        assert_eq!(
            estimate(h).invert_all(&CordicQrd::new()),
            Err(ChanestError::SingularChannel { diagonal: 2 })
        );
        // Two in one group, the later one with the lower diagonal.
        let mut h = vec![good; 20];
        h[9] = without_column(3, 11);
        h[10] = without_column(0, 5);
        check(h.clone());
        assert_eq!(
            estimate(h).invert_all(&CordicQrd::new()),
            Err(ChanestError::SingularChannel { diagonal: 3 })
        );
    }

    #[test]
    fn out_of_range_group_takes_the_scalar_path() {
        assert!(!CordicLanes::accepts(1 << 24));
        let base: Vec<(i64, i64)> = (0..16)
            .map(|i| (4_000 * i - 30_000, 17_000 - 2_500 * i))
            .collect();
        let mut h = vec![raw_matrix(&base); 12];
        // One element at 2²⁴ in the first group; one far past the i32
        // range in the second, which the lanes could not hold at all.
        let mut words = base.clone();
        words[6] = (1 << 24, 0);
        h[5] = raw_matrix(&words);
        words[6] = (-(1 << 40), 1 << 33);
        h[9] = raw_matrix(&words);
        check(h);
    }

    /// An upper-triangular channel whose R⁻¹ holds words past the `i32`
    /// range: two diagonal entries just above the divider's limit with
    /// a moderate entry between them, so `R⁻¹(0, 1) = −R(0, 1)/(R(0, 0)·R(1, 1))`
    /// is large. Its product takes the scalar path.
    #[test]
    fn out_of_range_inverse_takes_the_scalar_product() {
        let tiny = Q16::from_raw(180);
        let steep = FxMat4::from_fn(|r, c| match (r, c) {
            (0, 0) | (1, 1) => CFx::new(tiny, Q16::ZERO),
            (0, 1) => CFx::new(Q16::from_f64(1.5), Q16::from_f64(-0.5)),
            _ if r == c => CFx::ONE,
            _ => CFx::ZERO,
        });
        let d = CordicQrd::new().decompose(&steep);
        let r_inv = invert_upper_triangular(&d.r).unwrap();
        assert!(
            i32::try_from(r_inv[(0, 1)].re.raw()).is_err(),
            "R⁻¹ must leave the i32 range: {}",
            r_inv[(0, 1)].re.raw()
        );
        let good = crate::Mat4::identity().to_fixed();
        // The steep carrier alone, and inside two mixed groups.
        check(vec![steep]);
        let mut h = vec![good; 13];
        h[3] = steep;
        h[12] = steep;
        check(h);
    }

    /// Every group size on both product builds against `mul_mat`, with
    /// words up to the `i32` limits, and a group holding one word past
    /// them.
    #[test]
    fn lane_product_matches_mul_mat() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // The limits, and ±2¹⁵ beside odd words: their products sit
            // exactly on a rounding tie.
            match state % 8 {
                0 => i64::from(i32::MIN),
                1 => i64::from(i32::MAX),
                2 => 32_768,
                3 => -32_768,
                4 => (state >> 40) as i64 | 1,
                5 => -((state >> 44) as i64 | 1),
                _ => i64::from((state >> 32) as i32),
            }
        };
        let mut random = || FxMat4::from_fn(|_, _| CFx::new(Q16::from_raw(next()), Q16::from_raw(next())));
        for n in 0..=LANES {
            let a: Vec<FxMat4> = (0..n).map(|_| random()).collect();
            let mut b: Vec<FxMat4> = (0..n).map(|_| random()).collect();
            let want: Vec<FxMat4> = a.iter().zip(&b).map(|(a, b)| a.mul_mat(b)).collect();
            for &isa in Isa::tiers() {
                let mut got = Vec::new();
                crate::product::mul_group(&a, &b, isa, &mut got);
                assert_eq!(got, want, "n {n} {}", isa.name());
            }
            if n > 0 {
                b[n - 1][(2, 3)] = CFx::new(Q16::from_raw(1 << 31), Q16::from_raw(-(1 << 40)));
                let want: Vec<FxMat4> = a.iter().zip(&b).map(|(a, b)| a.mul_mat(b)).collect();
                let mut got = Vec::new();
                crate::product::mul_group(&a, &b, Isa::detected(), &mut got);
                assert_eq!(got, want, "n {n} off range");
            }
        }
    }

    fn arb_words(limit: i64) -> impl Strategy<Value = Vec<(i64, i64)>> {
        proptest::collection::vec((-limit..limit + 1, -limit..limit + 1), 16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random channels at the receiver's scale, every carrier count
        /// up to three groups, tail groups included.
        #[test]
        fn random_channels_match_scalar(
            mats in proptest::collection::vec(arb_words(40_000), 1..25),
        ) {
            check(mats.iter().map(|w| raw_matrix(w)).collect());
        }

        /// Random channels filling the admitted range, up to 2²⁴ − 1.
        #[test]
        fn full_range_channels_match_scalar(
            mats in proptest::collection::vec(arb_words(EDGE), 1..17),
        ) {
            check(mats.iter().map(|w| raw_matrix(w)).collect());
        }
    }
}
