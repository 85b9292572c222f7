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
#[derive(Debug, Clone)]
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
    /// The QRD runs subcarriers in groups of [`LANES`] on the lane
    /// CORDIC ([`CordicQrd`] documents the bit-exact contract); R⁻¹
    /// and the product stay per carrier, in carrier order, so the
    /// first singular carrier is the one reported.
    ///
    /// # Errors
    ///
    /// Returns [`ChanestError::SingularChannel`] if any subcarrier's
    /// matrix cannot be inverted.
    pub fn invert_all(&self, qrd: &CordicQrd) -> Result<Vec<FxMat4>, ChanestError> {
        // phylint: allow(hot_transitive) -- matrix inversion runs once per burst preamble, never in the per-sample steady state
        let mut inverses = Vec::with_capacity(self.h.len());
        let mut group = [QrDecomposition::default(); LANES];
        for h in self.h.chunks(LANES) {
            qrd.decompose_group(h, &mut group);
            for decomp in &group[..h.len()] {
                let r_inv = invert_upper_triangular(&decomp.r)?;
                inverses.push(r_inv.mul_mat(&decomp.q_h));
            }
        }
        Ok(inverses)
    }
}

/// The channel estimation block: consumes the four staggered LTS
/// fields (one per TX antenna) as seen by the four receive antennas and
/// produces a [`ChannelEstimate`].
#[derive(Debug, Clone)]
pub struct ChannelEstimator {
    fft: FixedFft,
    map: SubcarrierMap,
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
        Ok(Self {
            fft,
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
    /// receive streams — the receiver hot path uses the latter so no
    /// LTS samples are ever copied.
    ///
    /// Per carrier: both repetitions are transformed, averaged with the
    /// adder + right-shift, and divided by the known ±1 training value
    /// (a sign flip and a constant multiply).
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

        let occupied = self.map.occupied_indices();
        // averaged[(rx * 4 + slot) * n_occ + occupied_idx], flat.
        let n_occ = occupied.len();
        // phylint: allow(hot_transitive) -- scratch rows sized once per preamble estimate, not per sample
        let mut averaged = vec![CQ15::ZERO; N_ANTENNAS * N_ANTENNAS * n_occ];
        // phylint: allow(hot_transitive) -- scratch rows sized once per preamble estimate, not per sample
        let mut first = vec![CQ15::ZERO; n];
        // phylint: allow(hot_transitive) -- scratch rows sized once per preamble estimate, not per sample
        let mut second = vec![CQ15::ZERO; n];
        for (rx, per_rx) in lts_blocks.iter().enumerate() {
            for (slot, block) in per_rx.as_ref().iter().enumerate() {
                let block = block.as_ref();
                // Block length was validated to 2·N above; an FFT
                // length complaint can only mean that check and this
                // call disagree, which surfaces as the same typed
                // error instead of a panic.
                let bad_len = |_| ChanestError::BadBlockLength {
                    expected: 2 * n,
                    got: block.len(),
                };
                self.fft
                    .fft_into(&block[..n], &mut first)
                    .map_err(bad_len)?;
                self.fft
                    .fft_into(&block[n..], &mut second)
                    .map_err(bad_len)?;
                let base = (rx * N_ANTENNAS + slot) * n_occ;
                for (s, &l) in occupied.iter().enumerate() {
                    let bin = self.map.bin(l);
                    // "averaged using an adder followed by right-shift
                    // logic"
                    averaged[base + s] = (first[bin] + second[bin]).shr_round(1);
                }
            }
        }

        let h = (0..n_occ)
            .map(|s| {
                FxMat4::from_fn(|rx, tx| {
                    let y: CFx<16> = averaged[(rx * N_ANTENNAS + tx) * n_occ + s].convert();
                    let sign = self.lts_ref[s];
                    let v = if sign >= 0 { y } else { -y };
                    v.scale(self.inv_amplitude)
                })
            })
            // phylint: allow(hot_transitive) -- gathers the per-burst channel matrix once per preamble
            .collect();

        Ok(ChannelEstimate {
            occupied,
            h,
        })
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
    use proptest::prelude::*;

    /// The array on each lane build this CPU runs: the detected one
    /// (AVX2 on AVX2 hosts) and the portable one.
    fn qrds() -> Vec<CordicQrd> {
        let cordic = Cordic::new();
        let detected = CordicLanes::new(&cordic).unwrap();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(detected.build_name(), "avx2");
        }
        let portable = CordicLanes::portable(&cordic).unwrap();
        [detected, portable]
            .into_iter()
            .map(|lanes| {
                let mut qrd = CordicQrd::with_cordic(cordic.clone());
                qrd.lanes = Some(lanes);
                qrd
            })
            .collect()
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
            let name = qrd.lanes.as_ref().unwrap().build_name();
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
