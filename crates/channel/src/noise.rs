//! Additive white Gaussian noise.

use std::cmp::Ordering;
use std::f64::consts::PI;

use mimo_fixed::{CQ15, Cf64, Fx, Isa, SAMPLE_BITS};
use rand::RngCore;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::gaussian::{gaussian_at, ln_lane, sin_cos_lane, uniform_lane, Lanes, LANES, TO_INT};
use crate::{average_power, ChannelModel};

/// AWGN at a target SNR. Noise power is calibrated against the
/// *measured* average power of the incoming streams, so the configured
/// SNR is exact regardless of modulation or backoff.
///
/// # Examples
///
/// ```
/// use mimo_channel::{AwgnChannel, ChannelModel};
/// use mimo_fixed::CQ15;
///
/// let mut chan = AwgnChannel::new(1, 20.0, 42);
/// let tx = vec![vec![CQ15::from_f64(0.25, 0.0); 512]];
/// let rx = chan.propagate(&tx);
/// assert_eq!(rx[0].len(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    n: usize,
    snr_db: f64,
    rng: ChaCha8Rng,
    /// The CPU tier the noise lanes dispatch on.
    isa: Isa,
}

impl AwgnChannel {
    /// Creates an AWGN channel over `n` parallel antennas with the
    /// given per-antenna SNR in dB and a deterministic seed.
    pub fn new(n: usize, snr_db: f64, seed: u64) -> Self {
        Self {
            n,
            snr_db,
            rng: ChaCha8Rng::seed_from_u64(seed),
            isa: Isa::detected(),
        }
    }

    /// Configured SNR in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }
}

/// Adds calibrated AWGN at `snr_db` to every stream — the shared
/// propagation core of [`AwgnChannel`] and [`TimeVaryingAwgn`]. Each
/// stream runs in blocks of [`LANES`] samples on the lanes of tier
/// `isa` (see [`noisy_block`]).
fn add_awgn(rng: &mut ChaCha8Rng, isa: Isa, tx: &[Vec<CQ15>], snr_db: f64) -> Vec<Vec<CQ15>> {
    let signal_power = average_power(tx);
    let noise_power = signal_power / 10f64.powf(snr_db / 10.0);
    tx.iter()
        .map(|stream| {
            let mut out = vec![CQ15::ZERO; stream.len()];
            for (tx, out) in stream.chunks(LANES).zip(out.chunks_mut(LANES)) {
                noisy_block(isa, rng, tx, out, noise_power, TieGuard::PRODUCT);
            }
            out
        })
        .collect()
}

/// `2¹⁵`: one Q1.15 LSB is `1/SCALE`.
const SCALE: f64 = (1u64 << (SAMPLE_BITS - 1)) as f64;

/// `Fx::from_f64`'s rounding offset: just below one half, so that
/// adding it and truncating rounds half away from zero.
const JUST_BELOW_HALF: f64 = 0.5 - f64::EPSILON / 4.0;

/// How close, in LSBs, a lane sample's pre-quantization value `y = x·2¹⁵`
/// may come to a Q15 rounding tie `k + ½` before the sample is
/// recomputed on the libm body: `per_amplitude·(R + |x|) + floor`,
/// where `R` is the sample's noise radius.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TieGuard {
    pub per_amplitude: f64,
    pub floor: f64,
}

impl TieGuard {
    /// The product's margin, 2¹¹ times [`LANE_DIFF`]'s bound on
    /// `|x_lane − x_libm|`, plus a floor of the same size.
    pub(crate) const PRODUCT: TieGuard = TieGuard {
        per_amplitude: LANE_DIFF * 2048.0 * SCALE,
        floor: LANE_DIFF * 2048.0 * SCALE,
    };
}

/// Bound on `|x_lane − x_libm| / (R + |x|)` for one noisy component
/// `x = s + R·cos θ` (or `sin θ`), `R = √(−2 ln u₁)·√(σ²/2)`, given
/// the lane kernels' bounds [`LN_REL_DIFF`] and [`TRIG_ABS_DIFF`]:
///
/// * `−2 ln u₁` differs by at most `LN_REL_DIFF` relative, so its root
///   by half that, and the root's and the scaling's roundings add
///   `2·2⁻⁵³` per body: `|ΔR| ≤ R·2⁻⁵⁰`;
/// * `R·cos θ`: `|ΔR| + R·TRIG_ABS_DIFF` plus one rounding per body,
///   `≤ R·(2⁻⁵⁰ + 2⁻⁵¹ + 2⁻⁵²) < R·2⁻⁴⁹`;
/// * `s + R·cos θ`: one rounding per body, `≤ 2⁻⁵²·|x|`.
///
/// [`LN_REL_DIFF`]: crate::gaussian::LN_REL_DIFF
/// [`TRIG_ABS_DIFF`]: crate::gaussian::TRIG_ABS_DIFF
pub(crate) const LANE_DIFF: f64 = 1.0 / (1u64 << 49) as f64;

// The derivation above rests on these kernel bounds.
const _: () = assert!(crate::gaussian::LN_REL_DIFF <= 1.0 / (1u64 << 51) as f64);
const _: () = assert!(crate::gaussian::TRIG_ABS_DIFF <= 1.0 / (1u64 << 51) as f64);

// phylint: hot
/// Adds noise of variance `sigma2` to the up to [`LANES`] samples of
/// `tx`, writing `out` (same length), with exactly the keystream words
/// and the output of one [`gaussian_at`] per sample in order: `u₁`
/// from the sample's first two words, `u₂` from the next two.
///
/// The lane body of tier `isa` computes every sample; a sample with a
/// component within `guard` of a Q15 rounding tie is recomputed on the
/// libm body. Away from a tie, both bodies round to the same word.
/// Returns how many samples were recomputed.
pub(crate) fn noisy_block(
    isa: Isa,
    rng: &mut ChaCha8Rng,
    tx: &[CQ15],
    out: &mut [CQ15],
    sigma2: f64,
    guard: TieGuard,
) -> usize {
    debug_assert!(tx.len() <= LANES && tx.len() == out.len());
    let mut block = Block::default();
    for (k, s) in tx.iter().enumerate() {
        block.w1[k] = rng.next_u64();
        block.w2[k] = rng.next_u64();
        let s = Cf64::from_fixed(*s);
        (block.s_re[k], block.s_im[k]) = (s.re, s.im);
    }
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() {
        // SAFETY: an `Isa` answers `avx2()` only where the probe
        // detected AVX2 on this CPU (the tier invariant).
        unsafe { lanes_avx2(&mut block, sigma2, guard) };
        return finish(&block, tx, out, sigma2);
    }
    lanes(&mut block, sigma2, guard);
    finish(&block, tx, out, sigma2)
}

/// One lane block: the inputs, then the lanes' output words and
/// fallback flags.
#[derive(Default)]
struct Block {
    w1: [u64; LANES],
    w2: [u64; LANES],
    s_re: Lanes,
    s_im: Lanes,
    re: [i32; LANES],
    im: [i32; LANES],
    fallback: [bool; LANES],
}

/// The lane body: Box–Muller, the noisy sum and the quantizer on every
/// lane, and the tie guard's verdict.
#[inline(always)]
fn lanes(b: &mut Block, sigma2: f64, guard: TieGuard) {
    let scale = (sigma2 / 2.0).sqrt();
    for k in 0..LANES {
        let u1 = uniform_lane(b.w1[k], f64::MIN_POSITIVE, 1.0);
        let u2 = uniform_lane(b.w2[k], 0.0, 1.0);
        let radius = (-2.0 * ln_lane(u1)).sqrt() * scale;
        let (sin, cos) = sin_cos_lane(2.0 * PI * u2);
        let (re, re_near) = quantize(b.s_re[k] + radius * cos, radius, guard);
        let (im, im_near) = quantize(b.s_im[k] + radius * sin, radius, guard);
        b.re[k] = re;
        b.im[k] = im;
        b.fallback[k] = re_near | im_near;
    }
}

/// `Fx::<15>::from_f64(x).saturate_bits(16)` on a lane (the same
/// add-and-truncate, then the clamp, both in `f64`, and the word read
/// out of the mantissa of `word + 1.5·2⁵²`), and whether `y = x·2¹⁵`
/// lies within `guard` of a rounding tie. A non-finite `x` or `radius`
/// makes the margin infinite or NaN, so that sample always falls back.
#[inline(always)]
fn quantize(x: f64, radius: f64, guard: TieGuard) -> (i32, bool) {
    let y = x * SCALE;
    let word = (y + JUST_BELOW_HALF.copysign(y))
        .trunc()
        .clamp(-SCALE, SCALE - 1.0);
    // |y − nearest integer| is at most ½; its distance from ½ is the
    // distance from the nearest tie (exact for |y| < 2⁵¹; beyond that
    // `y` saturates on both bodies).
    let to_tie = 0.5 - (y - ((y + TO_INT) - TO_INT)).abs();
    let margin = guard.per_amplitude * (radius + x.abs()) + guard.floor;
    // Not `to_tie <= margin`: a NaN margin must fall back too.
    let near = !matches!(to_tie.partial_cmp(&margin), Some(Ordering::Greater));
    ((word + TO_INT).to_bits() as i32, near)
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must have verified AVX2 support at run time
// (`noisy_block` calls this only when its `Isa` answers `avx2()`, the
// tier invariant). The body is safe code.
unsafe fn lanes_avx2(b: &mut Block, sigma2: f64, guard: TieGuard) {
    lanes(b, sigma2, guard)
}

/// Writes the block's words, recomputing each flagged sample from its
/// keystream words on the libm body.
#[inline(always)]
fn finish(b: &Block, tx: &[CQ15], out: &mut [CQ15], sigma2: f64) -> usize {
    let mut recomputed = 0;
    for (k, (s, o)) in tx.iter().zip(out.iter_mut()).enumerate() {
        *o = if b.fallback[k] {
            recomputed += 1;
            let u1 = uniform_lane(b.w1[k], f64::MIN_POSITIVE, 1.0);
            let u2 = uniform_lane(b.w2[k], 0.0, 1.0);
            let noisy = Cf64::from_fixed(*s) + gaussian_at(u1, u2, sigma2);
            noisy.to_fixed::<15>().saturate_bits(SAMPLE_BITS)
        } else {
            CQ15::new(Fx::from_raw(b.re[k].into()), Fx::from_raw(b.im[k].into()))
        };
    }
    recomputed
}
// phylint: end-hot

impl ChannelModel for AwgnChannel {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        add_awgn(&mut self.rng, self.isa, tx, self.snr_db)
    }
}

/// AWGN whose SNR follows a per-burst schedule: call `k` of
/// [`ChannelModel::propagate`] applies `profile[min(k, len-1)]` dB
/// (the last entry holds once the schedule is exhausted). This is the
/// time-varying stimulus closed-loop link adaptation is tested
/// against: an SNR ramp sweeps the link through every rate's
/// operating region, burst by burst.
///
/// # Examples
///
/// ```
/// use mimo_channel::{ChannelModel, TimeVaryingAwgn};
/// use mimo_fixed::CQ15;
///
/// // 10 dB → 30 dB over 5 bursts, then back down.
/// let mut chan = TimeVaryingAwgn::up_down(1, 10.0, 30.0, 5, 42);
/// assert_eq!(chan.current_snr_db(), 10.0);
/// let tx = vec![vec![CQ15::from_f64(0.25, 0.0); 256]];
/// chan.propagate(&tx);
/// assert!(chan.current_snr_db() > 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeVaryingAwgn {
    n: usize,
    profile: Vec<f64>,
    burst_idx: usize,
    rng: ChaCha8Rng,
    /// The CPU tier the noise lanes dispatch on.
    isa: Isa,
}

impl TimeVaryingAwgn {
    /// Creates a scheduled-SNR channel over `n` antennas from an
    /// explicit per-burst SNR profile (dB) and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `profile` is empty.
    pub fn new(n: usize, profile: Vec<f64>, seed: u64) -> Self {
        assert!(!profile.is_empty(), "SNR profile must not be empty");
        Self {
            n,
            profile,
            burst_idx: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            isa: Isa::detected(),
        }
    }

    /// A linear SNR ramp from `start_db` to `end_db` (inclusive) over
    /// `bursts` bursts.
    ///
    /// # Panics
    ///
    /// Panics if `bursts` is zero.
    pub fn ramp(n: usize, start_db: f64, end_db: f64, bursts: usize, seed: u64) -> Self {
        assert!(bursts > 0, "a ramp needs at least one burst");
        let profile = (0..bursts)
            .map(|i| {
                let t = if bursts > 1 {
                    i as f64 / (bursts - 1) as f64
                } else {
                    0.0
                };
                start_db + t * (end_db - start_db)
            })
            .collect();
        Self::new(n, profile, seed)
    }

    /// A triangular sweep `lo → hi → lo`: an up leg of
    /// `bursts_each_way` bursts and a mirrored down leg sharing the
    /// peak burst, `2·bursts_each_way − 1` scheduled bursts in total —
    /// the climb-then-back-off stimulus for rate controllers.
    ///
    /// # Panics
    ///
    /// Panics if `bursts_each_way` is zero.
    pub fn up_down(n: usize, lo_db: f64, hi_db: f64, bursts_each_way: usize, seed: u64) -> Self {
        assert!(bursts_each_way > 0, "a sweep needs at least one burst per leg");
        let up = Self::ramp(n, lo_db, hi_db, bursts_each_way, seed).profile;
        let mut profile = up.clone();
        profile.extend(up.iter().rev().skip(1));
        Self::new(n, profile, seed)
    }

    /// The SNR (dB) the **next** `propagate` call will apply.
    pub fn current_snr_db(&self) -> f64 {
        self.profile[self.burst_idx.min(self.profile.len() - 1)]
    }

    /// Bursts propagated so far.
    pub fn burst_index(&self) -> usize {
        self.burst_idx
    }

    /// The full per-burst schedule, dB.
    pub fn profile(&self) -> &[f64] {
        &self.profile
    }
}

impl ChannelModel for TimeVaryingAwgn {
    fn n_rx(&self) -> usize {
        self.n
    }

    fn propagate(&mut self, tx: &[Vec<CQ15>]) -> Vec<Vec<CQ15>> {
        assert_eq!(tx.len(), self.n, "stream count mismatch");
        let snr_db = self.current_snr_db();
        self.burst_idx += 1;
        add_awgn(&mut self.rng, self.isa, tx, snr_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_snr_matches_target() {
        let n_samples = 20_000;
        let tx = vec![vec![CQ15::from_f64(0.3, -0.2); n_samples]];
        for target in [5.0f64, 15.0, 25.0] {
            let mut chan = AwgnChannel::new(1, target, 7);
            let rx = chan.propagate(&tx);
            let mut noise_power = 0.0;
            for (r, t) in rx[0].iter().zip(&tx[0]) {
                noise_power += (Cf64::from_fixed(*r) - Cf64::from_fixed(*t)).norm_sqr();
            }
            noise_power /= n_samples as f64;
            let signal_power = 0.3f64 * 0.3 + 0.2 * 0.2;
            let measured = 10.0 * (signal_power / noise_power).log10();
            assert!(
                (measured - target).abs() < 0.5,
                "target {target} dB, measured {measured:.2} dB"
            );
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let tx = vec![vec![CQ15::from_f64(0.2, 0.1); 64]];
        let a = AwgnChannel::new(1, 10.0, 99).propagate(&tx);
        let b = AwgnChannel::new(1, 10.0, 99).propagate(&tx);
        let c = AwgnChannel::new(1, 10.0, 100).propagate(&tx);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_has_near_zero_mean() {
        let tx = vec![vec![CQ15::ZERO; 50_000]];
        // SNR vs zero signal: define noise from unit reference instead.
        let mut chan = AwgnChannel::new(1, 0.0, 3);
        // Zero signal -> zero noise power (SNR calibration); mean is 0.
        let rx = chan.propagate(&tx);
        assert!(rx[0].iter().all(|s| s.is_zero()));
    }

    /// Seeded noise is part of the bit-identity contract: these
    /// fingerprints were taken before the four-block keystream and the
    /// branch-free quantizer, and must not move. Three bursts per SNR
    /// (the middle one ends a keystream refill part-way); −10 dB drives
    /// the 16-bit saturation.
    #[test]
    fn seeded_output_is_pinned() {
        use crate::fingerprint;
        let long = fingerprint::signal(4, 4096);
        let short = fingerprint::signal(4, 1001);
        for (snr_db, want) in [
            (21.0, 0x6e4e_e5b6_78c0_76b4u64),
            (-10.0, 0xcf11_e3b6_d835_f02e),
        ] {
            let mut chan = AwgnChannel::new(4, snr_db, 4242);
            let mut out = chan.propagate(&long);
            out.extend(chan.propagate(&short));
            out.extend(chan.propagate(&long));
            if snr_db < 0.0 {
                let rails = out
                    .iter()
                    .flatten()
                    .filter(|s| s.re.raw().abs() >= 32_767)
                    .count();
                assert!(
                    rails > 1000,
                    "only {rails} saturated samples at {snr_db} dB"
                );
            }
            let got = fingerprint::streams(&out);
            assert_eq!(got, want, "AWGN at {snr_db} dB: {got:#018x}");
        }
    }

    /// Today's per-sample libm path, the oracle of the lane blocks.
    fn libm_noise(rng: &mut ChaCha8Rng, tx: &[CQ15], sigma2: f64) -> Vec<CQ15> {
        tx.iter()
            .map(|&s| {
                let noisy = Cf64::from_fixed(s) + crate::gaussian::complex_gaussian(rng, sigma2);
                noisy.to_fixed::<15>().saturate_bits(SAMPLE_BITS)
            })
            .collect()
    }

    /// Runs `bursts` bursts of `len` samples at `snr_db` through the lane
    /// blocks of tier `isa` (with `guard`) and through the oracle, on
    /// two copies of one keystream; returns how many lane samples fell
    /// back. Panics on the first differing burst.
    fn lanes_match_oracle(isa: Isa, snr_db: f64, bursts: usize, len: usize, guard: TieGuard) -> usize {
        let seed = 4242 + snr_db.to_bits();
        let mut lane_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut oracle_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut recomputed = 0;
        for burst in 0..bursts {
            let tx = crate::fingerprint::signal(1, len + burst % 2).remove(0);
            let sigma2 = average_power(std::slice::from_ref(&tx)) / 10f64.powf(snr_db / 10.0);
            let mut lanes = vec![CQ15::ZERO; tx.len()];
            for (tx, out) in tx.chunks(LANES).zip(lanes.chunks_mut(LANES)) {
                recomputed += noisy_block(isa, &mut lane_rng, tx, out, sigma2, guard);
            }
            let want = libm_noise(&mut oracle_rng, &tx, sigma2);
            if let Some(k) = (0..tx.len()).find(|&k| lanes[k] != want[k]) {
                panic!(
                    "{} at {snr_db} dB, burst {burst}, sample {k}: lanes {:?}, libm {:?}",
                    isa.name(),
                    lanes[k],
                    want[k]
                );
            }
        }
        assert_eq!(lane_rng.next_u64(), oracle_rng.next_u64(), "keystreams diverged");
        recomputed
    }

    /// The lane blocks against the libm oracle on 10⁷ samples per tier:
    /// five SNRs (−10 dB saturating the bus), bursts of 4,000 and
    /// 4,001 samples, so every other burst ends in a one-sample block.
    #[test]
    fn lane_blocks_match_the_libm_oracle() {
        for &isa in Isa::tiers() {
            let mut recomputed = 0;
            for snr_db in [21.0, -10.0, 5.0, 30.0, 12.0] {
                recomputed += lanes_match_oracle(isa, snr_db, 500, 4000, TieGuard::PRODUCT);
            }
            // The margin is ~2⁻²² LSB: a tie guard that fires often is
            // a guard set far too wide.
            assert!(recomputed < 100, "{}: {recomputed} samples fell back", isa.name());
        }
    }

    /// Wide margins force the libm body, and the output stays the
    /// oracle's: ½ LSB recomputes every sample; ¼ LSB puts each
    /// component near a tie half the time, so about three samples in
    /// four fall back.
    #[test]
    fn forced_fallbacks_match_the_libm_oracle() {
        for &isa in Isa::tiers() {
            for snr_db in [21.0, -10.0] {
                let all = TieGuard { per_amplitude: 0.0, floor: 0.5 };
                assert_eq!(lanes_match_oracle(isa, snr_db, 4, 1000, all), 4002);
                let half = TieGuard { per_amplitude: 0.0, floor: 0.25 };
                let n = lanes_match_oracle(isa, snr_db, 4, 1000, half);
                assert!((2700..3300).contains(&n), "{}: {n} of 4002 fell back", isa.name());
            }
        }
    }

    #[test]
    fn lane_quantizer_matches_fx_on_the_half_lsb_grid() {
        let lsb = 1.0 / SCALE;
        for k in -(1i64 << 17)..(1i64 << 17) {
            for point in [k as f64 * lsb, (k as f64 + 0.5) * lsb] {
                for x in [point.next_down(), point, point.next_up()] {
                    let want = Fx::<15>::from_f64(x).saturate_bits(SAMPLE_BITS).raw();
                    let (word, _) = quantize(x, 0.0, TieGuard::PRODUCT);
                    assert_eq!(i64::from(word), want, "{x:e}");
                }
            }
        }
    }

    /// The scheduled channel shares `add_awgn`, so its seeded output is
    /// pinned too: an `up_down` sweep from −10 dB (saturating) to 30 dB
    /// and back, six bursts (the last past the schedule's end), the
    /// third 1,001 samples long.
    #[test]
    fn seeded_schedule_is_pinned() {
        use crate::fingerprint;
        let long = fingerprint::signal(4, 4096);
        let short = fingerprint::signal(4, 1001);
        let mut chan = TimeVaryingAwgn::up_down(4, -10.0, 30.0, 3, 4242);
        let mut out = Vec::new();
        for burst in [&long, &long, &short, &long, &long, &long] {
            out.extend(chan.propagate(burst));
        }
        assert_eq!(chan.current_snr_db(), -10.0);
        let got = fingerprint::streams(&out);
        assert_eq!(got, 0xbb54_0a74_341c_b45e, "scheduled AWGN: {got:#018x}");
    }
}
