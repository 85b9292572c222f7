//! Double-precision reference FFT (iterative radix-2, natural order).

use mimo_fixed::Cf64;

/// In-place bit-reversal permutation.
fn bit_reverse(data: &mut [Cf64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
}

fn transform(data: &mut [Cf64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two: {n}");
    bit_reverse(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Cf64::from_polar(1.0, ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Cf64::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = x.scale(scale);
        }
    }
}

/// Forward DFT (no normalization): `X[k] = Σ x[n]·e^{-j2πkn/N}`.
///
/// This is the receiver-side reference transform.
///
/// # Panics
///
/// Panics if the length is not a power of two.
///
/// # Examples
///
/// ```
/// use mimo_fixed::Cf64;
/// use mimo_fft::fft_f64;
///
/// let mut x = vec![Cf64::ZERO; 8];
/// x[0] = Cf64::ONE; // impulse
/// fft_f64(&mut x);
/// for bin in &x {
///     assert!((bin.re - 1.0).abs() < 1e-12 && bin.im.abs() < 1e-12);
/// }
/// ```
// phylint: allow(test_only_api) -- oracle: tests/fixed_vs_float.rs
pub fn fft_f64(data: &mut [Cf64]) {
    transform(data, false);
}

/// Inverse DFT with 1/N normalization: `x[n] = (1/N)·Σ X[k]·e^{j2πkn/N}`.
///
/// This is the transmitter-side reference transform.
///
/// # Panics
///
/// Panics if the length is not a power of two.
// phylint: allow(test_only_api) -- oracle: crates/fft/src/fixed.rs
pub fn ifft_f64(data: &mut [Cf64]) {
    transform(data, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, k: usize) -> Vec<Cf64> {
        (0..n)
            .map(|i| Cf64::from_polar(1.0, 2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64))
            .collect()
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let mut x = vec![Cf64::ONE; 64];
        fft_f64(&mut x);
        assert!((x[0].re - 64.0).abs() < 1e-9);
        for bin in &x[1..] {
            assert!(bin.norm() < 1e-9);
        }
    }

    #[test]
    fn single_tone_hits_single_bin() {
        let mut x = tone(64, 5);
        fft_f64(&mut x);
        for (k, bin) in x.iter().enumerate() {
            if k == 5 {
                assert!((bin.re - 64.0).abs() < 1e-9);
            } else {
                assert!(bin.norm() < 1e-8, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let orig: Vec<Cf64> = (0..n)
            .map(|i| Cf64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut x = orig.clone();
        fft_f64(&mut x);
        ifft_f64(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10);
            assert!((a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 64;
        let time: Vec<Cf64> = (0..n)
            .map(|i| Cf64::new((i as f64).sin() * 0.3, (i as f64 * 2.0).cos() * 0.2))
            .collect();
        let e_time: f64 = time.iter().map(|c| c.norm_sqr()).sum();
        let mut freq = time;
        fft_f64(&mut freq);
        let e_freq: f64 = freq.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Cf64> = (0..n).map(|i| Cf64::new(i as f64 * 0.01, 0.0)).collect();
        let b: Vec<Cf64> = (0..n).map(|i| Cf64::new(0.0, (n - i) as f64 * 0.01)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Cf64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft_f64(&mut fa);
        fft_f64(&mut fb);
        fft_f64(&mut fab);
        for k in 0..n {
            let sum = fa[k] + fb[k];
            assert!((fab[k] - sum).norm() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![Cf64::ZERO; 48];
        fft_f64(&mut x);
    }
}
