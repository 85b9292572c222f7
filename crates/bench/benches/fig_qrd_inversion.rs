//! **Experiment F5 — Figs 5–7: the matrix-inversion pipeline.**
//!
//! QRD → R⁻¹ → R⁻¹·Qᵀ over every occupied subcarrier, with the
//! fixed-point accuracy of the pipeline reported against the f64
//! reference.
//!
//! Two timing paths sit side by side: `qrd_all_52_subcarriers` runs the
//! scalar per-carrier `CordicQrd::decompose`, and
//! `invert_all_52_subcarriers` runs the receiver's
//! `ChannelEstimate::invert_all` (QRD in 8-carrier lane groups, then
//! R⁻¹ and R⁻¹·Qᴴ) on an estimate built by `ChannelEstimator::estimate`
//! from a synthetic staggered-LTS capture.
//!
//! ```text
//! cargo bench -p mimo_bench --bench fig_qrd_inversion
//! QUICK_BENCH=1 cargo bench -p mimo_bench --bench fig_qrd_inversion   # smoke
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mimo_chanest::{
    invert_upper_triangular, qr_givens_f64, ChannelEstimate, ChannelEstimator, CordicQrd, FxMat4,
    Mat4,
};
use mimo_fft::FixedFft;
use mimo_fixed::{Cf64, CQ15};
use mimo_ofdm::preamble::{lts_time, DEFAULT_AMPLITUDE};
use mimo_ofdm::SubcarrierMap;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_channels(n: usize, seed: u64) -> Vec<Mat4> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Mat4::from_fn(|_, _| Cf64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5))))
        .collect()
}

/// Channel estimate from a staggered-LTS capture (64-point, 52
/// occupied carriers) through a two-tap channel per antenna pair, so
/// every carrier sees a different matrix: `y = h0·x[n] + h1·x[n−1]`,
/// the delayed tap reading into the cyclic guard.
fn estimate_from_lts(seed: u64) -> ChannelEstimate {
    const N: usize = 64;
    let fft = FixedFft::new(N).expect("64-point FFT");
    let map = SubcarrierMap::new(N).expect("64-point map");
    let field = lts_time(&fft, &map, DEFAULT_AMPLITUDE).expect("LTS field");
    let taps = random_channels(2, seed);
    let guard = N / 2;
    let blocks: Vec<Vec<Vec<CQ15>>> = (0..4)
        .map(|rx| {
            (0..4)
                .map(|tx| {
                    (0..2 * N)
                        .map(|n| {
                            let now = Cf64::from_fixed(field[guard + n]);
                            let before = Cf64::from_fixed(field[guard + n - 1]);
                            (taps[0][(rx, tx)] * now + taps[1][(rx, tx)].scale(0.5) * before)
                                .to_fixed::<15>()
                                .saturate_bits(16)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    ChannelEstimator::new(N)
        .expect("64-point estimator")
        .estimate(&blocks)
        .expect("well-formed capture")
}

fn print_accuracy_report() {
    let channels = random_channels(52, 42);
    let qrd = CordicQrd::new();
    let mut worst_qr = 0.0f64;
    let mut worst_inv = 0.0f64;
    let mut inverted = 0usize;
    for h in &channels {
        let hf = h.to_fixed();
        let d = qrd.decompose(&hf);
        // Fixed R vs float reference R.
        let (_, r_ref) = qr_givens_f64(h);
        worst_qr = worst_qr.max(d.r.to_f64().max_distance(&r_ref));
        // ||H^-1 H - I||.
        if let Ok(r_inv) = invert_upper_triangular(&d.r) {
            let h_inv = r_inv.mul_mat(&d.q_h);
            let err = h_inv.mul_mat(&hf).to_f64().max_distance(&Mat4::identity());
            worst_inv = worst_inv.max(err);
            inverted += 1;
        }
    }
    eprintln!("\n=== F5: Matrix-inversion pipeline accuracy (52 subcarriers) ===");
    eprintln!("max |R_fixed - R_f64| element error: {worst_qr:.5}");
    eprintln!("max ||H^-1 H - I|| element error:    {worst_inv:.5}");
    eprintln!("subcarriers inverted: {inverted}/52\n");
}

fn bench(c: &mut Criterion) {
    print_accuracy_report();

    let channels: Vec<FxMat4> = random_channels(52, 7).iter().map(Mat4::to_fixed).collect();
    let qrd = CordicQrd::new();

    let mut group = c.benchmark_group("fig5_inversion");
    group.throughput(Throughput::Elements(channels.len() as u64));
    group.bench_function("qrd_all_52_subcarriers", |b| {
        b.iter(|| {
            channels
                .iter()
                .map(|h| qrd.decompose(h))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("full_inversion_52_subcarriers", |b| {
        b.iter(|| {
            channels
                .iter()
                .filter_map(|h| {
                    let d = qrd.decompose(h);
                    invert_upper_triangular(&d.r).ok().map(|ri| ri.mul_mat(&d.q_h))
                })
                .count()
        })
    });
    let estimate = estimate_from_lts(11);
    eprintln!("invert_all lane build: {}", mimo_fixed::Isa::detected().name());
    assert_eq!(estimate.h_matrices().len(), 52);
    assert!(
        estimate.invert_all(&qrd).is_ok(),
        "synthetic channel must be invertible"
    );
    group.bench_function("invert_all_52_subcarriers", |b| {
        b.iter(|| estimate.invert_all(&qrd).map(|inverses| inverses.len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
