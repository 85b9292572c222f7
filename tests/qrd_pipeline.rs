//! **Experiments F5–F7 — the QRD channel-inversion pipeline across
//! crates.**

use mimo_baseband::chanest::{
    channel_estimation_latency_cycles, invert_upper_triangular, qr_givens_f64,
    qrd_datapath_latency_cycles, CordicQrd, Mat4, QrdScheduler, SystolicQrdArray,
};
use mimo_baseband::cordic::CORDIC_LATENCY_CYCLES;
use mimo_baseband::fixed::Cf64;
use mimo_baseband::ofdm::SubcarrierMap;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_channel(seed: u64) -> Mat4 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Mat4::from_fn(|_, _| Cf64::new(rng.gen_range(-0.6..0.6), rng.gen_range(-0.6..0.6)))
}

#[test]
fn latency_claims_consistent_across_crates() {
    // F7: the clocked array measures the closed form over the cordic
    // crate's 20-cycle element, 440 cycles, on every channel, and
    // decodes bit for bit like the functional model.
    let model = qrd_datapath_latency_cycles(4, CORDIC_LATENCY_CYCLES);
    assert_eq!(model, 440);
    let functional = CordicQrd::new();
    let mut array = SystolicQrdArray::new();
    for seed in 0..8 {
        let h = random_channel(seed).to_fixed();
        let (clocked, cycles) = array.run(&h);
        assert_eq!(cycles, u64::from(model), "seed {seed}");
        assert_eq!(clocked, functional.decompose(&h), "seed {seed}");
    }
}

#[test]
fn scheduler_consistent_with_fpga_model() {
    // F6: the Fig 8 scheduler ingests 52 carriers in three groups of
    // 20-address bursts over 16 memories plus the 3-burst column skew,
    // and every read it schedules falls inside that count.
    let sched = QrdScheduler::new(52);
    assert_eq!(sched.total_ingest_cycles(), 1_020);
    for n_sc in [52usize, 104, 416] {
        let sched = QrdScheduler::new(n_sc);
        let last = (0..4)
            .flat_map(|column| sched.column_schedule(column))
            .map(|read| read.cycle)
            .max()
            .unwrap();
        assert!(last < sched.total_ingest_cycles(), "n_sc={n_sc}");
    }
}

#[test]
fn fixed_qrd_tracks_float_reference_over_ensemble() {
    // F5: over many random channels, fixed-point R matches the float
    // reference and the full inversion closes.
    let qrd = CordicQrd::new();
    let mut worst_r = 0.0f64;
    let mut worst_inv = 0.0f64;
    let mut singular = 0;
    let trials = 100;
    for seed in 0..trials {
        let h = random_channel(seed);
        let hf = h.to_fixed();
        let d = qrd.decompose(&hf);
        let (_, r_ref) = qr_givens_f64(&h);
        worst_r = worst_r.max(d.r.to_f64().max_distance(&r_ref));
        match invert_upper_triangular(&d.r) {
            Ok(r_inv) => {
                let h_inv = r_inv.mul_mat(&d.q_h);
                let err = h_inv.mul_mat(&hf).to_f64().max_distance(&Mat4::identity());
                worst_inv = worst_inv.max(err);
            }
            Err(_) => singular += 1,
        }
    }
    assert!(worst_r < 0.01, "worst fixed-vs-float R error {worst_r}");
    assert!(worst_inv < 0.25, "worst ||H⁻¹H−I|| {worst_inv}");
    assert!(singular <= 2, "{singular}/{trials} draws flagged singular");
}

#[test]
fn inversion_error_scales_with_conditioning() {
    // Well-conditioned channels invert tightly; near-singular ones
    // degrade — the expected ZF behaviour, not a model artifact.
    let qrd = CordicQrd::new();
    let well = Mat4::from_fn(|r, c| {
        if r == c {
            Cf64::new(1.0, 0.0)
        } else {
            Cf64::new(0.1 * (r + c) as f64 / 6.0, -0.05)
        }
    });
    let d = qrd.decompose(&well.to_fixed());
    let inv = invert_upper_triangular(&d.r).unwrap().mul_mat(&d.q_h);
    let err_well = inv
        .mul_mat(&well.to_fixed())
        .to_f64()
        .max_distance(&Mat4::identity());
    assert!(err_well < 0.01, "well-conditioned error {err_well}");

    // Rows nearly parallel: R diagonal collapses.
    let bad = Mat4::from_fn(|r, c| {
        Cf64::new(0.5 + 1e-4 * (r as f64), 0.1 * c as f64 + 1e-4 * r as f64)
    });
    let d = qrd.decompose(&bad.to_fixed());
    assert!(
        invert_upper_triangular(&d.r).is_err(),
        "near-singular channel must be flagged"
    );
}

#[test]
fn estimation_latency_budget_documented() {
    // The paper: "the entire channel estimation process has a massive
    // latency [so] OFDM data frames are buffered in FIFOs." Quantify:
    // at 64-pt the estimate takes 2,235 cycles, 27 OFDM symbols of
    // FIFO depth at 80 samples/symbol.
    let cycles: Vec<u64> = [64, 128, 256, 512]
        .iter()
        .map(|&n| channel_estimation_latency_cycles(&SubcarrierMap::new(n).unwrap()))
        .collect();
    assert_eq!(cycles, [2_235, 3_901, 6_911, 12_929]);
    assert_eq!(cycles[0] / 80, 27);
}
