//! Ablations of the paper's design choices:
//!
//! 1. **CORDIC iteration depth** (the paper picks 20-cycle elements):
//!    QRD accuracy vs iteration count.
//! 2. **Block interleaver** (the paper spends 28k ALUTs on it): coded
//!    burst-error resilience with and without interleaving.
//! 3. **Soft vs hard demapping** (the paper supports both): BER at
//!    threshold SNR.
//! 4. **Exact vs small-angle timing correction** (the paper's
//!    add/subtract-tau shortcut): residual EVM vs offset.
//!
//! ```bash
//! cargo run --release --example ablations
//! ```

use mimo_baseband::chanest::{invert_upper_triangular, CordicQrd, Mat4};
use mimo_baseband::channel::AwgnChannel;
use mimo_baseband::coding::{
    hard_to_llr, puncture, CodeRate, CodeSpec, ConvolutionalEncoder, Llr, ViterbiDecoder,
    ViterbiWorkspace,
};
use mimo_baseband::cordic::Cordic;
use mimo_baseband::detect::TimingCorrector;
use mimo_baseband::fixed::{CQ15, Cf64};
use mimo_baseband::interleave::{BlockInterleaver, FusedDeinterleaver};
use mimo_baseband::phy::{LinkGeometry, LinkSimulation, PhyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    ablation_cordic_depth();
    ablation_interleaver();
    ablation_soft_vs_hard()?;
    ablation_timing_correction();
    Ok(())
}

/// QRD inversion accuracy as a function of CORDIC micro-rotations.
fn ablation_cordic_depth() {
    println!("== Ablation 1: CORDIC iteration depth vs QRD accuracy ==");
    println!(
        "{:<12}{:>16}{:>22}",
        "iterations", "latency (cyc)", "max ||H^-1 H - I||"
    );
    let channels: Vec<Mat4> = (0..40)
        .map(|seed| {
            let mut state = (seed as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f64 / (1u64 << 24) as f64) - 0.5
            };
            Mat4::from_fn(|_, _| Cf64::new(next(), next()))
        })
        .collect();
    for iters in [6u32, 10, 14, 18, 24] {
        let qrd = CordicQrd::with_cordic(Cordic::with_iterations(iters));
        let mut worst = 0.0f64;
        for h in &channels {
            let hf = h.to_fixed();
            let d = qrd.decompose(&hf);
            if let Ok(r_inv) = invert_upper_triangular(&d.r) {
                let err = r_inv
                    .mul_mat(&d.q_h)
                    .mul_mat(&hf)
                    .to_f64()
                    .max_distance(&Mat4::identity());
                worst = worst.max(err);
            }
        }
        println!("{:<12}{:>16}{:>22.5}", iters, iters + 2, worst);
    }
    println!("(The paper's 20-cycle element = 18 iterations: the knee of the curve.)\n");
}

/// Burst-error resilience with and without the block interleaver.
fn ablation_interleaver() {
    println!("== Ablation 2: block interleaver vs contiguous erasures ==");
    println!(
        "{:<18}{:>14}{:>18}{:>18}",
        "erase run (bits)", "trials", "errors w/ IL", "errors w/o IL"
    );
    let spec = CodeSpec::ieee80211a();
    let il = BlockInterleaver::new(192, 4).expect("valid geometry");
    // The receiver's fused de-interleave → depuncture scatter (at rate
    // 1/2 the depuncture is the identity).
    let fused = FusedDeinterleaver::new(&il, CodeRate::Half.keep_pattern()).expect("valid pattern");
    let dec = ViterbiDecoder::new(spec.clone());
    let mut ws = ViterbiWorkspace::new();
    let mut decoded = Vec::new();
    for run in [16usize, 32, 48, 64] {
        let mut with_il = 0usize;
        let mut without_il = 0usize;
        let trials = 30;
        for t in 0..trials {
            let info: Vec<u8> = (0..378).map(|i| ((i * 29 + t * 7) % 5 < 2) as u8).collect();
            let mut enc = ConvolutionalEncoder::new(spec.clone());
            let mother = enc.encode_terminated(&info);
            let coded = puncture(&mother, CodeRate::Half);
            // Map over symbols of 192 bits, interleaving each.
            let mut tx_il = vec![0u8; coded.len()];
            for (b, out) in coded.chunks(192).zip(tx_il.chunks_mut(192)) {
                il.interleave_into(b, out).expect("sized");
            }
            let start = (t * 53) % (tx_il.len() - run);
            let erase = |bits: &[u8]| -> Vec<Llr> {
                bits.iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        if (start..start + run).contains(&i) {
                            0 // deep notch: the soft demapper sees nothing
                        } else {
                            hard_to_llr(b)
                        }
                    })
                    .collect()
            };
            // With interleaver: de-interleave before decoding.
            let mut restored = vec![0 as Llr; mother.len()];
            let per_symbol = fused.mother_bits_per_symbol();
            for (b, out) in erase(&tx_il).chunks(192).zip(restored.chunks_mut(per_symbol)) {
                for (&llr, &pos) in b.iter().zip(fused.map()) {
                    out[pos as usize] = llr;
                }
            }
            dec.decode_terminated_into(&restored, &mut ws, &mut decoded).expect("decode");
            with_il += decoded.iter().zip(&info).filter(|(a, b)| a != b).count();
            // Without interleaver: same erasure run on the raw stream
            // (already in mother order at rate 1/2).
            let rx_raw = erase(&coded);
            dec.decode_terminated_into(&rx_raw, &mut ws, &mut decoded).expect("decode");
            without_il += decoded.iter().zip(&info).filter(|(a, b)| a != b).count();
        }
        println!("{:<18}{:>14}{:>18}{:>18}", run, trials, with_il, without_il);
    }
    println!("(Interleaving converts bursts into scattered errors the code corrects.)\n");
}

/// Soft vs hard demapping at threshold SNR.
fn ablation_soft_vs_hard() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 3: soft vs hard demapping (16-QAM r=1/2, AWGN) ==");
    println!("{:<10}{:>14}{:>14}", "SNR dB", "BER soft", "BER hard");
    for snr in [9.0f64, 10.0, 11.0, 12.0] {
        let mut bers = Vec::new();
        for soft in [true, false] {
            let cfg = PhyConfig::from_geometry(LinkGeometry::mimo().with_soft_decoding(soft));
            let mut link = LinkSimulation::new(cfg, 77)?;
            let mut chan = AwgnChannel::new(4, snr, 555);
            let point = link.run(&mut chan, 150, 10)?;
            bers.push(point.ber());
        }
        println!("{:<10.1}{:>14.2e}{:>14.2e}", snr, bers[0], bers[1]);
    }
    println!("(Soft decisions buy the classic ~2 dB.)\n");
    Ok(())
}

/// Exact CORDIC de-rotation vs the paper's small-angle tau correction.
fn ablation_timing_correction() {
    println!("== Ablation 4: exact vs small-angle tau correction ==");
    println!(
        "{:<22}{:>18}{:>18}",
        "residual tau (rad/sc)", "rms err exact", "rms err small-angle"
    );
    let exact = TimingCorrector::new();
    let approx = TimingCorrector::small_angle();
    let indices: Vec<i32> = (-26..=26).filter(|&l| l != 0).collect();
    for tau in [0.001f64, 0.005, 0.02, 0.05] {
        let rx: Vec<CQ15> = indices
            .iter()
            .map(|&l| Cf64::from_polar(0.3, tau * l as f64).to_fixed::<15>())
            .collect();
        let rms = |out: &[CQ15]| -> f64 {
            let e: f64 = out
                .iter()
                .map(|&c| (Cf64::from_fixed(c) - Cf64::new(0.3, 0.0)).norm_sqr())
                .sum();
            (e / out.len() as f64).sqrt()
        };
        let a = rms(&exact.correct(&rx, &indices, tau));
        let b = rms(&approx.correct(&rx, &indices, tau));
        println!("{:<22}{:>18.5}{:>18.5}", tau, a, b);
    }
    println!("(The paper's shortcut is exact enough only for small residuals —");
    println!(" which is the regime its feed-forward loop guarantees.)");
}
