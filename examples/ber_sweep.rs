//! BER vs SNR sweep over AWGN and 4×4 Rayleigh fading — the
//! functional-validation experiment (E1 in DESIGN.md) standing in for
//! the authors' lab bring-up.
//!
//! ```bash
//! cargo run --release --example ber_sweep            # quick sweep
//! cargo run --release --example ber_sweep -- --full  # denser/longer
//! ```

use mimo_baseband::channel::{AwgnChannel, ChannelChain, FlatRayleighMimo};
use mimo_baseband::modem::Modulation;
use mimo_baseband::phy::{LinkSimulation, Mcs, PhyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let bursts: u64 = if full { 30 } else { 8 };
    let payload = 150usize;

    println!("== BER vs SNR, 4x4 MIMO over AWGN (per-antenna SNR) ==");
    println!(
        "{:<22}{:>8}{:>12}{:>12}{:>8}",
        "mod/rate", "SNR dB", "bits", "errors", "BER"
    );
    let cases = [Mcs::Qpsk12, Mcs::Qam16R12, Mcs::Qam16R34, Mcs::Qam64R34];
    for mcs in cases {
        let cfg = PhyConfig::paper_synthesis().with_mcs(mcs);
        let snrs: &[f64] = match mcs.modulation() {
            Modulation::Qam64 => &[14.0, 18.0, 22.0, 26.0],
            Modulation::Qam16 => &[8.0, 12.0, 16.0, 20.0],
            _ => &[2.0, 5.0, 8.0, 12.0],
        };
        for &snr in snrs {
            let mut link = LinkSimulation::new(cfg.clone(), 7)?;
            let mut chan = AwgnChannel::new(4, snr, snr.to_bits());
            let point = link.run(&mut chan, payload, bursts)?;
            println!(
                "{:<22}{:>8.1}{:>12}{:>12}{:>12.2e}",
                format!("{mcs}"),
                snr,
                point.bits,
                point.bit_errors,
                point.ber()
            );
        }
    }

    println!("\n== 4x4 flat Rayleigh fading + AWGN (16-QAM r=1/2) ==");
    println!(
        "{:<10}{:>8}{:>12}{:>12}{:>10}",
        "SNR dB", "bursts", "bits", "errors", "PER"
    );
    let cfg = PhyConfig::paper_synthesis();
    for snr in [15.0f64, 20.0, 25.0, 30.0] {
        let mut bits = 0u64;
        let mut errors = 0u64;
        let mut bursts_run = 0u64;
        let mut burst_errors = 0u64;
        // Fresh channel draw per burst: block fading.
        for trial in 0..bursts {
            let mut link = LinkSimulation::new(cfg.clone(), 100 + trial)?;
            let mut chan = ChannelChain::new(vec![
                Box::new(FlatRayleighMimo::new(4, 4, 500 + trial)),
                Box::new(AwgnChannel::new(4, snr, 900 + trial)),
            ]);
            let point = link.run(&mut chan, payload, 1)?;
            bits += point.bits;
            errors += point.bit_errors;
            bursts_run += point.bursts;
            burst_errors += point.burst_errors;
        }
        println!(
            "{:<10.1}{:>8}{:>12}{:>12}{:>10.2}",
            snr,
            bursts_run,
            bits,
            errors,
            burst_errors as f64 / bursts_run as f64
        );
    }
    println!("\n(Bursts that fail sync/estimation count as all-bits-wrong.)");
    Ok(())
}
