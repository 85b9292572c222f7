//! The 1 Gbps headline: line-rate arithmetic for every operating point
//! plus measured burst efficiency.
//!
//! ```bash
//! cargo run --release --example throughput_report
//! ```

use mimo_baseband::coding::CodeRate;
use mimo_baseband::fpga::timing::{burst_efficiency, data_rate_bps, CLOCK_HZ};
use mimo_baseband::modem::Modulation;
use mimo_baseband::phy::{MimoTransmitter, PhyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== Line rate @ {:.0} MHz clock, 4x4 MIMO, 64-pt OFDM (Mbps) ==",
        CLOCK_HZ / 1e6
    );
    println!("{:<10}{:>10}{:>10}{:>10}", "", "r=1/2", "r=2/3", "r=3/4");
    for m in Modulation::ALL {
        let cells: Vec<String> = CodeRate::ALL
            .iter()
            .map(|r| {
                format!(
                    "{:>9.0}",
                    data_rate_bps(4, 64, m.bits_per_symbol(), r.numerator(), r.denominator())
                        / 1e6
                )
            })
            .collect();
        println!("{:<10}{}", m.to_string(), cells.join(" "));
    }
    let headline = data_rate_bps(4, 64, 6, 3, 4);
    println!(
        "\nheadline (64-QAM, r=3/4): {:.2} Gbps -> the paper's \"1Gbps wireless\"",
        headline / 1e9
    );
    println!(
        "SISO baseline at the same point: {:.0} Mbps (4x spatial multiplexing gain)",
        data_rate_bps(1, 64, 6, 3, 4) / 1e6
    );

    // Effective throughput including preamble overhead, from real
    // bursts built by the transmitter.
    println!("\n== Effective burst throughput (preamble included) ==");
    println!(
        "{:<12}{:>10}{:>14}{:>16}{:>14}",
        "payload B", "symbols", "burst samples", "efficiency %", "eff. Mbps"
    );
    let cfg = PhyConfig::gigabit();
    let tx = MimoTransmitter::new(cfg.clone())?;
    for payload_len in [100usize, 400, 1500, 8000] {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let burst = tx.transmit_burst(&payload)?;
        let eff = burst_efficiency(4, cfg.geometry().fft_size(), burst.n_symbols);
        let duration = burst.duration_s(cfg.geometry().clock_hz());
        let effective = 8.0 * payload_len as f64 / duration;
        println!(
            "{:<12}{:>10}{:>14}{:>15.1}%{:>14.0}",
            payload_len,
            burst.n_symbols,
            burst.len_samples(),
            100.0 * eff,
            effective / 1e6
        );
    }
    println!("\n(Preamble cost amortizes: long bursts approach the line rate.)");
    Ok(())
}
