//! The 1 Gbps headline: line-rate arithmetic for every operating point
//! plus the payload share of real bursts.
//!
//! ```bash
//! cargo run --release --example throughput_report
//! ```

use mimo_baseband::phy::{Mcs, MimoTransmitter, PhyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PhyConfig::gigabit();
    let geom = cfg.geometry();
    println!(
        "== Line rate @ {:.0} MHz clock, {}x{} MIMO, {}-pt OFDM (Mbps) ==",
        geom.clock_hz() / 1e6,
        geom.n_streams(),
        geom.n_streams(),
        geom.fft_size()
    );
    for mcs in Mcs::ALL {
        println!(
            "[{}] {:<14}{:>7.0}",
            mcs.index(),
            mcs.to_string(),
            mcs.data_rate_bps(geom) / 1e6
        );
    }
    println!(
        "\nheadline ({}): {:.2} Gbps -> the paper's \"1Gbps wireless\"",
        Mcs::Qam64R34,
        Mcs::Qam64R34.data_rate_bps(geom) / 1e9
    );

    // Effective throughput including preamble and SIGNAL-field
    // overhead, from real bursts built by the transmitter.
    println!("\n== Effective burst throughput (preamble and header included) ==");
    println!(
        "{:<12}{:>10}{:>14}{:>16}{:>14}",
        "payload B", "symbols", "burst samples", "payload %", "eff. Mbps"
    );
    let tx = MimoTransmitter::new(cfg.clone())?;
    for payload_len in [100usize, 400, 1500, 8000] {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let burst = tx.transmit_burst(&payload)?;
        let duration = burst.duration_s(geom.clock_hz());
        let effective = 8.0 * payload_len as f64 / duration;
        println!(
            "{:<12}{:>10}{:>14}{:>15.1}%{:>14.0}",
            payload_len,
            burst.n_symbols,
            burst.len_samples(),
            100.0 * burst.payload_share(),
            effective / 1e6
        );
    }
    println!("\n(Preamble and header cost amortizes: long bursts approach the line rate.)");
    Ok(())
}
