//! Visualizes the Fig 2 MIMO preamble schedule and exercises the time
//! synchroniser against timing offset and noise.
//!
//! ```bash
//! cargo run --release --example preamble_timing
//! ```

use mimo_baseband::channel::{AwgnChannel, ChannelModel, TimingOffset};
use mimo_baseband::ofdm::preamble::{FieldKind, PreambleSchedule};
use mimo_baseband::phy::{MimoReceiver, MimoTransmitter, PhyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PhyConfig::paper_synthesis();

    // --- The Fig 2 pattern. ---
    let sched = PreambleSchedule::new(4, cfg.geometry().fft_size());
    println!("== MIMO preamble pattern (Fig 2) ==");
    println!("{:<6}time ->", "");
    for tx in 0..4 {
        let mut lane = format!("TX {tx}  ");
        for slot in sched.slots() {
            let cell = if slot.tx == tx {
                match slot.kind {
                    FieldKind::Sts => "[ STS ]",
                    FieldKind::Lts => "[ LTS ]",
                }
            } else {
                "       "
            };
            lane.push_str(cell);
        }
        lane.push_str("[ DATA ...");
        println!("{lane}");
    }
    println!(
        "preamble: {} samples ({:.1} us @ 100 MHz); data starts at sample {}\n",
        sched.data_offset(),
        sched.data_offset() as f64 / 100.0,
        sched.data_offset()
    );

    // --- Synchronisation under offset + noise. ---
    let tx = MimoTransmitter::new(cfg.clone())?;
    let mut rx = MimoReceiver::new(cfg)?;
    let payload: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
    let burst = tx.transmit_burst(&payload)?;

    println!("== Burst recovery under timing offset + AWGN ==");
    println!("{:<14}{:<10}{:>14}{:>12}", "offset (smp)", "SNR dB", "sync found at", "payload ok");
    for (delay, snr) in [(0usize, 30.0f64), (37, 30.0), (150, 20.0), (503, 15.0)] {
        let mut offset = TimingOffset::new(4, delay);
        let shifted = offset.propagate(&burst.streams);
        let mut noise = AwgnChannel::new(4, snr, delay as u64 + 1);
        let received = noise.propagate(&shifted);
        match rx.receive_burst(&received) {
            Ok(result) => {
                let expected_lts = delay + 160; // STS field is 160 samples
                println!(
                    "{:<14}{:<10}{:>10} ({})",
                    delay,
                    snr,
                    result.diagnostics.sync.lts_start,
                    if result.diagnostics.sync.lts_start == expected_lts {
                        "exact"
                    } else {
                        "off"
                    },
                );
                assert_eq!(result.payload, payload, "payload mismatch at delay {delay}");
            }
            Err(e) => println!("{delay:<14}{snr:<10}failed: {e}"),
        }
    }
    println!("\nAll recovered bursts matched the transmitted payload bit-for-bit.");
    Ok(())
}
