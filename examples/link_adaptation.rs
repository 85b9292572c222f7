//! Closed-loop link adaptation demo: the EVM-driven rate controller
//! climbing the MCS ladder as channel SNR improves and backing off as
//! it degrades.
//!
//! The loop is the full paper datapath: the transmitter sends each
//! burst at the controller's current rate via `transmit_burst_with`,
//! the 4×4 receiver recovers the burst (learning the rate from the
//! SIGNAL-field header) and reports a `ChannelQuality` aggregated over
//! **all** spatial streams, and the controller picks the next rate
//! from the worst stream's EVM.
//!
//! Run with `cargo run --release --example link_adaptation`.

use mimo_baseband::channel::{ChannelModel, TimeVaryingAwgn};
use mimo_baseband::phy::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, RateController};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
    let mut controller = RateController::default();
    let mut rx = MimoReceiver::from_geometry(LinkGeometry::mimo())?;

    // SNR sweeps 10 → 30 → 10 dB over the run: every rate's operating
    // region passes by, burst by burst.
    let mut chan = TimeVaryingAwgn::up_down(4, 10.0, 30.0, 30, 7);
    let payload: Vec<u8> = (0..256).map(|i| (i * 41 + 3) as u8).collect();

    println!("burst |  snr  | tx rate          | outcome | worst-stream EVM");
    println!("------+-------+------------------+---------+-----------------");
    let mut peak = Mcs::most_robust();
    for burst_idx in 0..59 {
        let snr = chan.current_snr_db();
        let mcs = controller.current();
        if mcs.index() > peak.index() {
            peak = mcs;
        }
        let burst = tx.transmit_burst_with(mcs, &payload)?;
        let received = chan.propagate(&burst.streams);
        let outcome = rx.receive_burst(&received);
        let quality = match &outcome {
            Ok(r) if r.payload == payload => Some(r.diagnostics.quality.clone()),
            _ => None,
        };
        println!(
            "{burst_idx:>5} | {snr:>5.1} | {:<16} | {:<7} | {}",
            mcs.to_string(),
            if quality.is_some() { "ok" } else { "LOST" },
            quality
                .as_ref()
                .map_or("-".into(), |q| format!("{:.1} dB", q.worst_stream_evm_db())),
        );
        controller.update(quality.as_ref());
    }

    println!(
        "\npeak rate {peak} ({:.0} Mbps aggregate); final rate {}",
        peak.data_rate_bps(&LinkGeometry::mimo()) / 1e6,
        controller.current()
    );
    assert_eq!(peak, Mcs::Qam64R34, "the sweep reaches the headline rate");
    assert!(
        controller.current().index() <= Mcs::Qpsk12.index(),
        "and backs off on the way down"
    );
    Ok(())
}
