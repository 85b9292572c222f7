//! Drives the streaming receive datapath the way hardware would see
//! it: a continuous per-antenna sample stream delivered in irregular
//! chunks (1 sample, a FIFO drain, a DMA page), with bursts at mixed
//! rates and idle gaps in between. No hand-rolled buffering — the
//! [`StreamingReceiver`] carries sync, channel-estimate and per-symbol
//! state across every chunk boundary itself.
//!
//! A second section ties the period-level ingest stage to the
//! cycle-accurate hardware models it abstracts (the clocked streaming
//! FFT and the Fig 3 cyclic-prefix buffer), asserting value-identity.
//!
//! ```bash
//! cargo run --release --example streaming_hardware
//! ```

use mimo_baseband::fft::StreamingFft;
use mimo_baseband::fixed::CQ15;
use mimo_baseband::ofdm::{add_cyclic_prefix, symbol_len, CpBuffer, SymbolIngest};
use mimo_baseband::phy::{LinkGeometry, Mcs, MimoTransmitter, PhyConfig, StreamingReceiver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Streaming sample-at-a-time receiver ==\n");

    // --- Build one continuous 4-antenna stream: three bursts at
    // different MCS, separated by idle air. ---
    let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
    let plan = [
        (Mcs::Qpsk12, 120usize, 0usize),
        (Mcs::Qam64R34, 400, 256),
        (Mcs::Bpsk12, 60, 777),
    ];
    let mut streams: Vec<Vec<CQ15>> = vec![Vec::new(); 4];
    let mut payloads = Vec::new();
    for (mcs, len, gap) in plan {
        let payload: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
        let burst = tx.transmit_burst_with(mcs, &payload)?;
        for (a, s) in streams.iter_mut().enumerate() {
            s.extend(std::iter::repeat_n(CQ15::ZERO, gap));
            s.extend_from_slice(&burst.streams[a]);
        }
        payloads.push(payload);
    }
    let total = streams[0].len();
    println!("on-air stream: {total} samples/antenna, 3 bursts (QPSK r=1/2, 64-QAM r=3/4, BPSK r=1/2)");

    // --- Chunked ingest: the chunk sizes cycle through hardware-ish
    // shapes — single samples, a 7-deep FIFO, one 64-word line, a
    // 4 KiB DMA page. ---
    let mut rx = StreamingReceiver::from_geometry(LinkGeometry::mimo())?;
    let chunk_cycle = [1usize, 7, 64, 4096];
    let mut at = 0;
    let mut pushes = 0usize;
    let mut recovered = Vec::new();
    while at < total {
        let chunk = chunk_cycle[pushes % chunk_cycle.len()];
        let end = (at + chunk).min(total);
        let views: Vec<&[CQ15]> = streams.iter().map(|s| &s[at..end]).collect();
        if let Some(burst) = rx.push_samples(&views)? {
            recovered.push(burst);
            while let Some(more) = rx.poll()? {
                recovered.push(more);
            }
        }
        pushes += 1;
        at = end;
    }
    println!("fed {pushes} chunks (sizes cycling {chunk_cycle:?})\n");

    for (i, burst) in recovered.iter().enumerate() {
        let d = &burst.result.diagnostics;
        println!(
            "burst {i}: {} · {} bytes · sync@{} · EVM {:.1} dB · {} payload symbols · ends@{}",
            d.mcs,
            burst.result.payload.len(),
            d.sync.lts_start,
            d.evm_db(),
            d.n_symbols,
            burst.burst_end
        );
        assert_eq!(
            burst.result.payload, payloads[i],
            "burst {i} payload must round-trip losslessly"
        );
    }
    assert_eq!(recovered.len(), payloads.len(), "every burst recovered");
    println!("\nall {} bursts recovered losslessly through chunked ingest\n", recovered.len());

    // --- The period-level ingest vs the clocked hardware models. ---
    println!("== Ingest stage vs cycle-accurate models ==\n");

    // SymbolIngest (CP strip + FFT, one on-air period at a time)
    // against the clocked sample-per-cycle StreamingFft fed the same
    // symbol bodies back to back: identical frames, different
    // bookkeeping.
    let n = 64;
    let symbols: Vec<Vec<CQ15>> = (0..3)
        .map(|s| {
            (0..n)
                .map(|i| {
                    let (f, g) = ((i * (s + 1)) as f64, (i + s) as f64);
                    CQ15::from_f64(0.3 * (f * 0.19).sin(), 0.1 * (g * 0.11).cos())
                })
                .collect()
        })
        .collect();
    let mut ingest = SymbolIngest::new(n)?;
    let mut fast = Vec::new();
    for symbol in &symbols {
        fast.extend_from_slice(ingest.ingest_period(&add_cyclic_prefix(symbol))?);
    }
    let bodies: Vec<CQ15> = symbols.concat();
    let mut clocked = StreamingFft::forward(n)?;
    let mut slow = Vec::new();
    for cycle in 0..(bodies.len() + clocked.latency_cycles() as usize + n) {
        if let Some(out) = clocked.clock(bodies.get(cycle).copied()) {
            slow.push(out);
        }
    }
    println!(
        "SymbolIngest vs clocked StreamingFft over {} periods: frames bit-identical = {} (model latency {} cycles)",
        symbols.len(),
        fast == slow,
        clocked.latency_cycles()
    );
    assert_eq!(fast, slow, "SymbolIngest must match the clocked StreamingFft");

    // The Fig 3 cyclic-prefix buffer's rfd back-pressure duty cycle.
    let mut cp = CpBuffer::new(n)?;
    let mut writes = 0u64;
    let cycles = 40 * symbol_len(n) as u64;
    for _ in 0..cycles {
        let input = cp.ready_for_data().then_some(CQ15::from_f64(0.1, 0.0));
        if input.is_some() {
            writes += 1;
        }
        cp.clock(input);
    }
    println!(
        "CP buffer: write duty {:.1}% over {cycles} cycles (theory: 80% = N/(N+N/4))",
        100.0 * writes as f64 / cycles as f64
    );
    Ok(())
}
