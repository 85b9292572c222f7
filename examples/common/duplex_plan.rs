//! The shared, deterministic burst plan for the two-process duplex
//! soak (`duplex_tx` / `duplex_rx`). Both binaries derive the same
//! plan from the same arguments, so the receiver can verify payloads
//! without any side channel.

#![allow(
    dead_code,
    reason = "duplex_tx and duplex_rx each use a different subset of the plan"
)]

use mimo_baseband::phy::Mcs;

/// Samples per frame: the pacing quantum (two OFDM symbols' worth).
pub const CHUNK: usize = 160;
/// Credit window (samples in flight) both endpoints agree on.
pub const WINDOW: u64 = 4096;
/// Credit announcement granularity.
pub const QUANTUM: u64 = 1024;
/// Transmit packet-queue bound (bursts).
pub const QUEUE_CAP: usize = 4;

/// `bursts` mixed-rate packets covering the whole MCS grid, with
/// payload bytes derived purely from the index.
pub fn build_plan(bursts: usize) -> Vec<(Mcs, Vec<u8>)> {
    (0..bursts)
        .map(|i| {
            let mcs = Mcs::ALL[i % Mcs::ALL.len()];
            let len = 60 + (i * 67) % 500;
            let payload = (0..len).map(|b| (b * 29 + i) as u8).collect();
            (mcs, payload)
        })
        .collect()
}

/// FNV-1a over the decoded payload stream, in order: the
/// timing-independent fingerprint printed in the receiver ledger.
pub fn payload_hash<'a>(payloads: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in payloads {
        for &b in p {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate payloads so concatenation ambiguity cannot alias.
        h ^= 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Tiny flag-or-value argument scraper shared by both binaries.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}
