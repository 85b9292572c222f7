//! Latency and burst-efficiency model — the arithmetic behind the
//! paper's 440-cycle QRD latency. The 100 MHz clock and the 1 Gbps
//! line rate have one owner, the product's rate table:
//! `LinkGeometry::clock_hz` and `Mcs::data_rate_bps` in `mimo_core`.

/// CORDIC element pipeline latency in cycles.
pub const CORDIC_LATENCY: u32 = 20;

/// Pipeline latency of the R-inverse back-substitution block: the
/// longest dependency chain in the paper's equations is R⁻¹(0,3),
/// which needs three levels of multiply-accumulate (3 × 5-stage
/// pipelined complex multiplier) behind the reciprocal unit (20).
pub const RINV_LATENCY: u32 = 35;

/// Pipeline latency of the 4×4 matrix multiplier (R⁻¹·Qᵀ): four
/// multiply-accumulate stages of a 5-stage pipelined multiplier.
pub const QR_MULTIPLY_LATENCY: u32 = 20;

/// QRD systolic-array datapath latency in cycles for an `n × n`
/// matrix: the input skew of the last element (`n(n+1)/2` beats) plus
/// the boundary/internal CORDIC chain (`3n` stages), each a
/// [`CORDIC_LATENCY`]-cycle element. For n = 4 this is the paper's
/// "data-path latency of 440 clock cycles".
pub fn qrd_latency_cycles(n: usize) -> u32 {
    ((n * (n + 1) / 2 + 3 * n) as u32) * CORDIC_LATENCY
}

/// Cycles for the QRD scheduler to stream every subcarrier's channel
/// matrix through the array: subcarriers are processed in bursts of
/// [`CORDIC_LATENCY`] across 16 memories, with a 3-burst column skew.
pub fn qrd_ingest_cycles(n_subcarriers: usize) -> u64 {
    let burst = CORDIC_LATENCY as u64;
    let groups = (n_subcarriers as u64).div_ceil(burst);
    (groups * 16 + 3) * burst
}

/// Total channel-estimation latency in cycles: LTS reception
/// (2.5·N × 4 slots) + FFT of the averaged LTS + matrix pipeline over
/// all occupied subcarriers — "the entire channel estimation process
/// has a massive latency", which is why data FIFOs buffer the payload.
pub fn channel_estimation_latency_cycles(fft_size: usize) -> u64 {
    let n = fft_size as u64;
    let lts_rx = 4 * (5 * n / 2);
    let fft = n + 2 * (63 - n.leading_zeros() as u64) + 4;
    let occupied = 52 * n / 64;
    lts_rx
        + fft
        + qrd_ingest_cycles(occupied as usize)
        + u64::from(qrd_latency_cycles(4))
        + u64::from(RINV_LATENCY)
        + u64::from(QR_MULTIPLY_LATENCY)
}

/// Burst efficiency: fraction of on-air time carrying payload, for a
/// burst of `n_symbols` data symbols behind the `(1 + n_tx)`-slot
/// preamble.
pub fn burst_efficiency(n_tx: usize, fft_size: usize, n_symbols: usize) -> f64 {
    let preamble = (1 + n_tx) * (5 * fft_size / 2);
    let data = n_symbols * (fft_size + fft_size / 4);
    data as f64 / (preamble + data) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qrd_latency_is_440_for_4x4() {
        assert_eq!(qrd_latency_cycles(4), 440);
    }

    #[test]
    fn estimation_latency_grows_with_fft_size() {
        let small = channel_estimation_latency_cycles(64);
        let large = channel_estimation_latency_cycles(512);
        assert!(large > 4 * small, "64-pt {small}, 512-pt {large}");
        // "Massive latency": thousands of cycles even at 64-point.
        assert!(small > 1_000);
    }

    #[test]
    fn ingest_covers_subcarrier_groups() {
        // 52 occupied carriers -> 3 groups of 20 -> (3*16+3)*20 cycles.
        assert_eq!(qrd_ingest_cycles(52), 51 * 20);
    }

    #[test]
    fn burst_efficiency_approaches_one_for_long_bursts() {
        let short = burst_efficiency(4, 64, 2);
        let long = burst_efficiency(4, 64, 500);
        assert!(short < 0.2);
        assert!(long > 0.97);
    }
}
