//! The channel-estimation latency budget (§IV.B): "the entire channel
//! estimation process has a massive latency", which is why the
//! receiver buffers the payload symbols in FIFOs while it runs.
//!
//! The total is composed from each block's own cycles: the preamble
//! schedule's LTS fields, the streaming FFT, the QRD scheduler's
//! ingest, the QRD datapath model (measured by
//! [`SystolicQrdArray`](crate::SystolicQrdArray)), the R⁻¹ block and
//! the R⁻¹·Qᴴ multiplier.

use mimo_cordic::CORDIC_LATENCY_CYCLES;
use mimo_fft::streaming_latency_cycles;
use mimo_ofdm::preamble::{FieldKind, PreambleSchedule};
use mimo_ofdm::SubcarrierMap;

use crate::product::PRODUCT_LATENCY_CYCLES;
use crate::rinv::RINV_LATENCY_CYCLES;
use crate::systolic::QrdScheduler;
use crate::{qrd_datapath_latency_cycles, N_ANTENNAS};

/// Channel-estimation latency in clock cycles for the carrier
/// allocation `map`: the reception of the four LTS fields, the FFT of
/// the averaged LTS, the scheduler's ingest of every occupied
/// carrier's matrix, then the QRD datapath, R⁻¹ and the R⁻¹·Qᴴ
/// multiply.
///
/// # Examples
///
/// ```
/// use mimo_chanest::channel_estimation_latency_cycles;
/// use mimo_ofdm::SubcarrierMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 640 LTS + 80 FFT + 1,020 ingest + 440 QRD + 35 R⁻¹ + 20 multiply.
/// assert_eq!(channel_estimation_latency_cycles(&SubcarrierMap::new(64)?), 2_235);
/// # Ok(())
/// # }
/// ```
pub fn channel_estimation_latency_cycles(map: &SubcarrierMap) -> u64 {
    let fft_size = map.fft_size();
    let lts: usize = PreambleSchedule::new(N_ANTENNAS, fft_size)
        .slots()
        .iter()
        .filter(|slot| slot.kind == FieldKind::Lts)
        .map(|slot| slot.len)
        .sum();
    let occupied = map.data_count() + map.pilot_indices().len();
    lts as u64
        + u64::from(streaming_latency_cycles(fft_size))
        + QrdScheduler::new(occupied).total_ingest_cycles()
        + u64::from(qrd_datapath_latency_cycles(N_ANTENNAS, CORDIC_LATENCY_CYCLES))
        + u64::from(RINV_LATENCY_CYCLES)
        + u64::from(PRODUCT_LATENCY_CYCLES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat4;
    use crate::SystolicQrdArray;

    #[test]
    fn qrd_latency_is_440_for_4x4() {
        let model = qrd_datapath_latency_cycles(N_ANTENNAS, CORDIC_LATENCY_CYCLES);
        assert_eq!(model, 440);
        let (_, measured) = SystolicQrdArray::new().run(&Mat4::identity().to_fixed());
        assert_eq!(measured, u64::from(model));
    }

    #[test]
    fn estimation_latency_grows_with_fft_size() {
        let cycles: Vec<u64> = [64, 128, 256, 512]
            .iter()
            .map(|&n| channel_estimation_latency_cycles(&SubcarrierMap::new(n).unwrap()))
            .collect();
        assert_eq!(cycles, [2_235, 3_901, 6_911, 12_929]);
    }

    #[test]
    fn ingest_covers_subcarrier_groups() {
        // 52 occupied carriers -> 3 groups of 20 -> (3·16 + 3)·20 cycles;
        // 416 (512-point) -> 21 groups.
        assert_eq!(QrdScheduler::new(52).total_ingest_cycles(), 51 * 20);
        assert_eq!(QrdScheduler::new(416).total_ingest_cycles(), (21 * 16 + 3) * 20);
    }
}
