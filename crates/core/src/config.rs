//! Transceiver configuration, split along the rate-agile seam:
//!
//! * [`LinkGeometry`] — the **static** parameter set fixed at
//!   synthesis/link-bringup time (FFT size, processing options).
//!   Transmitters and receivers are built from this alone.
//! * [`crate::BurstParams`] — the **per-burst** parameter set (MCS +
//!   payload length), carried over the air in the SIGNAL-field header.
//! * [`PhyConfig`] — a geometry plus a default [`Mcs`], the view
//!   single-rate callers and the paper's named operating points use;
//!   rate arithmetic lives on [`Mcs`] alone.

use crate::error::PhyError;
use crate::mcs::Mcs;
use crate::signal::{FLUSH_BITS, SIGNAL_BITS};

/// Cached `std::thread::available_parallelism()` (1 when unknown), the
/// crew width of the per-channel fan-out and of
/// [`BurstPipeline::new`](crate::BurstPipeline::new). On a 1-CPU host
/// it is 1, so every crew is the caller alone: helper threads there are
/// pure overhead. Read once per process.
pub(crate) fn host_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The paper's achieved baseband clock (= sample rate), Hz.
const CLOCK_HZ: f64 = 100.0e6;

/// Spatial streams (= transmit = receive antennas) of the paper's 4×4
/// link: the one shape every transmitter and receiver is built for.
pub(crate) const N_STREAMS: usize = 4;

/// The static link geometry: everything the paper's entities fix
/// "prior to logic synthesis" that does **not** change per burst — the
/// FFT size and the link-level processing options (soft decoding,
/// parallelism). The link is always the paper's four spatial streams
/// at its achieved 100 MHz baseband clock, and the data scrambler is
/// always on.
///
/// A receiver built from a `LinkGeometry` alone decodes bursts at
/// every [`Mcs`] in the table, learning each burst's rate from its
/// SIGNAL-field header.
///
/// # Examples
///
/// ```
/// use mimo_core::{LinkGeometry, Mcs, MimoReceiver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = LinkGeometry::mimo();
/// // No modulation, no code rate: the receiver is rate-agnostic.
/// let rx = MimoReceiver::from_geometry(geom)?;
/// assert_eq!(rx.geometry().n_streams(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkGeometry {
    fft_size: usize,
    soft_decoding: bool,
    /// `None` = auto: parallel exactly when the host has more than one
    /// CPU. `Some(x)` = explicit override.
    parallel: Option<bool>,
}

impl LinkGeometry {
    /// The paper's 4×4 MIMO geometry: 64-point OFDM at the 100 MHz
    /// achieved clock.
    pub fn mimo() -> Self {
        Self {
            fft_size: 64,
            soft_decoding: true,
            parallel: None,
        }
    }

    /// Sets the FFT size (64, 128, 256 or 512).
    pub fn with_fft_size(mut self, n: usize) -> Self {
        self.fft_size = n;
        self
    }

    /// Selects soft (true) or hard (false) demapping into the Viterbi
    /// decoder.
    pub fn with_soft_decoding(mut self, on: bool) -> Self {
        self.soft_decoding = on;
        self
    }

    /// Explicitly enables or disables the crew fan-out of the spatial
    /// channels, overriding the default auto mode (on exactly when the
    /// host has more than one CPU). On, the crew has one member per
    /// host CPU, the calling thread included; off, it is the caller
    /// alone.
    pub fn with_parallelism(mut self, on: bool) -> Self {
        self.parallel = Some(on);
        self
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), PhyError> {
        if !mimo_ofdm::SUPPORTED_FFT_SIZES.contains(&self.fft_size) {
            return Err(PhyError::BadConfig(format!(
                "unsupported FFT size {}",
                self.fft_size
            )));
        }
        Ok(())
    }

    /// Number of spatial streams: always the paper's four.
    pub fn n_streams(&self) -> usize {
        N_STREAMS
    }

    /// FFT size.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Baseband clock (= sample rate), Hz. The paper achieves 100 MHz.
    pub fn clock_hz(&self) -> f64 {
        CLOCK_HZ
    }

    /// Whether the data scrambler runs: always, since the payload is
    /// scrambled on every burst (the SIGNAL field never is). Kept for
    /// the perfbench replay, which re-implements the chain and asks.
    pub fn scramble(&self) -> bool {
        true
    }

    /// Whether soft demapping feeds the Viterbi decoder.
    pub fn soft_decoding(&self) -> bool {
        self.soft_decoding
    }

    /// Whether the per-channel hot paths fan out on a crew as wide as
    /// the host has CPUs (otherwise the caller runs them alone): the
    /// explicit [`LinkGeometry::with_parallelism`] override when set,
    /// otherwise auto (on exactly on hosts with more than one CPU).
    pub fn parallelism(&self) -> bool {
        self.parallel.unwrap_or_else(|| host_parallelism() > 1)
    }

    /// Data carriers per OFDM symbol (48 per 64-point unit).
    pub fn data_carriers(&self) -> usize {
        48 * self.fft_size / 64
    }

    /// Samples per OFDM symbol on air (N + N/4).
    pub fn symbol_samples(&self) -> usize {
        mimo_ofdm::symbol_len(self.fft_size)
    }

    /// OFDM symbol duration in seconds at the configured clock
    /// (one sample per cycle).
    pub fn symbol_duration_s(&self) -> f64 {
        self.symbol_samples() as f64 / CLOCK_HZ
    }

    /// Information bits per SIGNAL-field symbol: the header is always
    /// BPSK r=1/2, so N_DBPS is half the data-carrier count.
    pub(crate) fn header_info_bits_per_symbol(&self) -> usize {
        Mcs::most_robust().info_bits_per_symbol(self)
    }

    /// OFDM symbols the SIGNAL-field header occupies on stream 0 (2 at
    /// the paper's 64-point geometry, 1 from 128 points up). Every
    /// burst starts with exactly this many header symbols.
    pub fn header_symbols(&self) -> usize {
        (SIGNAL_BITS + FLUSH_BITS).div_ceil(self.header_info_bits_per_symbol())
    }
}

impl Default for LinkGeometry {
    fn default() -> Self {
        Self::mimo()
    }
}

/// Configuration of the baseband transceiver: a [`LinkGeometry`] plus
/// a *default* [`Mcs`].
///
/// The paper's entities are parameterized "prior to logic synthesis";
/// this struct is that parameter set. The MCS is only the **default**
/// that [`crate::MimoTransmitter::transmit_burst`] uses — receivers
/// ignore it entirely and learn each burst's rate from the SIGNAL-field
/// header.
///
/// # Examples
///
/// ```
/// use mimo_core::PhyConfig;
///
/// let cfg = PhyConfig::gigabit();
/// // 4 streams × 48 carriers × 6 bits × 3/4 over an 80-sample symbol
/// // at 100 MHz = 1.08 Gbps: the paper's headline.
/// assert!(cfg.mcs().data_rate_bps(cfg.geometry()) > 1.0e9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhyConfig {
    geometry: LinkGeometry,
    mcs: Mcs,
}

impl PhyConfig {
    /// The configuration of the paper's synthesis tables (Tables 1–4):
    /// 4×4 MIMO, 16-QAM, rate 1/2, 64-point OFDM.
    pub fn paper_synthesis() -> Self {
        Self {
            geometry: LinkGeometry::mimo(),
            mcs: Mcs::Qam16R12,
        }
    }

    /// The 1 Gbps headline operating point: 4×4 MIMO, 64-QAM, rate 3/4,
    /// 64-point OFDM at the 100 MHz achieved clock.
    pub fn gigabit() -> Self {
        Self {
            mcs: Mcs::Qam64R34,
            ..Self::paper_synthesis()
        }
    }

    /// Builds a configuration from a geometry; the default MCS is the
    /// paper's synthesis point (16-QAM r=1/2).
    /// Use [`PhyConfig::with_mcs`] to pick a different default.
    pub fn from_geometry(geometry: LinkGeometry) -> Self {
        Self {
            geometry,
            ..Self::paper_synthesis()
        }
    }

    /// The static link geometry.
    pub fn geometry(&self) -> &LinkGeometry {
        &self.geometry
    }

    /// Sets the default MCS.
    pub fn with_mcs(mut self, mcs: Mcs) -> Self {
        self.mcs = mcs;
        self
    }

    /// Explicitly enables or disables the crew fan-out of the four
    /// spatial channels in `transmit_burst` / `receive_burst`,
    /// overriding the default auto mode (on exactly when the host has
    /// more than one CPU). On, the channels are split across one crew
    /// member per host CPU, the calling thread included; off, the
    /// caller runs them alone. Both modes produce bit-identical
    /// results, mirroring the four independent hardware channel
    /// pipelines of the paper.
    pub fn with_parallelism(mut self, on: bool) -> Self {
        self.geometry = self.geometry.with_parallelism(on);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), PhyError> {
        self.geometry.validate()
    }

    /// The default MCS.
    pub fn mcs(&self) -> Mcs {
        self.mcs
    }

    /// Whether the per-channel hot paths fan out on a crew as wide as
    /// the host has CPUs (otherwise the caller runs them alone): the
    /// explicit [`PhyConfig::with_parallelism`] override when set,
    /// otherwise auto (on exactly on hosts with more than one CPU).
    pub fn parallelism(&self) -> bool {
        self.geometry.parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_synthesis_point() {
        let cfg = PhyConfig::paper_synthesis();
        cfg.validate().unwrap();
        assert_eq!(cfg.geometry().n_streams(), 4);
        assert_eq!(cfg.geometry().data_carriers(), 48);
        let (mcs, geom) = (cfg.mcs(), cfg.geometry());
        assert_eq!(mcs, Mcs::Qam16R12);
        assert_eq!(mcs.coded_bits_per_symbol(geom), 192);
        assert_eq!(mcs.info_bits_per_symbol(geom), 96);
        // 4 × 96 bits / 800 ns = 480 Mbps.
        assert!((mcs.data_rate_bps(geom) - 480.0e6).abs() < 1.0);
        assert_eq!(PhyConfig::default(), cfg);
        assert_eq!(PhyConfig::gigabit().mcs(), Mcs::Qam64R34);
    }

    #[test]
    fn gigabit_point_exceeds_1gbps() {
        let cfg = PhyConfig::gigabit();
        // 4 × 216 / 800 ns = 1.08 Gbps.
        assert!((cfg.mcs().data_rate_bps(cfg.geometry()) - 1.08e9).abs() < 1e3);
        assert_eq!(cfg.geometry().clock_hz(), 100.0e6);
    }

    #[test]
    fn info_bits_are_integral_for_all_rate_modulation_pairs() {
        use mimo_coding::CodeRate;
        use mimo_modem::Modulation;
        // The 48 data carriers keep N_DBPS = N_CBPS · rate exact for
        // every pair, table row or not.
        let carriers = PhyConfig::paper_synthesis().geometry().data_carriers();
        for m in Modulation::ALL {
            for r in CodeRate::ALL {
                let ncbps = carriers * m.bits_per_symbol();
                assert_eq!(ncbps * r.numerator() % r.denominator(), 0, "{m} {r}");
            }
        }
        for mcs in Mcs::ALL {
            assert_eq!(PhyConfig::paper_synthesis().with_mcs(mcs).mcs(), mcs);
        }
    }

    #[test]
    fn throughput_independent_of_fft_size() {
        // Carriers and symbol duration scale together.
        let rate =
            |n| Mcs::Qam64R34.data_rate_bps(&LinkGeometry::mimo().with_fft_size(n));
        assert!((rate(64) - rate(512)).abs() < 1.0);
    }

    #[test]
    fn header_occupies_two_symbols_at_64_points_one_beyond() {
        assert_eq!(LinkGeometry::mimo().header_symbols(), 2);
        assert_eq!(LinkGeometry::mimo().with_fft_size(128).header_symbols(), 1);
        assert_eq!(LinkGeometry::mimo().with_fft_size(512).header_symbols(), 1);
    }

    #[test]
    fn auto_parallelism_tracks_host_cpus() {
        let auto = PhyConfig::paper_synthesis();
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(auto.parallelism(), threads > 1);
        // Explicit overrides win regardless of host shape.
        assert!(PhyConfig::paper_synthesis().with_parallelism(true).parallelism());
        assert!(!PhyConfig::paper_synthesis().with_parallelism(false).parallelism());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad = PhyConfig::from_geometry(LinkGeometry::mimo().with_fft_size(96));
        assert!(bad.validate().is_err());
    }
}
