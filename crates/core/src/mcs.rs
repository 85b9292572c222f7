//! The modulation-and-coding-scheme (MCS) table: the per-burst rate
//! axis of the rate-agile PHY API.
//!
//! The paper synthesizes one operating point, but every deployed OFDM
//! PHY it models negotiates its rate *per burst* via a SIGNAL/PLCP
//! header. [`Mcs`] is the typed rate table that header indexes — the
//! eight 802.11a-style modulation × code-rate pairs from BPSK r=1/2 to
//! 64-QAM r=3/4 — and [`BurstParams`] is the per-burst parameter set
//! (rate + payload length) that the SIGNAL field carries over the air,
//! splitting the old monolithic configuration into static link
//! geometry ([`crate::LinkGeometry`]) and per-burst rate.

use mimo_coding::CodeRate;
use mimo_modem::Modulation;

use crate::config::LinkGeometry;
use crate::error::PhyError;

/// One modulation-and-coding scheme: a row of the rate table the
/// SIGNAL-field rate index selects.
///
/// # Examples
///
/// ```
/// use mimo_core::{LinkGeometry, Mcs};
///
/// let geom = LinkGeometry::mimo();
/// // 64-QAM r=3/4 on 4 streams is the paper's 1 Gbps headline.
/// assert!(Mcs::Qam64R34.data_rate_bps(&geom) > 1.0e9);
/// // BPSK r=1/2 is the most robust entry — the SIGNAL field's rate.
/// assert_eq!(Mcs::most_robust(), Mcs::Bpsk12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mcs {
    /// BPSK, rate 1/2 — the most robust entry; the SIGNAL field itself
    /// is always encoded at this rate.
    Bpsk12,
    /// BPSK, rate 3/4.
    Bpsk34,
    /// QPSK, rate 1/2.
    Qpsk12,
    /// QPSK, rate 3/4.
    Qpsk34,
    /// 16-QAM, rate 1/2 — the paper's synthesis operating point.
    #[default]
    Qam16R12,
    /// 16-QAM, rate 3/4.
    Qam16R34,
    /// 64-QAM, rate 2/3.
    Qam64R23,
    /// 64-QAM, rate 3/4 — the paper's 1 Gbps headline operating point.
    Qam64R34,
}

impl Mcs {
    /// All table entries, in rate-index order (increasing data rate).
    pub const ALL: [Mcs; 8] = [
        Mcs::Bpsk12,
        Mcs::Bpsk34,
        Mcs::Qpsk12,
        Mcs::Qpsk34,
        Mcs::Qam16R12,
        Mcs::Qam16R34,
        Mcs::Qam64R23,
        Mcs::Qam64R34,
    ];

    /// The entry the SIGNAL field itself is encoded at (BPSK r=1/2):
    /// a receiver can always decode the header before it knows the
    /// payload rate.
    pub const fn most_robust() -> Mcs {
        Mcs::Bpsk12
    }

    /// The 4-bit SIGNAL-field rate index of this entry (0–7; indices
    /// 8–15 are reserved and rejected as [`PhyError::UnsupportedMcs`]).
    pub fn index(self) -> u8 {
        // `ALL` lists the variants in declaration order, so the
        // discriminant *is* the table index (pinned by the
        // `from_index` round-trip test).
        self as u8
    }

    /// Looks up a SIGNAL-field rate index.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::UnsupportedMcs`] for indices outside the
    /// table.
    pub fn from_index(index: u8) -> Result<Mcs, PhyError> {
        Mcs::ALL
            .get(usize::from(index))
            .copied()
            .ok_or(PhyError::UnsupportedMcs {
                index,
                table_len: Mcs::ALL.len() as u8,
            })
    }

    /// The constellation of this entry.
    pub fn modulation(self) -> Modulation {
        match self {
            Mcs::Bpsk12 | Mcs::Bpsk34 => Modulation::Bpsk,
            Mcs::Qpsk12 | Mcs::Qpsk34 => Modulation::Qpsk,
            Mcs::Qam16R12 | Mcs::Qam16R34 => Modulation::Qam16,
            Mcs::Qam64R23 | Mcs::Qam64R34 => Modulation::Qam64,
        }
    }

    /// The channel code rate of this entry.
    pub fn code_rate(self) -> CodeRate {
        match self {
            Mcs::Bpsk12 | Mcs::Qpsk12 | Mcs::Qam16R12 => CodeRate::Half,
            Mcs::Qam64R23 => CodeRate::TwoThirds,
            Mcs::Bpsk34 | Mcs::Qpsk34 | Mcs::Qam16R34 | Mcs::Qam64R34 => CodeRate::ThreeQuarters,
        }
    }

    /// Coded bits per subcarrier (the mapper LUT address width).
    pub fn bits_per_symbol(self) -> usize {
        self.modulation().bits_per_symbol()
    }

    /// Coded bits per OFDM symbol per stream (N_CBPS) at a given link
    /// geometry.
    pub fn coded_bits_per_symbol(self, geometry: &LinkGeometry) -> usize {
        geometry.data_carriers() * self.bits_per_symbol()
    }

    /// Information bits per OFDM symbol per stream (N_DBPS) at a given
    /// link geometry. Exact for every table entry (the table only
    /// admits pairs whose N_DBPS is integral).
    pub fn info_bits_per_symbol(self, geometry: &LinkGeometry) -> usize {
        let r = self.code_rate();
        self.coded_bits_per_symbol(geometry) * r.numerator() / r.denominator()
    }

    /// Aggregate information rate of payload symbols at this entry:
    /// streams × N_DBPS / symbol duration.
    pub fn data_rate_bps(self, geometry: &LinkGeometry) -> f64 {
        (geometry.n_streams() * self.info_bits_per_symbol(geometry)) as f64
            / geometry.symbol_duration_s()
    }
}

impl std::fmt::Display for Mcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} r={}", self.modulation(), self.code_rate())
    }
}

/// Everything that varies per burst: the rate and the payload length.
/// This is exactly what the SIGNAL-field frame header carries over the
/// air, so a receiver built from [`LinkGeometry`] alone can recover it
/// with no out-of-band knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstParams {
    /// The modulation-and-coding scheme of the payload symbols.
    pub mcs: Mcs,
    /// Total payload bytes carried by the burst (summed across
    /// streams; bounded by the header's 16-bit length field).
    pub length: usize,
}

impl BurstParams {
    /// Payload bytes carried on stream `s` under the round-robin byte
    /// split (stream `s` takes bytes `s, s + n, s + 2n, …`).
    pub fn stream_bytes(&self, s: usize, n_streams: usize) -> usize {
        let base = self.length / n_streams;
        base + usize::from(s < self.length % n_streams)
    }

    /// Payload OFDM symbols per stream: every stream fills the same
    /// number of symbols, sized by the fullest stream (plus the
    /// trellis-flush bits), never less than one. Transmitter and
    /// receiver both derive the burst extent from this one formula.
    pub fn payload_symbols(&self, geometry: &LinkGeometry) -> usize {
        let ndbps = self.mcs.info_bits_per_symbol(geometry);
        (0..geometry.n_streams())
            .map(|s| {
                let bits = 8 * self.stream_bytes(s, geometry.n_streams())
                    + crate::signal::FLUSH_BITS;
                bits.div_ceil(ndbps)
            })
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_and_reserved_indices() {
        for (i, &mcs) in Mcs::ALL.iter().enumerate() {
            assert_eq!(mcs.index(), i as u8);
            assert_eq!(Mcs::from_index(i as u8).unwrap(), mcs);
        }
        for bad in 8..16u8 {
            assert!(matches!(
                Mcs::from_index(bad),
                Err(PhyError::UnsupportedMcs { index, table_len: 8 }) if index == bad
            ));
        }
    }

    #[test]
    fn data_rates_are_monotone_and_hit_the_headline() {
        let geom = LinkGeometry::mimo();
        let rates: Vec<f64> = Mcs::ALL.iter().map(|m| m.data_rate_bps(&geom)).collect();
        assert!(rates.windows(2).all(|w| w[0] < w[1]), "{rates:?}");
        // 4 × 216 bits / 800 ns = 1.08 Gbps.
        assert!((Mcs::Qam64R34.data_rate_bps(&geom) - 1.08e9).abs() < 1e3);
        // 4 × 24 bits / 800 ns = 120 Mbps.
        assert!((Mcs::Bpsk12.data_rate_bps(&geom) - 120.0e6).abs() < 1.0);
    }

    #[test]
    fn info_bits_are_integral_for_every_entry() {
        let geom = LinkGeometry::mimo();
        for mcs in Mcs::ALL {
            let ncbps = mcs.coded_bits_per_symbol(&geom);
            let ndbps = mcs.info_bits_per_symbol(&geom);
            let r = mcs.code_rate();
            assert_eq!(ndbps * r.denominator(), ncbps * r.numerator(), "{mcs}");
        }
    }

    #[test]
    fn round_robin_stream_split_sums_to_length() {
        let geom = LinkGeometry::mimo();
        for length in [0usize, 1, 3, 4, 5, 100, 257, 32760] {
            let p = BurstParams { mcs: Mcs::Qpsk34, length };
            let total: usize = (0..4).map(|s| p.stream_bytes(s, 4)).sum();
            assert_eq!(total, length);
            assert!(p.payload_symbols(&geom) >= 1);
        }
    }

    #[test]
    fn display_names_spell_out_the_rate() {
        assert_eq!(Mcs::Qam64R34.to_string(), "64-QAM r=3/4");
        assert_eq!(Mcs::Bpsk12.to_string(), "BPSK r=1/2");
    }
}
