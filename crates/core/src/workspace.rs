//! Preallocated scratch workspaces for the TX/RX hot paths.
//!
//! The paper's 1 Gbps figure rests on four baseband channels running in
//! true hardware parallelism with fixed, synthesis-time-sized memories.
//! The software model mirrors that: every per-symbol buffer the chains
//! touch lives in a workspace sized from [`LinkGeometry`], so the
//! steady-state payload loops of `transmit_burst` / `receive_burst`
//! perform **zero heap allocation**, and each spatial channel owns a
//! private stream workspace, so the crew members that run the four
//! channels share no mutable state.
//!
//! Rate agility does not change this: the per-symbol bit buffers are
//! sized for the **max-MCS envelope** (64-QAM's N_CBPS, the widest the
//! SIGNAL field can select), and each burst's pipeline slices them to
//! its own rate — reconfiguring the datapath per burst without ever
//! growing a buffer. Buffers whose size depends on the burst length
//! (accumulated LLRs, gathered frequency-domain carriers) grow once
//! per burst via `resize`/`reserve` and keep their capacity across
//! bursts.

use mimo_coding::{Llr, ViterbiWorkspace};
use mimo_fixed::CQ15;
use mimo_ofdm::SymbolIngest;

use crate::config::LinkGeometry;

/// Per-stream transmit scratch: one per spatial channel.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxStreamWorkspace {
    /// Info bits: payload + pad (capacity grows per burst).
    pub info: Vec<u8>,
    /// Mother-coded bits before puncturing.
    pub mother: Vec<u8>,
    /// Punctured coded bits for the whole stream burst.
    pub coded: Vec<u8>,
    /// One symbol's interleaved coded bits, sized for the max-MCS
    /// envelope; each burst uses the prefix `[..N_CBPS(mcs)]`.
    pub interleaved: Vec<u8>,
    /// One symbol's mapped data carriers.
    pub symbols: Vec<CQ15>,
    /// Frequency-domain frame scratch for the IFFT (N bins).
    pub freq: Vec<CQ15>,
}

/// Transmit workspace: one stream workspace per spatial channel, plus
/// a dedicated scratch for the SIGNAL-field header symbols (stream 0
/// only, always BPSK r=1/2).
#[derive(Debug, Clone, Default)]
pub(crate) struct TxWorkspace {
    pub streams: Vec<TxStreamWorkspace>,
    pub header: TxStreamWorkspace,
}

impl TxWorkspace {
    /// Builds a workspace with the per-symbol buffers sized from the
    /// link geometry at the max-MCS envelope.
    pub fn new(geometry: &LinkGeometry, max_ncbps: usize) -> Self {
        let make = || TxStreamWorkspace {
            info: Vec::new(),
            mother: Vec::new(),
            coded: Vec::new(),
            interleaved: vec![0; max_ncbps],
            symbols: vec![CQ15::ZERO; geometry.data_carriers()],
            freq: vec![CQ15::ZERO; geometry.fft_size()],
        };
        Self {
            streams: (0..geometry.n_streams()).map(|_| make()).collect(),
            header: make(),
        }
    }
}

/// Per-antenna receive scratch (stage 1: symbol ingest + carrier
/// gather). The [`SymbolIngest`] is this antenna's streaming state —
/// CP-strip position, collect buffer and FFT frame — so both the
/// whole-burst and the chunk-driven receivers carry it here and the
/// steady state allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct RxAntennaWorkspace {
    /// CP strip + FFT stage (owns the frame scratch).
    pub ingest: SymbolIngest,
    /// Gathered occupied carriers, flat `symbol-major`:
    /// `freq_occ[m * n_occ + s]`. The batch receiver fills every
    /// demodulated symbol (grows once per burst); the streaming
    /// receiver keeps a single rolling row.
    pub freq_occ: Vec<CQ15>,
}

/// Per-stream receive scratch (stage 2: detect → corrections → demap →
/// deinterleave → Viterbi).
#[derive(Debug, Clone, Default)]
pub(crate) struct RxStreamWorkspace {
    /// One symbol's equalized occupied carriers.
    pub eq: Vec<CQ15>,
    /// Pilot values gathered from the equalized symbol.
    pub pilots: Vec<CQ15>,
    /// Expected pilot signs for the current symbol.
    pub signs: Vec<i8>,
    /// One symbol's data carriers.
    pub data: Vec<CQ15>,
    /// Hard-decision bit scratch (envelope; hard-demap mode and EVM).
    pub hard_bits: Vec<u8>,
    /// Re-mapped nearest constellation points for the EVM measurement.
    pub evm_points: Vec<CQ15>,
    /// The whole burst's mother-code LLR stream, filled symbol by
    /// symbol through the fused demap→deinterleave→depuncture scatter.
    /// Pre-zeroed at pass start, so puncture erasures are simply the
    /// positions no scatter ever writes.
    pub stream_llrs: Vec<Llr>,
    /// Next write offset into [`RxStreamWorkspace::stream_llrs`]
    /// (advances one `mother_bits_per_symbol` region per symbol).
    pub pass_fill: usize,
    /// Viterbi path metrics and survivor memory.
    pub viterbi: ViterbiWorkspace,
    /// Decoded (descrambled) info bits.
    pub decoded: Vec<u8>,
    /// Recovered payload bytes of this stream.
    pub bytes: Vec<u8>,
    /// Per-stream diagnostics accumulators (EVM numerator/denominator
    /// and common-phase sum), written by the owning worker only and
    /// aggregated across all stream workspaces by `finish_result`.
    pub evm_num: f64,
    /// See [`RxStreamWorkspace::evm_num`].
    pub evm_den: f64,
    /// See [`RxStreamWorkspace::evm_num`].
    pub phase_acc: f64,
}

/// Receive workspace: antenna-side and stream-side scratch, split so
/// the two parallel stages can borrow them independently, plus a
/// dedicated stream-shaped scratch for decoding the SIGNAL-field
/// header (stream 0, before the payload fan-out).
#[derive(Debug, Clone)]
pub(crate) struct RxWorkspace {
    pub antennas: Vec<RxAntennaWorkspace>,
    pub streams: Vec<RxStreamWorkspace>,
    pub header: RxStreamWorkspace,
}

impl RxWorkspace {
    /// Builds a workspace with the per-symbol buffers sized from the
    /// link geometry, carrier geometry and max-MCS envelope.
    pub fn new(
        geometry: &LinkGeometry,
        max_ncbps: usize,
        n_occ: usize,
        n_pilots: usize,
    ) -> Self {
        let n = geometry.n_streams();
        let make_stream = || RxStreamWorkspace {
            eq: vec![CQ15::ZERO; n_occ],
            pilots: vec![CQ15::ZERO; n_pilots],
            signs: vec![0; n_pilots],
            data: vec![CQ15::ZERO; geometry.data_carriers()],
            hard_bits: vec![0; max_ncbps],
            evm_points: vec![CQ15::ZERO; geometry.data_carriers()],
            stream_llrs: Vec::new(),
            pass_fill: 0,
            viterbi: ViterbiWorkspace::new(),
            decoded: Vec::new(),
            bytes: Vec::new(),
            evm_num: 0.0,
            evm_den: 0.0,
            phase_acc: 0.0,
        };
        Self {
            antennas: (0..n)
                .map(|_| RxAntennaWorkspace {
                    ingest: SymbolIngest::new(geometry.fft_size())
                        // phylint: allow(panic_path) -- the geometry's FFT size was validated before any workspace is built, so `SymbolIngest::new` cannot reject it
                        .expect("geometry validated before workspace construction"),
                    freq_occ: Vec::new(),
                })
                .collect(),
            streams: (0..n).map(|_| make_stream()).collect(),
            header: make_stream(),
        }
    }
}
