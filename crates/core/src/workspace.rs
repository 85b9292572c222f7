//! Scratch workspaces for the TX/RX hot paths.
//!
//! The paper's 1 Gbps figure rests on four baseband channels running in
//! true hardware parallelism, each with its own fixed memories. The
//! software model mirrors that: every per-symbol buffer the chains
//! touch lives in a workspace sized from [`LinkGeometry`], each spatial
//! channel owns a private stream workspace, and the workspace belongs
//! to whoever runs the channel. The crew members that run the four
//! channels therefore share no mutable state, and no endpoint holds a
//! lock.
//!
//! * **Receive.** Each receive driver owns its `RxWorkspace`s next to
//!   one shared set of immutable receiver tables, and keeps them across
//!   bursts. One lane chain runs through them: the gathered carriers,
//!   the equalized symbol and its data carriers are 16-bit bus words
//!   on `i32` lane groups ([`BusLanes`]), which the ZF, pilot and
//!   demap kernels read and write as they stand, and the burst's
//!   `H⁻¹` is held once as the ZF's lane table. The per-symbol carrier
//!   buffers are sized from the geometry; the demap pass writes
//!   straight into the burst's LLR stream, so no per-symbol bit buffer
//!   exists and the steady-state payload loops of `receive_burst`
//!   perform **zero heap allocation** at any MCS. Buffers whose size
//!   depends on the burst (accumulated LLRs, gathered carriers, the
//!   inverses and their table, decoded bits and bytes) grow on the
//!   first burst of a shape via `resize` and keep their capacity, so
//!   a warm width-1 burst allocates only its result (the payload and
//!   the per-stream EVM list).
//! * **Transmit.** `transmit_burst_with` takes `&self` and needs no
//!   workspace type: each spatial channel (and the SIGNAL header)
//!   builds its packed info words, its two packed generator streams,
//!   the mapped carriers and the modulator's frame scratch per burst
//!   at that burst's MCS, then runs its symbols without further
//!   allocation. The frame scratch holds at most one lane group of
//!   frames, however long the burst.

use mimo_chanest::{ChannelEstimate, FxMat4};
use mimo_coding::{Llr, ViterbiWorkspace};
use mimo_detect::ZfTable;
use mimo_fixed::{lane_groups, BusLanes, CQ15};
use mimo_ofdm::SymbolIngest;
use mimo_sync::CoarseTracker;

use crate::config::LinkGeometry;

/// Per-antenna receive scratch (stage 1: symbol ingest + carrier
/// gather). The [`SymbolIngest`] is this antenna's streaming state —
/// CP-strip position, collect buffer and FFT frame — so both the
/// whole-burst and the chunk-driven receivers carry it here and the
/// steady state allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct RxAntennaWorkspace {
    /// CP strip + FFT stage (owns the frame scratch).
    pub ingest: SymbolIngest,
    /// Gathered occupied carriers of the symbols being decoded, as
    /// bus-word lane groups, one row of `⌈n_occ / 8⌉` groups per
    /// symbol: carrier `s` of symbol `m` is lane `s % 8` of group
    /// `m·⌈n_occ / 8⌉ + s / 8`. A stored capture fills the SIGNAL-field
    /// rows, then every payload row at once; the streaming receiver
    /// fills the rows one chunk brings. It grows to the most rows one
    /// call decodes and keeps its capacity.
    pub freq_occ: BusLanes,
}

/// Per-stream receive scratch (stage 2: detect → corrections → demap →
/// deinterleave → Viterbi).
#[derive(Debug, Clone, Default)]
pub(crate) struct RxStreamWorkspace {
    /// One symbol's equalized occupied carriers as bus-word lane
    /// groups: the ZF writes them, the pilot de-rotations turn them in
    /// place.
    pub eq: BusLanes,
    /// Pilot values read out of the equalized symbol.
    pub pilots: Vec<CQ15>,
    /// Expected pilot signs for the current symbol.
    pub signs: Vec<i8>,
    /// One symbol's corrected data carriers as bus-word lane groups,
    /// the demapper's input.
    pub data: BusLanes,
    /// The whole burst's mother-code LLR stream, filled symbol by
    /// symbol through the fused demap→deinterleave→depuncture scatter.
    /// Pre-zeroed at pass start, so the erasures of punctured bits are
    /// simply the positions no scatter ever writes.
    pub stream_llrs: Vec<Llr>,
    /// Next write offset into [`RxStreamWorkspace::stream_llrs`]
    /// (advances one `mother_bits_per_symbol` region per symbol).
    pub pass_fill: usize,
    /// Viterbi path metrics and survivor memory.
    pub viterbi: ViterbiWorkspace,
    /// Decoded info bits, one per byte as the Viterbi traceback emits
    /// them (still scrambled: the descramble packs them into
    /// [`RxStreamWorkspace::bytes`]).
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

/// Channel-estimation scratch: the estimator's LTS transform buffer,
/// the per-carrier estimate it fills, the inverses and their lane
/// table, all reused across bursts.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelScratch {
    /// One receive antenna's LTS half-fields and their spectra (see
    /// [`ChannelEstimator::estimate_into`](mimo_chanest::ChannelEstimator::estimate_into)).
    pub lts_fft: Vec<CQ15>,
    /// The last burst's channel matrices, before inversion.
    pub estimate: ChannelEstimate,
    /// The last burst's `H⁻¹`, one matrix per occupied carrier (see
    /// [`ChannelEstimate::invert_all_into`]).
    pub h_inv: Vec<FxMat4>,
    /// The same inverses staged for the zero-forcing lanes, range-checked
    /// once per burst; every stream's per-symbol core reads it.
    pub zf: ZfTable,
}

/// Receive workspace: antenna-side and stream-side scratch, split so
/// the two parallel stages can borrow them independently, plus a
/// dedicated stream-shaped scratch for decoding the SIGNAL-field
/// header (stream 0, before the payload fan-out), the channel
/// estimator's buffers and the batch acquisition's coarse STS
/// detector (re-armed by every whole-capture scan).
#[derive(Debug, Clone)]
pub(crate) struct RxWorkspace {
    pub antennas: Vec<RxAntennaWorkspace>,
    pub streams: Vec<RxStreamWorkspace>,
    pub header: RxStreamWorkspace,
    pub channel: ChannelScratch,
    pub coarse: CoarseTracker,
}

impl RxWorkspace {
    /// Builds a workspace with the per-symbol buffers sized from the
    /// link geometry, carrier geometry and max-MCS envelope.
    pub fn new(
        geometry: &LinkGeometry,
        n_occ: usize,
        n_pilots: usize,
    ) -> Self {
        let n = geometry.n_streams();
        let make_stream = || RxStreamWorkspace {
            eq: BusLanes::zeroed(lane_groups(n_occ)),
            pilots: vec![CQ15::ZERO; n_pilots],
            signs: vec![0; n_pilots],
            data: BusLanes::zeroed(lane_groups(geometry.data_carriers())),
            stream_llrs: Vec::new(),
            pass_fill: 0,
            viterbi: ViterbiWorkspace::new(),
            decoded: Vec::new(),
            bytes: Vec::new(),
            evm_num: 0.0,
            evm_den: 0.0,
            phase_acc: 0.0,
        };
        #[expect(
            clippy::expect_used,
            reason = "the geometry's FFT size was validated before any workspace is built, so `SymbolIngest::new` cannot reject it"
        )]
        let make_antenna = || RxAntennaWorkspace {
            ingest: SymbolIngest::new(geometry.fft_size())
                .expect("geometry validated before workspace construction"),
            freq_occ: BusLanes::default(),
        };
        Self {
            antennas: (0..n).map(|_| make_antenna()).collect(),
            streams: (0..n).map(|_| make_stream()).collect(),
            header: make_stream(),
            channel: ChannelScratch::default(),
            coarse: CoarseTracker::new(n),
        }
    }
}
