//! The batch-of-bursts receive pipeline.
//!
//! The per-burst fan-out in [`MimoReceiver`](crate::MimoReceiver) can
//! keep at most four cores busy (one per spatial channel) and re-pays
//! the helper spawn/join cost on every stage of every burst. A batch
//! holds independent bursts, so [`BurstPipeline`] parallelises across
//! bursts instead: each core decodes whole bursts on memories it owns,
//! the way the paper's four channel pipelines each own theirs. Both
//! levels run on the same scoped crew (the calling thread is member 0,
//! helpers are scoped threads, a crew of one starts none); here its
//! members are:
//!
//! * **one receive workspace per member** — `min(workers, batch)` of
//!   them, at least one, all sharing the pipeline's one set of
//!   receiver tables. The workspaces are kept between batches, so the
//!   steady state allocates nothing per burst beyond the decoded
//!   payloads and the result list;
//! * **claiming whole bursts**: every member takes burst indices from
//!   one atomic counter and decodes each claimed burst whole: sync,
//!   then the burst decoder every receiver shares (channel estimation,
//!   SIGNAL field, per-antenna FFT + carrier gather, per-stream
//!   detection through Viterbi, reassembly).
//!   With `workers() == 0` or a one-burst batch the caller decodes the
//!   whole batch alone, so the serial schedule is the same code with a
//!   crew of one. A member whose helper cannot be spawned finds the
//!   counter exhausted by the time the caller runs it;
//! * every burst runs inside `catch_unwind`: a panic becomes that
//!   burst's typed error and rebuilds the member's workspace, so one
//!   bad burst cannot poison its neighbours.
//!
//! Members meet only at the claim counter and at the crew's join, so
//! the pipeline takes no lock. Each member returns `(index, result)`
//! pairs and the caller sorts them back into submission order.
//!
//! Each burst runs the exact same code the serial receiver runs (with
//! a within-burst fan-out of width one — parallelism comes from whole
//! bursts instead), so pipeline output is **bit-identical** to
//! `receive_burst` for any batch size and any worker count;
//! `tests/burst_pipeline.rs` pins this. The chunk-driven
//! [`StreamingReceiver`](crate::StreamingReceiver) runs the same burst
//! decoder after its own sync search, so all three receive modes
//! decode every burst identically.
//!
//! The pipeline is **rate-agile**: every burst announces its own MCS
//! in its SIGNAL-field header, so one batch may mix rates — the decode
//! of each burst selects its datapath kit from the shared rate
//! table, and the recycled workspaces are sized for the max-MCS
//! envelope.
//!
//! # Examples
//!
//! ```
//! use mimo_core::{BurstPipeline, MimoTransmitter, PhyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PhyConfig::paper_synthesis();
//! let tx = MimoTransmitter::new(cfg.clone())?;
//! let mut pipe = BurstPipeline::new(cfg)?;
//!
//! let bursts: Vec<Vec<Vec<_>>> = (0..3u8)
//!     .map(|i| tx.transmit_burst(&[i; 32]).map(|b| b.streams))
//!     .collect::<Result<_, _>>()?;
//! let results = pipe.process_batch(bursts);
//! assert_eq!(results.len(), 3);
//! for (i, r) in results.iter().enumerate() {
//!     assert_eq!(r.as_ref().unwrap().payload, vec![i as u8; 32]);
//! }
//! # Ok(())
//! # }
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use mimo_fixed::CQ15;

use crate::config::{host_parallelism, PhyConfig};
use crate::crew::crew;
use crate::error::PhyError;
use crate::rx::{RxCore, RxResult};
use crate::workspace::RxWorkspace;

/// One burst's worth of antenna sample streams (what
/// [`crate::TxBurst::streams`] holds and a channel model outputs).
pub type BurstStreams = Vec<Vec<CQ15>>;

/// The batch-of-bursts receiver: a scoped work-claiming crew decodes
/// whole bursts in parallel on recycled per-member workspaces, bit-identical
/// to `receive_burst` (see the `pipeline` module source docs for the
/// schedule).
#[derive(Debug)]
pub struct BurstPipeline {
    core: RxCore,
    /// Crew size cap; 0 = the caller decodes alone.
    workers: usize,
    /// Workspace of crew member `k`, recycled across batches.
    workspaces: Vec<RxWorkspace>,
}

impl BurstPipeline {
    /// Builds a pipeline with the auto worker count: one crew member
    /// per host CPU, or the serial schedule when the host reports a
    /// single CPU.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] for invalid configurations
    /// (the receiver requires 4 streams).
    // phylint: allow(test_only_api) -- test support: tests/burst_pipeline.rs
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        Self::with_workers(cfg, host_parallelism())
    }

    /// Builds a pipeline from the static link geometry alone — like
    /// [`MimoReceiver::from_geometry`](crate::MimoReceiver::from_geometry),
    /// nothing rate-dependent is needed up front; every burst in every
    /// batch announces its own rate.
    ///
    /// # Errors
    ///
    /// Identical to [`BurstPipeline::new`].
    // phylint: allow(test_only_api) -- test support: tests/signal_field.rs
    pub fn from_geometry(geometry: crate::LinkGeometry) -> Result<Self, PhyError> {
        Self::new(PhyConfig::from_geometry(geometry))
    }

    /// Builds a pipeline with an explicit worker count. `workers <= 1`
    /// selects the serial in-caller schedule (no threads spawned);
    /// larger counts are capped at 64.
    ///
    /// # Errors
    ///
    /// Identical to [`BurstPipeline::new`].
    pub fn with_workers(cfg: PhyConfig, workers: usize) -> Result<Self, PhyError> {
        Ok(Self {
            core: RxCore::new(cfg)?,
            workers: if workers <= 1 { 0 } else { workers.min(64) },
            workspaces: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        self.core.config()
    }

    /// Crew size cap, the calling thread included (0 = serial
    /// in-caller schedule).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Decodes a batch of bursts, returning one result per burst in
    /// submission order. The calling thread and up to `workers() − 1`
    /// scoped helpers each decode whole bursts; every schedule is
    /// bit-identical per burst.
    pub fn process_batch(
        &mut self,
        bursts: Vec<BurstStreams>,
    ) -> Vec<Result<RxResult, PhyError>> {
        let members = self.workers.min(bursts.len()).max(1);
        let core = &self.core;
        if self.workspaces.len() < members {
            self.workspaces.resize_with(members, || core.workspace());
        }
        let next = AtomicUsize::new(0);
        let mut claimed: Vec<_> = crew(&mut self.workspaces[..members], |ws| {
            drain(core, &next, &bursts, ws)
        })
        .into_iter()
        .flatten()
        .collect();
        claimed.sort_unstable_by_key(|&(i, _)| i);
        claimed.into_iter().map(|(_, result)| result).collect()
    }
}

/// One crew member: claims burst indices until the batch runs out and
/// decodes each whole burst on the member's own workspace, with a
/// within-burst fan-out of width one. Returns `(burst index, result)`
/// pairs.
fn drain(
    core: &RxCore,
    next: &AtomicUsize,
    bursts: &[BurstStreams],
    ws: &mut RxWorkspace,
) -> Vec<(usize, Result<RxResult, PhyError>)> {
    let mut claimed = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(burst) = bursts.get(i) else {
            return claimed;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| core.receive(ws, burst, 1)));
        let result = outcome.unwrap_or_else(|_| {
            // The workspace may be mid-mutation; rebuild it before the
            // member's next burst.
            *ws = core.workspace();
            Err(PhyError::Decode("receiver stage panicked".into()))
        });
        claimed.push((i, result));
    }
}
