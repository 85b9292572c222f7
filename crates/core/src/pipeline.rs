//! The batch-of-bursts receive pipeline.
//!
//! The per-burst `thread::scope` fan-out in [`MimoReceiver`] can keep
//! at most four cores busy (one per spatial channel) and re-pays the
//! thread spawn/join cost on every stage of every burst. A batch holds
//! independent bursts, so [`BurstPipeline`] parallelises across bursts
//! instead: each core decodes whole bursts on memories it owns, the way
//! the paper's four channel pipelines each own theirs. One schedule
//! runs every batch, a **scoped work-claiming crew**:
//!
//! * the **calling thread is a crew member**. With it run
//!   `min(workers, batch) − 1` helpers started by
//!   `std::thread::Builder::spawn_scoped`; every member claims burst
//!   indices from one atomic counter and runs each claimed burst's
//!   front stage (sync, channel estimation, per-antenna FFT + carrier
//!   gather) then its back stage (per-stream detection through Viterbi,
//!   reassembly);
//! * **the caller drains** whatever the helpers do not claim. With no
//!   helpers — `workers() == 0`, a one-burst batch — it decodes the
//!   whole batch itself, so the serial schedule is the same code with a
//!   crew of one. A helper that cannot be spawned only leaves more
//!   bursts for the members that did start;
//! * **workspaces are recycled per crew member**: each member decodes on
//!   its own `RxState` (sync FSM + `RxWorkspace`), kept by the pipeline
//!   between batches, so the steady state allocates nothing per burst
//!   beyond the decoded payloads and the result list;
//! * every burst runs inside `catch_unwind`: a panic becomes that
//!   burst's typed error and rebuilds the member's state, so one bad
//!   burst cannot poison its neighbours.
//!
//! Members meet only at the claim counter and at scope exit, so the
//! pipeline takes no lock. Each member returns `(index, result)` pairs
//! and the caller sorts them back into submission order.
//!
//! Each burst runs the exact same front/back code the serial receiver
//! runs (with the within-burst four-way fan-out disabled — parallelism
//! comes from whole bursts instead), so pipeline output is
//! **bit-identical** to `receive_burst` for any batch size and any
//! worker count; `tests/burst_pipeline.rs` pins this. Both stages are
//! schedules over the same per-symbol core the chunk-driven
//! [`StreamingReceiver`](crate::StreamingReceiver) drives, so all
//! three receive modes decode every burst identically.
//!
//! The pipeline is **rate-agile**: every burst announces its own MCS
//! in its SIGNAL-field header, so one batch may mix rates — the back
//! stage of each burst selects its datapath kit from the shared
//! receiver's rate table, and the recycled workspaces are sized for the
//! max-MCS envelope.
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
use crate::error::PhyError;
use crate::rx::{MimoReceiver, RxResult, RxState};

/// One burst's worth of antenna sample streams (what
/// [`crate::TxBurst::streams`] holds and a channel model outputs).
pub type BurstStreams = Vec<Vec<CQ15>>;

/// The batch-of-bursts receiver: a scoped work-claiming crew decodes
/// whole bursts in parallel on recycled per-member state, bit-identical
/// to `receive_burst` (see the `pipeline` module source docs for the
/// schedule).
#[derive(Debug)]
pub struct BurstPipeline {
    rx: MimoReceiver,
    /// Crew size cap; 0 = the caller decodes alone.
    workers: usize,
    /// Receive state of crew member `k`, recycled across batches.
    states: Vec<RxState>,
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
    pub fn new(cfg: PhyConfig) -> Result<Self, PhyError> {
        Self::with_workers(cfg, host_parallelism())
    }

    /// Builds a pipeline from the static link geometry alone — like
    /// [`MimoReceiver::from_geometry`], nothing rate-dependent is
    /// needed up front; every burst in every batch announces its own
    /// rate.
    ///
    /// # Errors
    ///
    /// Identical to [`BurstPipeline::new`].
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
            rx: MimoReceiver::new(cfg)?,
            workers: if workers <= 1 { 0 } else { workers.min(64) },
            states: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        self.rx.config()
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
        let n = bursts.len();
        let crew = self.workers.min(n).max(1);
        let rx = &self.rx;
        if self.states.len() < crew {
            self.states.resize_with(crew, || rx.new_state());
        }
        let bursts = bursts.as_slice();
        let next = &AtomicUsize::new(0);
        let mut members = self.states.iter_mut().take(crew);
        let own = members.next();
        let mut claimed = std::thread::scope(|scope| {
            // Stop at the first spawn failure: the members already
            // running, the caller among them, drain the rest.
            let helpers: Vec<_> = members
                .map_while(|st| {
                    std::thread::Builder::new()
                        .name("burst-crew".into())
                        .spawn_scoped(scope, move || drain(rx, next, bursts, st))
                        .ok()
                })
                .collect();
            let mut claimed = own.map(|st| drain(rx, next, bursts, st)).unwrap_or_default();
            for helper in helpers {
                // A helper can only die outside `catch_unwind`; its
                // bursts then surface as unfilled slots below.
                if let Ok(mut theirs) = helper.join() {
                    claimed.append(&mut theirs);
                }
            }
            claimed
        });
        claimed.sort_unstable_by_key(|&(i, _)| i);
        let mut claimed = claimed.into_iter().peekable();
        (0..n)
            .map(|i| match claimed.next_if(|&(j, _)| j == i) {
                Some((_, result)) => result,
                None => Err(PhyError::Pipeline(
                    "burst result never delivered by a crew member".into(),
                )),
            })
            .collect()
    }
}

/// One crew member: claims burst indices until the batch runs out and
/// decodes each whole burst on the member's own state, with the
/// within-burst fan-out disabled. Returns `(burst index, result)`
/// pairs.
fn drain(
    rx: &MimoReceiver,
    next: &AtomicUsize,
    bursts: &[BurstStreams],
    st: &mut RxState,
) -> Vec<(usize, Result<RxResult, PhyError>)> {
    let mut claimed = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(burst) = bursts.get(i) else {
            return claimed;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rx.front_stage(&mut st.sync, &mut st.workspace, burst, false)
                .and_then(|front| rx.back_stage(&mut st.workspace, &front, false))
        }));
        let result = outcome.unwrap_or_else(|_| {
            // The state may be mid-mutation; rebuild it before the
            // member's next burst.
            *st = rx.new_state();
            Err(PhyError::Decode("receiver stage panicked".into()))
        });
        claimed.push((i, result));
    }
}
