//! The batch-of-bursts receive pipeline.
//!
//! The per-burst `thread::scope` fan-out in [`MimoReceiver`] can keep
//! at most four cores busy (one per spatial channel) and re-pays the
//! thread spawn/join cost every burst. The paper's hardware sidesteps
//! both problems by *pipelining*: every stage processes a different
//! part of the sample stream simultaneously. [`BurstPipeline`] is the
//! software analogue for burst-rate processing:
//!
//! * a **persistent worker pool** (spawned once, reused for every
//!   batch) replaces per-burst scoped threads;
//! * each burst is split at the receiver's natural seam — the **front
//!   stage** (sync, channel estimation, per-antenna FFT + carrier
//!   gather) and the **back stage** (per-stream detection through
//!   Viterbi, reassembly) — and the two stages of *different* bursts
//!   overlap: while one worker runs the stream stage of burst *n*,
//!   another runs the antenna stage of burst *n+1*;
//! * workers prefer back-stage jobs, which both drains the pipeline in
//!   roughly submission order and bounds the number of live
//!   workspaces — `RxWorkspace`s travel from the front job to its back
//!   job and then **recycle through a pool**, so the steady state
//!   allocates nothing per burst beyond the decoded payloads;
//! * on a host where `std::thread::available_parallelism()` is 1 the
//!   pool **degrades to the serial schedule** — no threads, no locks,
//!   same code path per burst, bit-identical results.
//!
//! Each burst runs the exact same front/back code the serial receiver
//! runs (with the within-burst four-way fan-out disabled — parallelism
//! comes from burst overlap instead), so pipeline output is
//! **bit-identical** to `receive_burst` for any batch size and any
//! worker count; `tests/burst_pipeline.rs` pins this. Both stages are
//! schedules over the same per-symbol core the chunk-driven
//! [`StreamingReceiver`](crate::StreamingReceiver) drives, so all
//! three receive modes decode every burst identically.
//!
//! The pipeline is **rate-agile**: every burst announces its own MCS
//! in its SIGNAL-field header, so a single pool decodes mixed-rate
//! batches — the back stage of each burst selects its datapath kit
//! from the shared receiver's rate table, and the recycled workspaces
//! are sized for the max-MCS envelope. Callers holding borrowed
//! stream views (e.g. slices into a ring buffer) can use
//! [`BurstPipeline::process_batch_ref`], which decodes without
//! copying on a per-batch scoped crew instead of the persistent pool.
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

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mimo_fixed::CQ15;

use crate::config::{host_parallelism, PhyConfig};
use crate::error::PhyError;
use crate::rx::{FrontInfo, MimoReceiver, RxResult, RxState};
use crate::workspace::RxWorkspace;

/// One burst's worth of antenna sample streams (what
/// [`crate::TxBurst::streams`] holds and a channel model outputs).
pub type BurstStreams = Vec<Vec<CQ15>>;

/// A back-stage job: the workspace carrying the gathered carriers of
/// burst `idx`, plus the front stage's detection and channel inverse.
struct BackJob {
    idx: usize,
    front: FrontInfo,
    ws: RxWorkspace,
}

/// Queue state shared between the submitter and the workers.
struct Queue {
    /// Bursts awaiting their front (antenna) stage, in order.
    front: VecDeque<(usize, Arc<BurstStreams>)>,
    /// Bursts whose front stage finished, awaiting the back stage.
    back: VecDeque<BackJob>,
    /// Result slots for the batch in flight.
    results: Vec<Option<Result<RxResult, PhyError>>>,
    /// Bursts submitted but not yet finished.
    outstanding: usize,
    /// Tells the workers to exit.
    shutdown: bool,
}

/// State shared by the submitter and all workers.
struct Shared {
    rx: MimoReceiver,
    q: Mutex<Queue>,
    /// Workers wait here for jobs.
    work_cv: Condvar,
    /// The submitter waits here for batch completion.
    done_cv: Condvar,
    /// Recycled workspaces: front jobs pop (or build), finished bursts
    /// push back. Bounded by the worker count because workers prefer
    /// back-stage jobs.
    ws_pool: Mutex<Vec<RxWorkspace>>,
}

impl Shared {
    /// A recycled workspace, or a fresh one on a cold pool.
    fn take_ws(&self) -> RxWorkspace {
        self.ws_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| self.rx.make_workspace())
    }

    /// Records a burst's result and recycles its workspace.
    fn finish(&self, idx: usize, result: Result<RxResult, PhyError>, ws: Option<RxWorkspace>) {
        if let Some(ws) = ws {
            self.ws_pool
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(ws);
        }
        let mut q = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        q.results[idx] = Some(result);
        q.outstanding -= 1;
        if q.outstanding == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// The persistent worker-pool burst pipeline: batch-of-bursts
/// reception with front/back stage overlap, workspace recycling,
/// mixed-rate batches and a serial fallback (see the `pipeline`
/// module source docs for the full scheduling discipline).
pub struct BurstPipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Sync FSM + workspace for the serial (0-worker) schedule.
    serial_state: RxState,
}

impl std::fmt::Debug for BurstPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BurstPipeline")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl BurstPipeline {
    /// Builds a pipeline with the auto worker count: one worker per
    /// host CPU, or the serial schedule when the host reports a single
    /// CPU.
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
        let rx = MimoReceiver::new(cfg)?;
        let serial_state = rx.new_state();
        let shared = Arc::new(Shared {
            rx,
            q: Mutex::new(Queue {
                front: VecDeque::new(),
                back: VecDeque::new(),
                results: Vec::new(),
                outstanding: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            ws_pool: Mutex::new(Vec::new()),
        });
        let n_workers = if workers <= 1 { 0 } else { workers.min(64) };
        let mut handles = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("burst-pipe-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Shut down the workers that did start before
                    // surfacing the typed error, so none are leaked.
                    {
                        let mut q = shared
                            .q
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        q.shutdown = true;
                    }
                    shared.work_cv.notify_all();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(PhyError::Pipeline(format!(
                        "could not spawn worker {i} of {n_workers}: {e}"
                    )));
                }
            }
        }
        Ok(Self {
            shared,
            workers: handles,
            serial_state,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhyConfig {
        self.shared.rx.config()
    }

    /// Number of pool workers (0 = serial in-caller schedule).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Decodes a batch of bursts, returning one result per burst in
    /// submission order. With workers, the front stage of burst *n+1*
    /// overlaps the back stage of burst *n* across the pool; without,
    /// bursts run serially in the calling thread. Both schedules are
    /// bit-identical per burst.
    pub fn process_batch(
        &mut self,
        bursts: Vec<BurstStreams>,
    ) -> Vec<Result<RxResult, PhyError>> {
        if self.workers.is_empty() {
            return bursts
                .into_iter()
                .map(|b| self.process_serial(b.as_slice()))
                .collect();
        }
        let n = bursts.len();
        {
            let mut q = self
                .shared
                .q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.results.clear();
            q.results.resize_with(n, || None);
            q.outstanding = n;
            for (idx, burst) in bursts.into_iter().enumerate() {
                q.front.push_back((idx, Arc::new(burst)));
            }
        }
        self.shared.work_cv.notify_all();
        let mut q = self
            .shared
            .q
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while q.outstanding > 0 {
            q = self
                .shared
                .done_cv
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        q.results
            .drain(..)
            .map(|r| {
                // `outstanding == 0` means every index was claimed and
                // completed; an unfilled slot is a scheduler bug and
                // surfaces as a typed per-burst error, not a panic.
                r.unwrap_or_else(|| {
                    Err(PhyError::Pipeline(
                        "result slot never filled by any worker".into(),
                    ))
                })
            })
            .collect()
    }

    /// Decodes a batch of **borrowed** bursts — any per-stream sample
    /// container, e.g. `&[&[CQ15]]` views into a capture buffer —
    /// without copying a sample. The persistent pool cannot hold
    /// non-`'static` borrows, so this path runs a scoped worker crew
    /// (one whole burst per worker, work-stealing by index) sharing
    /// the pool's receiver and workspace pool; with no workers it runs
    /// serially in the caller. Results are bit-identical to
    /// [`BurstPipeline::process_batch`] and to `receive_burst`, burst
    /// for burst.
    pub fn process_batch_ref<B, S>(&mut self, bursts: &[B]) -> Vec<Result<RxResult, PhyError>>
    where
        B: AsRef<[S]> + Sync,
        S: AsRef<[CQ15]> + Sync,
    {
        if self.workers.is_empty() || bursts.len() <= 1 {
            return bursts
                .iter()
                .map(|b| self.process_serial(b.as_ref()))
                .collect();
        }
        let n_workers = self.workers.len().min(bursts.len());
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<RxResult, PhyError>>>> =
            (0..bursts.len()).map(|_| Mutex::new(None)).collect();
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..n_workers {
                scope.spawn(|| {
                    let mut sync = shared.rx.sync_prototype();
                    let mut ws = shared.take_ws();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(burst) = bursts.get(i) else { break };
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            shared
                                .rx
                                .front_stage(&mut sync, &mut ws, burst.as_ref(), false)
                                .and_then(|front| shared.rx.back_stage(&mut ws, &front, false))
                        }));
                        let result = outcome.unwrap_or_else(|_| {
                            // The workspace may be mid-mutation;
                            // replace it, mirroring the pool's
                            // drop-on-panic rule.
                            ws = shared.rx.make_workspace();
                            Err(PhyError::Decode("receiver stage panicked".into()))
                        });
                        *results[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                    }
                    shared
                        .ws_pool
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(ws);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                // The scoped crew claims every index before the scope
                // closes; an unclaimed slot degrades to a typed
                // per-burst error rather than a panic.
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        Err(PhyError::Pipeline(
                            "burst index never claimed by a worker".into(),
                        ))
                    })
            })
            .collect()
    }

    /// Decodes one burst on the calling thread (the 1-CPU schedule):
    /// front then back, same code — and the same per-burst panic
    /// isolation — as the pool path, reusing the pipeline's serial
    /// state. Generic over the stream container so borrowed views
    /// decode without copying.
    fn process_serial<S>(&mut self, burst: &[S]) -> Result<RxResult, PhyError>
    where
        S: AsRef<[CQ15]> + Sync,
    {
        let outcome = {
            let rx = &self.shared.rx;
            let st = &mut self.serial_state;
            catch_unwind(AssertUnwindSafe(|| {
                rx.front_stage(&mut st.sync, &mut st.workspace, burst, false)
                    .and_then(|front| rx.back_stage(&mut st.workspace, &front, false))
            }))
        };
        outcome.unwrap_or_else(|_| {
            // The state may be mid-mutation; rebuild before the next
            // burst, mirroring the pool's drop-on-panic workspace rule.
            self.serial_state = self.shared.rx.new_state();
            Err(PhyError::Decode("receiver stage panicked".into()))
        })
    }
}

impl Drop for BurstPipeline {
    fn drop(&mut self) {
        {
            let mut q = self
                .shared
                .q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: repeatedly pull a job (back-stage first), run it with
/// the within-burst fan-out disabled, hand the workspace onward.
fn worker_loop(shared: &Shared) {
    // Each worker owns a sync FSM clone; the receiver itself is shared
    // immutably.
    let mut sync = shared.rx.sync_prototype();
    loop {
        enum Job {
            Front(usize, Arc<BurstStreams>),
            Back(Box<BackJob>),
        }
        let job = {
            let mut q = shared
                .q
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(b) = q.back.pop_front() {
                    break Job::Back(Box::new(b));
                }
                if let Some((idx, burst)) = q.front.pop_front() {
                    break Job::Front(idx, burst);
                }
                q = shared
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match job {
            Job::Front(idx, burst) => {
                let mut ws = shared.take_ws();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    shared.rx.front_stage(&mut sync, &mut ws, &burst, false)
                }));
                match outcome {
                    Ok(Ok(front)) => {
                        let mut q = shared
                            .q
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        q.back.push_back(BackJob { idx, front, ws });
                        drop(q);
                        shared.work_cv.notify_one();
                    }
                    Ok(Err(e)) => shared.finish(idx, Err(e), Some(ws)),
                    // Drop the possibly-inconsistent workspace; the
                    // pool rebuilds on demand.
                    Err(_) => shared.finish(
                        idx,
                        Err(PhyError::Decode("receiver front stage panicked".into())),
                        None,
                    ),
                }
            }
            Job::Back(job) => {
                let BackJob { idx, front, mut ws } = *job;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    shared.rx.back_stage(&mut ws, &front, false)
                }));
                match outcome {
                    Ok(result) => shared.finish(idx, result, Some(ws)),
                    Err(_) => shared.finish(
                        idx,
                        Err(PhyError::Decode("receiver back stage panicked".into())),
                        None,
                    ),
                }
            }
        }
    }
}
