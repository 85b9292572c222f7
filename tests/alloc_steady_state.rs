//! Heap allocations of a warm receiver.
//!
//! The paper's receiver runs on fixed memories; the software model
//! keeps every per-burst buffer in the receiver's workspace. Once a
//! workspace has decoded a burst of some shape, decoding it again at
//! fan-out width 1 allocates exactly twice: the returned payload and
//! the per-stream EVM list of its diagnostics. The streaming receiver
//! spreads the same decode over its pushes: a warm one allocates
//! nothing on a push that closes no burst and the same two allocations
//! on the push that does. This suite counts every allocation the
//! decoding thread makes, at every MCS, with soft and hard demapping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mimo_baseband::fixed::CQ15;
use mimo_baseband::phy::{
    LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig, StreamingReceiver,
};

/// Allocations a warm width-1 `receive_burst` (or the closing push of a
/// warm `StreamingReceiver`) makes: the payload `Vec` and
/// `ChannelQuality::per_stream_evm_db`.
const ALLOCATIONS_PER_BURST: usize = 2;

/// Samples per push in the streaming case: one transport frame of
/// the repository benchmark's `stream_framed` workload.
const CHUNK: usize = 160;

/// Bursts a streaming receiver decodes at one MCS before it is warm.
const WARM_UP_BURSTS: usize = 3;

thread_local! {
    /// Allocations made on this thread (const-initialised, so reading it
    /// inside the allocator allocates nothing).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the count is a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller keeps `GlobalAlloc::alloc`'s contract, which
    // `System` receives unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's `GlobalAlloc::realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `GlobalAlloc::dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn warm_receive_burst_allocates_only_its_result() {
    for soft in [true, false] {
        let geometry = LinkGeometry::mimo()
            .with_soft_decoding(soft)
            .with_parallelism(false);
        let cfg = PhyConfig::from_geometry(geometry);
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = MimoReceiver::new(cfg).unwrap();
        for mcs in Mcs::ALL {
            let payload: Vec<u8> = (0..1500).map(|i| (i * 37 + 11) as u8).collect();
            let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
            // The first decode sizes the workspace for this burst shape.
            let cold = rx.receive_burst(&burst.streams).unwrap();
            assert_eq!(cold.payload, payload, "{mcs}, soft {soft}");
            let (warm, n) = allocations(|| rx.receive_burst(&burst.streams));
            let warm = warm.unwrap();
            assert_eq!(warm.payload, payload, "{mcs}, soft {soft}");
            assert_eq!(
                n, ALLOCATIONS_PER_BURST,
                "{mcs}, soft {soft}: a warm burst made {n} allocations"
            );
        }
    }
}

/// Pushes `streams` into `rx` in `CHUNK`-sample chunks and returns, per
/// push, whether it emitted a burst (checked against `payload`) and
/// how many allocations it made.
fn push_in_chunks(
    rx: &mut StreamingReceiver,
    streams: &[Vec<CQ15>],
    payload: &[u8],
) -> Vec<(bool, usize)> {
    let len = streams[0].len();
    (0..len)
        .step_by(CHUNK)
        .map(|at| {
            let end = (at + CHUNK).min(len);
            let views: [&[CQ15]; 4] = std::array::from_fn(|a| &streams[a][at..end]);
            let (pushed, n) = allocations(|| rx.push_samples(&views));
            let closed = pushed.unwrap().map(|b| b.result.payload);
            if let Some(got) = &closed {
                assert_eq!(got, payload);
            }
            (closed.is_some(), n)
        })
        .collect()
}

#[test]
fn warm_streaming_receiver_allocates_only_on_the_closing_push() {
    for soft in [true, false] {
        let geometry = LinkGeometry::mimo().with_soft_decoding(soft);
        let cfg = PhyConfig::from_geometry(geometry);
        let tx = MimoTransmitter::new(cfg.clone()).unwrap();
        let mut rx = StreamingReceiver::new(cfg).unwrap();
        for mcs in Mcs::ALL {
            let payload: Vec<u8> = (0..1500).map(|i| (i * 37 + 11) as u8).collect();
            let burst = tx.transmit_burst_with(mcs, &payload).unwrap();
            // The first bursts size the workspace and the sample history,
            // whose amortized compaction needs a few bursts to reach its
            // high-water mark.
            for _ in 0..WARM_UP_BURSTS {
                let cold = push_in_chunks(&mut rx, &burst.streams, &payload);
                assert_eq!(
                    cold.iter().filter(|&&(closed, _)| closed).count(),
                    1,
                    "{mcs}, soft {soft}"
                );
            }
            let warm = push_in_chunks(&mut rx, &burst.streams, &payload);
            assert_eq!(
                warm.iter().filter(|&&(closed, _)| closed).count(),
                1,
                "{mcs}, soft {soft}"
            );
            for (i, &(closed, n)) in warm.iter().enumerate() {
                let want = if closed { ALLOCATIONS_PER_BURST } else { 0 };
                assert_eq!(
                    n, want,
                    "{mcs}, soft {soft}: warm push {i} (closing: {closed}) made {n} allocations"
                );
            }
        }
    }
}
