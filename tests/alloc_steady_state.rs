//! Heap allocations of a warm receiver.
//!
//! The paper's receiver runs on fixed memories; the software model
//! keeps every per-burst buffer in the receiver's workspace. Once a
//! workspace has decoded a burst of some shape, decoding it again at
//! fan-out width 1 allocates exactly twice: the returned payload and
//! the per-stream EVM list of its diagnostics. This suite counts every
//! allocation the decoding thread makes, at every MCS, with soft and
//! hard demapping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mimo_baseband::phy::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig};

/// Allocations a warm width-1 `receive_burst` makes: the payload `Vec`
/// and `ChannelQuality::per_stream_evm_db`.
const ALLOCATIONS_PER_BURST: usize = 2;

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
