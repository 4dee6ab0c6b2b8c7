//! Counting global allocator: attributes every allocation made while
//! counting is on to the layer whose span is open on the benchmark's
//! main thread. Worker threads spawned inside a layer call (the rayon
//! shim spawns scoped workers per parallel loop) allocate on behalf of
//! that layer, so a single process-wide "current layer" slot is the
//! right attribution for the sequential replay and driver spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Attribution buckets, reported as `<layer>.alloc_bytes` / `<layer>.allocs`.
/// `bench` collects whatever no layer span claims.
pub const LAYERS: [&str; 7] =
    ["bench", "setup", "sph-core", "sph-tree", "sph-exa", "sph-domain", "sph-serve"];

pub const BENCH: usize = 0;
pub const SETUP: usize = 1;
pub const CORE: usize = 2;
pub const TREE: usize = 3;
pub const EXA: usize = 4;
pub const DOMAIN: usize = 5;
pub const SERVE: usize = 6;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(BENCH);
static BYTES: [AtomicU64; LAYERS.len()] = [const { AtomicU64::new(0) }; LAYERS.len()];
static COUNTS: [AtomicU64; LAYERS.len()] = [const { AtomicU64::new(0) }; LAYERS.len()];

pub struct Counting;

// Statistics only: every counter is an independent tally that publishes
// no other data, so `Relaxed` suffices throughout.
fn record(size: usize) {
    if ENABLED.load(Relaxed) {
        let layer = CURRENT.load(Relaxed);
        BYTES[layer].fetch_add(size as u64, Relaxed);
        COUNTS[layer].fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the allocator's guarantees;
// `record` only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn attribution on or off (off for every end-to-end measurement).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Make `layer` the current bucket; returns the previous one for [`leave`].
pub fn enter(layer: usize) -> usize {
    CURRENT.swap(layer, Relaxed)
}

pub fn leave(previous: usize) {
    CURRENT.store(previous, Relaxed);
}

/// `(bytes, allocations)` per bucket so far, indexed like [`LAYERS`].
pub fn snapshot() -> [(u64, u64); LAYERS.len()] {
    std::array::from_fn(|i| (BYTES[i].load(Relaxed), COUNTS[i].load(Relaxed)))
}
