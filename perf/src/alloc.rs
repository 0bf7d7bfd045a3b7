//! Counting global allocator behind a runtime switch.
//!
//! Timed passes run on the plain system allocator: while the switch is
//! off every call costs one atomic load on top of `System`. The counted
//! pass flips the switch on, runs at one harness worker (so the process
//! is single-threaded and the counts repeat exactly), and flips it off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::SeqCst};

/// The process allocator: `System`, plus counters while switched on.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment the switch went on; negative when
/// the pass frees blocks that predate it.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Lowest `LIVE` so far: a pass that starts by dropping what the last
/// pass left behind (a cleared memo) is measured from there.
static LOW: AtomicI64 = AtomicI64::new(0);
/// Highest `LIVE - LOW` so far.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(new_bytes: usize, freed_bytes: usize) {
    ALLOCS.fetch_add(1, SeqCst);
    BYTES.fetch_add(new_bytes as u64, SeqCst);
    let delta = new_bytes as i64 - freed_bytes as i64;
    let live = LIVE.fetch_add(delta, SeqCst) + delta;
    if delta < 0 {
        LOW.fetch_min(live, SeqCst);
    }
    PEAK.fetch_max(live - LOW.load(SeqCst), SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(SeqCst) {
            note(layout.size(), 0);
        }
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(SeqCst) {
            note(layout.size(), 0);
        }
        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(SeqCst) {
            let size = layout.size() as i64;
            LOW.fetch_min(LIVE.fetch_sub(size, SeqCst) - size, SeqCst);
        }
        // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(SeqCst) {
            note(new_size, layout.size());
        }
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes requested by those calls (a `realloc` counts its new size).
    pub bytes: u64,
    /// Peak live bytes above the lowest level the region had reached by
    /// then (its start, or lower if it began by freeing older blocks).
    pub peak_live: u64,
}

/// Runs `f` with the counters on and returns what it allocated.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    ALLOCS.store(0, SeqCst);
    BYTES.store(0, SeqCst);
    LIVE.store(0, SeqCst);
    LOW.store(0, SeqCst);
    PEAK.store(0, SeqCst);
    ON.store(true, SeqCst);
    let out = f();
    ON.store(false, SeqCst);
    let stats = AllocStats {
        allocs: ALLOCS.load(SeqCst),
        bytes: BYTES.load(SeqCst),
        peak_live: PEAK.load(SeqCst).max(0) as u64,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other test threads may allocate while the switch is on, so only
    // lower bounds are asserted.
    #[test]
    fn counts_what_the_region_allocates() {
        let warm: Vec<u8> = Vec::with_capacity(1 << 20);
        let (v, s) = counted(|| {
            let v: Vec<u64> = Vec::with_capacity(1024);
            drop(warm); // predates the region: must not underflow the peak
            v
        });
        assert!(s.allocs >= 1);
        assert!(s.bytes >= 8 * 1024);
        assert!(s.peak_live >= 8 * 1024);
        drop(v);
        // A region that first frees 1 MB and then allocates 64 KB peaks
        // 64 KB above its low point, not below its start.
        let old: Vec<u8> = Vec::with_capacity(1 << 20);
        let (v, s) = counted(|| {
            drop(old);
            Vec::<u8>::with_capacity(64 << 10)
        });
        assert!(s.peak_live >= 64 << 10);
        drop(v);
    }
}
