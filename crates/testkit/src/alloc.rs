//! A counting global allocator for allocation ratchets.
//!
//! A test binary installs [`Counting`] as its `#[global_allocator]` and
//! wraps the work it measures in [`counted`]. Every thread keeps its own
//! counters, and `counted` reads those of the thread that runs it, so a
//! count holds what that thread allocated and nothing another thread did
//! meanwhile: libtest's threads, a pool's workers, a spawned helper.
//! Work that must be counted whole therefore runs on the calling thread
//! (a pool at one worker).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread asked the allocator for while [`counted`] ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes those calls requested (a `realloc` counts its new size).
    pub bytes: u64,
    /// Bytes this thread allocated less the bytes it freed: what the
    /// work left behind, when it frees on the thread that allocated.
    pub live: i64,
    /// The high-water mark of `live` while the work ran, from zero at its
    /// start: the most it held at once beyond what it found.
    pub peak: u64,
}

/// One thread's running totals; `live` and `high` are absolute, and
/// `high` is the high-water mark of `live` since the innermost running
/// [`counted`] began.
#[derive(Clone, Copy)]
struct Tally {
    calls: u64,
    bytes: u64,
    live: i64,
    high: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            bytes: 0,
            live: 0,
            high: 0,
        })
    };
}

/// Adds `calls` allocator calls requesting `size` bytes in place of
/// `freed` to this thread's counters.
fn note(calls: u64, size: usize, freed: usize) {
    // A thread being torn down has no counters left to bump.
    let _ = TALLY.try_with(|c| {
        let n = c.get();
        let live = n.live + size as i64 - freed as i64;
        c.set(Tally {
            calls: n.calls + calls,
            bytes: n.bytes + size as u64,
            live,
            high: n.high.max(live),
        });
    });
}

/// Runs `work` on this thread and returns what it allocated here.
///
/// Calls nest: an inner `counted` measures its own peak from where it
/// starts, and the outer one still sees the inner work's high-water mark.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, Allocs) {
    let before = TALLY.with(|c| {
        let n = c.get();
        c.set(Tally { high: n.live, ..n });
        n
    });
    let out = work();
    let after = TALLY.with(|c| {
        let n = c.get();
        c.set(Tally {
            high: n.high.max(before.high),
            ..n
        });
        n
    });
    let allocs = Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
        // `high` started this call at `before.live` and only rose.
        peak: (after.high - before.live).unsigned_abs(),
    };
    (out, allocs)
}

/// The system allocator, counting per thread for [`counted`]. Install
/// it with `#[global_allocator] static GLOBAL: Counting = Counting;`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory, and they live in a const-initialised thread local
// that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    const MIB: usize = 1 << 20;

    #[test]
    fn counts_the_calling_thread_and_no_other() {
        let (v, here) = counted(|| black_box(vec![1u8; MIB]));
        assert_eq!(
            here,
            Allocs {
                calls: 1,
                bytes: MIB as u64,
                live: MIB as i64,
                peak: MIB as u64,
            }
        );
        let ((), freed) = counted(|| drop(v));
        assert_eq!(freed.live, -(MIB as i64), "a free counts no call");
        assert_eq!(freed.calls, 0);

        // Spawning allocates on this thread too (the handle, the closure);
        // the megabyte the spawned thread asks for is not counted.
        let spawn = || {
            std::thread::spawn(|| drop(black_box(vec![1u8; MIB])))
                .join()
                .expect("the helper thread finishes");
        };
        let ((), spawned) = counted(spawn);
        assert!(spawned.calls > 0, "the spawn itself is counted");
        assert!(
            spawned.bytes < MIB as u64,
            "{} bytes: another thread's allocation was counted",
            spawned.bytes
        );
    }

    #[test]
    fn peak_is_the_high_water_mark_of_the_work() {
        // Allocate then free: the peak is what was held at once.
        let ((), a) = counted(|| {
            let big = black_box(vec![1u8; MIB]);
            drop(big);
            drop(black_box(vec![1u8; MIB / 2]));
        });
        assert_eq!((a.live, a.peak), (0, MIB as u64));

        // Free older memory, then allocate less: the work never held more
        // than it found, so its peak is zero.
        let old = black_box(vec![1u8; MIB]);
        let (kept, b) = counted(|| {
            drop(old);
            black_box(vec![1u8; MIB / 4])
        });
        assert_eq!(b.live, -((MIB - MIB / 4) as i64));
        assert_eq!(b.peak, 0);
        drop(kept);

        // Nesting: the inner call measures from its own start, and the
        // outer call keeps the inner work's high-water mark.
        let ((), outer) = counted(|| {
            let held = black_box(vec![1u8; MIB / 2]);
            let ((), inner) = counted(|| drop(black_box(vec![1u8; MIB])));
            assert_eq!(inner.peak, MIB as u64);
            drop(held);
            drop(black_box(vec![1u8; MIB / 8]));
        });
        assert_eq!(outer.peak, (MIB + MIB / 2) as u64);
    }
}
