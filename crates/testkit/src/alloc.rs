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
}

thread_local! {
    static COUNTS: Cell<Allocs> = const {
        Cell::new(Allocs {
            calls: 0,
            bytes: 0,
            live: 0,
        })
    };
}

/// Adds `calls` allocator calls requesting `size` bytes in place of
/// `freed` to this thread's counters.
fn note(calls: u64, size: usize, freed: usize) {
    // A thread being torn down has no counters left to bump.
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        c.set(Allocs {
            calls: n.calls + calls,
            bytes: n.bytes + size as u64,
            live: n.live + size as i64 - freed as i64,
        });
    });
}

/// Runs `work` on this thread and returns what it allocated here.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, Allocs) {
    let before = COUNTS.with(Cell::get);
    let out = work();
    let after = COUNTS.with(Cell::get);
    let allocs = Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
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
                live: MIB as i64
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
}
