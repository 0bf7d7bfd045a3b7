//! Allocation ratchet for the functional MapReduce path: allocator calls
//! of the twelve ratio runs (six apps at the two scales `hhsim-core`'s
//! `AppRatios` measures them at), per app over both scales, input
//! generation included.
//!
//! Its own test binary so it may install a counting `#[global_allocator]`,
//! with one `#[test]` so nothing else allocates while it counts. The runs
//! are single-threaded, so the counts repeat exactly, which is why a count
//! can be a gate. Each app is held at or below what it allocated when the
//! pin was set; after a change that lowers a count, lower its pin to the
//! table this test prints (`cargo test --release -p hhsim-workloads --test
//! functional_allocs -- --nocapture`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use hhsim_workloads::{AppId, FunctionalConfig};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ON.load(SeqCst) {
        ALLOCS.fetch_add(1, SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The two ratio scales; held to the `config` lines of the golden table
/// `functional_pins` checks, so the two tests run the same twelve runs.
const SCALES: [FunctionalConfig; 2] = [
    FunctionalConfig {
        input_bytes: 768 << 10,
        block_bytes: 96 << 10,
        sort_buffer_bytes: 64 << 10,
        num_reducers: 4,
        seed: 0x5eed,
    },
    FunctionalConfig {
        input_bytes: 192 << 10,
        block_bytes: 48 << 10,
        sort_buffer_bytes: 32 << 10,
        num_reducers: 4,
        seed: 0x5eee,
    },
];

/// Allocator calls per app over both scales, in `AppId::ALL` order. The
/// parent of shared-buffer `Line` records and the arena FP-tree read WC
/// 22 914, ST 48 528, GP 18 768, TS 50 633, NB 17 135 and FP 230 193 here.
const PINS: [(AppId, u64); 6] = [
    (AppId::WordCount, 4_692),
    (AppId::Sort, 957),
    (AppId::Grep, 546),
    (AppId::TeraSort, 1_083),
    (AppId::NaiveBayes, 5_500),
    (AppId::FpGrowth, 5_471),
];

/// Allocator calls of `work`, which runs on this thread alone.
fn counted(work: impl FnOnce()) -> u64 {
    ALLOCS.store(0, SeqCst);
    ON.store(true, SeqCst);
    work();
    ON.store(false, SeqCst);
    ALLOCS.load(SeqCst)
}

#[test]
fn functional_runs_stay_within_their_allocation_pins() {
    let golden = include_str!("golden/functional.txt");
    for cfg in &SCALES {
        assert!(
            golden.contains(&format!("{cfg:?}")),
            "{cfg:?} is not a config line of golden/functional.txt"
        );
    }

    let mut table = String::from("app  calls      pin\n");
    let mut over = Vec::new();
    for (app, pin) in PINS {
        let calls: u64 = SCALES
            .iter()
            .map(|cfg| counted(|| drop(app.run_functional(cfg))))
            .sum();
        writeln!(table, "{:<4} {calls:<9} {pin}", app.short_name()).expect("String write");
        if calls > pin {
            over.push(app);
        }
    }
    println!("{table}");
    assert!(
        over.is_empty(),
        "{over:?} allocate more than their pins:\n{table}"
    );
}
