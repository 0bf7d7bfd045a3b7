//! Allocation ratchet for the functional MapReduce path: allocator calls
//! of the twelve ratio runs (six apps at the two scales `hhsim-core`'s
//! `AppRatios` measures them at), per app over both scales, input
//! generation included.
//!
//! Its own test binary so it may install a counting `#[global_allocator]`
//! (`hhsim_testkit::Counting`). Counts are of the thread that runs the
//! work, and the runs are single-threaded, so the counts repeat exactly,
//! which is why a count can be a gate. Each app is held to exactly what it
//! allocated when the pin was set: after a change that moves a count, set
//! its pin to the table this test prints (`cargo test --release -p
//! hhsim-workloads --test functional_allocs -- --nocapture`), which a
//! lower count may and a higher one must justify.

use std::fmt::Write as _;

use hhsim_testkit::{counted, Counting};
use hhsim_workloads::{AppId, FunctionalConfig};

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
    let mut moved = Vec::new();
    for (app, pin) in PINS {
        let calls: u64 = SCALES
            .iter()
            .map(|cfg| counted(|| drop(app.run_functional(cfg))).1.calls)
            .sum();
        writeln!(table, "{:<4} {calls:<9} {pin}", app.short_name()).expect("String write");
        if calls != pin {
            moved.push(app);
        }
    }
    println!("{table}");
    assert!(
        moved.is_empty(),
        "{moved:?} allocate other than their pins:\n{table}"
    );
}
