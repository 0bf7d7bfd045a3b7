//! Allocation ratchet for the functional MapReduce path: allocator calls,
//! bytes requested and peak live bytes of the twelve pinned functional runs
//! (six apps at the reference scale `hhsim-core`'s `AppRatios` reads and at
//! the small scale the benchmark's `mapreduce_counts` probe runs), per app
//! over both scales, input generation included. Calls and bytes are summed
//! over the two runs; the peak is the larger run's.
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

/// The reference and small scales; held to the `config` lines of the
/// golden table `functional_pins` checks, so the two tests run the same
/// twelve runs.
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

/// `[calls, bytes, peak]` per app, in `AppId::ALL` order. The parent of
/// shared-buffer `Line` records and the arena FP-tree read WC 22 914, ST
/// 48 528, GP 18 768, TS 50 633, NB 17 135 and FP 230 193 calls here. The parent of the job
/// workspace (one set of spill buffers per job, combiners reading the
/// sorted buffer, map outputs reaching reducers as their spill runs) read
/// calls / bytes / peak: WC 4 692 / 45 995 256 / 3 826 344, ST 957 /
/// 12 698 088 / 2 279 336, GP 546 / 5 361 134 / 1 573 000, TS 1 083 /
/// 10 360 136 / 1 821 824, NB 5 500 / 66 795 336 / 5 677 128 and FP
/// 5 471 / 50 933 394 / 3 162 246 (FP still decoding its patterns). The
/// parent of counters-only `JobStats` (no per-task I/O vectors) read WC
/// 824, ST 725, GP 335, TS 555, NB 941 and FP 1 708 calls.
const PINS: [(AppId, [u64; 3]); 6] = [
    (AppId::WordCount, [813, 17_810_560, 3_642_568]),
    (AppId::Sort, [718, 8_884_480, 2_345_256]),
    (AppId::Grep, [306, 4_205_294, 1_573_000]),
    (AppId::TeraSort, [544, 7_409_544, 1_821_600]),
    (AppId::NaiveBayes, [930, 29_548_336, 5_685_096]),
    (AppId::FpGrowth, [1_676, 24_643_176, 3_179_502]),
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

    let mut table = String::from("app  calls    bytes       peak      pin\n");
    let mut moved = Vec::new();
    for (app, pin) in PINS {
        let mut got = [0u64; 3];
        for cfg in &SCALES {
            let ((), a) = counted(|| drop(app.run_functional(cfg)));
            got = [got[0] + a.calls, got[1] + a.bytes, got[2].max(a.peak)];
        }
        let [calls, bytes, peak] = got;
        writeln!(
            table,
            "{:<4} {calls:<8} {bytes:<11} {peak:<9} {pin:?}",
            app.short_name()
        )
        .expect("String write");
        if got != pin {
            moved.push(app);
        }
    }
    println!("{table}");
    assert!(
        moved.is_empty(),
        "{moved:?} allocate other than their pins:\n{table}"
    );
}
