//! Pins the functional path below `results/`: every `JobStats` counter of
//! twelve functional runs (six apps at two scales: the reference scale
//! `hhsim-core`'s `AppRatios` reads, and the small scale the benchmark's
//! `mapreduce_counts` probe runs) and an FNV-64 digest of each input
//! generator's bytes at both scales, against the checked-in table
//! `tests/golden/functional.txt`. A datagen or job-path change that moves
//! one byte fails here, naming the generator or the counter, before any
//! figure moves.
//!
//! After an intentional change, paste the table this test prints on
//! failure over the golden file (`cargo test -p hhsim-workloads --test
//! functional_pins -- --nocapture`).

use std::fmt::Write as _;

use hhsim_mapreduce::JobStats;
use hhsim_workloads::{datagen, AppId, FunctionalConfig};

/// The two scales of `AppRatios::reference_config` (what the ratios read)
/// and `AppRatios::small_config` (what the benchmark's `mapreduce_counts`
/// probe runs beside it). `hhsim-core`'s ratio tests hold those to the
/// `config` lines of the golden table, so neither side can drift alone.
const SCALES: [(&str, FunctionalConfig); 2] = [
    (
        "reference",
        FunctionalConfig {
            input_bytes: 768 << 10,
            block_bytes: 96 << 10,
            sort_buffer_bytes: 64 << 10,
            num_reducers: 4,
            seed: 0x5eed,
        },
    ),
    (
        "small",
        FunctionalConfig {
            input_bytes: 192 << 10,
            block_bytes: 48 << 10,
            sort_buffer_bytes: 32 << 10,
            num_reducers: 4,
            seed: 0x5eee,
        },
    ),
];

const GOLDEN: &str = include_str!("golden/functional.txt");

/// FNV-1a, 64 bits.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every counter of one job, by name.
fn counters(s: &JobStats) -> Vec<(&'static str, u64)> {
    vec![
        ("map_tasks", s.map_tasks as u64),
        ("reduce_tasks", s.reduce_tasks as u64),
        ("map_input_bytes", s.map_input_bytes),
        ("map_input_records", s.map_input_records),
        ("map_output_records", s.map_output_records),
        ("map_output_bytes", s.map_output_bytes),
        ("map_materialized_records", s.map_materialized_records),
        ("map_materialized_bytes", s.map_materialized_bytes),
        ("combine_input_records", s.combine_input_records),
        ("combine_output_records", s.combine_output_records),
        ("spills", s.spills),
        ("spill_write_bytes", s.spill_write_bytes),
        ("map_merge_bytes", s.map_merge_bytes),
        ("map_merge_passes", s.map_merge_passes),
        ("shuffle_bytes", s.shuffle_bytes),
        ("reduce_merge_bytes", s.reduce_merge_bytes),
        ("reduce_merge_passes", s.reduce_merge_passes),
        ("reduce_input_groups", s.reduce_input_groups),
        ("reduce_input_records", s.reduce_input_records),
        ("output_records", s.output_records),
        ("output_bytes", s.output_bytes),
    ]
}

/// The table as the code produces it today: one line per scale, per
/// generator and scale, and per counter of every job of every ratio run.
fn current_table() -> String {
    let mut t = String::new();
    for (scale, cfg) in &SCALES {
        writeln!(t, "config {scale} {cfg:?}").unwrap();
    }
    for (scale, cfg) in &SCALES {
        let (bytes, seed) = (cfg.input_bytes, cfg.seed);
        let generated = [
            ("text", datagen::text(bytes, seed)),
            ("table", datagen::table(bytes, seed)),
            ("teragen", datagen::teragen(bytes, seed)),
            ("labeled_docs", datagen::labeled_docs(bytes, 4, seed)),
            ("transactions", datagen::transactions(bytes, seed)),
        ];
        for (name, data) in generated {
            writeln!(
                t,
                "datagen {name} {scale} len={},fnv64={:#018x}",
                data.len(),
                fnv64(&data)
            )
            .unwrap();
        }
    }
    for app in AppId::ALL {
        for (scale, cfg) in &SCALES {
            let run = app.run_functional(cfg);
            for (job, stats) in run.per_job.iter().enumerate() {
                for (counter, value) in counters(stats) {
                    let app = app.short_name();
                    writeln!(t, "run {app} {scale} job{job} {counter} {value}").unwrap();
                }
            }
        }
    }
    t
}

/// A line is `<kind> <name...> <value>`: a changed value keeps the line's
/// name, so what moved is reported by name.
fn name(line: &str) -> &str {
    line.rsplit_once(' ').map_or(line, |(name, _)| name)
}

#[test]
fn functional_path_matches_the_pinned_table() {
    let got = current_table();
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) = (
        got.lines().collect(),
        GOLDEN.lines().filter(|l| !l.starts_with('#')).collect(),
    );
    let mut moved = Vec::new();
    for want in &want_lines {
        match got_lines.iter().find(|g| name(g) == name(want)) {
            Some(g) if g != want => moved.push(format!("{g}   (pinned: {want})")),
            Some(_) => {}
            None => moved.push(format!("missing: {want}")),
        }
    }
    for g in &got_lines {
        if !want_lines.iter().any(|w| name(w) == name(g)) {
            moved.push(format!("new: {g}"));
        }
    }
    if !moved.is_empty() {
        println!("{got}");
    }
    assert!(
        moved.is_empty(),
        "the functional path moved ({} lines):\n{}",
        moved.len(),
        moved.join("\n")
    );
}
