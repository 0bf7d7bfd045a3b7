//! Regenerates the paper's tables and figures as CSV.
//!
//! ```text
//! cargo run --release -p hhsim-bench --bin figures              # everything
//! cargo run --release -p hhsim-bench --bin figures -- fig3      # one artifact
//! cargo run --release -p hhsim-bench --bin figures -- --jobs 4  # 4 workers
//! cargo run --release -p hhsim-bench --bin figures -- calibration
//! ```
//!
//! Everything lands in `results/`: a CSV per table and figure, the trace
//! and utilization pair of the four traced figures, and the
//! paper-vs-measured report `calibration.txt` (artifact id `calibration`).
//! `--jobs N` sets the sweep harness's worker count (default: all
//! available cores; `--jobs 1` forces serial execution — the output CSVs
//! are byte-identical either way). Each artifact line reports the grid
//! size, wall time and simulation-cache hit rate observed while
//! rendering it.

// The sweep binary reports wall-clock runtimes per figure; crates/bench
// is in the wall-clock exempt list of analysis.toml for the same reason.
#![allow(clippy::disallowed_methods)]

use std::fs;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use hhsim_core::{harness, SimCache, SimConfig};

/// Streams the trace JSON + utilization CSV pair of `cfg`'s run to disk
/// through buffered writers, keeping memory flat however many spans the
/// timeline holds.
fn stream_trace(cfg: &SimConfig, trace_path: &Path, util_path: &Path) -> io::Result<()> {
    let mut trace = BufWriter::new(File::create(trace_path)?);
    let mut util = BufWriter::new(File::create(util_path)?);
    hhsim_bench::write_trace(cfg, &mut trace, &mut util)?;
    trace.flush()?;
    util.flush()
}

/// Artifact id of the paper-vs-measured report, `results/calibration.txt`.
const CALIBRATION: &str = "calibration";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // --jobs N (or --jobs=N): worker count for the sweep harness.
    if let Some(i) = args
        .iter()
        .position(|a| a == "--jobs" || a.starts_with("--jobs="))
    {
        let value = if args[i] == "--jobs" {
            if i + 1 >= args.len() {
                eprintln!("--jobs requires a worker count");
                std::process::exit(2);
            }
            args.remove(i + 1)
        } else {
            args[i].trim_start_matches("--jobs=").to_string()
        };
        args.remove(i);
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => harness::set_jobs(n),
            _ => {
                eprintln!("invalid --jobs value `{value}` (need an integer >= 1)");
                std::process::exit(2);
            }
        }
    }

    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results/");

    let mut known = hhsim_bench::artifact_ids();
    known.push(CALIBRATION);
    let named: Vec<&str> = args.iter().map(String::as_str).collect();
    let wanted = if named.is_empty() { &known } else { &named };

    println!(
        "sweep harness: {} worker(s) ({} cores available)",
        harness::jobs(),
        harness::available_jobs()
    );
    let run_started = Instant::now();
    let cache_start = SimCache::global().stats();
    let harness_start = harness::snapshot();

    for &id in wanted {
        if id == CALIBRATION {
            let targets = hhsim_core::calibration::check_all();
            let path = out_dir.join("calibration.txt");
            fs::write(&path, hhsim_core::calibration::report(&targets))
                .expect("write calibration report");
            println!(
                "wrote {} ({}/{} claims hold)",
                path.display(),
                targets.iter().filter(|t| t.holds).count(),
                targets.len()
            );
            continue;
        }
        let fig_started = Instant::now();
        let cache_before = SimCache::global().stats();
        let harness_before = harness::snapshot();
        match hhsim_bench::render(id) {
            Some(Err(e)) => {
                // Typed diagnosis instead of a panic: an invalid config, or
                // a fault sweep lost a job unrecoverably (e.g. every
                // replica of a block died).
                eprintln!("{id}: {e}");
                std::process::exit(1);
            }
            Some(Ok((id, csv))) => {
                let path = out_dir.join(format!("{id}.csv"));
                fs::write(&path, &csv).expect("write figure CSV");
                if let Some((_, cfg)) = hhsim_bench::TRACES.iter().find(|(tid, _)| *tid == id) {
                    // A traced figure ships its representative run beside
                    // the CSV: a Chrome-trace timeline plus per-node
                    // utilization steps, streamed straight to disk.
                    let tp = out_dir.join(format!("{id}_trace.json"));
                    let up = out_dir.join(format!("{id}_util.csv"));
                    if let Err(e) = stream_trace(&cfg(), &tp, &up) {
                        eprintln!("{id}: trace: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote {} and {}", tp.display(), up.display());
                }
                let cache = SimCache::global().stats().since(&cache_before);
                let grid = harness::snapshot().since(&harness_before);
                println!(
                    "wrote {} ({} rows): {} points in {:.2?}, cache {}/{} hits ({:.0}%)",
                    path.display(),
                    csv.lines().count() - 2,
                    grid.points,
                    fig_started.elapsed(),
                    cache.hits,
                    cache.lookups(),
                    cache.hit_rate() * 100.0,
                );
            }
            None => {
                eprintln!("unknown artifact `{id}`; known: {known:?}");
                std::process::exit(2);
            }
        }
    }

    let cache = SimCache::global().stats().since(&cache_start);
    let grids = harness::snapshot().since(&harness_start);
    println!(
        "total: {} points over {} grids in {:.2?} ({} workers); \
         cache {}/{} hits ({:.1}%), {} stall + {} run + {} phase entries",
        grids.points,
        grids.grids,
        run_started.elapsed(),
        harness::jobs(),
        cache.hits,
        cache.lookups(),
        cache.hit_rate() * 100.0,
        cache.stall_entries,
        cache.run_entries,
        cache.phase_entries,
    );
}
