//! `hhsim-perf` — the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- --workload figures-cold
//! cargo run --release --manifest-path perf/Cargo.toml -- --workload replicate --seed 7 --trace 1
//! cargo run --release --manifest-path perf/Cargo.toml -- --all
//! cargo run --release --manifest-path perf/Cargo.toml -- --calibrate
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! stdout is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). The exit code is 1 when a check failed and 2 on a usage
//! error.

mod alloc;
mod clock;
mod digest;
mod json;
mod metrics;
mod refkernel;
mod stats;
mod trace;
mod workloads;

use crate::clock::Stopwatch;
use std::io::Write as _;
use std::path::Path;

use hhsim_core::{calibration, harness};

use json::Metric;
use metrics::{Layers, END_TO_END, PER_LAYER};
use stats::{median, spread};
use trace::Tracer;
use workloads::{PassOut, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Harness workers during timed and traced passes (the counted pass and
/// the staged figures pass run at one). Engine and solver workloads are
/// single-threaded anyway.
const WORKERS: usize = 2;
/// Repetitions of the set-up sequence behind `setup_s`: at least
/// [`MIN_SETUPS`]; a set-up that takes milliseconds is repeated until a
/// second has been spent on it (at most [`MAX_SETUPS`] times), because
/// the median of three such timings is not steady.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;
/// Timed passes of an untraced run: as many as fit `--seconds`, within
/// these limits. A traced run times only [`TRACED_RUN_PASSES`].
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 9;
const TRACED_RUN_PASSES: usize = 5;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hhsim-perf (--workload <name> | --all | --calibrate) \
         [--seed N] [--seconds N] [--trace 0|1]\nworkloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                match workloads::NAMES.iter().find(|n| **n == name) {
                    Some(n) => args.workloads.push(n),
                    None => {
                        eprintln!("unknown workload `{name}`");
                        usage()
                    }
                }
            }
            "--all" => args.workloads = workloads::NAMES.to_vec(),
            "--calibrate" => {
                args.calibrate = true;
                args.workloads = workloads::NAMES.to_vec();
            }
            "--seed" => match value("an integer").parse() {
                Ok(n) => args.seed = n,
                Err(_) => usage(),
            },
            "--seconds" => match value("a number of seconds").parse::<f64>() {
                Ok(n) if n > 0.0 && n <= 600.0 => args.seconds = n,
                _ => usage(),
            },
            "--trace" => match value("0 or 1").as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => usage(),
            },
            _ => {
                eprintln!("unknown argument `{flag}`");
                usage()
            }
        }
    }
    if args.workloads.is_empty() {
        usage();
    }
    args
}

/// The timed region of one run: passes bracketed by the reference kernel.
struct Timed {
    /// Pass wall seconds, in order.
    wall_s: Vec<f64>,
    /// Each pass's wall over the mean of its two bracketing kernel runs.
    time_ref: Vec<f64>,
    /// Every reference-kernel run, in order (one more than passes).
    refs: Vec<refkernel::RefTimes>,
    outs: Vec<PassOut>,
}

impl Timed {
    /// Median seconds of one whole reference-kernel run.
    fn ref_s(&self) -> f64 {
        median(&self.refs.iter().map(|r| r.total_s()).collect::<Vec<_>>())
    }
}

/// Runs passes until `seconds` of measured work (passes plus kernels)
/// have elapsed, within `[min_passes, max_passes]`.
fn timed_passes(
    workload: &mut dyn Workload,
    seconds: f64,
    min_passes: usize,
    max_passes: usize,
) -> Timed {
    let mut t = Timed {
        wall_s: Vec::new(),
        time_ref: Vec::new(),
        refs: vec![refkernel::run()],
        outs: Vec::new(),
    };
    let mut tracer = Tracer::new(false);
    let started = Stopwatch::start();
    while t.outs.len() < max_passes && (t.outs.len() < min_passes || started.seconds() < seconds) {
        let out = workload.pass(&mut tracer, &mut Layers::default());
        let after = refkernel::run();
        let before = t.refs[t.refs.len() - 1];
        t.time_ref
            .push(out.wall_s / ((before.total_s() + after.total_s()) / 2.0));
        t.wall_s.push(out.wall_s);
        t.refs.push(after);
        t.outs.push(out);
    }
    t
}

/// Paper-fidelity numbers from `calibration::check_all()`.
struct Fidelity {
    claims_held: f64,
    median_rel_err: f64,
    max_rel_err: f64,
}

fn fidelity() -> Fidelity {
    let targets = calibration::check_all();
    let held = targets.iter().filter(|t| t.holds).count();
    let errs: Vec<f64> = targets
        .iter()
        .filter(|t| t.paper.is_finite() && t.paper != 0.0)
        .map(|t| (t.measured - t.paper).abs() / t.paper.abs())
        .collect();
    Fidelity {
        claims_held: held as f64 / targets.len().max(1) as f64,
        median_rel_err: median(&errs),
        max_rel_err: errs.iter().copied().fold(0.0, f64::max),
    }
}

/// Peak resident set size (VmHWM) in MB, 0 if unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of one workload reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Share of `outs` that verified and hash like the first pass.
fn digest_ok(outs: &[&PassOut]) -> f64 {
    let first = outs.first().map(|o| o.digest);
    let good = outs
        .iter()
        .filter(|o| o.verified && Some(o.digest) == first)
        .count();
    good as f64 / outs.len().max(1) as f64
}

fn say(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<34} {:>20} {unit:<6} {note}", json::number(value));
}

/// An untraced run: repeated set-up, timed passes, one counted pass.
/// Prints and returns every end-to-end metric.
fn run_untraced(name: &str, seed: u64, seconds: f64) -> Report {
    let mut workload = workloads::by_name(name).expect("name was validated");
    harness::set_jobs(WORKERS);
    let fidelity = fidelity();

    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t0 = Stopwatch::start();
        workload.setup(seed, &mut Layers::default());
        setups.push(t0.seconds());
    }

    let timed = timed_passes(workload.as_mut(), seconds, MIN_PASSES, MAX_PASSES);

    // Counted pass: one worker, so the process is single-threaded and
    // the counts repeat exactly.
    harness::set_jobs(1);
    let (counted, heap) =
        alloc::counted(|| workload.pass(&mut Tracer::new(false), &mut Layers::default()));
    harness::set_jobs(WORKERS);

    let outs: Vec<&PassOut> = timed.outs.iter().chain([&counted]).collect();
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let ok = digest_ok(&outs);
    let values = [
        median(&setups),
        median(&timed.time_ref),
        heap.allocs as f64,
        heap.bytes as f64 / 1e6,
        heap.peak_live as f64 / 1e6,
        ok,
        fidelity.claims_held,
        fidelity.median_rel_err,
        fidelity.max_rel_err,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();

    let passes = timed.outs.len();
    for m in &metrics {
        let note = match m.name {
            "setup_s" => format!("median of {} set-ups", setups.len()),
            "time_ref" => format!("median of {passes} passes, pass / reference kernel"),
            "allocs" | "alloc_mb" | "peak_live_mb" => "counted pass, 1 worker".to_string(),
            "digest_ok" => format!("{} passes verified and hashed alike", outs.len()),
            _ => "calibration::check_all()".to_string(),
        };
        say(m.name, m.value, m.unit, &note);
    }
    say(
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        &format!("{failed} of {attempted} operations failed"),
    );
    let walls = &timed.wall_s;
    println!(
        "# {name}: pass wall median {:.4} s (min {:.4}, max {:.4}), reference kernel median \
         {:.4} s, time_ref spread {:.4}, wall spread {:.4}, digest {:08x}",
        median(walls),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        timed.ref_s(),
        spread(&timed.time_ref),
        spread(walls),
        counted.digest & 0xffff_ffff,
    );
    Report {
        correct: ok == 1.0 && failed == 0 && fidelity.claims_held > 0.0,
        attempted,
        failed,
        metrics,
    }
}

/// A traced run: set-up once, a few untraced passes for comparison, one
/// traced pass, the workload's probes. Writes
/// `perf/out/trace-<workload>.json`; prints and returns every per-layer
/// metric.
fn run_traced(name: &str, seed: u64) -> Report {
    let mut workload = workloads::by_name(name).expect("name was validated");
    harness::set_jobs(WORKERS);
    let mut layers = Layers::default();
    workload.setup(seed, &mut layers);
    let timed = timed_passes(workload.as_mut(), 0.0, TRACED_RUN_PASSES, TRACED_RUN_PASSES);

    let mut tracer = Tracer::new(true);
    tracer.next_pass();
    let (traced, _) = tracer.span(&format!("pass:{name}"), "bench", |t| {
        workload.pass(t, &mut layers)
    });
    let traced_pass = 1;
    tracer.next_pass();
    workload.probes(&mut tracer, &mut layers);

    let untraced = median(&timed.wall_s);
    layers.set("bench.wall_s", untraced);
    layers.set("bench.ref_s", timed.ref_s());
    layers.set("bench.pass_spread", spread(&timed.time_ref));
    layers.set(
        "bench.trace_overhead",
        (traced.wall_s - untraced) / untraced,
    );
    layers.set("bench.peak_rss_mb", peak_rss_mb());
    layers.set("sim.digest", (traced.digest & 0xffff_ffff) as f64);

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_chrome_trace(&mut w)?;
            w.flush()
        });
    if let Err(e) = &written {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers.get(name),
            unit,
        })
        .collect();
    for m in &metrics {
        say(m.name, m.value, m.unit, "");
    }
    let self_s = trace::layer_self_s(tracer.spans(), traced_pass);
    let split: Vec<String> = self_s
        .iter()
        .map(|(layer, s)| format!("{layer} {s:.4}"))
        .collect();
    println!(
        "# {name}: traced pass {:.4} s vs untraced median {untraced:.4} s; self seconds by \
         layer: {}; trace in {}",
        traced.wall_s,
        split.join(", "),
        path.display()
    );

    let outs: Vec<&PassOut> = timed.outs.iter().chain([&traced]).collect();
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    Report {
        correct: digest_ok(&outs) == 1.0 && failed == 0 && written.is_ok(),
        attempted,
        failed,
        metrics,
    }
}

/// `--calibrate`: what the reference kernel buys. For every workload,
/// the spread of the per-pass time when divided by nothing, by each part
/// of the kernel alone, and by the whole kernel.
fn calibrate(names: &[&'static str], seed: u64, seconds: f64) {
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "wall_s", "ref_s", "raw", "/alu", "/mem", "/str", "/mixed"
    );
    for name in names {
        let mut workload = workloads::by_name(name).expect("name was validated");
        harness::set_jobs(WORKERS);
        workload.setup(seed, &mut Layers::default());
        let t = timed_passes(workload.as_mut(), seconds, MIN_PASSES, MAX_PASSES);
        let by = |part: fn(&refkernel::RefTimes) -> f64| -> f64 {
            let ratios: Vec<f64> = t
                .wall_s
                .iter()
                .enumerate()
                .map(|(i, w)| w / ((part(&t.refs[i]) + part(&t.refs[i + 1])) / 2.0))
                .collect();
            spread(&ratios)
        };
        println!(
            "{name:<16} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            median(&t.wall_s),
            t.ref_s(),
            spread(&t.wall_s),
            by(|r| r.alu_s),
            by(|r| r.mem_s),
            by(|r| r.str_s),
            by(|r| r.total_s()),
        );
    }
    println!(
        "# columns raw../mixed: (p75 - p25) / median of the per-pass time over that divisor; \
         bench.ref_s is ref_s, bench.pass_spread is /mixed"
    );
}

fn main() {
    let args = parse_args();
    if args.calibrate {
        calibrate(&args.workloads, args.seed, args.seconds);
        return;
    }
    let mut all_correct = true;
    for name in &args.workloads {
        let seeded = workloads::by_name(name).is_some_and(|w| w.uses_seed());
        println!(
            "# workload {name}, seed {}{}, {} harness workers, {} cores available",
            args.seed,
            if seeded {
                ""
            } else {
                " (ignored: the paper's fixed artifact set)"
            },
            WORKERS,
            harness::available_jobs(),
        );
        let report = if args.trace {
            run_traced(name, args.seed)
        } else {
            run_untraced(name, args.seed, args.seconds)
        };
        all_correct &= report.correct;
        println!(
            "{}",
            json::result_line(
                report.correct,
                report.attempted,
                report.failed,
                &report.metrics
            )
        );
    }
    if !all_correct {
        std::process::exit(1);
    }
}
