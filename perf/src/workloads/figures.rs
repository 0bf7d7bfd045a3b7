//! `figures-cold` and `figures-warm`: regenerate all 34 artifacts of
//! `results/` and compare them byte for byte with the checked-in files.
//!
//! The two workloads run the same code against the same memo
//! ([`SimCache::global`]) used differently: cold clears it before every
//! pass, so the functional MapReduce runs behind `ratios(app)` dominate;
//! warm populates it in set-up, so a pass is the cache-hierarchy
//! simulation of fig1/fig2 (never memoised) plus the model and
//! replication hit paths.

use crate::clock::Stopwatch;
use std::io;
use std::path::Path;

use hhsim_core::arch::{presets, ComputeProfile, Frequency, TraceGenerator};
use hhsim_core::figures::Generator;
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{calibration, harness, reduce_fetch_seconds, AppRatios, SimCache, SimConfig};

use super::{PassOut, Workload};
use crate::digest::Digest;
use crate::metrics::{rate, Layers};
use crate::trace::Tracer;

/// Renders of the whole artifact set per warm pass (one warm render is
/// about a third of a cold one).
const WARM_RENDERS: usize = 3;
/// Addresses replayed by the `arch.accesses_per_s` probe.
const PROBE_ACCESSES: usize = 2_000_000;
/// Sweeps of the fig3 grid by the `model.points_per_s.warm` probe.
const PROBE_GRID_SWEEPS: usize = 25;
/// 12-node / 4-rack all-to-all solves by the `shuffle.small` probe.
const PROBE_SMALL_SOLVES: usize = 200;

/// Artifacts that ship a Chrome trace and a utilization CSV.
type TraceWriter = fn(&mut Vec<u8>, &mut Vec<u8>) -> io::Result<()>;
const TRACED: [(&str, TraceWriter); 4] = [
    ("fig18", hhsim_bench::write_fig18_trace),
    ("fig19", hhsim_bench::write_fig19_trace),
    ("fig21", hhsim_bench::write_fig21_trace),
    ("fig22", hhsim_bench::write_fig22_trace),
];

/// Which `figures.render_s.*` metric an artifact is attributed to.
fn group(id: &str) -> &'static str {
    match id {
        "table1" | "table2" | "fig1" | "fig2" => "figures.render_s.arch",
        "fig3" | "fig4" => "figures.render_s.exec",
        "fig18" | "fig19" | "fig21" => "figures.render_s.cluster",
        "fig20" | "fig22" => "figures.render_s.replication",
        _ => "figures.render_s.model",
    }
}

/// One rendered artifact set.
#[derive(Default)]
struct Rendered {
    /// `(file name, bytes)` in render order.
    files: Vec<(String, Vec<u8>)>,
    attempted: u64,
    failed: u64,
}

impl Rendered {
    fn push(&mut self, name: String, bytes: io::Result<Vec<u8>>) {
        self.attempted += 1;
        match bytes {
            Ok(b) => self.files.push((name, b)),
            Err(_) => self.failed += 1,
        }
    }
}

/// Renders one artifact: its CSV, plus trace and utilization files for
/// the four that ship them.
fn render_artifact(id: &str, generator: Generator, out: &mut Rendered) {
    let csv = generator()
        .map(|f| f.to_csv().into_bytes())
        .map_err(|e| io::Error::other(e.to_string()));
    out.push(format!("{id}.csv"), csv);
    if let Some((_, write)) = TRACED.iter().find(|(tid, _)| *tid == id) {
        let (mut trace, mut util) = (Vec::new(), Vec::new());
        let done = write(&mut trace, &mut util);
        let ok = done.is_ok();
        out.push(format!("{id}_trace.json"), done.map(|()| trace));
        if ok {
            out.push(format!("{id}_util.csv"), Ok(util));
        } else {
            out.push(
                format!("{id}_util.csv"),
                Err(io::Error::other("trace failed")),
            );
        }
    }
}

fn render_calibration(out: &mut Rendered) {
    let report = calibration::report(&calibration::check_all());
    out.push("calibration.txt".to_string(), Ok(report.into_bytes()));
}

/// Every artifact in paper order, then the calibration report; one span
/// per artifact, attributed to its `figures.render_s.*` group.
fn render_all(tracer: &mut Tracer, layers: &mut Layers) -> Rendered {
    let mut out = Rendered::default();
    for (id, generator) in hhsim_core::figures::all() {
        let (_, secs) = tracer.span(&format!("render:{id}"), "figures", |_| {
            render_artifact(id, generator, &mut out)
        });
        layers.add(group(id), secs);
    }
    let (_, secs) = tracer.span("render:calibration", "calibration", |_| {
        render_calibration(&mut out)
    });
    layers.add("calibration.check_s", secs);
    out
}

/// The fig3 grid (machines x micro-benchmarks x block sizes x frequencies).
fn fig3_grid() -> Vec<SimConfig> {
    let mut grid = Vec::new();
    for m in presets::both() {
        for app in AppId::MICRO {
            for b in BlockSize::SWEEP {
                for f in Frequency::SWEEP {
                    grid.push(
                        SimConfig::new(app, m.clone())
                            .frequency(f)
                            .block_size(b)
                            .data_per_node(hhsim_core::figures::MICRO_DATA),
                    );
                }
            }
        }
    }
    grid
}

pub struct Figures {
    warm: bool,
    /// The checked-in `results/` files, loaded in set-up.
    reference: Vec<(String, Vec<u8>)>,
}

impl Figures {
    pub fn cold() -> Self {
        Figures {
            warm: false,
            reference: Vec::new(),
        }
    }

    pub fn warm() -> Self {
        Figures {
            warm: true,
            reference: Vec::new(),
        }
    }

    fn renders(&self) -> usize {
        if self.warm {
            WARM_RENDERS
        } else {
            1
        }
    }

    /// Byte-compares one rendered set with `results/` and folds it into
    /// the digest.
    fn verify(&self, set: &Rendered, digest: &mut Digest) -> bool {
        let mut ok = set.files.len() == self.reference.len();
        for (name, bytes) in &set.files {
            digest.bytes(name.as_bytes());
            digest.bytes(bytes);
            let same = self
                .reference
                .iter()
                .any(|(rn, rb)| rn == name && rb == bytes);
            if !same {
                eprintln!("figures: {name} differs from results/{name}");
                ok = false;
            }
        }
        ok
    }

    /// Record and spill counts of the twelve functional runs behind the
    /// ratios (memo hits by now, so looked up after the pass's memo
    /// counters were read).
    fn mapreduce_counts(layers: &mut Layers) {
        let (mut records, mut spills) = (0u64, 0u64);
        for app in AppId::ALL {
            for cfg in [AppRatios::reference_config(), AppRatios::small_config()] {
                let run = SimCache::global().functional_run(app, &cfg);
                records += run.stats.map_input_records;
                spills += run.stats.spills;
            }
        }
        let functional_s: f64 = ["wc", "st", "gp", "ts", "nb", "fp"]
            .iter()
            .map(|a| layers.get(&format!("workloads.functional_s.{a}")))
            .sum();
        layers.set("mapreduce.map_records", records as f64);
        layers.set("mapreduce.spills", spills as f64);
        layers.set(
            "mapreduce.records_per_s",
            rate(records as f64, functional_s),
        );
    }

    /// The staging of the traced pass: bottom-up at one worker, `ratios(app)`
    /// per app and then every `stall_split`, so that each memoised layer is
    /// attributed to itself and not to the first figure that happens to
    /// need it. The renders that follow find both memo tables warm.
    fn stage_memo(tracer: &mut Tracer, layers: &mut Layers) {
        let cache = SimCache::global();
        for app in AppId::ALL {
            let name = format!("ratios:{}", app.short_name());
            let (_, secs) = tracer.span(&name, "workloads", |_| cache.ratios(app));
            layers.add(
                match app {
                    AppId::WordCount => "workloads.functional_s.wc",
                    AppId::Sort => "workloads.functional_s.st",
                    AppId::Grep => "workloads.functional_s.gp",
                    AppId::TeraSort => "workloads.functional_s.ts",
                    AppId::NaiveBayes => "workloads.functional_s.nb",
                    AppId::FpGrowth => "workloads.functional_s.fp",
                },
                secs,
            );
        }
        let (_, secs) = tracer.span("stall_split:all", "arch", |_| {
            for m in presets::both() {
                for app in AppId::ALL {
                    cache.stall_split(&m, &app.map_profile());
                    cache.stall_split(&m, &app.reduce_profile());
                }
            }
        });
        layers.add("arch.stall_split_s", secs);
    }
}

impl Workload for Figures {
    fn uses_seed(&self) -> bool {
        false
    }

    /// Loads the 34 reference files and renders everything once: on
    /// `figures-warm` that render is what populates the memo; on
    /// `figures-cold` it is the warm-up that gets lazy process state out
    /// of the timed passes (each of which clears the memo again).
    fn setup(&mut self, _seed: u64, _layers: &mut Layers) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let mut names: Vec<String> = hhsim_bench::artifact_ids()
            .iter()
            .map(|id| format!("{id}.csv"))
            .collect();
        for (id, _) in TRACED {
            names.push(format!("{id}_trace.json"));
            names.push(format!("{id}_util.csv"));
        }
        names.push("calibration.txt".to_string());
        self.reference = names
            .into_iter()
            .filter_map(|n| std::fs::read(dir.join(&n)).ok().map(|b| (n, b)))
            .collect();
        SimCache::global().clear();
        std::hint::black_box(render_all(&mut Tracer::new(false), &mut Layers::default()));
    }

    fn pass(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> PassOut {
        let cache = SimCache::global();
        let staged = tracer.enabled();
        let jobs = harness::jobs();
        if staged {
            harness::set_jobs(1);
        }
        let started = Stopwatch::start();
        if !self.warm {
            cache.clear();
        }
        let cache_before = cache.stats();
        let harness_before = harness::snapshot();
        let sets: Vec<Rendered> = (0..self.renders())
            .map(|_| {
                if staged {
                    Self::stage_memo(tracer, layers);
                }
                render_all(tracer, layers)
            })
            .collect();
        let wall_s = started.seconds();
        harness::set_jobs(jobs);

        let used = cache.stats().since(&cache_before);
        let grids = harness::snapshot().since(&harness_before);
        layers.set("simcache.hits", used.hits as f64);
        layers.set("simcache.misses", used.misses as f64);
        layers.set("simcache.hit_ratio", used.hit_rate());
        layers.set("simcache.run_entries", used.run_entries as f64);
        layers.set("simcache.stall_entries", used.stall_entries as f64);
        layers.set("simcache.phase_entries", used.phase_entries as f64);
        layers.set("harness.points", grids.points as f64);
        layers.set("harness.grids", grids.grids as f64);
        if staged && !self.warm {
            // On the warm workload the ratios are hits: no record moves.
            Self::mapreduce_counts(layers);
        }
        let mut digest = Digest::new();
        let mut verified = true;
        let (mut attempted, mut failed) = (0, 0);
        for set in &sets {
            verified &= self.verify(set, &mut digest);
            attempted += set.attempted;
            failed += set.failed;
        }
        layers.set("figures.bytes", digest.len() as f64);
        PassOut {
            wall_s,
            digest: digest.finish(),
            verified,
            attempted,
            failed,
        }
    }

    fn probes(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        // Cache-hierarchy simulation alone: replay a pre-generated Hadoop
        // address trace through the Xeon hierarchy.
        let mut addrs = vec![0u64; PROBE_ACCESSES];
        TraceGenerator::new(ComputeProfile::hadoop_average().mem, 1).fill(&mut addrs);
        let mut hierarchy = presets::xeon_e5_2420().hierarchy();
        let (_, secs) = tracer.span("probe:cache_access", "arch", |_| {
            for &a in &addrs {
                std::hint::black_box(hierarchy.access(a));
            }
        });
        layers.set("arch.accesses_per_s", rate(PROBE_ACCESSES as f64, secs));

        if self.warm {
            // Memo-warm node model: the fig3 grid, all hits.
            let grid = fig3_grid();
            let (_, secs) = tracer.span("probe:model_warm", "model", |_| {
                for _ in 0..PROBE_GRID_SWEEPS {
                    std::hint::black_box(harness::run_grid_with(&grid, 1));
                }
            });
            layers.set(
                "model.points_per_s.warm",
                rate((PROBE_GRID_SWEEPS * grid.len()) as f64, secs),
            );
            layers.set("shuffle.small.solves_per_s", small_shuffle_probe(tracer));
        } else {
            // What the worker pool buys on a cold pass: 1 worker vs 2.
            let mut cold_at = |workers: usize| {
                let jobs = harness::jobs();
                harness::set_jobs(workers);
                SimCache::global().clear();
                let name = format!("probe:cold_pass_{workers}w");
                let (_, secs) = tracer.span(&name, "harness", |t| {
                    std::hint::black_box(render_all(t, &mut Layers::default()))
                });
                harness::set_jobs(jobs);
                secs
            };
            let one = cold_at(1);
            let two = cold_at(2);
            layers.set("harness.scaling_2w", rate(one, two));
        }
    }
}

/// `reduce_fetch_seconds` at the fig21/fig22 scale (12 nodes, 4 racks,
/// 4x oversubscription): the solver size the model and the replication
/// harness actually call. Returns solves per second.
pub(super) fn small_shuffle_probe(tracer: &mut Tracer) -> f64 {
    let topology = Topology::racked(
        hhsim_core::figures::TOPO_RACKS,
        hhsim_core::figures::FIG22_OVERSUB,
    );
    let (_, secs) = tracer.span("probe:shuffle_small", "shuffle", |_| {
        for i in 0..PROBE_SMALL_SOLVES {
            std::hint::black_box(reduce_fetch_seconds(
                &topology,
                hhsim_core::figures::TOPO_NODES,
                24,
                1.0e9 + i as f64,
            ));
        }
    });
    rate(PROBE_SMALL_SOLVES as f64, secs)
}
