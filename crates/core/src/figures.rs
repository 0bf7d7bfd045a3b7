//! Generators for every table and figure in the paper's evaluation.
//!
//! Each function reproduces one artifact as a [`FigureData`] table
//! (`series`, `x`, `value` rows, CSV-ready). Absolute values are in model
//! units; the *shapes* — who wins, by what factor, where crossovers fall —
//! are the reproduction targets, checked against
//! [`crate::calibration`].
//!
//! Every simulation-backed generator flattens its nested loops into a
//! [`Sweep`] grid: points are registered first (capturing their indices
//! in row specs), the whole grid runs on the parallel memoized harness
//! ([`crate::harness`]), and rows are assembled from the returned
//! measurements in registration order. Output is therefore identical for
//! any `--jobs` worker count.

use std::borrow::Cow;

use hhsim_accel::AccelConfig;
use hhsim_arch::{presets, ComputeProfile, Frequency, MachineModel};
use hhsim_energy::MetricKind;
use hhsim_hdfs::{BlockSize, Topology};
use hhsim_workloads::AppId;

use hhsim_faults::{DomainConfig, FaultConfig, RecoveryPolicy};

use crate::harness::{self, ReplicationPlan, Sweep};
use crate::model::{Measurement, NodeMix, PlacementKind, Reading, SimConfig, SimError};
use crate::report::FigureData;
use crate::simcache::{MemoKey, SimCache};

/// Per-node data size used for micro-benchmarks (1 GB, §3).
pub const MICRO_DATA: u64 = 1 << 30;
/// Per-node data size used for real-world applications (10 GB, §3).
pub const REAL_DATA: u64 = 10 << 30;

fn machines() -> [MachineModel; 2] {
    presets::both()
}

fn cfg(app: AppId, m: &MachineModel) -> SimConfig {
    SimConfig::new(app, m.clone())
}

fn label(m: &MachineModel) -> &'static str {
    match m.core.kind {
        hhsim_arch::CoreKind::Big => "Xeon",
        hhsim_arch::CoreKind::Little => "Atom",
    }
}

/// The paper's data size for `app` (1 GB micro / 10 GB real world).
fn data_for(app: AppId) -> u64 {
    if app.is_real_world() {
        REAL_DATA
    } else {
        MICRO_DATA
    }
}

/// The paper's block-size sweep for `app` (§3.1.1 uses 64–512 MB on the
/// real-world applications).
fn blocks_for(app: AppId) -> &'static [BlockSize] {
    if app.is_real_world() {
        &BlockSize::SWEEP_REAL
    } else {
        &BlockSize::SWEEP
    }
}

/// Table 1: architectural parameters of both machines.
pub fn table1() -> FigureData {
    let mut f = FigureData::new("table1", "Architectural parameters", "value");
    for m in machines() {
        let who = label(&m);
        f.push(who, "issue_width", m.core.issue_width);
        f.push(who, "cores", m.num_cores as f64);
        f.push(who, "cache_levels", m.cache_levels.len() as f64);
        for c in &m.cache_levels {
            f.push(who, format!("{}_kb", c.name), (c.size_bytes / 1024) as f64);
        }
        f.push(who, "memory_gb", m.memory_gb);
        f.push(who, "area_mm2", m.area_mm2);
    }
    f
}

/// Table 2: the studied applications (1 row per app, value = class code
/// 0 = compute, 1 = I/O, 2 = hybrid).
pub fn table2() -> FigureData {
    let mut f = FigureData::new("table2", "Studied Hadoop applications", "class");
    for app in AppId::ALL {
        let class = match app.class() {
            hhsim_workloads::AppClass::Compute => 0.0,
            hhsim_workloads::AppClass::Io => 1.0,
            hhsim_workloads::AppClass::Hybrid => 2.0,
        };
        f.push(app.full_name(), app.domain(), class);
    }
    f
}

/// The three suite-average profiles Figs. 1 and 2 compare.
pub(crate) fn suites() -> [(&'static str, ComputeProfile); 3] {
    [
        ("Avg_Spec", ComputeProfile::spec_average()),
        ("Avg_Parsec", ComputeProfile::parsec_average()),
        ("Avg_Hadoop", ComputeProfile::hadoop_average()),
    ]
}

/// The fill-stage keys of the six (machine, suite) stall splits Figs. 1
/// and 2 read, borrowing the caller's machines and profiles.
pub(crate) fn suite_keys<'a>(
    machines: &'a [MachineModel],
    suites: &'a [(&str, ComputeProfile)],
) -> impl Iterator<Item = MemoKey<'a>> {
    machines.iter().flat_map(move |m| {
        suites
            .iter()
            .map(move |(_, p)| MemoKey::Stall(m, Cow::Borrowed(p)))
    })
}

/// Fills the process-wide memo with the six (machine, suite) stall splits
/// across the harness's pool: Figs. 1 and 2 and the calibration report
/// ask for the same six, and on a warm memo this finds nothing to do.
fn fill_suites(machines: &[MachineModel], suites: &[(&str, ComputeProfile)]) {
    let keys = suite_keys(machines, suites);
    harness::fill_stage(keys, harness::jobs(), SimCache::global());
}

/// CPI of `p` on `m` at `f`, the trace simulation behind it taken from
/// the process-wide memo.
fn suite_cpi(m: &MachineModel, p: &ComputeProfile, f: Frequency) -> f64 {
    let (on_chip, dram_ns) = SimCache::global().stall_split(m, p);
    m.cpi_with_stalls(p, f, on_chip, dram_ns)
}

/// Fig. 1: IPC of SPEC, PARSEC and Hadoop suite averages on both cores.
pub fn fig1() -> FigureData {
    let (machines, suites) = (machines(), suites());
    fill_suites(&machines, &suites);
    let mut f = FigureData::new("fig1", "IPC of SPEC/PARSEC/Hadoop on big and little", "ipc");
    for m in &machines {
        for (name, p) in &suites {
            f.push(label(m), *name, 1.0 / suite_cpi(m, p, Frequency::GHZ_1_8));
        }
    }
    f
}

/// Fig. 2: EDP, ED²P, ED³P ratio (Xeon / Atom) per suite — >1 means the
/// little core is the more efficient choice.
pub fn fig2() -> FigureData {
    let mut f = FigureData::new(
        "fig2",
        "ED^xP ratio Xeon/Atom for SPEC, PARSEC, Hadoop",
        "ratio",
    );
    let (machines, suites) = (machines(), suites());
    fill_suites(&machines, &suites);
    let [xeon, atom] = &machines;
    let freq = Frequency::GHZ_1_8;
    // Fixed-work suite model: N instructions on one core of each machine.
    let n_instr = 2.0e11;
    for (name, p) in &suites {
        let t_x = n_instr * suite_cpi(xeon, p, freq) / freq.hz();
        let t_a = n_instr * suite_cpi(atom, p, freq) / freq.hz();
        let p_x = xeon
            .power
            .node_power(xeon.operating_point(freq), 1, 1, p.activity, 0.4, 0.0)
            .dynamic();
        let p_a = atom
            .power
            .node_power(atom.operating_point(freq), 1, 1, p.activity, 0.4, 0.0)
            .dynamic();
        for x in 1..=3u32 {
            let edxp_x = p_x * t_x * t_x.powi(x as i32 - 1);
            let edxp_a = p_a * t_a * t_a.powi(x as i32 - 1);
            f.push(format!("ED{x}P"), *name, edxp_x / edxp_a);
        }
    }
    f
}

/// Shared sweep: execution time over block sizes × frequencies.
fn exec_sweep(
    id: &str,
    title: &str,
    apps: &[AppId],
    blocks: &[BlockSize],
    data: u64,
) -> FigureData {
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for m in machines() {
        for app in apps {
            for freq in Frequency::SWEEP {
                for b in blocks {
                    let p = sweep.point(
                        cfg(*app, &m)
                            .frequency(freq)
                            .block_size(*b)
                            .data_per_node(data),
                    );
                    rows.push((
                        format!("{}/{}", label(&m), app.short_name()),
                        format!("{}MB@{:.1}GHz", b.mib(), freq.ghz()),
                        p,
                    ));
                }
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(id, title, "seconds");
    for (series, x, p) in rows {
        f.push(series, x, meas[p].breakdown.total());
    }
    f
}

/// Fig. 3: execution time of the micro-benchmarks across HDFS block sizes
/// and frequencies (1 GB/node).
pub fn fig3() -> FigureData {
    exec_sweep(
        "fig3",
        "Execution time, micro-benchmarks vs block size x frequency",
        &AppId::MICRO,
        &BlockSize::SWEEP,
        MICRO_DATA,
    )
}

/// Fig. 4: execution time of the real-world applications (10 GB/node,
/// 64–512 MB blocks per §3.1.1).
pub fn fig4() -> FigureData {
    exec_sweep(
        "fig4",
        "Execution time, real-world applications vs block size x frequency",
        &AppId::REAL,
        &BlockSize::SWEEP_REAL,
        REAL_DATA,
    )
}

/// Shared sweep: whole-application EDP vs frequency, normalized to Atom @
/// 1.2 GHz (the paper's Figs. 5/6 normalization).
fn edp_sweep(id: &str, title: &str, apps: &[AppId], data: u64) -> FigureData {
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in apps {
        let base = sweep.point(
            cfg(*app, &presets::atom_c2758())
                .frequency(Frequency::GHZ_1_2)
                .data_per_node(data),
        );
        for m in machines() {
            for freq in Frequency::SWEEP {
                let p = sweep.point(cfg(*app, &m).frequency(freq).data_per_node(data));
                rows.push((
                    format!("{}/{}", label(&m), app.short_name()),
                    format!("{:.1}GHz", freq.ghz()),
                    p,
                    base,
                ));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(id, title, "edp_norm");
    for (series, x, p, base) in rows {
        f.push(series, x, meas[p].cost.edp() / meas[base].cost.edp());
    }
    f
}

/// Fig. 5: EDP of the entire real-world applications vs frequency.
pub fn fig5() -> FigureData {
    edp_sweep(
        "fig5",
        "EDP of entire real-world apps vs frequency",
        &AppId::REAL,
        REAL_DATA,
    )
}

/// Fig. 6: EDP of the entire micro-benchmarks vs frequency.
pub fn fig6() -> FigureData {
    edp_sweep(
        "fig6",
        "EDP of entire micro-benchmarks vs frequency",
        &AppId::MICRO,
        MICRO_DATA,
    )
}

/// Shared sweep: per-phase EDP vs frequency (Figs. 7/8), normalized to the
/// Atom 1.2 GHz map phase.
fn phase_edp_sweep(id: &str, title: &str, apps: &[AppId], data: u64) -> FigureData {
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in apps {
        let base = sweep.point(
            cfg(*app, &presets::atom_c2758())
                .frequency(Frequency::GHZ_1_2)
                .data_per_node(data),
        );
        for m in machines() {
            for freq in Frequency::SWEEP {
                let p = sweep.point(cfg(*app, &m).frequency(freq).data_per_node(data));
                rows.push((*app, label(&m), freq, p, base));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(id, title, "edp_norm");
    for (app, who, freq, p, base) in rows {
        let norm = meas[base].map_cost.edp().max(1e-12);
        let x = format!("{:.1}GHz", freq.ghz());
        f.push(
            format!("{}/{} map", who, app.short_name()),
            x.clone(),
            meas[p].map_cost.edp() / norm,
        );
        if app.has_reduce() {
            f.push(
                format!("{}/{} reduce", who, app.short_name()),
                x,
                meas[p].reduce_cost.edp() / norm,
            );
        }
    }
    f
}

/// Fig. 7: map/reduce-phase EDP of the micro-benchmarks vs frequency.
pub fn fig7() -> FigureData {
    phase_edp_sweep(
        "fig7",
        "Phase EDP, micro-benchmarks",
        &AppId::MICRO,
        MICRO_DATA,
    )
}

/// Fig. 8: map/reduce-phase EDP of the real-world applications.
pub fn fig8() -> FigureData {
    phase_edp_sweep(
        "fig8",
        "Phase EDP, real-world applications",
        &AppId::REAL,
        REAL_DATA,
    )
}

/// Fig. 9: EDP ratio (Xeon/Atom) vs HDFS block size at 1.8 GHz.
pub fn fig9() -> FigureData {
    let [xeon, atom] = machines();
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let data = data_for(app);
        for b in blocks_for(app) {
            let px = sweep.point(cfg(app, &xeon).block_size(*b).data_per_node(data));
            let pa = sweep.point(cfg(app, &atom).block_size(*b).data_per_node(data));
            rows.push((app, *b, px, pa));
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new("fig9", "EDP ratio Xeon/Atom vs block size @1.8GHz", "ratio");
    for (app, b, px, pa) in rows {
        f.push(
            app.full_name(),
            format!("{}MB", b.mib()),
            meas[px].cost.edp() / meas[pa].cost.edp(),
        );
    }
    f
}

/// Data-size labels of §3.3.
const DATA_SIZES: [(u64, &str); 3] = [(1 << 30, "1GB"), (10 << 30, "10GB"), (20 << 30, "20GB")];

/// Shared sweep: execution-time breakdown and total vs input size.
fn datasize_breakdown(id: &str, title: &str, apps: &[AppId]) -> FigureData {
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for m in machines() {
        for app in apps {
            for (bytes, lbl) in DATA_SIZES {
                let p = sweep.point(cfg(*app, &m).data_per_node(bytes));
                rows.push((format!("{}/{}", label(&m), app.short_name()), lbl, p));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(id, title, "seconds");
    for (s, lbl, p) in rows {
        let b = &meas[p].breakdown;
        f.push(format!("{s} map"), lbl, b.map_s);
        f.push(format!("{s} reduce"), lbl, b.reduce_s);
        f.push(format!("{s} others"), lbl, b.others_s);
        f.push(format!("{s} total"), lbl, b.total());
    }
    f
}

/// Fig. 10: execution breakdown vs input size, micro-benchmarks (WC, TS).
pub fn fig10() -> FigureData {
    datasize_breakdown(
        "fig10",
        "Execution time breakdown vs data size (micro)",
        &[AppId::WordCount, AppId::TeraSort],
    )
}

/// Fig. 11: execution breakdown vs input size, real-world apps (NB, FP).
pub fn fig11() -> FigureData {
    datasize_breakdown(
        "fig11",
        "Execution time breakdown vs data size (real world)",
        &AppId::REAL,
    )
}

/// Fig. 12: whole-application EDP vs input size (normalized per app to
/// Atom @ 1 GB).
pub fn fig12() -> FigureData {
    let [xeon, atom] = machines();
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let base = sweep.point(cfg(app, &atom).data_per_node(1 << 30));
        for (m, who) in [(&atom, "Atom"), (&xeon, "Xeon")] {
            for (bytes, lbl) in DATA_SIZES {
                let p = sweep.point(cfg(app, m).data_per_node(bytes));
                rows.push((format!("{}/{}", who, app.short_name()), lbl, p, base));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(
        "fig12",
        "EDP of entire application vs data size",
        "edp_norm",
    );
    for (series, lbl, p, base) in rows {
        f.push(series, lbl, meas[p].cost.edp() / meas[base].cost.edp());
    }
    f
}

/// Fig. 13: map/reduce-phase EDP vs input size (normalized per app to the
/// Atom 1 GB map phase).
pub fn fig13() -> FigureData {
    let [xeon, atom] = machines();
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let base = sweep.point(cfg(app, &atom).data_per_node(1 << 30));
        for (m, who) in [(&atom, "Atom"), (&xeon, "Xeon")] {
            for (bytes, lbl) in DATA_SIZES {
                let p = sweep.point(cfg(app, m).data_per_node(bytes));
                rows.push((app, who, lbl, p, base));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new("fig13", "Phase EDP vs data size", "edp_norm");
    for (app, who, lbl, p, base) in rows {
        let norm = meas[base].map_cost.edp().max(1e-12);
        f.push(
            format!("{}/{} map", who, app.short_name()),
            lbl,
            meas[p].map_cost.edp() / norm,
        );
        if app.has_reduce() {
            f.push(
                format!("{}/{} reduce", who, app.short_name()),
                lbl,
                meas[p].reduce_cost.edp() / norm,
            );
        }
    }
    f
}

/// Point indices of one Eq. (1) ratio: the Atom→Xeon speedup ratio after
/// vs before acceleration. `before_*` points may be shared between rows
/// that sweep only the accelerator.
struct AccelSpec {
    before_xeon: usize,
    before_atom: usize,
    after_xeon: usize,
    after_atom: usize,
}

impl AccelSpec {
    /// Eq. (1) from the measurements of this spec's four points.
    fn ratio(&self, meas: &[Measurement]) -> f64 {
        let t = |p: usize| meas[p].breakdown.total();
        let before = t(self.before_atom) / t(self.before_xeon);
        let after = t(self.after_atom) / t(self.after_xeon);
        after / before
    }
}

/// Registers the (xeon, atom) pair for one accelerated-or-not point.
fn accel_pair(
    sweep: &mut Sweep,
    app: AppId,
    freq: Frequency,
    block: BlockSize,
    accel: Option<AccelConfig>,
) -> (usize, usize) {
    let [xeon, atom] = machines();
    let mk = |m: &MachineModel| {
        let mut c = cfg(app, m)
            .frequency(freq)
            .block_size(block)
            .data_per_node(data_for(app));
        if let Some(a) = accel {
            c = c.accelerator(a);
        }
        c
    };
    (sweep.point(mk(&xeon)), sweep.point(mk(&atom)))
}

/// Fig. 14: speedup ratio (Eq. 1) vs mapper acceleration rate 1–100×.
pub fn fig14() -> FigureData {
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        // The unaccelerated baseline is independent of the rate: register
        // it once per app and share it across the sweep's rows.
        let (bx, ba) = accel_pair(&mut sweep, app, Frequency::GHZ_1_8, BlockSize::MB_512, None);
        for acc in AccelConfig::sweep() {
            let (ax, aa) = accel_pair(
                &mut sweep,
                app,
                Frequency::GHZ_1_8,
                BlockSize::MB_512,
                Some(acc),
            );
            rows.push((
                app,
                format!("{:.0}x", acc.rate),
                AccelSpec {
                    before_xeon: bx,
                    before_atom: ba,
                    after_xeon: ax,
                    after_atom: aa,
                },
            ));
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(
        "fig14",
        "Atom vs Xeon speedup after/before acceleration vs rate",
        "ratio",
    );
    for (app, x, spec) in rows {
        f.push(app.full_name(), x, spec.ratio(&meas));
    }
    f
}

/// Fig. 15: speedup ratio (Eq. 1) at 20× acceleration vs frequency.
pub fn fig15() -> FigureData {
    let acc = AccelConfig::fpga(20.0);
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for freq in Frequency::SWEEP {
            let (bx, ba) = accel_pair(&mut sweep, app, freq, BlockSize::MB_512, None);
            let (ax, aa) = accel_pair(&mut sweep, app, freq, BlockSize::MB_512, Some(acc));
            rows.push((
                app,
                format!("{:.1}GHz", freq.ghz()),
                AccelSpec {
                    before_xeon: bx,
                    before_atom: ba,
                    after_xeon: ax,
                    after_atom: aa,
                },
            ));
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new("fig15", "Acceleration ratio vs frequency", "ratio");
    for (app, x, spec) in rows {
        f.push(app.full_name(), x, spec.ratio(&meas));
    }
    f
}

/// Fig. 16: speedup ratio (Eq. 1) at 20× acceleration vs block size.
pub fn fig16() -> FigureData {
    let acc = AccelConfig::fpga(20.0);
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for b in blocks_for(app) {
            let (bx, ba) = accel_pair(&mut sweep, app, Frequency::GHZ_1_8, *b, None);
            let (ax, aa) = accel_pair(&mut sweep, app, Frequency::GHZ_1_8, *b, Some(acc));
            rows.push((
                app,
                format!("{}MB", b.mib()),
                AccelSpec {
                    before_xeon: bx,
                    before_atom: ba,
                    after_xeon: ax,
                    after_atom: aa,
                },
            ));
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new("fig16", "Acceleration ratio vs block size", "ratio");
    for (app, x, spec) in rows {
        f.push(app.full_name(), x, spec.ratio(&meas));
    }
    f
}

/// Core counts studied in Table 3 / Fig. 17.
pub const CORE_SWEEP: [usize; 4] = [2, 4, 6, 8];

/// Block size for the scheduling study. The paper states 512 MB, but on
/// 1 GB/node inputs that yields only 2 map tasks per node, so core-count
/// scaling could never manifest; 128 MB gives 8 tasks/node (≥ the largest
/// M), which is the regime the paper's Table 3 numbers clearly come from
/// (256 MB keeps 4 tasks per node: parallelism scales up to M=8 while the
/// workload still resembles the large-block configuration).
pub const SCHED_BLOCK: BlockSize = BlockSize::MB_256;

/// Table 3: operational (ED^xP) and capital (ED^xAP) cost for 2–8 cores
/// on both machines, 512 MB blocks @ 1.8 GHz (§3.5).
pub fn table3() -> FigureData {
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for m in machines() {
        for app in AppId::ALL {
            for cores in CORE_SWEEP {
                let p = sweep.point(
                    cfg(app, &m)
                        .data_per_node(data_for(app))
                        .block_size(SCHED_BLOCK)
                        .mappers(cores),
                );
                rows.push((app, format!("{}/M{}", label(&m), cores), p));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new("table3", "Operational and capital cost vs cores", "value");
    for (app, x, p) in rows {
        let cost = &meas[p].cost;
        f.push(format!("EDP/{}", app.short_name()), x.clone(), cost.edp());
        f.push(format!("ED2P/{}", app.short_name()), x.clone(), cost.ed2p());
        f.push(format!("EDAP/{}", app.short_name()), x.clone(), cost.edap());
        f.push(format!("ED2AP/{}", app.short_name()), x, cost.ed2ap());
    }
    f
}

/// Fig. 17: spider-chart data — the four cost metrics normalized to the
/// 8-Xeon-core configuration of each application.
pub fn fig17() -> FigureData {
    let [xeon, atom] = machines();
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let data = data_for(app);
        let base = sweep.point(
            cfg(app, &xeon)
                .data_per_node(data)
                .block_size(SCHED_BLOCK)
                .mappers(8),
        );
        for (m, who) in [(&atom, "A"), (&xeon, "X")] {
            for cores in CORE_SWEEP {
                let p = sweep.point(
                    cfg(app, m)
                        .data_per_node(data)
                        .block_size(SCHED_BLOCK)
                        .mappers(cores),
                );
                rows.push((app, who, cores, p, base));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new("fig17", "Costs normalized to 8 Xeon cores", "norm");
    for (app, who, cores, p, base) in rows {
        for k in MetricKind::ALL {
            f.push(
                format!("{}/{}{}", app.short_name(), cores, who),
                k.to_string(),
                meas[p].cost.get(k) / meas[base].cost.get(k),
            );
        }
    }
    f
}

/// Heterogeneous node mixes studied in Fig. 18, as (big, little) counts —
/// same 3-node budget as the homogeneous baselines.
pub const MIX_SWEEP: [(usize, usize); 2] = [(1, 2), (2, 1)];

/// Fig. 18 (model extension): whole-application EDP on heterogeneous
/// big+little clusters driven by the §3.5 class-aware placement, against
/// the homogeneous 3-node Xeon and Atom baselines (256 MB @ 1.8 GHz).
/// Every series is a 3-node roster read by the per-node meter (a roster
/// with a zero side is the homogeneous cluster), so the ratios isolate the
/// cluster's composition, not the 8–33 % the two meters disagree by. On
/// one meter the 1×Xeon+2×Atom mix beats both baselines on Sort only; the
/// Atom cluster has the lowest EDP on the other five applications.
pub fn fig18() -> FigureData {
    // A mix ignores the configured machine; any preset will do.
    let xeon = presets::xeon_e5_2420();
    // Nothing to prefer on a roster of one kind: first free slot.
    let baselines = [(3, 0), (0, 3)].map(|roster| (roster, PlacementKind::FifoAny));
    let mixes = MIX_SWEEP.map(|roster| (roster, PlacementKind::PaperClass(MetricKind::Edp)));
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for ((big, little), placement) in baselines.into_iter().chain(mixes) {
            let p = sweep.point(
                cfg(app, &xeon)
                    .data_per_node(data_for(app))
                    .block_size(SCHED_BLOCK)
                    .mix(NodeMix {
                        big,
                        little,
                        placement,
                    }),
            );
            let series = match (big, little) {
                (_, 0) => format!("Xeon{big}"),
                (0, _) => format!("Atom{little}"),
                _ => format!("Mix{big}X{little}A"),
            };
            rows.push((series, app, p));
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(
        "fig18",
        "EDP: mixed big+little clusters vs homogeneous baselines",
        "edp",
    );
    for (series, app, p) in rows {
        f.push(series, app.short_name(), meas[p].cost.edp());
    }
    f
}

/// Per-attempt failure probabilities swept in Fig. 19.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.03, 0.06, 0.12];

/// Seed for every Fig. 19 fault schedule; fixed so the checked-in
/// artifacts regenerate byte-identically.
pub const FIG19_SEED: u64 = 0x00F1_95EE_D001;

/// Block size for the Fig. 19 fault study: 64 MB keeps ~16 tasks per
/// node, so per-attempt failure draws are numerous enough for the rate
/// sweep to bite and tasks are fine-grained enough to re-execute.
pub const FAULT_BLOCK: BlockSize = BlockSize::MB_64;

/// The Fig. 19 fault model at one point of the failure-rate sweep:
/// per-attempt task failures at `rate` for both phases, plus a background
/// straggler population (40% of nodes at 2.5x) that gives speculative
/// execution something to recover even at rate 0. The LATE minimum
/// runtime drops to 2 s because 64 MB tasks are short.
pub fn fig19_faults(rate: f64, speculation: bool) -> FaultConfig {
    let mut recovery = RecoveryPolicy::hadoop();
    recovery.speculation = speculation;
    recovery.spec_min_runtime_s = 2.0;
    FaultConfig::none()
        .seed(FIG19_SEED)
        .failure_rates(rate, rate)
        .stragglers(0.4, 2.5)
        .recovery(recovery)
}

/// Fig. 19 (model extension): makespan and EDP degradation vs per-attempt
/// failure rate on the Fig. 18 clusters, with and without LATE-style
/// speculation, normalized to each cluster's fault-free run. Every point —
/// including the fault-free baselines — uses the event-driven cluster
/// engine so the ratios isolate the cost of faults, not engine differences.
///
/// # Errors
///
/// Returns the first [`SimError`] of a point: an unrecoverable one is a
/// typed "job failed" instead of a panic.
pub fn fig19() -> Result<FigureData, SimError> {
    let [xeon, atom] = machines();
    type ClusterSpec<'a> = (&'a str, &'a MachineModel, Option<(usize, usize)>);
    let clusters: [ClusterSpec; 3] = [
        ("Xeon3", &xeon, None),
        ("Atom3", &atom, None),
        ("Mix1X2A", &xeon, Some((1, 2))),
    ];
    let point = |app: AppId, m: &MachineModel, mix: Option<(usize, usize)>| {
        let mut c = cfg(app, m)
            .data_per_node(data_for(app))
            .block_size(FAULT_BLOCK);
        if let Some((big, little)) = mix {
            c = c.mix(NodeMix {
                big,
                little,
                placement: PlacementKind::PaperClass(MetricKind::Edp),
            });
        }
        c
    };
    let mut f = FigureData::new(
        "fig19",
        "Makespan and EDP degradation vs failure rate, with/without speculation",
        "ratio",
    );
    for app in [AppId::WordCount, AppId::TeraSort] {
        for (who, m, mix) in clusters {
            let clean = point(app, m, mix)
                .run(SimCache::global(), Reading::PerNode)?
                .0;
            for speculation in [true, false] {
                let mode = if speculation { "spec" } else { "nospec" };
                for rate in FAULT_RATES {
                    let c = point(app, m, mix).faults(fig19_faults(rate, speculation));
                    let meas = c.run(SimCache::global(), Reading::PerNode)?.0;
                    let x = format!("{rate:.2}");
                    f.push(
                        format!("T/{who}/{}/{mode}", app.short_name()),
                        x.clone(),
                        meas.breakdown.total() / clean.breakdown.total(),
                    );
                    f.push(
                        format!("EDP/{who}/{}/{mode}", app.short_name()),
                        x,
                        meas.cost.edp() / clean.cost.edp(),
                    );
                }
            }
        }
    }
    Ok(f)
}

/// Fault-seed replications behind every Fig. 20 point.
pub const FIG20_SEEDS: u64 = 32;

/// First fault seed of the Fig. 20 sweep (seeds run consecutively from
/// here); fixed so the checked-in artifact regenerates byte-identically.
pub const FIG20_SEED: u64 = 0x00F2_05EE_D000;

/// Fig. 20 (model extension): seed-swept replication study of the
/// Fig. 19 fault sweep. Each point replicates one cluster/rate
/// configuration over [`FIG20_SEEDS`] fault seeds through the batched
/// replication engine ([`ReplicationPlan`]) and reports the mean
/// makespan and exact-energy EDP with 95% confidence bands (`*lo`/`*hi`
/// series), normalized to the cluster's fault-free run. Speculation is
/// on everywhere (the paper's default recovery), and the straggler
/// population keeps the bands non-degenerate even at rate 0.
///
/// # Errors
///
/// Returns the [`SimError`] of an unrecoverable baseline run (the
/// replicated points themselves absorb failed seeds as `failed_runs`).
pub fn fig20() -> Result<FigureData, SimError> {
    let [xeon, atom] = machines();
    type ClusterSpec<'a> = (&'a str, &'a MachineModel, Option<(usize, usize)>);
    let clusters: [ClusterSpec; 3] = [
        ("Xeon3", &xeon, None),
        ("Atom3", &atom, None),
        ("Mix1X2A", &xeon, Some((1, 2))),
    ];
    let point = |app: AppId, m: &MachineModel, mix: Option<(usize, usize)>| {
        let mut c = cfg(app, m)
            .data_per_node(data_for(app))
            .block_size(FAULT_BLOCK);
        if let Some((big, little)) = mix {
            c = c.mix(NodeMix {
                big,
                little,
                placement: PlacementKind::PaperClass(MetricKind::Edp),
            });
        }
        c
    };
    let mut f = FigureData::new(
        "fig20",
        "Replicated makespan and EDP vs failure rate, 95% confidence bands",
        "ratio",
    );
    for app in [AppId::WordCount, AppId::TeraSort] {
        for (who, m, mix) in clusters {
            let clean = point(app, m, mix)
                .run(SimCache::global(), Reading::PerNode)?
                .0;
            let clean_t = clean.breakdown.total();
            let clean_edp = clean.exact_energy_j * clean_t;
            for rate in FAULT_RATES {
                let c = point(app, m, mix).faults(fig19_faults(rate, true));
                let s = ReplicationPlan::new(c, FIG20_SEED..FIG20_SEED + FIG20_SEEDS).run();
                let x = format!("{rate:.2}");
                let name = |metric: &str| format!("{metric}/{who}/{}", app.short_name());
                f.push(name("T"), x.clone(), s.makespan_s.mean / clean_t);
                f.push(name("Tlo"), x.clone(), s.makespan_s.lo() / clean_t);
                f.push(name("Thi"), x.clone(), s.makespan_s.hi() / clean_t);
                f.push(name("EDP"), x.clone(), s.edp.mean / clean_edp);
                f.push(name("EDPlo"), x.clone(), s.edp.lo() / clean_edp);
                f.push(name("EDPhi"), x, s.edp.hi() / clean_edp);
            }
        }
    }
    Ok(f)
}

/// ToR-uplink oversubscription factors swept in Fig. 21.
pub const OVERSUB_SWEEP: [f64; 3] = [1.0, 4.0, 16.0];

/// HDFS block sizes swept in Fig. 21 (the §3.1.1 block-size axis).
pub const TOPO_BLOCKS: [BlockSize; 3] = [BlockSize::MB_64, BlockSize::MB_256, BlockSize::MB_512];

/// Racks in the Fig. 21 fabric: three nodes per rack at 12 nodes.
pub const TOPO_RACKS: usize = 4;

/// Nodes in each Fig. 21 cluster — the Fig. 18 rosters scaled 4x, so a
/// replication-3 layout no longer covers every node and the locality
/// tiers become observable.
pub const TOPO_NODES: usize = 12;

/// Fig. 21 (model extension): locality-tier mix, phase times and EDP on
/// the two-tier rack fabric, sweeping ToR oversubscription × HDFS block
/// size over the Fig. 18 cluster shapes scaled to [`TOPO_NODES`] nodes
/// (TeraSort — the shuffle-heavy app). Small blocks outnumber the
/// cluster's slots, so late waves cannot find a free replica holder and
/// map reads leave the node (the tier mix shifts with block size), while
/// oversubscription throttles the cross-rack shuffle (reduce time and
/// EDP respond monotonically).
pub fn fig21() -> FigureData {
    // hhsim: allow(panic-in-engine): irrefutable [_; 2] destructure, not indexing
    let [xeon, atom] = machines();
    type ClusterSpec<'a> = (&'a str, &'a MachineModel, Option<(usize, usize)>);
    let clusters: [ClusterSpec; 3] = [
        ("Xeon12", &xeon, None),
        ("Atom12", &atom, None),
        ("Mix4X8A", &xeon, Some((4, 8))),
    ];
    let app = AppId::TeraSort;
    let mut sweep = Sweep::new();
    let mut rows = Vec::new();
    for (who, m, mix) in clusters {
        for block in TOPO_BLOCKS {
            for over in OVERSUB_SWEEP {
                let mut c = cfg(app, m)
                    .data_per_node(data_for(app))
                    .block_size(block)
                    .topology(Topology::racked(TOPO_RACKS, over));
                match mix {
                    Some((big, little)) => {
                        c = c.mix(NodeMix {
                            big,
                            little,
                            placement: PlacementKind::PaperClass(MetricKind::Edp),
                        });
                    }
                    None => c.nodes = TOPO_NODES,
                }
                let p = sweep.point(c);
                rows.push((who, block, over, p));
            }
        }
    }
    let meas = sweep.run();
    let mut f = FigureData::new(
        "fig21",
        "Locality-tier mix and EDP vs ToR oversubscription and block size",
        "mixed",
    );
    for (who, block, over, p) in rows {
        let Some(m) = meas.get(p) else { continue };
        let x = format!("{}MB/{over}x", block.bytes() >> 20);
        // hhsim: allow(panic-in-engine): irrefutable [_; 3] destructure, not indexing
        let [nl, rl, of] = m.map_locality_tiers;
        let total = (nl + rl + of).max(1) as f64;
        f.push(format!("EDP/{who}"), x.clone(), m.cost.edp());
        f.push(format!("Tred/{who}"), x.clone(), m.breakdown.reduce_s);
        f.push(format!("Tmap/{who}"), x.clone(), m.breakdown.map_s);
        f.push(format!("NL/{who}"), x.clone(), nl as f64 / total);
        f.push(format!("RL/{who}"), x.clone(), rl as f64 / total);
        f.push(format!("OF/{who}"), x, of as f64 / total);
    }
    f
}

/// Per-rack failure rates (expected ToR-switch crashes per hour) swept
/// in Fig. 22; 0 is the rack-fault-free baseline.
pub const FIG22_RATES: [f64; 4] = [0.0, 1.0, 4.0, 8.0];

/// Fault-seed replications behind every Fig. 22 point.
pub const FIG22_SEEDS: u64 = 32;

/// First fault seed of the Fig. 22 sweep (seeds run consecutively from
/// here); fixed so the checked-in artifacts regenerate byte-identically.
pub const FIG22_SEED: u64 = 0x00F2_25EE_D000;

/// ToR oversubscription of the Fig. 22 fabric (the middle of the
/// Fig. 21 sweep).
pub const FIG22_OVERSUB: f64 = 4.0;

/// The Fig. 22 fault model at one rack-failure rate (`per_hour`
/// expected switch crashes per rack per hour): correlated rack outages
/// on the [`TOPO_RACKS`]-rack fabric over the Fig. 19 straggler
/// background, so speculation has work at rate 0 and the sweep isolates
/// the cost of losing racks — cancelled shuffles, fetch-failure map
/// re-execution, off-rack recovery reads.
pub fn fig22_faults(per_hour: f64, speculation: bool) -> FaultConfig {
    let mut recovery = RecoveryPolicy::hadoop();
    recovery.speculation = speculation;
    recovery.spec_min_runtime_s = 2.0;
    let mut fc = FaultConfig::none()
        .seed(FIG22_SEED)
        .stragglers(0.4, 2.5)
        .recovery(recovery);
    if per_hour > 0.0 {
        fc = fc.domains(
            DomainConfig::none()
                .racks(TOPO_RACKS)
                .switch_mttf(3600.0 / per_hour),
        );
    }
    fc
}

/// Fig. 22 (model extension): makespan and EDP degradation vs rack
/// failure rate on the Fig. 21 12-node/4-rack clusters (TeraSort,
/// 256 MB blocks, 4x oversubscription), with and without speculation.
/// A switch crash takes a whole rack's nodes — and the map outputs on
/// them — offline at once: in-flight shuffle flows cancel, reduces
/// register fetch failures, and lost maps re-execute on surviving
/// replica holders. Each point replicates over [`FIG22_SEEDS`] fault
/// seeds; `T`/`EDP` report the mean over the replications that finish,
/// normalized to the cluster's rack-fault-free clean run, and `Pfail`
/// reports the fraction of seeds whose job died outright (every replica
/// of some block lost, or no usable node left) — the availability side
/// of the robustness story.
///
/// # Errors
///
/// Returns the [`SimError`] of an unrecoverable baseline run (the
/// replicated points themselves absorb failed seeds as `failed_runs`,
/// surfaced through the `Pfail` series).
pub fn fig22() -> Result<FigureData, SimError> {
    // hhsim: allow(panic-in-engine): irrefutable [_; 2] destructure, not indexing
    let [xeon, atom] = machines();
    type ClusterSpec<'a> = (&'a str, &'a MachineModel, Option<(usize, usize)>);
    let clusters: [ClusterSpec; 3] = [
        ("Xeon12", &xeon, None),
        ("Atom12", &atom, None),
        ("Mix4X8A", &xeon, Some((4, 8))),
    ];
    let app = AppId::TeraSort;
    let point = |m: &MachineModel, mix: Option<(usize, usize)>, rate: f64, spec: bool| {
        let mut c = cfg(app, m)
            .data_per_node(data_for(app))
            .block_size(BlockSize::MB_256)
            .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
            .faults(fig22_faults(rate, spec));
        match mix {
            Some((big, little)) => {
                c = c.mix(NodeMix {
                    big,
                    little,
                    placement: PlacementKind::PaperClass(MetricKind::Edp),
                });
            }
            None => c.nodes = TOPO_NODES,
        }
        c
    };
    let mut f = FigureData::new(
        "fig22",
        "Makespan, EDP and job-failure probability vs rack failure rate",
        "ratio",
    );
    for (who, m, mix) in clusters {
        for speculation in [true, false] {
            let mode = if speculation { "spec" } else { "nospec" };
            // The clean anchor has no faults at all: degradation at rate 0
            // then shows the straggler background, like Fig. 19/20.
            let mut clean_cfg = point(m, mix, 0.0, speculation);
            clean_cfg.faults = None;
            let clean = clean_cfg.run(SimCache::global(), Reading::PerNode)?.0;
            let clean_t = clean.breakdown.total();
            let clean_edp = clean.exact_energy_j * clean_t;
            for rate in FIG22_RATES {
                let c = point(m, mix, rate, speculation);
                let s = ReplicationPlan::new(c, FIG22_SEED..FIG22_SEED + FIG22_SEEDS).run();
                let x = format!("{rate:.0}");
                let name = |metric: &str| format!("{metric}/{who}/{mode}");
                f.push(name("T"), x.clone(), s.makespan_s.mean / clean_t);
                f.push(name("EDP"), x.clone(), s.edp.mean / clean_edp);
                let p_fail = s.failed_runs as f64 / s.replications.max(1) as f64;
                f.push(name("Pfail"), x, p_fail);
            }
        }
    }
    Ok(f)
}

/// A figure/table generator: produces one artifact's data from scratch,
/// or the typed [`SimError`] of a point it runs directly — an invalid
/// config, or a fault configuration that fails the job ("job failed"
/// diagnosis instead of a panic).
pub type Generator = fn() -> Result<FigureData, SimError>;

/// Every generator keyed by id, for the CLI harness.
pub fn all() -> Vec<(&'static str, Generator)> {
    vec![
        ("table1", (|| Ok(table1())) as Generator),
        ("table2", || Ok(table2())),
        ("fig1", || Ok(fig1())),
        ("fig2", || Ok(fig2())),
        ("fig3", || Ok(fig3())),
        ("fig4", || Ok(fig4())),
        ("fig5", || Ok(fig5())),
        ("fig6", || Ok(fig6())),
        ("fig7", || Ok(fig7())),
        ("fig8", || Ok(fig8())),
        ("fig9", || Ok(fig9())),
        ("fig10", || Ok(fig10())),
        ("fig11", || Ok(fig11())),
        ("fig12", || Ok(fig12())),
        ("fig13", || Ok(fig13())),
        ("fig14", || Ok(fig14())),
        ("fig15", || Ok(fig15())),
        ("fig16", || Ok(fig16())),
        ("table3", || Ok(table3())),
        ("fig17", || Ok(fig17())),
        ("fig18", || Ok(fig18())),
        ("fig19", fig19),
        ("fig20", fig20),
        ("fig21", || Ok(fig21())),
        ("fig22", fig22),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_relationships() {
        let f = fig1();
        let xh = f.value("Xeon", "Avg_Hadoop").expect("present");
        let xs = f.value("Xeon", "Avg_Spec").expect("present");
        let ah = f.value("Atom", "Avg_Hadoop").expect("present");
        let as_ = f.value("Atom", "Avg_Spec").expect("present");
        assert!(xs / xh > 1.6, "Hadoop IPC far below SPEC on big core");
        assert!(as_ / ah > 1.2, "Hadoop IPC below SPEC on little core");
        assert!((1.2..=1.8).contains(&(xh / ah)), "paper: 1.43x");
    }

    #[test]
    fn fig2_gap_narrows_with_delay_pressure() {
        let f = fig2();
        for suite in ["Avg_Spec", "Avg_Hadoop"] {
            let e1 = f.value("ED1P", suite).expect("present");
            let e3 = f.value("ED3P", suite).expect("present");
            assert!(e3 < e1, "{suite}: delay pressure must favour Xeon");
        }
    }

    #[test]
    fn fig9_has_all_apps() {
        let f = fig9();
        for app in AppId::ALL {
            assert!(
                !f.series(app.full_name()).is_empty(),
                "{app} missing from fig9"
            );
        }
    }

    #[test]
    fn fig14_ratios_at_most_one() {
        let f = fig14();
        for r in &f.rows {
            assert!(
                r.value <= 1.05,
                "acceleration cannot increase Xeon's advantage: {} {} {}",
                r.series,
                r.x,
                r.value
            );
        }
    }

    #[test]
    fn all_generators_are_registered() {
        assert_eq!(all().len(), 25, "3 tables + 22 figure artifacts");
    }

    #[test]
    fn fig18_mixed_cluster_beats_both_homogeneous_somewhere() {
        let f = fig18();
        let edp = |series: &str, app: AppId| {
            f.rows
                .iter()
                .find(|r| r.series == series && r.x == app.short_name())
                .map(|r| r.value)
                .expect("fig18 row")
        };
        let wins = AppId::ALL.into_iter().any(|app| {
            let (x, a) = (edp("Xeon3", app), edp("Atom3", app));
            MIX_SWEEP
                .iter()
                .map(|(b, l)| edp(&format!("Mix{b}X{l}A"), app))
                .any(|m| m < x && m < a)
        });
        assert!(
            wins,
            "some mixed cluster must beat both homogeneous baselines on EDP"
        );
    }

    #[test]
    fn fig18_series_share_one_meter() {
        let f = fig18();
        let [xeon, atom] = machines();
        for app in AppId::ALL {
            for (m, series) in [(&xeon, "Xeon3"), (&atom, "Atom3")] {
                let plain = cfg(app, m)
                    .data_per_node(data_for(app))
                    .block_size(SCHED_BLOCK);
                let (per_node, _) = (plain.run(SimCache::global(), Reading::PerNode))
                    .expect("a valid fault-free run completes");
                assert_eq!(
                    f.value(series, app.short_name()),
                    Some(per_node.cost.edp()),
                    "{series}/{app}"
                );
            }
        }
    }

    #[test]
    fn fig19_faults_degrade_and_speculation_recovers() {
        let f = fig19().expect("fig19 recovers from every injected fault");
        let val = |series: &str, rate: f64| {
            f.rows
                .iter()
                .find(|r| r.series == series && r.x == format!("{rate:.2}"))
                .map(|r| r.value)
                .expect("fig19 row")
        };
        // 2 apps x 3 clusters x 2 modes x 4 rates x 2 metrics.
        assert_eq!(f.rows.len(), 96);
        let (mut low, mut high, mut n) = (0.0, 0.0, 0.0);
        for app in ["WC", "TS"] {
            for who in ["Xeon3", "Atom3", "Mix1X2A"] {
                for mode in ["spec", "nospec"] {
                    let t = format!("T/{who}/{app}/{mode}");
                    // Stragglers alone already cost makespan at rate 0.
                    assert!(val(&t, 0.0) > 1.0, "{t}: stragglers must hurt");
                    low += val(&t, 0.0);
                    high += val(&t, 0.12);
                    n += 1.0;
                }
            }
        }
        // Re-execution makes the worst failure rate cost more on average.
        // (Not per-series: a task failing *on* the straggler node re-runs
        // elsewhere, which can shorten an individual critical path.)
        assert!(
            high / n > low / n,
            "mean degradation must grow with failure rate ({} vs {})",
            high / n,
            low / n
        );
        // The headline claim: on at least one workload, speculation claws
        // back part of the straggler-induced makespan loss.
        let recovered = ["WC", "TS"].iter().any(|app| {
            ["Xeon3", "Atom3", "Mix1X2A"].iter().any(|who| {
                val(&format!("T/{who}/{app}/spec"), 0.0)
                    < val(&format!("T/{who}/{app}/nospec"), 0.0)
            })
        });
        assert!(recovered, "speculation must beat no-speculation somewhere");
    }

    #[test]
    fn fig20_bands_bracket_means_and_widen_with_rate() {
        let f = fig20().expect("fig20's clean baselines cannot fail");
        // 2 apps x 3 clusters x 4 rates x 6 series (T/Tlo/Thi, EDP triple).
        assert_eq!(f.rows.len(), 144);
        let val = |series: &str, rate: f64| {
            f.rows
                .iter()
                .find(|r| r.series == series && r.x == format!("{rate:.2}"))
                .map(|r| r.value)
                .expect("fig20 row")
        };
        let (mut w0, mut w12) = (0.0, 0.0);
        for app in ["WC", "TS"] {
            for who in ["Xeon3", "Atom3", "Mix1X2A"] {
                for metric in ["T", "EDP"] {
                    let s = format!("{metric}/{who}/{app}");
                    for rate in FAULT_RATES {
                        let (lo, mid, hi) = (
                            val(&format!("{metric}lo/{who}/{app}"), rate),
                            val(&s, rate),
                            val(&format!("{metric}hi/{who}/{app}"), rate),
                        );
                        assert!(lo <= mid && mid <= hi, "{s}@{rate}: band must bracket mean");
                        assert!(
                            mid > 0.9,
                            "{s}@{rate}: faults cannot speed up the clean run"
                        );
                    }
                }
                // Confidence bands reflect seed spread: injected failures add
                // variance over the straggler-only baseline at rate 0.
                w0 += val(&format!("Thi/{who}/{app}"), 0.0) - val(&format!("Tlo/{who}/{app}"), 0.0);
                w12 +=
                    val(&format!("Thi/{who}/{app}"), 0.12) - val(&format!("Tlo/{who}/{app}"), 0.12);
            }
        }
        assert!(
            w12 > w0,
            "summed makespan band width must grow with failure rate ({w12} vs {w0})"
        );
    }

    #[test]
    fn fig21_tier_mix_shifts_and_oversubscription_bites() {
        let f = fig21();
        // 3 clusters x 3 blocks x 3 oversubscriptions x 6 series.
        assert_eq!(f.rows.len(), 162);
        let v = |series: String, x: String| {
            f.rows
                .iter()
                .find(|r| r.series == series && r.x == x)
                .map(|r| r.value)
                .expect("fig21 row")
        };
        for who in ["Xeon12", "Atom12", "Mix4X8A"] {
            // Tier fractions are a partition of the map tasks.
            for blk in ["64", "256", "512"] {
                for over in ["1", "4", "16"] {
                    let x = format!("{blk}MB/{over}x");
                    let sum = v(format!("NL/{who}"), x.clone())
                        + v(format!("RL/{who}"), x.clone())
                        + v(format!("OF/{who}"), x.clone());
                    assert!((sum - 1.0).abs() < 1e-9, "{who}@{x}: tier mix sums to 1");
                }
            }
            // Locality-tier mix shifts with block size: 64 MB floods the
            // slots and pushes reads off-node, 512 MB fits in waves that
            // keep every read on a replica holder.
            let nl_small = v(format!("NL/{who}"), "64MB/1x".into());
            let nl_large = v(format!("NL/{who}"), "512MB/1x".into());
            assert!(
                nl_small < nl_large,
                "{who}: node-local fraction must grow with block size \
                 ({nl_small} vs {nl_large})"
            );
            assert!(nl_small < 1.0, "{who}: small blocks must leave the node");
            // Reduce time and EDP respond monotonically to oversubscription.
            for blk in ["64", "256", "512"] {
                let at = |metric: &str, over: &str| {
                    v(format!("{metric}/{who}"), format!("{blk}MB/{over}x"))
                };
                for m in ["Tred", "EDP"] {
                    let (a, b, c) = (at(m, "1"), at(m, "4"), at(m, "16"));
                    assert!(
                        a <= b + 1e-9 && b <= c + 1e-9,
                        "{m}/{who}@{blk}MB must be monotone in oversubscription \
                         ({a} / {b} / {c})"
                    );
                }
                let (t1, t16) = (at("Tred", "1"), at("Tred", "16"));
                assert!(
                    t16 > t1,
                    "Tred/{who}@{blk}MB: 16x oversubscription must slow the \
                     shuffle ({t1} vs {t16})"
                );
            }
        }
    }

    #[test]
    fn fig22_rack_faults_degrade_and_jobs_start_dying() {
        let f = fig22().expect("fig22 baselines are fault-free and cannot fail");
        // 3 clusters x 2 modes x 4 rates x 3 series (T, EDP, Pfail).
        assert_eq!(f.rows.len(), 72);
        let val = |series: &str, rate: f64| {
            f.rows
                .iter()
                .find(|r| r.series == series && r.x == format!("{rate:.0}"))
                .map(|r| r.value)
                .expect("fig22 row")
        };
        let worst = *FIG22_RATES.last().expect("rates are non-empty");
        let (mut low, mut high, mut n) = (0.0, 0.0, 0.0);
        for who in ["Xeon12", "Atom12", "Mix4X8A"] {
            for mode in ["spec", "nospec"] {
                let t = format!("T/{who}/{mode}");
                // Stragglers alone already cost makespan at rate 0, and the
                // straggler-only sweep never loses a replica set.
                assert!(val(&t, 0.0) > 1.0, "{t}: stragglers must hurt");
                assert!(
                    val(&format!("Pfail/{who}/{mode}"), 0.0) == 0.0,
                    "Pfail/{who}/{mode}: no rack faults, no dead jobs"
                );
                // Job-failure probability is monotone in the rack rate.
                let mut prev = 0.0;
                for rate in FIG22_RATES {
                    let p = val(&format!("Pfail/{who}/{mode}"), rate);
                    assert!(
                        (0.0..=1.0).contains(&p) && p >= prev,
                        "Pfail/{who}/{mode}@{rate}: must be a monotone probability"
                    );
                    prev = p;
                }
                // Enough seeds must survive the worst rate for the
                // survivor-conditional means to stay meaningful.
                assert!(prev < 0.9, "Pfail/{who}/{mode}: worst rate drowns the mean");
                low += val(&t, 0.0);
                high += val(&t, worst);
                n += 1.0;
            }
        }
        // Losing racks costs: cancelled shuffles, off-rack recovery reads,
        // and re-executed maps make the mean degradation grow with rate.
        assert!(
            high / n > low / n,
            "mean degradation must grow with rack failure rate ({} vs {})",
            high / n,
            low / n
        );
        // The availability story has to actually show up somewhere: at the
        // worst rate some cluster loses jobs to dead replica sets.
        let dies = ["Xeon12", "Atom12", "Mix4X8A"].iter().any(|who| {
            ["spec", "nospec"]
                .iter()
                .any(|mode| val(&format!("Pfail/{who}/{mode}"), worst) > 0.0)
        });
        assert!(dies, "worst rack-failure rate must kill some replications");
    }
}
