//! Generators for every table and figure in the paper's evaluation.
//!
//! Each artifact is a declaration and a renderer. The declaration
//! ([`Declare`]) registers the runs the artifact reads into a [`Plan`] —
//! points with the [`Reading`] each is read by, replication plans, stall
//! splits — and returns the renderer ([`Render`]), which holds the typed
//! handles it got back and turns them into a [`FigureData`] table
//! (`series`, `x`, `value` rows, CSV-ready) or the [`SimError`] of a run
//! it reads. Absolute values are in model units; the *shapes* — who wins,
//! by what factor, where crossovers fall — are the reproduction targets,
//! checked against [`crate::calibration`].
//!
//! The `figures` binary declares every artifact it writes, and the
//! calibration claims, into one plan, runs it once and renders;
//! [`generate`] runs a plan of one artifact alone, which is what every
//! generator of [`all`] is. What a handle reads depends on its entry
//! alone, so both produce the same bytes, for any `--jobs` worker count.

use hhsim_accel::AccelConfig;
use hhsim_arch::{presets, ComputeProfile, Frequency, MachineModel};
use hhsim_energy::MetricKind;
use hhsim_hdfs::{BlockSize, Topology};
use hhsim_workloads::AppId;

use hhsim_faults::{DomainConfig, FaultConfig, RecoveryPolicy};

use crate::harness::{Outcomes, Plan, Point, ReplicationPlan, Split};
use crate::model::{NodeMix, PlacementKind, Reading, SimConfig, SimError};
use crate::report::FigureData;

/// Per-node data size used for micro-benchmarks (1 GB, §3).
pub const MICRO_DATA: u64 = 1 << 30;
/// Per-node data size used for real-world applications (10 GB, §3).
pub const REAL_DATA: u64 = 10 << 30;

/// What an artifact's declaration returns: the renderer that turns the
/// handles it holds into the artifact, from the outcomes of the plan.
pub type Render = Box<dyn FnOnce(&Outcomes) -> Result<FigureData, SimError>>;

/// An artifact's declaration: registers what the artifact reads into the
/// plan and returns its renderer.
pub type Declare = fn(&mut Plan) -> Render;

/// A figure/table generator: one artifact from scratch, as a plan of that
/// artifact alone ([`generate`]), or the typed [`SimError`] of a run it
/// reads — an invalid config, or a fault configuration that fails the job
/// ("job failed" diagnosis instead of a panic).
pub type Generator = Box<dyn Fn() -> Result<FigureData, SimError>>;

/// Renders the artifact `declare` declares from a plan of it alone, run
/// with the configured worker count against the process-wide memo.
///
/// # Errors
///
/// The first [`SimError`] of a run the renderer reads.
pub fn generate(declare: Declare) -> Result<FigureData, SimError> {
    let mut plan = Plan::new();
    let render = declare(&mut plan);
    render(&plan.run())
}

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
pub fn table1(_: &mut Plan) -> Render {
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
    Box::new(|_| Ok(f))
}

/// Table 2: the studied applications (1 row per app, value = class code
/// 0 = compute, 1 = I/O, 2 = hybrid).
pub fn table2(_: &mut Plan) -> Render {
    let mut f = FigureData::new("table2", "Studied Hadoop applications", "class");
    for app in AppId::ALL {
        let class = match app.class() {
            hhsim_workloads::AppClass::Compute => 0.0,
            hhsim_workloads::AppClass::Io => 1.0,
            hhsim_workloads::AppClass::Hybrid => 2.0,
        };
        f.push(app.full_name(), app.domain(), class);
    }
    Box::new(|_| Ok(f))
}

/// The three suite-average profiles Figs. 1 and 2 compare.
pub(crate) fn suites() -> [(&'static str, ComputeProfile); 3] {
    [
        ("Avg_Spec", ComputeProfile::spec_average()),
        ("Avg_Parsec", ComputeProfile::parsec_average()),
        ("Avg_Hadoop", ComputeProfile::hadoop_average()),
    ]
}

/// Declares the stall split of every suite on both machines: per machine
/// in Xeon, Atom order, per suite in [`suites`] order.
pub(crate) fn suite_splits(plan: &mut Plan) -> [[Split; 3]; 2] {
    machines().map(|m| suites().map(|(_, p)| plan.split(m.clone(), p)))
}

/// Fig. 1: IPC of SPEC, PARSEC and Hadoop suite averages on both cores.
pub fn fig1(plan: &mut Plan) -> Render {
    let splits = suite_splits(plan);
    Box::new(move |ran| {
        let mut f = FigureData::new("fig1", "IPC of SPEC/PARSEC/Hadoop on big and little", "ipc");
        for (m, row) in machines().iter().zip(splits) {
            for ((name, _), s) in suites().iter().zip(row) {
                f.push(label(m), *name, 1.0 / ran.cpi(s, Frequency::GHZ_1_8));
            }
        }
        Ok(f)
    })
}

/// ED^xP ratio Xeon/Atom of `suite` for x = 1, 2, 3 (>1 means the little
/// core is the more efficient choice), from its splits on the Xeon and
/// the Atom: a fixed-work suite model, N instructions on one core of each
/// machine at 1.8 GHz.
pub(crate) fn suite_edxp(ran: &Outcomes, suite: &ComputeProfile, [x, a]: [Split; 2]) -> [f64; 3] {
    let [xeon, atom] = machines();
    let freq = Frequency::GHZ_1_8;
    let n_instr = 2.0e11;
    let t_x = n_instr * ran.cpi(x, freq) / freq.hz();
    let t_a = n_instr * ran.cpi(a, freq) / freq.hz();
    let p_x = xeon
        .power
        .node_power(xeon.operating_point(freq), 1, 1, suite.activity, 0.4, 0.0)
        .dynamic();
    let p_a = atom
        .power
        .node_power(atom.operating_point(freq), 1, 1, suite.activity, 0.4, 0.0)
        .dynamic();
    [1, 2, 3].map(|x: i32| {
        let edxp_x = p_x * t_x * t_x.powi(x - 1);
        let edxp_a = p_a * t_a * t_a.powi(x - 1);
        edxp_x / edxp_a
    })
}

/// Fig. 2: EDP, ED²P, ED³P ratio (Xeon / Atom) per suite — >1 means the
/// little core is the more efficient choice.
pub fn fig2(plan: &mut Plan) -> Render {
    let [on_xeon, on_atom] = suite_splits(plan);
    Box::new(move |ran| {
        let mut f = FigureData::new(
            "fig2",
            "ED^xP ratio Xeon/Atom for SPEC, PARSEC, Hadoop",
            "ratio",
        );
        for (((name, p), x), a) in suites().iter().zip(on_xeon).zip(on_atom) {
            for (n, ratio) in (1..).zip(suite_edxp(ran, p, [x, a])) {
                f.push(format!("ED{n}P"), *name, ratio);
            }
        }
        Ok(f)
    })
}

/// Shared declaration: execution time over block sizes × frequencies.
fn exec_sweep(
    plan: &mut Plan,
    id: &'static str,
    title: &'static str,
    apps: &[AppId],
    blocks: &[BlockSize],
    data: u64,
) -> Render {
    let mut rows = Vec::new();
    for m in machines() {
        for app in apps {
            for freq in Frequency::SWEEP {
                for b in blocks {
                    let p = plan.point(
                        cfg(*app, &m)
                            .frequency(freq)
                            .block_size(*b)
                            .data_per_node(data),
                        Reading::Auto,
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
    Box::new(move |ran| {
        let mut f = FigureData::new(id, title, "seconds");
        for (series, x, p) in rows {
            f.push(series, x, ran.measurement(p)?.breakdown.total());
        }
        Ok(f)
    })
}

/// Fig. 3: execution time of the micro-benchmarks across HDFS block sizes
/// and frequencies (1 GB/node).
pub fn fig3(plan: &mut Plan) -> Render {
    exec_sweep(
        plan,
        "fig3",
        "Execution time, micro-benchmarks vs block size x frequency",
        &AppId::MICRO,
        &BlockSize::SWEEP,
        MICRO_DATA,
    )
}

/// Fig. 4: execution time of the real-world applications (10 GB/node,
/// 64–512 MB blocks per §3.1.1).
pub fn fig4(plan: &mut Plan) -> Render {
    exec_sweep(
        plan,
        "fig4",
        "Execution time, real-world applications vs block size x frequency",
        &AppId::REAL,
        &BlockSize::SWEEP_REAL,
        REAL_DATA,
    )
}

/// Declares every app of `apps` on both machines at every DVFS point:
/// rows of (app, machine, frequency, point, the app's Atom @ 1.2 GHz
/// point), the last being the Figs. 5–8 normalization.
fn freq_rows(
    plan: &mut Plan,
    apps: &[AppId],
    data: u64,
) -> Vec<(AppId, &'static str, Frequency, Point, Point)> {
    let mut rows = Vec::new();
    for &app in apps {
        let base = plan.point(
            cfg(app, &presets::atom_c2758())
                .frequency(Frequency::GHZ_1_2)
                .data_per_node(data),
            Reading::Auto,
        );
        for m in machines() {
            for freq in Frequency::SWEEP {
                let p = plan.point(
                    cfg(app, &m).frequency(freq).data_per_node(data),
                    Reading::Auto,
                );
                rows.push((app, label(&m), freq, p, base));
            }
        }
    }
    rows
}

/// Shared declaration: whole-application EDP vs frequency, normalized to
/// Atom @ 1.2 GHz (the paper's Figs. 5/6 normalization).
fn edp_sweep(
    plan: &mut Plan,
    id: &'static str,
    title: &'static str,
    apps: &[AppId],
    data: u64,
) -> Render {
    let rows = freq_rows(plan, apps, data);
    Box::new(move |ran| {
        let edp = |p| ran.measurement(p).map(|m| m.cost.edp());
        let mut f = FigureData::new(id, title, "edp_norm");
        for (app, who, freq, p, base) in rows {
            f.push(
                format!("{}/{}", who, app.short_name()),
                format!("{:.1}GHz", freq.ghz()),
                edp(p)? / edp(base)?,
            );
        }
        Ok(f)
    })
}

/// Fig. 5: EDP of the entire real-world applications vs frequency.
pub fn fig5(plan: &mut Plan) -> Render {
    edp_sweep(
        plan,
        "fig5",
        "EDP of entire real-world apps vs frequency",
        &AppId::REAL,
        REAL_DATA,
    )
}

/// Fig. 6: EDP of the entire micro-benchmarks vs frequency.
pub fn fig6(plan: &mut Plan) -> Render {
    edp_sweep(
        plan,
        "fig6",
        "EDP of entire micro-benchmarks vs frequency",
        &AppId::MICRO,
        MICRO_DATA,
    )
}

/// Shared declaration: per-phase EDP vs frequency (Figs. 7/8), normalized
/// to the Atom 1.2 GHz map phase.
fn phase_edp_sweep(
    plan: &mut Plan,
    id: &'static str,
    title: &'static str,
    apps: &[AppId],
    data: u64,
) -> Render {
    let rows = freq_rows(plan, apps, data);
    Box::new(move |ran| {
        let mut f = FigureData::new(id, title, "edp_norm");
        for (app, who, freq, p, base) in rows {
            let norm = ran.measurement(base)?.map_cost.edp().max(1e-12);
            let m = ran.measurement(p)?;
            let x = format!("{:.1}GHz", freq.ghz());
            f.push(
                format!("{}/{} map", who, app.short_name()),
                x.clone(),
                m.map_cost.edp() / norm,
            );
            if app.has_reduce() {
                f.push(
                    format!("{}/{} reduce", who, app.short_name()),
                    x,
                    m.reduce_cost.edp() / norm,
                );
            }
        }
        Ok(f)
    })
}

/// Fig. 7: map/reduce-phase EDP of the micro-benchmarks vs frequency.
pub fn fig7(plan: &mut Plan) -> Render {
    phase_edp_sweep(
        plan,
        "fig7",
        "Phase EDP, micro-benchmarks",
        &AppId::MICRO,
        MICRO_DATA,
    )
}

/// Fig. 8: map/reduce-phase EDP of the real-world applications.
pub fn fig8(plan: &mut Plan) -> Render {
    phase_edp_sweep(
        plan,
        "fig8",
        "Phase EDP, real-world applications",
        &AppId::REAL,
        REAL_DATA,
    )
}

/// Fig. 9: EDP ratio (Xeon/Atom) vs HDFS block size at 1.8 GHz.
pub fn fig9(plan: &mut Plan) -> Render {
    let [xeon, atom] = machines();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let data = data_for(app);
        for b in blocks_for(app) {
            let mut at = |m| {
                plan.point(
                    cfg(app, m).block_size(*b).data_per_node(data),
                    Reading::Auto,
                )
            };
            let (px, pa) = (at(&xeon), at(&atom));
            rows.push((app, *b, px, pa));
        }
    }
    Box::new(move |ran| {
        let edp = |p| ran.measurement(p).map(|m| m.cost.edp());
        let mut f = FigureData::new("fig9", "EDP ratio Xeon/Atom vs block size @1.8GHz", "ratio");
        for (app, b, px, pa) in rows {
            f.push(
                app.full_name(),
                format!("{}MB", b.mib()),
                edp(px)? / edp(pa)?,
            );
        }
        Ok(f)
    })
}

/// Data-size labels of §3.3.
const DATA_SIZES: [(u64, &str); 3] = [(1 << 30, "1GB"), (10 << 30, "10GB"), (20 << 30, "20GB")];

/// Shared declaration: execution-time breakdown and total vs input size.
fn datasize_breakdown(
    plan: &mut Plan,
    id: &'static str,
    title: &'static str,
    apps: &[AppId],
) -> Render {
    let mut rows = Vec::new();
    for m in machines() {
        for app in apps {
            for (bytes, lbl) in DATA_SIZES {
                let p = plan.point(cfg(*app, &m).data_per_node(bytes), Reading::Auto);
                rows.push((format!("{}/{}", label(&m), app.short_name()), lbl, p));
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new(id, title, "seconds");
        for (s, lbl, p) in rows {
            let b = &ran.measurement(p)?.breakdown;
            f.push(format!("{s} map"), lbl, b.map_s);
            f.push(format!("{s} reduce"), lbl, b.reduce_s);
            f.push(format!("{s} others"), lbl, b.others_s);
            f.push(format!("{s} total"), lbl, b.total());
        }
        Ok(f)
    })
}

/// Fig. 10: execution breakdown vs input size, micro-benchmarks (WC, TS).
pub fn fig10(plan: &mut Plan) -> Render {
    datasize_breakdown(
        plan,
        "fig10",
        "Execution time breakdown vs data size (micro)",
        &[AppId::WordCount, AppId::TeraSort],
    )
}

/// Fig. 11: execution breakdown vs input size, real-world apps (NB, FP).
pub fn fig11(plan: &mut Plan) -> Render {
    datasize_breakdown(
        plan,
        "fig11",
        "Execution time breakdown vs data size (real world)",
        &AppId::REAL,
    )
}

/// Declares every app at every §3.3 data size on the Atom, then on the
/// Xeon: rows of (app, machine, size label, point, the app's Atom 1 GB
/// point), the last being the Figs. 12/13 normalization.
fn size_rows(plan: &mut Plan) -> Vec<(AppId, &'static str, &'static str, Point, Point)> {
    let [xeon, atom] = machines();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let base = plan.point(cfg(app, &atom).data_per_node(1 << 30), Reading::Auto);
        for (m, who) in [(&atom, "Atom"), (&xeon, "Xeon")] {
            for (bytes, lbl) in DATA_SIZES {
                let p = plan.point(cfg(app, m).data_per_node(bytes), Reading::Auto);
                rows.push((app, who, lbl, p, base));
            }
        }
    }
    rows
}

/// Fig. 12: whole-application EDP vs input size (normalized per app to
/// Atom @ 1 GB).
pub fn fig12(plan: &mut Plan) -> Render {
    let rows = size_rows(plan);
    Box::new(move |ran| {
        let edp = |p| ran.measurement(p).map(|m| m.cost.edp());
        let mut f = FigureData::new(
            "fig12",
            "EDP of entire application vs data size",
            "edp_norm",
        );
        for (app, who, lbl, p, base) in rows {
            let series = format!("{}/{}", who, app.short_name());
            f.push(series, lbl, edp(p)? / edp(base)?);
        }
        Ok(f)
    })
}

/// Fig. 13: map/reduce-phase EDP vs input size (normalized per app to the
/// Atom 1 GB map phase).
pub fn fig13(plan: &mut Plan) -> Render {
    let rows = size_rows(plan);
    Box::new(move |ran| {
        let mut f = FigureData::new("fig13", "Phase EDP vs data size", "edp_norm");
        for (app, who, lbl, p, base) in rows {
            let norm = ran.measurement(base)?.map_cost.edp().max(1e-12);
            let m = ran.measurement(p)?;
            f.push(
                format!("{}/{} map", who, app.short_name()),
                lbl,
                m.map_cost.edp() / norm,
            );
            if app.has_reduce() {
                f.push(
                    format!("{}/{} reduce", who, app.short_name()),
                    lbl,
                    m.reduce_cost.edp() / norm,
                );
            }
        }
        Ok(f)
    })
}

/// The four points of one Eq. (1) ratio: the Atom→Xeon speedup ratio
/// after vs before acceleration, each as a (Xeon, Atom) pair.
pub(crate) struct AccelSpec {
    before: [Point; 2],
    after: [Point; 2],
}

impl AccelSpec {
    /// Declares `app` at `freq` and `block` on both machines, without and
    /// with `accel`. The unaccelerated pair does not depend on `accel`, so
    /// the specs of a rate sweep share it.
    pub(crate) fn new(
        plan: &mut Plan,
        app: AppId,
        freq: Frequency,
        block: BlockSize,
        accel: AccelConfig,
    ) -> Self {
        let mut pair = |offload| {
            machines().map(|m| {
                let mut c = cfg(app, &m)
                    .frequency(freq)
                    .block_size(block)
                    .data_per_node(data_for(app));
                c.accel = offload;
                plan.point(c, Reading::Auto)
            })
        };
        AccelSpec {
            before: pair(None),
            after: pair(Some(accel)),
        }
    }

    /// Eq. (1) from the measurements of this spec's four points.
    pub(crate) fn ratio(&self, ran: &Outcomes) -> Result<f64, SimError> {
        let t = |p| ran.measurement(p).map(|m| m.breakdown.total());
        let ([bx, ba], [ax, aa]) = (self.before, self.after);
        let before = t(ba)? / t(bx)?;
        let after = t(aa)? / t(ax)?;
        Ok(after / before)
    }
}

/// Shared renderer of Figs. 14–16: one Eq. (1) ratio per row.
fn accel_render(
    id: &'static str,
    title: &'static str,
    rows: Vec<(AppId, String, AccelSpec)>,
) -> Render {
    Box::new(move |ran| {
        let mut f = FigureData::new(id, title, "ratio");
        for (app, x, spec) in rows {
            f.push(app.full_name(), x, spec.ratio(ran)?);
        }
        Ok(f)
    })
}

/// Declares Fig. 14's Eq. (1) specs: per app, per mapper acceleration
/// rate of [`AccelConfig::sweep`], at 1.8 GHz with 512 MB blocks.
pub(crate) fn rate_specs(plan: &mut Plan) -> Vec<(AppId, String, AccelSpec)> {
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for acc in AccelConfig::sweep() {
            let spec = AccelSpec::new(plan, app, Frequency::GHZ_1_8, BlockSize::MB_512, acc);
            rows.push((app, format!("{:.0}x", acc.rate), spec));
        }
    }
    rows
}

/// Fig. 14: speedup ratio (Eq. 1) vs mapper acceleration rate 1–100×.
pub fn fig14(plan: &mut Plan) -> Render {
    accel_render(
        "fig14",
        "Atom vs Xeon speedup after/before acceleration vs rate",
        rate_specs(plan),
    )
}

/// Fig. 15: speedup ratio (Eq. 1) at 20× acceleration vs frequency.
pub fn fig15(plan: &mut Plan) -> Render {
    let acc = AccelConfig::fpga(20.0);
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for freq in Frequency::SWEEP {
            let spec = AccelSpec::new(plan, app, freq, BlockSize::MB_512, acc);
            rows.push((app, format!("{:.1}GHz", freq.ghz()), spec));
        }
    }
    accel_render("fig15", "Acceleration ratio vs frequency", rows)
}

/// Fig. 16: speedup ratio (Eq. 1) at 20× acceleration vs block size.
pub fn fig16(plan: &mut Plan) -> Render {
    let acc = AccelConfig::fpga(20.0);
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for b in blocks_for(app) {
            let spec = AccelSpec::new(plan, app, Frequency::GHZ_1_8, *b, acc);
            rows.push((app, format!("{}MB", b.mib()), spec));
        }
    }
    accel_render("fig16", "Acceleration ratio vs block size", rows)
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

/// Declares one point of the scheduling study: `app` at its paper data
/// size on [`SCHED_BLOCK`] blocks with `cores` map slots per node of `m`.
pub(crate) fn sched_point(plan: &mut Plan, app: AppId, m: &MachineModel, cores: usize) -> Point {
    plan.point(
        cfg(app, m)
            .data_per_node(data_for(app))
            .block_size(SCHED_BLOCK)
            .mappers(cores),
        Reading::Auto,
    )
}

/// Table 3: operational (ED^xP) and capital (ED^xAP) cost for 2–8 cores
/// on both machines, 512 MB blocks @ 1.8 GHz (§3.5).
pub fn table3(plan: &mut Plan) -> Render {
    let mut rows = Vec::new();
    for m in machines() {
        for app in AppId::ALL {
            for cores in CORE_SWEEP {
                let p = sched_point(plan, app, &m, cores);
                rows.push((app, format!("{}/M{}", label(&m), cores), p));
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new("table3", "Operational and capital cost vs cores", "value");
        for (app, x, p) in rows {
            let cost = &ran.measurement(p)?.cost;
            f.push(format!("EDP/{}", app.short_name()), x.clone(), cost.edp());
            f.push(format!("ED2P/{}", app.short_name()), x.clone(), cost.ed2p());
            f.push(format!("EDAP/{}", app.short_name()), x.clone(), cost.edap());
            f.push(format!("ED2AP/{}", app.short_name()), x, cost.ed2ap());
        }
        Ok(f)
    })
}

/// Fig. 17: spider-chart data — the four cost metrics normalized to the
/// 8-Xeon-core configuration of each application.
pub fn fig17(plan: &mut Plan) -> Render {
    let [xeon, atom] = machines();
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let base = sched_point(plan, app, &xeon, 8);
        for (m, who) in [(&atom, "A"), (&xeon, "X")] {
            for cores in CORE_SWEEP {
                rows.push((app, who, cores, sched_point(plan, app, m, cores), base));
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new("fig17", "Costs normalized to 8 Xeon cores", "norm");
        for (app, who, cores, p, base) in rows {
            let (cost, base) = (&ran.measurement(p)?.cost, &ran.measurement(base)?.cost);
            for k in MetricKind::ALL {
                f.push(
                    format!("{}/{}{}", app.short_name(), cores, who),
                    k.to_string(),
                    cost.get(k) / base.get(k),
                );
            }
        }
        Ok(f)
    })
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
pub fn fig18(plan: &mut Plan) -> Render {
    // A mix ignores the configured machine; any preset will do.
    let xeon = presets::xeon_e5_2420();
    // Nothing to prefer on a roster of one kind: first free slot.
    let baselines = [(3, 0), (0, 3)].map(|roster| (roster, PlacementKind::FifoAny));
    let mixes = MIX_SWEEP.map(|roster| (roster, PlacementKind::PaperClass(MetricKind::Edp)));
    let mut rows = Vec::new();
    for app in AppId::ALL {
        for ((big, little), placement) in baselines.into_iter().chain(mixes) {
            let p = plan.point(
                cfg(app, &xeon)
                    .data_per_node(data_for(app))
                    .block_size(SCHED_BLOCK)
                    .mix(NodeMix {
                        big,
                        little,
                        placement,
                    }),
                Reading::Auto,
            );
            let series = match (big, little) {
                (_, 0) => format!("Xeon{big}"),
                (0, _) => format!("Atom{little}"),
                _ => format!("Mix{big}X{little}A"),
            };
            rows.push((series, app, p));
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new(
            "fig18",
            "EDP: mixed big+little clusters vs homogeneous baselines",
            "edp",
        );
        for (series, app, p) in rows {
            f.push(series, app.short_name(), ran.measurement(p)?.cost.edp());
        }
        Ok(f)
    })
}

/// The three cluster shapes of Figs. 19–22, each as its series label and
/// the config of `app` on it at the paper's data size: `nodes` Xeons,
/// `nodes` Atoms, and one Xeon per two Atoms under the §3.5 EDP-driven
/// placement (Fig. 18's first mix, scaled to `nodes`).
fn cluster_shapes(app: AppId, nodes: usize) -> [(String, SimConfig); 3] {
    let [xeon, atom] = machines();
    let on = |m: &MachineModel| {
        let mut c = cfg(app, m).data_per_node(data_for(app));
        c.nodes = nodes;
        c
    };
    let (big, little) = (nodes / 3, nodes - nodes / 3);
    let mix = cfg(app, &xeon).data_per_node(data_for(app)).mix(NodeMix {
        big,
        little,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    });
    [
        (format!("Xeon{nodes}"), on(&xeon)),
        (format!("Atom{nodes}"), on(&atom)),
        (format!("Mix{big}X{little}A"), mix),
    ]
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
/// including the fault-free baselines — is read by the per-node meter of
/// the event-driven cluster engine, so the ratios isolate the cost of
/// faults, not meter differences. The renderer returns the first
/// [`SimError`] of a point: an unrecoverable one is a typed "job failed"
/// instead of a panic.
pub fn fig19(plan: &mut Plan) -> Render {
    let mut rows = Vec::new();
    for app in [AppId::WordCount, AppId::TeraSort] {
        for (who, c) in cluster_shapes(app, 3) {
            let c = c.block_size(FAULT_BLOCK);
            let clean = plan.point(c.clone(), Reading::PerNode);
            for speculation in [true, false] {
                let mode = if speculation { "spec" } else { "nospec" };
                for rate in FAULT_RATES {
                    let faulty = c.clone().faults(fig19_faults(rate, speculation));
                    let p = plan.point(faulty, Reading::PerNode);
                    let series = format!("{who}/{}/{mode}", app.short_name());
                    rows.push((series, format!("{rate:.2}"), p, clean));
                }
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new(
            "fig19",
            "Makespan and EDP degradation vs failure rate, with/without speculation",
            "ratio",
        );
        for (series, x, p, clean) in rows {
            let (clean, m) = (ran.measurement(clean)?, ran.measurement(p)?);
            let t = m.breakdown.total() / clean.breakdown.total();
            f.push(format!("T/{series}"), x.clone(), t);
            f.push(format!("EDP/{series}"), x, m.cost.edp() / clean.cost.edp());
        }
        Ok(f)
    })
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
/// population keeps the bands non-degenerate even at rate 0. The renderer
/// returns the [`SimError`] of an unrecoverable baseline run (the
/// replicated points themselves absorb failed seeds as `failed_runs`).
pub fn fig20(plan: &mut Plan) -> Render {
    let mut rows = Vec::new();
    for app in [AppId::WordCount, AppId::TeraSort] {
        for (who, c) in cluster_shapes(app, 3) {
            let c = c.block_size(FAULT_BLOCK);
            let clean = plan.point(c.clone(), Reading::PerNode);
            for rate in FAULT_RATES {
                let faulty = c.clone().faults(fig19_faults(rate, true));
                let seeds = FIG20_SEED..FIG20_SEED + FIG20_SEEDS;
                let r = plan.replicate(ReplicationPlan::new(faulty, seeds));
                let series = format!("{who}/{}", app.short_name());
                rows.push((series, format!("{rate:.2}"), r, clean));
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new(
            "fig20",
            "Replicated makespan and EDP vs failure rate, 95% confidence bands",
            "ratio",
        );
        for (series, x, r, clean) in rows {
            let clean = ran.measurement(clean)?;
            let clean_t = clean.breakdown.total();
            let clean_edp = clean.exact_energy_j * clean_t;
            let s = ran.summary(r)?;
            let name = |metric: &str| format!("{metric}/{series}");
            f.push(name("T"), x.clone(), s.makespan_s.mean / clean_t);
            f.push(name("Tlo"), x.clone(), s.makespan_s.lo() / clean_t);
            f.push(name("Thi"), x.clone(), s.makespan_s.hi() / clean_t);
            f.push(name("EDP"), x.clone(), s.edp.mean / clean_edp);
            f.push(name("EDPlo"), x.clone(), s.edp.lo() / clean_edp);
            f.push(name("EDPhi"), x, s.edp.hi() / clean_edp);
        }
        Ok(f)
    })
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
pub fn fig21(plan: &mut Plan) -> Render {
    let mut rows = Vec::new();
    for (who, c) in cluster_shapes(AppId::TeraSort, TOPO_NODES) {
        for block in TOPO_BLOCKS {
            for over in OVERSUB_SWEEP {
                let fabric = Topology::racked(TOPO_RACKS, over);
                let p = plan.point(c.clone().block_size(block).topology(fabric), Reading::Auto);
                rows.push((who.clone(), block, over, p));
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new(
            "fig21",
            "Locality-tier mix and EDP vs ToR oversubscription and block size",
            "mixed",
        );
        for (who, block, over, p) in rows {
            let m = ran.measurement(p)?;
            let x = format!("{}MB/{over}x", block.bytes() >> 20);
            let [nl, rl, of] = m.map_locality_tiers;
            let total = (nl + rl + of).max(1) as f64;
            f.push(format!("EDP/{who}"), x.clone(), m.cost.edp());
            f.push(format!("Tred/{who}"), x.clone(), m.breakdown.reduce_s);
            f.push(format!("Tmap/{who}"), x.clone(), m.breakdown.map_s);
            f.push(format!("NL/{who}"), x.clone(), nl as f64 / total);
            f.push(format!("RL/{who}"), x.clone(), rl as f64 / total);
            f.push(format!("OF/{who}"), x, of as f64 / total);
        }
        Ok(f)
    })
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
/// of the robustness story. The renderer returns the [`SimError`] of an
/// unrecoverable baseline run (the replicated points themselves absorb
/// failed seeds as `failed_runs`, surfaced through the `Pfail` series).
pub fn fig22(plan: &mut Plan) -> Render {
    let fabric = Topology::racked(TOPO_RACKS, FIG22_OVERSUB);
    let mut rows = Vec::new();
    for (who, c) in cluster_shapes(AppId::TeraSort, TOPO_NODES) {
        let c = c.block_size(BlockSize::MB_256).topology(fabric);
        // The clean anchor has no faults at all: degradation at rate 0
        // then shows the straggler background, like Fig. 19/20.
        let clean = plan.point(c.clone(), Reading::PerNode);
        for speculation in [true, false] {
            let mode = if speculation { "spec" } else { "nospec" };
            for rate in FIG22_RATES {
                let faulty = c.clone().faults(fig22_faults(rate, speculation));
                let seeds = FIG22_SEED..FIG22_SEED + FIG22_SEEDS;
                let r = plan.replicate(ReplicationPlan::new(faulty, seeds));
                rows.push((format!("{who}/{mode}"), format!("{rate:.0}"), r, clean));
            }
        }
    }
    Box::new(move |ran| {
        let mut f = FigureData::new(
            "fig22",
            "Makespan, EDP and job-failure probability vs rack failure rate",
            "ratio",
        );
        for (series, x, r, clean) in rows {
            let clean = ran.measurement(clean)?;
            let clean_t = clean.breakdown.total();
            let clean_edp = clean.exact_energy_j * clean_t;
            let s = ran.summary(r)?;
            let name = |metric: &str| format!("{metric}/{series}");
            f.push(name("T"), x.clone(), s.makespan_s.mean / clean_t);
            f.push(name("EDP"), x.clone(), s.edp.mean / clean_edp);
            let p_fail = s.failed_runs as f64 / s.replications.max(1) as f64;
            f.push(name("Pfail"), x, p_fail);
        }
        Ok(f)
    })
}

/// Every artifact's declaration keyed by id, in paper order.
pub const ARTIFACTS: [(&str, Declare); 25] = [
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("table3", table3),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("fig21", fig21),
    ("fig22", fig22),
];

/// Every generator keyed by id, in paper order: each renders its artifact
/// from a plan of that artifact alone.
pub fn all() -> Vec<(&'static str, Generator)> {
    let alone = |&(id, declare): &(&'static str, Declare)| {
        (id, Box::new(move || generate(declare)) as Generator)
    };
    ARTIFACTS.iter().map(alone).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimCache;

    #[test]
    fn fig1_reproduces_paper_relationships() {
        let f = generate(fig1).expect("fig1 renders");
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
        let f = generate(fig2).expect("fig2 renders");
        for suite in ["Avg_Spec", "Avg_Hadoop"] {
            let e1 = f.value("ED1P", suite).expect("present");
            let e3 = f.value("ED3P", suite).expect("present");
            assert!(e3 < e1, "{suite}: delay pressure must favour Xeon");
        }
    }

    #[test]
    fn fig9_has_all_apps() {
        let f = generate(fig9).expect("fig9 renders");
        for app in AppId::ALL {
            assert!(
                !f.series(app.full_name()).is_empty(),
                "{app} missing from fig9"
            );
        }
    }

    #[test]
    fn fig14_ratios_at_most_one() {
        let f = generate(fig14).expect("fig14 renders");
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
        let f = generate(fig18).expect("fig18 renders");
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
        let f = generate(fig18).expect("fig18 renders");
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
        let f = generate(fig19).expect("fig19 recovers from every injected fault");
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
        let f = generate(fig20).expect("fig20's clean baselines cannot fail");
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
        let f = generate(fig21).expect("fig21 renders");
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
        let f = generate(fig22).expect("fig22 baselines are fault-free and cannot fail");
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
    #[test]
    fn an_unrecoverable_point_reaches_its_renderer_as_its_error() {
        use crate::model::ConfigError;
        use hhsim_faults::PhaseError;

        let valid = || cfg(AppId::WordCount, &presets::atom_c2758());
        let mut once = RecoveryPolicy::hadoop();
        once.max_attempts = 1;
        let doomed = FaultConfig::none().failure_rates(1.0, 0.0).recovery(once);
        let mut plan = Plan::new();
        let auto = plan.point(valid(), Reading::Auto);
        let failed = plan.point(valid().faults(doomed), Reading::PerNode);
        let per_node = plan.point(valid(), Reading::PerNode);
        // Offload is only modeled by the phase-average meter; a plan's
        // seeds are read per node.
        let offloaded = valid().accelerator(AccelConfig::fpga(20.0));
        let invalid = plan.replicate(ReplicationPlan::new(offloaded, 0..2));
        let render: Render = Box::new(move |ran| {
            let mut f = FigureData::new("figX", "one doomed point", "seconds");
            for (x, p) in ["auto", "failed", "per-node"]
                .into_iter()
                .zip([auto, failed, per_node])
            {
                f.push("WC", x, ran.measurement(p)?.breakdown.total());
            }
            Ok(f)
        });
        let ran = plan.run_on(2, &SimCache::new());

        assert!(matches!(
            ran.measurement(failed),
            Err(SimError::Unrecoverable(
                PhaseError::AttemptsExhausted { .. }
            ))
        ));
        for (p, reading) in [(auto, Reading::Auto), (per_node, Reading::PerNode)] {
            let alone = valid()
                .run(&SimCache::new(), reading)
                .expect("a valid point");
            assert_eq!(ran.measurement(p), Ok(&alone.0), "{reading:?}");
        }
        let no_offload = SimError::Config(ConfigError::AccelNeedsPhaseAverage);
        assert_eq!(ran.summary(invalid), Err(no_offload));
        assert!(matches!(render(&ran), Err(SimError::Unrecoverable(_))));
    }
}
