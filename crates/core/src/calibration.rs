//! Paper-vs-measured calibration: every headline claim of the paper as a
//! programmatically checked target.
//!
//! Absolute numbers cannot match a 2017 hardware testbed, so each target
//! records the paper's value, our measured value, and whether the *claim*
//! (direction/winner/ordering) holds in the simulation. `report()` renders
//! the table that backs `EXPERIMENTS.md`.
//!
//! A claim quotes cells of the artifacts in [`crate::figures`]: [`claims`]
//! declares the runs behind those cells into a [`Plan`], the same configs
//! with the same readings the artifacts declare, so a plan that holds the
//! artifacts too hands every claim the artifact's own entry.

use hhsim_accel::AccelConfig;
use hhsim_arch::{presets, Frequency, MachineModel};
use hhsim_hdfs::BlockSize;
use hhsim_workloads::AppId;

use crate::figures::{self, AccelSpec};
use crate::harness::{Outcomes, Plan, Point};
use crate::model::{recovered, Reading, SimConfig, SimError};

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Target {
    /// Which artifact the claim belongs to ("fig1", "table3", ...).
    pub artifact: &'static str,
    /// Human-readable claim.
    pub claim: String,
    /// The paper's published value (NaN when the paper gives no number).
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Whether the qualitative claim holds.
    pub holds: bool,
}

impl Target {
    fn new(
        artifact: &'static str,
        claim: impl Into<String>,
        paper: f64,
        measured: f64,
        holds: bool,
    ) -> Self {
        Target {
            artifact,
            claim: claim.into(),
            paper,
            measured,
            holds,
        }
    }
}

/// Declares `of(machine)` on the Xeon and on the Atom, each read by its
/// own meter.
fn on_both(plan: &mut Plan, of: impl Fn(MachineModel) -> SimConfig) -> [Point; 2] {
    presets::both().map(|m| plan.point(of(m), Reading::Auto))
}

/// (max − min) / max of the execution times of `points`.
fn spread(ran: &Outcomes, points: impl IntoIterator<Item = Point>) -> Result<f64, SimError> {
    let (mut max, mut min) = (f64::MIN, f64::MAX);
    for p in points {
        let t = ran.measurement(p)?.breakdown.total();
        max = max.max(t);
        min = min.min(t);
    }
    Ok((max - min) / max)
}

/// Declares the runs behind every claim into `plan` and returns the
/// renderer of the targets. Each claim declares the config of the
/// artifact cell it quotes, with that cell's reading, so in a plan that
/// holds the artifact the claim reads the artifact's own entry and adds
/// none.
pub fn claims(plan: &mut Plan) -> impl FnOnce(&Outcomes) -> Result<Vec<Target>, SimError> {
    use AppId::{FpGrowth, Grep, NaiveBayes, Sort, TeraSort, WordCount};
    let [xeon, atom] = presets::both();
    let [[x_spec, _, x_hadoop], [a_spec, _, a_hadoop]] = figures::suite_splits(plan);
    // Every app at the paper's defaults (512 MB @ 1.8 GHz): Figs. 3–8.
    let defaults = AppId::ALL.map(|app| on_both(plan, |m| SimConfig::new(app, m)));
    // Fig. 6 at 1.2 and 1.8 GHz; the Atom at 1.2 GHz normalizes it.
    let freqs = AppId::MICRO.map(|app| {
        [Frequency::GHZ_1_2, Frequency::GHZ_1_8]
            .map(|f| on_both(plan, |m| SimConfig::new(app, m).frequency(f)))
    });
    // Figs. 3/9: Sort across the block sizes.
    let blocks = BlockSize::SWEEP.map(|b| on_both(plan, |m| SimConfig::new(Sort, m).block_size(b)));
    // Figs. 10–12 at 1 and 20 GB per node; the Atom at 1 GB normalizes
    // Fig. 12.
    let sizes = AppId::ALL.map(|app| {
        [1 << 30, 20 << 30]
            .map(|bytes| on_both(plan, |m| SimConfig::new(app, m).data_per_node(bytes)))
    });
    // Fig. 14.
    let rates = figures::rate_specs(plan);
    let fpga = AccelConfig::fpga(100.0);
    let at_100 = [TeraSort, Grep, WordCount]
        .map(|app| AccelSpec::new(plan, app, Frequency::GHZ_1_8, BlockSize::MB_512, fpga));
    // Table 3 / Fig. 17.
    let mut sched = |app, m, cores| figures::sched_point(plan, app, m, cores);
    let [st_a2, st_a8, st_x8] =
        [(&atom, 2), (&atom, 8), (&xeon, 8)].map(|(m, c)| sched(Sort, m, c));
    let [wc_a2, wc_a8, wc_x2] =
        [(&atom, 2), (&atom, 8), (&xeon, 2)].map(|(m, c)| sched(WordCount, m, c));
    let [fp_a2, fp_a8] = [(&atom, 2), (&atom, 8)].map(|(m, c)| sched(FpGrowth, m, c));
    let [ts_x2, ts_a8] = [(&xeon, 2), (&atom, 8)].map(|(m, c)| sched(TeraSort, m, c));

    move |ran: &Outcomes| {
        let m = |p| ran.measurement(p);
        let mut t = Vec::new();

        // ---------------- Fig. 1: IPC characterization -------------------
        let ipc = |s| ran.cpi(s, Frequency::GHZ_1_8).map(|cpi| 1.0 / cpi);
        let (xs, xh, as_, ah) = (ipc(x_spec)?, ipc(x_hadoop)?, ipc(a_spec)?, ipc(a_hadoop)?);
        t.push(Target::new(
            "fig1",
            "Hadoop IPC drop vs SPEC on big core (x lower)",
            2.16,
            xs / xh,
            xs / xh > 1.5,
        ));
        t.push(Target::new(
            "fig1",
            "Hadoop IPC drop vs SPEC on little core",
            1.55,
            as_ / ah,
            as_ / ah > 1.2,
        ));
        t.push(Target::new(
            "fig1",
            "Xeon/Atom IPC ratio on Hadoop",
            1.43,
            xh / ah,
            (1.2..1.8).contains(&(xh / ah)),
        ));
        t.push(Target::new(
            "fig1",
            "IPC drop larger on big than little core",
            2.16 / 1.55,
            (xs / xh) / (as_ / ah),
            xs / xh > as_ / ah,
        ));

        // ---------------- Fig. 2: suite-level ED^xP ----------------------
        let [(_, spec), _, (_, hadoop)] = figures::suites();
        let [spec1, _, spec3] = figures::suite_edxp(ran, &spec, [x_spec, a_spec])?;
        let [had1, _, had3] = figures::suite_edxp(ran, &hadoop, [x_hadoop, a_hadoop])?;
        t.push(Target::new(
            "fig2",
            "EDP favours Atom for all suites (ratio > 1)",
            f64::NAN,
            had1.min(spec1),
            spec1 > 1.0 && had1 > 1.0,
        ));
        t.push(Target::new(
            "fig2",
            "performance constraints (ED3P) favour the big core more than EDP does",
            f64::NAN,
            spec3 / spec1,
            spec3 < spec1 && had3 < had1,
        ));

        // ---------------- Fig. 3: execution-time ratios ------------------
        let [wc, st, gp, ts, nb, fp] = defaults;
        for (app, paper, [x, a]) in [
            (WordCount, 1.74, wc),
            (Sort, 15.4, st),
            (Grep, 1.39, gp),
            (TeraSort, 1.57, ts),
        ] {
            let r = m(a)?.breakdown.total() / m(x)?.breakdown.total();
            t.push(Target::new(
                "fig3",
                format!(
                    "{} exec-time ratio Atom/Xeon (Xeon faster)",
                    app.short_name()
                ),
                paper,
                r,
                r > 1.0,
            ));
        }

        // ---------------- Figs. 5/6: whole-app EDP winners ---------------
        let edp_ratio = |[x, a]: [Point; 2]| Ok::<_, SimError>(m(x)?.cost.edp() / m(a)?.cost.edp());
        for (app, paper, pair) in [
            (WordCount, 2.27, wc),
            (Grep, 2.48, gp),
            (TeraSort, f64::NAN, ts),
            (NaiveBayes, f64::NAN, nb),
            (FpGrowth, f64::NAN, fp),
        ] {
            let r = edp_ratio(pair)?;
            t.push(Target::new(
                "fig5/6",
                format!("{} EDP winner is Atom (Xeon/Atom > 1)", app.short_name()),
                paper,
                r,
                r > 1.0,
            ));
        }
        let st_ratio = edp_ratio(st)?;
        t.push(Target::new(
            "fig5/6",
            "ST EDP winner is Xeon (Xeon/Atom < 1)",
            f64::NAN,
            st_ratio,
            st_ratio < 1.0,
        ));

        // EDP falls as frequency rises (entire app), both machines.
        let mut edp_freq_ok = true;
        for [[x_lo, a_lo], [x_hi, a_hi]] in freqs {
            let base = m(a_lo)?.cost.edp();
            for (lo, hi) in [(x_lo, x_hi), (a_lo, a_hi)] {
                if m(hi)?.cost.edp() / base >= m(lo)?.cost.edp() / base {
                    edp_freq_ok = false;
                }
            }
        }
        t.push(Target::new(
            "fig6",
            "raising frequency lowers whole-app EDP everywhere",
            f64::NAN,
            f64::NAN,
            edp_freq_ok,
        ));

        // ---------------- Figs. 7/8: phase preferences -------------------
        let mut map_prefers_atom = 0;
        for [x, a] in defaults {
            if m(a)?.map_cost.edp() < m(x)?.map_cost.edp() {
                map_prefers_atom += 1;
            }
        }
        t.push(Target::new(
            "fig7/8",
            "map phase prefers Atom for most applications",
            5.0,
            map_prefers_atom as f64,
            map_prefers_atom >= 4,
        ));

        // ---------------- Fig. 9: block-size sensitivity -----------------
        let sx = spread(ran, blocks.map(|[x, _]| x))?;
        let sa = spread(ran, blocks.map(|[_, a]| a))?;
        t.push(Target::new(
            "fig3/9",
            "Atom more sensitive to block size than Xeon (ST variation)",
            26.18 / 18.9,
            sa / sx,
            sa > sx,
        ));

        // ---------------- Figs. 10–13: data-size scaling ------------------
        let [_, _, gp, _, nb, fp] = sizes;
        for (app, px, pa, [[x1, a1], [x20, a20]]) in [
            (Grep, 3.45, 10.15, gp),
            (NaiveBayes, 7.22, 8.59, nb),
            (FpGrowth, 5.96, 7.97, fp),
        ] {
            let g = |one, twenty| {
                Ok::<_, SimError>(m(twenty)?.breakdown.total() / m(one)?.breakdown.total())
            };
            let (gx, ga) = (g(x1, x20)?, g(a1, a20)?);
            t.push(Target::new(
                "fig10/11",
                format!("{} 1→20GB growth larger on Atom", app.short_name()),
                pa / px,
                ga / gx,
                ga > gx,
            ));
        }
        let mut edp_grows = true;
        for [[x1, a1], [x20, a20]] in sizes {
            let base = m(a1)?.cost.edp();
            for (one, twenty) in [(x1, x20), (a1, a20)] {
                if m(twenty)?.cost.edp() / base <= m(one)?.cost.edp() / base {
                    edp_grows = false;
                }
            }
        }
        t.push(Target::new(
            "fig12",
            "EDP rises with input size on both machines",
            f64::NAN,
            f64::NAN,
            edp_grows,
        ));

        // ---------------- Figs. 14–16: acceleration ----------------------
        let mut all_below_one = true;
        for (_, _, spec) in &rates {
            all_below_one &= spec.ratio(ran)? <= 1.02;
        }
        t.push(Target::new(
            "fig14",
            "post-acceleration speedup ratio ≤ 1 for every app",
            f64::NAN,
            f64::NAN,
            all_below_one,
        ));
        let [ts100, gp100, wc100] = at_100;
        let (ts100, gp100, wc100) = (ts100.ratio(ran)?, gp100.ratio(ran)?, wc100.ratio(ran)?);
        t.push(Target::new(
            "fig14",
            "acceleration impact negligible for TS and GP, strong for WC",
            f64::NAN,
            ts100.min(gp100) - wc100,
            ts100 > wc100 && gp100 > wc100,
        ));

        // ---------------- Table 3 / Fig. 17: scheduling ------------------
        let cost = |p| m(p).map(|meas| meas.cost);
        let (st_a2, st_a8, st_x8) = (cost(st_a2)?.edp(), cost(st_a8)?.edp(), cost(st_x8)?.edp());
        t.push(Target::new(
            "table3",
            "more Atom cores reduce EDP (ST: M2 → M8)",
            1.05e6 / 3.40e5,
            st_a2 / st_a8,
            st_a8 < st_a2,
        ));
        t.push(Target::new(
            "table3",
            "ST EDP lower on Xeon than Atom at M8",
            1.31e4 / 3.40e5,
            st_x8 / st_a8,
            st_x8 < st_a8,
        ));
        let (wc_a2, wc_a8, wc_x2) = (cost(wc_a2)?, cost(wc_a8)?, cost(wc_x2)?);
        t.push(Target::new(
            "table3",
            "micro-benchmarks: EDAP grows with core count (WC on Atom)",
            3.91e8 / 1.34e8,
            wc_a8.edap() / wc_a2.edap(),
            wc_a8.edap() > wc_a2.edap(),
        ));
        let (fp_a2, fp_a8) = (cost(fp_a2)?.edap(), cost(fp_a8)?.edap());
        t.push(Target::new(
            "table3",
            "real-world apps: EDAP shrinks with core count (FP on Atom)",
            2.27e12 / 3.05e12,
            fp_a8 / fp_a2,
            fp_a8 < fp_a2,
        ));
        t.push(Target::new(
            "table3",
            "8 Atom cores beat 2 Xeon cores on EDP (WC)",
            4.20e5 / 1.52e6,
            wc_a8.edp() / wc_x2.edp(),
            wc_a8.edp() < wc_x2.edp(),
        ));
        let (ts_x2, ts_a8) = (cost(ts_x2)?.ed2ap(), cost(ts_a8)?.ed2ap());
        t.push(Target::new(
            "fig17",
            "ED2AP: 2 Xeon cores beat 8 Atom cores for TeraSort",
            f64::NAN,
            ts_x2 / ts_a8,
            ts_x2 < ts_a8,
        ));
        Ok(t)
    }
}

/// Runs every calibration check, as a plan of the claims alone: one fill
/// of the artifact cells they quote (a fraction of a second on a cold
/// memo).
///
/// # Panics
///
/// Panics with the [`SimError`] of a run a claim reads, as
/// [`simulate`](crate::simulate) does; [`claims`] hands it back typed.
pub fn check_all() -> Vec<Target> {
    let mut plan = Plan::new();
    let render = claims(&mut plan);
    recovered(render(&plan.run()))
}

/// Renders the calibration table as aligned text.
pub fn report(targets: &[Target]) -> String {
    let mut out = String::from(
        "artifact   ok  paper      measured   claim\n------------------------------------------------------------------\n",
    );
    for t in targets {
        out.push_str(&format!(
            "{:<9} {:>3}  {:>9}  {:>9}  {}\n",
            t.artifact,
            if t.holds { "yes" } else { "NO" },
            fmt_num(t.paper),
            fmt_num(t.measured),
            t.claim
        ));
    }
    let held = targets.iter().filter(|t| t.holds).count();
    out.push_str(&format!("\n{held}/{} claims hold\n", targets.len()));
    out
}

fn fmt_num(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v.abs() >= 1000.0 || (v != 0.0 && v.abs() < 0.01) {
        format!("{v:.2e}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_num_handles_ranges() {
        assert_eq!(fmt_num(f64::NAN), "-");
        assert_eq!(fmt_num(1.5), "1.50");
        assert_eq!(fmt_num(1.0e6), "1.00e6");
    }

    // The full calibration sweep runs in `tests/calibration.rs` (it is
    // expensive); here we only check the report renderer.
    #[test]
    fn report_renders() {
        let ts = vec![Target::new("figX", "demo", 1.0, 2.0, true)];
        let r = report(&ts);
        assert!(r.contains("figX"));
        assert!(r.contains("1/1 claims hold"));
    }
}
