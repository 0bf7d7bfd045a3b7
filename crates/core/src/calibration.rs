//! Paper-vs-measured calibration: every headline claim of the paper as a
//! programmatically checked target.
//!
//! Absolute numbers cannot match a 2017 hardware testbed, so each target
//! records the paper's value, our measured value, and whether the *claim*
//! (direction/winner/ordering) holds in the simulation. It also records
//! how far it is from both: the log error against the paper's number and
//! the log margin from the claim's threshold, each with a budget checked in
//! beside the claim (the fidelity ledger). `report()` renders the table
//! that backs `EXPERIMENTS.md`.
//!
//! A claim quotes cells of the artifacts in [`crate::figures`]: [`claims`]
//! declares the runs behind those cells into a [`Plan`], the same configs
//! with the same readings the artifacts declare, so a plan that holds the
//! artifacts too hands every claim the artifact's own entry.

use std::borrow::Cow;
use std::fmt::{self, Display, Formatter, Write as _};

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
    pub claim: Cow<'static, str>,
    /// The paper's published value (NaN when the paper gives no number).
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Whether the qualitative claim holds.
    pub holds: bool,
    /// `|ln(measured / paper)|`; NaN when the paper gives no number.
    pub log_err: f64,
    /// Log distance of `measured` from the claim's threshold, positive on
    /// the side where the claim holds; NaN for a claim without one.
    pub margin: f64,
    /// The largest `log_err` the ledger allows (NaN: no budget).
    pub max_log_err: f64,
    /// The smallest `margin` the ledger allows (NaN: no floor).
    pub min_margin: f64,
}

/// Where a claim's threshold lies: the claim holds while `measured` is
/// above it, below it, or in `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
enum Bound {
    Above(f64),
    Below(f64),
    Within(f64, f64),
}

use Bound::{Above, Below, Within};

impl Bound {
    fn holds(self, v: f64) -> bool {
        match self {
            Above(t) => v > t,
            Below(t) => v < t,
            Within(lo, hi) => (lo..hi).contains(&v),
        }
    }

    fn margin(self, v: f64) -> f64 {
        match self {
            Above(t) => (v / t).ln(),
            Below(t) => (t / v).ln(),
            Within(lo, hi) => (v / lo).ln().min((hi / v).ln()),
        }
    }
}

impl Target {
    /// A claim that `measured` lies on the holding side of `bound`.
    fn new(
        artifact: &'static str,
        claim: impl Into<Cow<'static, str>>,
        paper: f64,
        measured: f64,
        bound: Bound,
    ) -> Self {
        Target {
            artifact,
            claim: claim.into(),
            paper,
            measured,
            holds: bound.holds(measured),
            log_err: (measured / paper).ln().abs(),
            margin: bound.margin(measured),
            max_log_err: f64::NAN,
            min_margin: f64::NAN,
        }
    }

    /// A claim with no threshold on `measured` and no paper number.
    fn flag(artifact: &'static str, claim: &'static str, measured: f64, holds: bool) -> Self {
        Target {
            artifact,
            claim: Cow::Borrowed(claim),
            paper: f64::NAN,
            measured,
            holds,
            log_err: f64::NAN,
            margin: f64::NAN,
            max_log_err: f64::NAN,
            min_margin: f64::NAN,
        }
    }

    /// Holds only if `also` holds too.
    fn and(mut self, also: bool) -> Self {
        self.holds &= also;
        self
    }

    /// The ledger's budget for the log error.
    fn err_at_most(mut self, max: f64) -> Self {
        self.max_log_err = max;
        self
    }

    /// The ledger's floor for the margin.
    fn margin_at_least(mut self, min: f64) -> Self {
        self.min_margin = min;
        self
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
        t.push(
            Target::new(
                "fig1",
                "Hadoop IPC drop vs SPEC on big core (x lower)",
                2.16,
                xs / xh,
                Above(1.5),
            )
            .err_at_most(0.10)
            .margin_at_least(0.45),
        );
        t.push(
            Target::new(
                "fig1",
                "Hadoop IPC drop vs SPEC on little core",
                1.55,
                as_ / ah,
                Above(1.2),
            )
            .err_at_most(0.35)
            .margin_at_least(0.60),
        );
        t.push(
            Target::new(
                "fig1",
                "Xeon/Atom IPC ratio on Hadoop",
                1.43,
                xh / ah,
                Within(1.2, 1.8),
            )
            .err_at_most(0.05)
            .margin_at_least(0.18),
        );
        t.push(
            Target::new(
                "fig1",
                "IPC drop larger on big than little core",
                2.16 / 1.55,
                (xs / xh) / (as_ / ah),
                Above(1.0),
            )
            .err_at_most(0.26)
            .margin_at_least(0.07),
        );

        // ---------------- Fig. 2: suite-level ED^xP ----------------------
        let [(_, spec), _, (_, hadoop)] = figures::suites();
        let [spec1, _, spec3] = figures::suite_edxp(ran, &spec, [x_spec, a_spec])?;
        let [had1, _, had3] = figures::suite_edxp(ran, &hadoop, [x_hadoop, a_hadoop])?;
        t.push(
            Target::new(
                "fig2",
                "EDP favours Atom for all suites (ratio > 1)",
                f64::NAN,
                had1.min(spec1),
                Above(1.0),
            )
            .margin_at_least(1.57),
        );
        t.push(
            Target::new(
                "fig2",
                "performance constraints (ED3P) favour the big core more than EDP does",
                f64::NAN,
                spec3 / spec1,
                Below(1.0),
            )
            .and(had3 < had1)
            .margin_at_least(0.96),
        );

        // ---------------- Fig. 3: execution-time ratios ------------------
        let [wc, st, gp, ts, nb, fp] = defaults;
        for (app, paper, [x, a], err, margin) in [
            (WordCount, 1.74, wc, 0.06, 0.50),
            (Sort, 15.4, st, 1.87, 0.86),
            (Grep, 1.39, gp, 0.14, 0.46),
            (TeraSort, 1.57, ts, 0.38, 0.83),
        ] {
            let r = m(a)?.breakdown.total() / m(x)?.breakdown.total();
            t.push(
                Target::new(
                    "fig3",
                    format!(
                        "{} exec-time ratio Atom/Xeon (Xeon faster)",
                        app.short_name()
                    ),
                    paper,
                    r,
                    Above(1.0),
                )
                .err_at_most(err)
                .margin_at_least(margin),
            );
        }

        // ---------------- Figs. 5/6: whole-app EDP winners ---------------
        let edp_ratio = |[x, a]: [Point; 2]| Ok::<_, SimError>(m(x)?.cost.edp() / m(a)?.cost.edp());
        for (app, paper, pair, err, margin) in [
            (WordCount, 2.27, wc, 0.03, 0.84),
            (Grep, 2.48, gp, 0.16, 0.75),
            (TeraSort, f64::NAN, ts, f64::NAN, 0.06),
            (NaiveBayes, f64::NAN, nb, f64::NAN, 0.75),
            (FpGrowth, f64::NAN, fp, f64::NAN, 0.87),
        ] {
            let r = edp_ratio(pair)?;
            t.push(
                Target::new(
                    "fig5/6",
                    format!("{} EDP winner is Atom (Xeon/Atom > 1)", app.short_name()),
                    paper,
                    r,
                    Above(1.0),
                )
                .err_at_most(err)
                .margin_at_least(margin),
            );
        }
        let st_ratio = edp_ratio(st)?;
        t.push(
            Target::new(
                "fig5/6",
                "ST EDP winner is Xeon (Xeon/Atom < 1)",
                f64::NAN,
                st_ratio,
                Below(1.0),
            )
            .margin_at_least(0.40),
        );

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
        t.push(Target::flag(
            "fig6",
            "raising frequency lowers whole-app EDP everywhere",
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
        // "Most" of six: more than three.
        t.push(
            Target::new(
                "fig7/8",
                "map phase prefers Atom for most applications",
                5.0,
                map_prefers_atom as f64,
                Above(3.0),
            )
            .err_at_most(0.23)
            .margin_at_least(0.28),
        );

        // ---------------- Fig. 9: block-size sensitivity -----------------
        let sx = spread(ran, blocks.map(|[x, _]| x))?;
        let sa = spread(ran, blocks.map(|[_, a]| a))?;
        t.push(
            Target::new(
                "fig3/9",
                "Atom more sensitive to block size than Xeon (ST variation)",
                26.18 / 18.9,
                sa / sx,
                Above(1.0),
            )
            .err_at_most(0.09)
            .margin_at_least(0.24),
        );

        // ---------------- Figs. 10–13: data-size scaling ------------------
        let [_, _, gp, _, nb, fp] = sizes;
        for (app, px, pa, [[x1, a1], [x20, a20]], err, margin) in [
            (Grep, 3.45, 10.15, gp, 0.75, 0.32),
            (NaiveBayes, 7.22, 8.59, nb, 0.13, 0.29),
            (FpGrowth, 5.96, 7.97, fp, 0.02, 0.30),
        ] {
            let g = |one, twenty| {
                Ok::<_, SimError>(m(twenty)?.breakdown.total() / m(one)?.breakdown.total())
            };
            let (gx, ga) = (g(x1, x20)?, g(a1, a20)?);
            t.push(
                Target::new(
                    "fig10/11",
                    format!("{} 1→20GB growth larger on Atom", app.short_name()),
                    pa / px,
                    ga / gx,
                    Above(1.0),
                )
                .err_at_most(err)
                .margin_at_least(margin),
            );
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
        t.push(Target::flag(
            "fig12",
            "EDP rises with input size on both machines",
            f64::NAN,
            edp_grows,
        ));

        // ---------------- Figs. 14–16: acceleration ----------------------
        let mut all_below_one = true;
        for (_, _, spec) in &rates {
            all_below_one &= spec.ratio(ran)? <= 1.02;
        }
        t.push(Target::flag(
            "fig14",
            "post-acceleration speedup ratio ≤ 1 for every app",
            f64::NAN,
            all_below_one,
        ));
        let [ts100, gp100, wc100] = at_100;
        let (ts100, gp100, wc100) = (ts100.ratio(ran)?, gp100.ratio(ran)?, wc100.ratio(ran)?);
        // A difference of ratios: no log distance from its threshold 0.
        t.push(Target::flag(
            "fig14",
            "acceleration impact negligible for TS and GP, strong for WC",
            ts100.min(gp100) - wc100,
            ts100 > wc100 && gp100 > wc100,
        ));

        // ---------------- Table 3 / Fig. 17: scheduling ------------------
        let cost = |p| m(p).map(|meas| meas.cost);
        let (st_a2, st_a8, st_x8) = (cost(st_a2)?.edp(), cost(st_a8)?.edp(), cost(st_x8)?.edp());
        t.push(
            Target::new(
                "table3",
                "more Atom cores reduce EDP (ST: M2 → M8)",
                1.05e6 / 3.40e5,
                st_a2 / st_a8,
                Above(1.0),
            )
            .err_at_most(0.78)
            .margin_at_least(0.34),
        );
        t.push(
            Target::new(
                "table3",
                "ST EDP lower on Xeon than Atom at M8",
                1.31e4 / 3.40e5,
                st_x8 / st_a8,
                Below(1.0),
            )
            .err_at_most(2.87)
            .margin_at_least(0.39),
        );
        let (wc_a2, wc_a8, wc_x2) = (cost(wc_a2)?, cost(wc_a8)?, cost(wc_x2)?);
        t.push(
            Target::new(
                "table3",
                "micro-benchmarks: EDAP grows with core count (WC on Atom)",
                3.91e8 / 1.34e8,
                wc_a8.edap() / wc_a2.edap(),
                Above(1.0),
            )
            .err_at_most(0.23)
            .margin_at_least(0.84),
        );
        let (fp_a2, fp_a8) = (cost(fp_a2)?.edap(), cost(fp_a8)?.edap());
        t.push(
            Target::new(
                "table3",
                "real-world apps: EDAP shrinks with core count (FP on Atom)",
                2.27e12 / 3.05e12,
                fp_a8 / fp_a2,
                Below(1.0),
            )
            .err_at_most(0.07)
            .margin_at_least(0.23),
        );
        t.push(
            Target::new(
                "table3",
                "8 Atom cores beat 2 Xeon cores on EDP (WC)",
                4.20e5 / 1.52e6,
                wc_a8.edp() / wc_x2.edp(),
                Below(1.0),
            )
            .err_at_most(0.08)
            .margin_at_least(1.36),
        );
        let (ts_x2, ts_a8) = (cost(ts_x2)?.ed2ap(), cost(ts_a8)?.ed2ap());
        t.push(
            Target::new(
                "fig17",
                "ED2AP: 2 Xeon cores beat 8 Atom cores for TeraSort",
                f64::NAN,
                ts_x2 / ts_a8,
                Below(1.0),
            )
            .margin_at_least(0.06),
        );
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

/// Renders the calibration table as aligned text, every row written in
/// place into the one buffer.
pub fn report(targets: &[Target]) -> String {
    let mut out = String::with_capacity(128 * (targets.len() + 4));
    out.push_str("artifact   ok  paper      measured   log_err  margin   claim\n");
    out.push_str(&"-".repeat(84));
    out.push('\n');
    for t in targets {
        // Writing into a `String` cannot fail.
        let _ = writeln!(
            out,
            "{:<9} {:>3}  {:>9}  {:>9}  {:>7}  {:>7}  {}",
            t.artifact,
            if t.holds { "yes" } else { "NO" },
            Num(t.paper),
            Num(t.measured),
            Log(t.log_err),
            Log(t.margin),
            t.claim
        );
    }
    let held = targets.iter().filter(|t| t.holds).count();
    let _ = writeln!(out, "\n{held}/{} claims hold", targets.len());
    out
}

/// A value of the report, padded in place to its column: `-` for NaN,
/// scientific outside [0.01, 1000), two decimals either way.
struct Num(f64);

impl Display for Num {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let (v, w) = (self.0, f.width().unwrap_or(0));
        if v.is_nan() {
            f.pad("-")
        } else if v.abs() >= 1000.0 || (v != 0.0 && v.abs() < 0.01) {
            write!(f, "{v:>w$.2e}")
        } else {
            write!(f, "{v:>w$.2}")
        }
    }
}

/// A log error or margin of the report, padded in place to its column:
/// `-` for NaN, three decimals.
struct Log(f64);

impl Display for Log {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let (v, w) = (self.0, f.width().unwrap_or(0));
        if v.is_nan() {
            f.pad("-")
        } else {
            write!(f, "{v:>w$.3}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_num_handles_ranges() {
        assert_eq!(format!("{:>9}", Num(f64::NAN)), "        -");
        assert_eq!(format!("{:>9}", Num(1.5)), "     1.50");
        assert_eq!(format!("{:>9}", Num(1.0e6)), "   1.00e6");
        assert_eq!(format!("{:>9}", Num(0.004)), "  4.00e-3");
        assert_eq!(format!("{}", Num(1.5)), "1.50");
        assert_eq!(format!("{:>7}", Log(0.0614)), "  0.061");
        assert_eq!(format!("{:>7}", Log(-0.2)), " -0.200");
        assert_eq!(format!("{:>7}", Log(f64::NAN)), "      -");
    }

    // The full calibration sweep runs in `tests/calibration.rs` (it is
    // expensive); here we only check the report renderer.
    #[test]
    fn report_renders() {
        let ts = vec![Target::new("figX", "demo", 1.0, 2.0, Above(1.5))];
        let r = report(&ts);
        assert!(r.contains("figX"));
        assert!(r.contains("  2.00    0.693    0.288  demo"), "{r}");
        assert!(r.contains("1/1 claims hold"));
    }
}
