//! The harness's central guarantee: the `--jobs` worker count affects
//! only wall time, never a single output byte. Results land by entry,
//! and every shared computation goes through per-key once-cells in
//! [`hhsim_core::SimCache`], so any scheduling interleaving produces the
//! identical CSV — and so does any plan an artifact is declared into:
//! alone, or beside every other artifact and the calibration claims.

use hhsim_core::figures::{self, Declare};
use hhsim_core::{calibration, Plan, SimCache};

/// Exercised artifacts: an execution-time sweep (fig3), a two-point
/// ratio figure (fig9) and the scheduling table (table3) — together they
/// cover shared-base rows, paired points and multi-metric assembly.
///
/// Each render runs its own plan on a memo of its own: on a shared one,
/// every render after the first would be the first one's points handed
/// back.
#[test]
fn jobs_count_never_changes_output_bytes() {
    let generators: [(&str, Declare); 3] = [
        ("fig3", figures::fig3),
        ("fig9", figures::fig9),
        ("table3", figures::table3),
    ];
    let csv = |declare: Declare, workers| {
        let mut plan = Plan::new();
        let render = declare(&mut plan);
        let ran = plan.run_on(workers, &SimCache::new());
        render(&ran).expect("renders").to_csv()
    };
    for (id, declare) in generators {
        let serial = csv(declare, 1);
        let parallel = csv(declare, 4);
        let serial_again = csv(declare, 1);
        assert_eq!(serial, parallel, "{id}: --jobs 4 diverged from --jobs 1");
        assert_eq!(serial, serial_again, "{id}: rerun diverged");
    }
}

/// The `figures` binary's plan: all 25 artifacts and the calibration
/// claims declared into one plan and run in one fill, on `workers`
/// workers against a memo of its own. Returns every artifact's CSV, in
/// [`figures::ARTIFACTS`] order, and the calibration report.
fn one_plan(workers: usize) -> (Vec<String>, String) {
    let mut plan = Plan::new();
    let renders: Vec<_> = (figures::ARTIFACTS.iter())
        .map(|(_, declare)| declare(&mut plan))
        .collect();
    let claims = calibration::claims(&mut plan);
    let ran = plan.run_on(workers, &SimCache::new());
    let csvs = (renders.into_iter())
        .map(|render| render(&ran).expect("renders").to_csv())
        .collect();
    let report = calibration::report(&claims(&ran).expect("the claims' runs complete"));
    (csvs, report)
}

/// One plan for everything renders, byte for byte, what each artifact's
/// stand-alone generator renders and what `check_all` reports — at any
/// worker count, cold. The stand-alone generators use the global jobs
/// setting, which no test in this binary sets; their bytes do not depend
/// on it.
#[test]
fn one_plan_renders_what_the_standalone_generators_do() {
    let alone: Vec<String> = (figures::all().into_iter())
        .map(|(_, generate)| generate().expect("renders").to_csv())
        .collect();
    let report = calibration::report(&calibration::check_all());
    for workers in [1, 2, 4] {
        let (csvs, combined) = one_plan(workers);
        for ((id, _), (got, want)) in figures::ARTIFACTS.iter().zip(csvs.iter().zip(&alone)) {
            assert_eq!(got, want, "{id} at {workers} workers");
        }
        assert_eq!(combined, report, "calibration at {workers} workers");
    }
}
