//! End-to-end calibration: every headline claim of the paper must hold in
//! the simulation. This is the repository's acceptance test.

use hhsim_core::calibration::{check_all, claims, report};
use hhsim_core::{figures, Plan};

#[test]
fn all_paper_claims_hold() {
    let targets = check_all();
    let rendered = report(&targets);
    println!("{rendered}");
    let failing: Vec<_> = targets.iter().filter(|t| !t.holds).collect();
    assert!(
        failing.is_empty(),
        "{} calibration claims failed:\n{}",
        failing.len(),
        failing
            .iter()
            .map(|t| format!(
                "  [{}] {} (paper {:.3}, measured {:.3})",
                t.artifact, t.claim, t.paper, t.measured
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The fidelity ledger: every claim's log error within the budget and its
/// margin above the floor checked in beside it, each rounded outward from
/// the values they were set at. A claim with a paper number has a budget,
/// and a claim with a threshold on its measured value has a floor.
#[test]
fn every_claim_is_within_its_ledger_budget() {
    let targets = check_all();
    for t in &targets {
        let at = format!("[{}] {}", t.artifact, t.claim);
        assert_eq!(
            t.log_err.is_nan(),
            t.max_log_err.is_nan(),
            "{at}: log error vs budget"
        );
        assert_eq!(
            t.margin.is_nan(),
            t.min_margin.is_nan(),
            "{at}: margin vs floor"
        );
        assert!(
            t.log_err.is_nan() || t.log_err <= t.max_log_err,
            "{at}: log error {} exceeds its budget {}",
            t.log_err,
            t.max_log_err
        );
        assert!(
            t.margin.is_nan() || t.margin >= t.min_margin,
            "{at}: margin {} fell below its floor {}",
            t.margin,
            t.min_margin
        );
    }
    let budgets = targets.iter().filter(|t| !t.max_log_err.is_nan()).count();
    let floors = targets.iter().filter(|t| !t.min_margin.is_nan()).count();
    assert_eq!(
        (budgets, floors),
        (20, 27),
        "the ledger's numeric and threshold claims"
    );
}

/// The committed claim table is the one the code renders: `figures
/// calibration` is not part of any gate, so without this the file — and the
/// copy of it in EXPERIMENTS.md — can drift from the model unnoticed.
#[test]
fn committed_claim_table_is_the_rendered_report() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(format!("{root}/{rel}")).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let committed = read("results/calibration.txt");
    assert_eq!(
        report(&check_all()),
        committed,
        "results/calibration.txt is stale: regenerate it with `figures calibration`"
    );

    let experiments = read("EXPERIMENTS.md");
    let fenced = experiments
        .split_once("## Headline claim table")
        .and_then(|(_, rest)| rest.split_once("```\n"))
        .and_then(|(_, rest)| rest.split_once("```\n"))
        .map(|(block, _)| block)
        .expect("EXPERIMENTS.md has a fenced block under 'Headline claim table'");
    assert_eq!(
        fenced, committed,
        "EXPERIMENTS.md's claim table is not results/calibration.txt"
    );
}

/// A ledger row quotes the artifact's own run: declared beside the 25
/// artifacts, the claims make declarations but no entry of their own.
#[test]
fn claims_add_no_entry_to_the_artifacts_plan() {
    let mut plan = Plan::new();
    for (_, declare) in figures::ARTIFACTS {
        drop(declare(&mut plan));
    }
    let (entries, declared) = (plan.len(), plan.declared());
    drop(claims(&mut plan));
    assert!(
        plan.declared() > declared,
        "the claims declare what they read"
    );
    assert_eq!(plan.len(), entries, "and every run of it is an artifact's");
}
