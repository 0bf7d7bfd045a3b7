//! End-to-end calibration: every headline claim of the paper must hold in
//! the simulation. This is the repository's acceptance test.

use hhsim_core::calibration::{check_all, report};

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
