//! Fixture corpus: one true-positive and one true-negative file per rule,
//! pushed through the real engine under a minimal sim-crate config.
//!
//! The fixtures live in `tests/fixtures/<rule>/{positive,negative}.rs` and
//! are analyzed as if they sat at `crates/des/src/fixture.rs`, i.e. inside
//! a sim-critical crate, so every rule is in scope.

use std::collections::BTreeMap;

use hhsim_analysis::config::Config;
use hhsim_analysis::diag::Severity;
use hhsim_analysis::rules::all_rules;
use hhsim_analysis::{analyze, Analysis, Baseline};

const FIXTURE_PATH: &str = "crates/des/src/fixture.rs";

fn fixture(rule: &str, which: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{}/{}.rs",
        env!("CARGO_MANIFEST_DIR"),
        rule.replace('-', "_"),
        which
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

/// A panic budget of `n` in the fixture crate. At 0 any counted site is
/// over budget, which makes the budget rule behave like the point rules in
/// the generic positive/negative loops below.
fn budget(n: u64) -> Baseline {
    BTreeMap::from([(
        "panic-in-engine".to_string(),
        BTreeMap::from([("crates/des".to_string(), n)]),
    )])
}

fn run(text: &str, baseline: &Baseline) -> Analysis {
    let cfg = Config {
        sim_crates: vec!["crates/des".into()],
        ..Config::default()
    };
    analyze(
        &[(FIXTURE_PATH.to_string(), text.to_string())],
        &cfg,
        Some(baseline),
    )
    .expect("engine runs")
}

#[test]
fn every_registered_rule_has_a_fixture_pair() {
    // Adding a rule without fixtures must fail loudly, not silently shrink
    // coverage.
    for rule in all_rules() {
        fixture(rule.name(), "positive");
        fixture(rule.name(), "negative");
    }
}

#[test]
fn true_positives_fire_their_rule_as_errors() {
    let baseline = budget(0);
    for rule in all_rules() {
        let name = rule.name();
        let a = run(&fixture(name, "positive"), &baseline);
        let hits = a
            .report
            .findings
            .iter()
            .filter(|f| f.rule == name && f.severity == Severity::Error)
            .count();
        assert!(
            hits > 0,
            "{name}: positive fixture produced no error findings:\n{}",
            a.report.render_human()
        );
        assert!(a.report.error_count() > 0, "{name}: exit code would be 0");
    }
}

#[test]
fn true_negatives_are_completely_clean() {
    let baseline = budget(0);
    for rule in all_rules() {
        let name = rule.name();
        let a = run(&fixture(name, "negative"), &baseline);
        assert_eq!(
            a.report.error_count(),
            0,
            "{name}: negative fixture is not clean:\n{}",
            a.report.render_human()
        );
    }
}

#[test]
fn float_positive_is_span_accurate() {
    let a = run(&fixture("float-total-order", "positive"), &budget(0));
    let lines: Vec<u32> = a
        .report
        .findings
        .iter()
        .filter(|f| f.rule == "float-total-order")
        .map(|f| f.line)
        .collect();
    // One `.expect(..)` in `best`, one `.unwrap()` in `sort_desc`.
    assert_eq!(lines, vec![7, 12], "{:#?}", a.report.findings);
    for f in a
        .report
        .findings
        .iter()
        .filter(|f| f.rule == "float-total-order")
    {
        assert_eq!(f.file, FIXTURE_PATH);
        assert!(f.col > 0, "columns are 1-based");
        assert!(
            f.snippet
                .as_deref()
                .is_some_and(|s| s.contains("partial_cmp")),
            "snippet carries the offending line: {:?}",
            f.snippet
        );
    }
}

#[test]
fn panic_budget_counts_every_site_class() {
    // unwrap + expect + panic! + unreachable! + two index expressions.
    let a = run(&fixture("panic-in-engine", "positive"), &budget(6));
    assert_eq!(
        a.counters
            .get("panic-in-engine")
            .and_then(|m| m.get("crates/des"))
            .copied(),
        Some(6),
        "{:#?}",
        a.counters
    );
    // Exactly at budget: no error, no ratchet hint.
    assert_eq!(a.report.error_count(), 0, "{}", a.report.render_human());
}

#[test]
fn panic_budget_over_is_error_under_is_ratchet_hint() {
    let over = run(&fixture("panic-in-engine", "positive"), &budget(2));
    let f = over
        .report
        .findings
        .iter()
        .find(|f| f.rule == "panic-in-engine" && f.severity == Severity::Error)
        .expect("over-budget finding");
    assert!(
        f.message.contains("6") && f.message.contains("2"),
        "message names count and budget: {}",
        f.message
    );

    let under = run(&fixture("panic-in-engine", "positive"), &budget(10));
    assert_eq!(under.report.error_count(), 0);
    assert!(
        under
            .report
            .findings
            .iter()
            .any(|f| f.rule == "panic-in-engine" && f.severity == Severity::Info),
        "shrinking below budget yields a ratchet hint:\n{}",
        under.report.render_human()
    );
}

#[test]
fn panic_negative_counts_nothing() {
    let a = run(&fixture("panic-in-engine", "negative"), &budget(0));
    let count = a
        .counters
        .get("panic-in-engine")
        .and_then(|m| m.get("crates/des"))
        .copied()
        .unwrap_or(0);
    assert_eq!(count, 0, "justified/test-only sites must not count");
}
