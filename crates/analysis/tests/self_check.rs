//! Self-check: the shipped workspace must be clean under its own shipped
//! `analysis.toml` and `analysis-baseline.json`. This is the same pipeline
//! the CI `analysis` job runs; if this test fails, so does CI.

use std::path::Path;

use hhsim_analysis::diag::Severity;
use hhsim_analysis::{analyze, collect_sources, config, parse_baseline};

#[test]
fn workspace_is_clean_under_shipped_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels below the workspace root");
    assert!(
        root.join("Cargo.toml").exists() && root.join("analysis.toml").exists(),
        "workspace root not where expected: {}",
        root.display()
    );

    let cfg = config::parse(
        &std::fs::read_to_string(root.join("analysis.toml")).expect("shipped analysis.toml"),
    )
    .expect("shipped config parses");
    // Clippy holds truncating casts in the non-test code of every sim
    // crate, so the crate list stays one decision: this config's.
    let cast_lint = "#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]";
    for krate in &cfg.sim_crates {
        let lib = std::fs::read_to_string(root.join(krate).join("src/lib.rs")).expect("sim lib.rs");
        assert!(
            lib.lines().any(|l| l.trim() == cast_lint),
            "{krate}/src/lib.rs lacks `{cast_lint}`"
        );
    }
    let baseline = parse_baseline(
        &std::fs::read_to_string(root.join("analysis-baseline.json"))
            .expect("shipped analysis-baseline.json"),
    )
    .expect("shipped baseline parses");

    let files = collect_sources(root).expect("workspace sources");
    let analysis = analyze(&files, &cfg, Some(&baseline)).expect("engine runs");

    let errors: Vec<String> = analysis
        .report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| format!("{}:{}:{} {} {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "workspace is not lint-clean under the shipped config:\n{}",
        errors.join("\n")
    );
    // Sanity: the walk really covered the workspace, not an empty dir.
    assert!(
        analysis.report.files_scanned > 50,
        "only {} files scanned",
        analysis.report.files_scanned
    );
}
