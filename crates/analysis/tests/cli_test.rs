//! End-to-end CLI checks: exit codes, the report's finding lines, and the
//! baseline ratchet, exercised through the real binary over scratch workspaces in
//! `target/tmp` (each test owns a uniquely named one, so they can run in
//! parallel).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Output;

fn fixture(rule_dir: &str, which: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{}/{}.rs",
        env!("CARGO_MANIFEST_DIR"),
        rule_dir,
        which
    );
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

/// Builds a minimal one-crate scratch workspace whose `crates/des/src/lib.rs`
/// holds `lib_rs`.
fn scratch(name: &str, lib_rs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear scratch dir");
    }
    fs::create_dir_all(root.join("crates/des/src")).expect("scratch tree");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/des\"]\n",
    )
    .expect("scratch manifest");
    fs::write(
        root.join("analysis.toml"),
        "sim_crates = [\"crates/des\"]\n",
    )
    .expect("scratch config");
    fs::write(root.join("crates/des/src/lib.rs"), lib_rs).expect("scratch lib");
    root
}

fn run(root: &Path, extra: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_hhsim-analysis"))
        .arg("--workspace")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("linter binary runs")
}

/// One finding of the human report: `(severity, rule, file, line, col)`,
/// read off the `severity[rule]: message` header and the `  --> location`
/// line under it (crate-level findings carry no `:line:col`, reported as 0).
type ReportedFinding = (String, String, String, u64, u64);

fn findings(out: &Output) -> Vec<ReportedFinding> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    lines
        .windows(2)
        .filter_map(|pair| {
            let loc = pair[1].strip_prefix("  --> ")?;
            let (severity, rest) = pair[0].split_once('[')?;
            let (rule, _message) = rest.split_once("]: ")?;
            let mut parts = loc.splitn(3, ':');
            let file = parts.next()?.to_string();
            let line = parts.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            let col = parts.next().and_then(|c| c.parse().ok()).unwrap_or(0);
            Some((severity.to_string(), rule.to_string(), file, line, col))
        })
        .collect()
}

#[test]
fn clean_workspace_exits_zero() {
    let root = scratch("cli-clean", &fixture("float_total_order", "negative"));
    let out = run(&root, &[]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn violations_exit_one_with_parseable_report() {
    let root = scratch("cli-dirty", &fixture("float_total_order", "positive"));
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "error findings must exit 1");

    // The fixture's unwrap/expect sites also feed the (un-baselined) panic
    // budget, which reports a warning — so filter to error findings.
    let errors: Vec<_> = findings(&out)
        .into_iter()
        .filter(|(severity, ..)| severity == "error")
        .collect();
    assert!(!errors.is_empty());
    for (_, rule, file, line, _) in &errors {
        assert_eq!(rule, "float-total-order");
        assert_eq!(file, "crates/des/src/lib.rs");
        assert!(*line > 0);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("{} error(s)", errors.len())),
        "summary line counts the error findings: {stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let root = scratch("cli-usage", "");
    let out = run(&root, &["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "stderr explains usage"
    );
}

fn assert_rejected_with_usage(scratch_name: &str, args: &[&str]) {
    let root = scratch(scratch_name, &fixture("float_total_order", "positive"));
    let out = run(&root, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} is gone: {stderr}");
    assert!(
        stderr.contains(&format!("unknown argument `{}`", args[0])),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report is printed");
}

#[test]
fn removed_fix_flag_is_rejected() {
    assert_rejected_with_usage("cli-no-fix", &["--fix"]);
}

#[test]
fn removed_format_flag_is_rejected() {
    assert_rejected_with_usage("cli-no-format", &["--format", "json"]);
}

#[test]
fn removed_migration_flag_is_rejected() {
    assert_rejected_with_usage("cli-no-migration", &["--migration-report"]);
}

#[test]
fn removed_changed_flag_is_rejected() {
    assert_rejected_with_usage("cli-no-changed", &["--changed", "HEAD"]);
}

/// A `[rules.<name>]` table used to override a rule's severity or scope.
/// A config that still carries one must fail loudly, not lint as if the
/// override were in force.
#[test]
fn stale_per_rule_table_is_a_config_error_naming_the_line() {
    let root = scratch("cli-stale-rules", &fixture("float_total_order", "positive"));
    let stale = root.join("stale.toml");
    fs::write(
        &stale,
        "sim_crates = [\"crates/des\"]\n[rules.float-total-order]\nseverity = \"warning\"\n",
    )
    .expect("stale config");
    let out = run(&root, &["--config", stale.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("stale.toml: line 2"), "{stderr}");
    assert!(stderr.contains("[rules.float-total-order]"), "{stderr}");
}

#[test]
fn list_rules_prints_the_five_rules_with_their_scopes() {
    let root = scratch("cli-list-rules", "");
    let out = run(&root, &["--list-rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<(&str, &str)> = stdout
        .lines()
        .map(|l| {
            let (name, rest) = l.split_once('[').expect("name [scope] description");
            let (scope, _description) = rest.split_once(']').expect("closing bracket");
            (name.trim(), scope.trim())
        })
        .collect();
    assert_eq!(
        listed,
        [
            ("float-total-order", "all"),
            ("panic-in-engine", "sim-crates"),
            ("float-accumulation-order", "sim-or-reachable"),
            ("ignored-result", "reachable"),
            ("relaxed-atomic-in-results", "reachable"),
        ]
    );
}

#[test]
fn baseline_ratchet_round_trips_through_the_cli() {
    let root = scratch("cli-ratchet", &fixture("panic_in_engine", "positive"));
    let baseline_path = root.join("analysis-baseline.json");

    // No baseline yet: the missing-budget warning is not an error.
    let first = run(&root, &[]);
    assert!(first.status.success(), "warnings alone must not fail CI");

    // Record the budget, then verify the run is fully clean.
    let update = run(&root, &["--update-baseline"]);
    assert!(update.status.success());
    let recorded = fs::read_to_string(&baseline_path).expect("baseline written");
    let parsed = hhsim_analysis::parse_baseline(&recorded).expect("baseline parses");
    assert_eq!(
        parsed
            .get("panic-in-engine")
            .and_then(|m| m.get("crates/des")),
        Some(&6u64),
        "six countable sites in the fixture"
    );
    let clean = run(&root, &[]);
    assert!(clean.status.success());

    // Tighten the budget below the count: the ratchet must fail the build.
    fs::write(
        &baseline_path,
        "{\n  \"panic-in-engine\": {\n    \"crates/des\": 2\n  }\n}\n",
    )
    .expect("tighten budget");
    let over = run(&root, &[]);
    assert_eq!(out_code(&over), Some(1));
    assert!(
        String::from_utf8_lossy(&over.stdout).contains("panic budget exceeded"),
        "stdout: {}",
        String::from_utf8_lossy(&over.stdout)
    );
}

fn out_code(out: &Output) -> Option<i32> {
    out.status.code()
}

#[test]
fn explicit_baseline_path_is_the_budget_that_gates() {
    let root = scratch("cli-baseline-path", &fixture("panic_in_engine", "positive"));
    let tight = root.join("tight.json");
    fs::write(
        &tight,
        "{\n  \"panic-in-engine\": {\n    \"crates/des\": 2\n  }\n}\n",
    )
    .expect("tight budget");
    let over = run(&root, &["--baseline", tight.to_str().expect("utf-8 path")]);
    assert_eq!(out_code(&over), Some(1));
    assert!(
        String::from_utf8_lossy(&over.stdout).contains("panic budget exceeded"),
        "stdout: {}",
        String::from_utf8_lossy(&over.stdout)
    );
}

/// Every flag the usage line advertises is passed to the binary by some
/// test in this file, so a mode nobody exercises cannot be added quietly.
#[test]
fn every_flag_in_the_usage_line_is_exercised_here() {
    let root = scratch("cli-usage-walk", "");
    let help = run(&root, &["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    let flags: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|word| word.starts_with("--"))
        .collect();
    assert!(flags.len() >= 7, "usage lists the flags: {usage}");
    let this_file = include_str!("cli_test.rs");
    for flag in flags {
        assert!(
            this_file.contains(&format!("\"{flag}\"")),
            "{flag} is in the usage line but no CLI test passes it"
        );
    }
}

#[test]
fn dump_graph_resolves_configured_entry_points() {
    let root = scratch(
        "cli-graph",
        "pub fn engine_entry() { step(); }\nfn step() {}\nfn dead() {}\n",
    );
    fs::write(
        root.join("analysis.toml"),
        "sim_crates = [\"crates/des\"]\n[reachability]\nentry_points = [\"engine_entry\"]\n",
    )
    .expect("config with entry points");

    let out = run(&root, &["--dump-graph"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = hhsim_analysis::json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("graph dump is valid JSON");
    let entry_points = v
        .get("entry_points")
        .and_then(|e| e.as_array())
        .expect("entry_points array");
    assert_eq!(entry_points.len(), 1, "one configured entry point");
    assert!(
        !entry_points[0]
            .get("resolved")
            .and_then(|r| r.as_array())
            .expect("resolved ids")
            .is_empty(),
        "the entry point resolved to at least one fn"
    );
    let reachable: Vec<(&str, bool)> = v
        .get("fns")
        .and_then(|f| f.as_array())
        .expect("fns array")
        .iter()
        .map(|f| {
            (
                f.get("qual").and_then(|q| q.as_str()).expect("qual"),
                f.get("reachable").and_then(|b| b.as_bool()).expect("flag"),
            )
        })
        .collect();
    assert!(reachable
        .iter()
        .any(|(q, r)| q.contains("engine_entry") && *r));
    assert!(reachable.iter().any(|(q, r)| q.contains("step") && *r));
    assert!(
        reachable.iter().any(|(q, r)| q.contains("dead") && !*r),
        "unreferenced fn stays unreachable: {reachable:?}"
    );

    // An entry point that resolves to nothing is a config error.
    fs::write(
        root.join("analysis.toml"),
        "sim_crates = [\"crates/des\"]\n[reachability]\nentry_points = [\"no_such_fn\"]\n",
    )
    .expect("bad config");
    let bad = run(&root, &["--dump-graph"]);
    assert_eq!(out_code(&bad), Some(2), "unresolved entry points exit 2");
}
