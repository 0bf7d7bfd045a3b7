//! `hhsim-analysis` — workspace determinism & invariant linter.
//!
//! The reproduction's entire value rests on deterministic simulation: the
//! figure sweep promises byte-identical CSVs across `--jobs`, and golden
//! traces pin the cluster engine. Nothing *static* kept the next PR from
//! iterating a `HashMap` in a sim path, comparing floats through
//! `partial_cmp().expect(..)`, or reading the wall clock inside the DES —
//! the exact hazards that silently break reproducibility. This crate closes
//! that gap: a token-level linter (the offline build has no `syn`; see
//! [`lexer`]) with a rule registry, span-accurate diagnostics, an allowlist
//! file (`analysis.toml`) with per-site `// hhsim: allow(<rule>): <why>`
//! escapes that must carry a justification, a ratcheting panic budget
//! (`analysis-baseline.json`), and CI-friendly exit codes.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p hhsim-analysis -- --workspace [--changed <git-ref>] [--update-baseline]
//! ```
//!
//! The mechanical subset of the rules is mirrored in `clippy.toml`
//! (`disallowed-methods` / `disallowed-types`) for editor-time feedback;
//! this linter remains the source of truth because it scopes rules to
//! sim-critical crates and enforces justified allowlisting.

pub mod config;
pub mod diag;
pub mod index;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod source;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use config::Config;
use diag::{Finding, Report, Severity};
use index::{Reachability, SymbolIndex};
use rules::{all_rules, inline_allow, FinalizeCtx, InlineAllow, RuleCtx};
use source::SourceFile;

/// Baseline file contents: `rule name -> crate root -> budget`.
pub type Baseline = BTreeMap<String, BTreeMap<String, u64>>;

/// A finished run: the report plus the counters rules want baselined.
#[derive(Debug)]
pub struct Analysis {
    /// Findings and summary counters.
    pub report: Report,
    /// Counters to persist with `--update-baseline`.
    pub counters: Baseline,
}

/// The semantic layers built during a run, exposed for `--dump-graph`.
#[derive(Debug)]
pub struct Semantics {
    /// Workspace symbol index + call graph.
    pub index: SymbolIndex,
    /// Reachability from the configured entry points (`None` when the
    /// config declares none).
    pub reach: Option<Reachability>,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under `root` as `(workspace-relative path,
/// contents)`, sorted by path for deterministic reports. Build output and
/// VCS metadata are skipped.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(
                    name.as_ref(),
                    ".git" | "target" | "results" | "node_modules"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked from root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let text = std::fs::read_to_string(&path)?;
                out.push((rel, text));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Rejects config entries that reference unknown rules — a typo in an
/// allowlist must not silently disable the suppression.
pub fn validate_config(cfg: &Config) -> Result<(), String> {
    let rules = all_rules();
    let known: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    for a in &cfg.allows {
        if !known.contains(&a.rule.as_str()) {
            return Err(format!(
                "analysis.toml: [[allow]] references unknown rule `{}` (known: {})",
                a.rule,
                known.join(", ")
            ));
        }
    }
    Ok(())
}

/// Analyzes in-memory sources under `cfg`, reconciling budget rules against
/// `baseline`. This is the whole pipeline behind the CLI; fixture tests call
/// it directly.
pub fn analyze(
    files: &[(String, String)],
    cfg: &Config,
    baseline: Option<&Baseline>,
) -> Result<Analysis, String> {
    analyze_full(files, cfg, baseline).map(|(a, _)| a)
}

/// [`analyze`], also returning the semantic layers (symbol index and
/// reachability) the run was scoped by.
///
/// The pipeline is two-pass: first every non-excluded file is lexed and
/// the workspace symbol index + call graph + entry-point reachability are
/// built; then rules run per file with the semantic layers in their
/// context. An entry point that resolves to no indexed function is a
/// config error (exit 2 at the CLI) — a dead entry point would silently
/// unscope every reachability rule.
pub fn analyze_full(
    files: &[(String, String)],
    cfg: &Config,
    baseline: Option<&Baseline>,
) -> Result<(Analysis, Semantics), String> {
    validate_config(cfg)?;
    let rules = all_rules();

    // Pass 1: parse and build the semantic layers.
    let parsed: Vec<SourceFile> = files
        .iter()
        .filter(|(path, _)| !cfg.is_excluded(path))
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    let symbol_index = SymbolIndex::build(&parsed);
    let reach = if cfg.entry_points.is_empty() {
        None
    } else {
        Some(Reachability::compute(&symbol_index, &cfg.entry_points)?)
    };

    let ctx = RuleCtx {
        config: cfg,
        index: Some(&symbol_index),
        reach: reach.as_ref(),
    };

    // Pass 2: run the rules.
    let mut report = Report::default();
    let mut findings: Vec<Finding> = Vec::new();

    for file in &parsed {
        report.files_scanned += 1;
        for rule in &rules {
            let mut raw = Vec::new();
            rule.check(file, &ctx, &mut raw);
            for f in raw {
                match inline_allow(file, f.rule, f.line) {
                    InlineAllow::Justified => {
                        report.suppressed += 1;
                    }
                    InlineAllow::Unjustified => {
                        findings.push(Finding {
                            rule: rules::ALLOW_WITHOUT_JUSTIFICATION,
                            severity: Severity::Error,
                            message: format!(
                                "inline escape for `{}` has no justification; write `// hhsim: allow({}): <why this site is sound>`",
                                f.rule, f.rule
                            ),
                            ..f
                        });
                    }
                    InlineAllow::None => {
                        if cfg.allow_for(f.rule, &file.path).is_some() {
                            report.suppressed += 1;
                        } else {
                            findings.push(f);
                        }
                    }
                }
            }
        }
    }

    let fctx = FinalizeCtx { baseline };
    let mut counters: Baseline = BTreeMap::new();
    for rule in &rules {
        rule.finalize(&fctx, &mut findings);
        if let Some(c) = rule.counters() {
            counters.insert(rule.name().to_string(), c);
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    report.findings = findings;
    Ok((
        Analysis { report, counters },
        Semantics {
            index: symbol_index,
            reach,
        },
    ))
}

/// Parses `analysis-baseline.json`.
pub fn parse_baseline(src: &str) -> Result<Baseline, String> {
    let v = json::parse(src)?;
    let obj = v
        .as_object()
        .ok_or("baseline must be a JSON object keyed by rule name")?;
    let mut out = Baseline::new();
    for (rule, crates) in obj {
        let crates = crates
            .as_object()
            .ok_or(format!("baseline[{rule}] must be an object keyed by crate"))?;
        let mut counts = BTreeMap::new();
        for (krate, n) in crates {
            let n = n.as_u64().ok_or(format!(
                "baseline[{rule}][{krate}] must be a non-negative integer"
            ))?;
            counts.insert(krate.clone(), n);
        }
        out.insert(rule.clone(), counts);
    }
    Ok(out)
}

/// Serializes a baseline with stable ordering and a trailing newline, so
/// regenerating it never produces spurious diffs.
pub fn render_baseline(b: &Baseline) -> String {
    let mut out = String::from("{\n");
    for (ri, (rule, crates)) in b.iter().enumerate() {
        out.push_str(&format!("  \"{}\": {{\n", json::escape(rule)));
        for (ci, (krate, n)) in crates.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                json::escape(krate),
                n,
                if ci + 1 < crates.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  }}{}\n",
            if ri + 1 < b.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_cfg() -> Config {
        Config {
            sim_crates: vec!["crates/des".into()],
            ..Config::default()
        }
    }

    fn file(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn inline_escape_suppresses_and_counts() {
        let files = [file(
            "crates/des/src/x.rs",
            "// hhsim: allow(nondet-iteration): keyed lookup only, never iterated\nuse std::collections::HashMap;\n",
        )];
        let a = analyze(&files, &sim_cfg(), None).expect("runs");
        assert_eq!(
            a.report
                .findings
                .iter()
                .filter(|f| f.rule == "nondet-iteration")
                .count(),
            0,
            "{:?}",
            a.report.findings
        );
        assert_eq!(a.report.suppressed, 1);
    }

    #[test]
    fn unjustified_escape_is_its_own_error() {
        let files = [file(
            "crates/des/src/x.rs",
            "use std::collections::HashMap; // hhsim: allow(nondet-iteration)\n",
        )];
        let a = analyze(&files, &sim_cfg(), None).expect("runs");
        let f = a
            .report
            .findings
            .iter()
            .find(|f| f.rule == rules::ALLOW_WITHOUT_JUSTIFICATION)
            .expect("converted finding");
        assert_eq!(f.severity, Severity::Error);
        assert!(a.report.error_count() >= 1);
    }

    #[test]
    fn config_allow_and_exclude_apply() {
        let cfg = config::parse(
            "sim_crates = [\"crates/des\"]\n\
             [[allow]]\nrule = \"nondet-iteration\"\npath = \"crates/des/src/cache.rs\"\nreason = \"keyed lookups only\"\n\
             [[exclude]]\npath = \"crates/des/src/gen\"\nreason = \"generated code\"\n",
        )
        .expect("valid config");
        let files = [
            file("crates/des/src/cache.rs", "use std::collections::HashMap;"),
            file(
                "crates/des/src/gen/big.rs",
                "use std::collections::HashMap;",
            ),
            file("crates/des/src/live.rs", "use std::collections::HashMap;"),
        ];
        let a = analyze(&files, &cfg, None).expect("runs");
        let hits: Vec<&str> = a
            .report
            .findings
            .iter()
            .filter(|f| f.rule == "nondet-iteration")
            .map(|f| f.file.as_str())
            .collect();
        assert_eq!(hits, vec!["crates/des/src/live.rs"]);
        assert_eq!(a.report.suppressed, 1);
        assert_eq!(a.report.files_scanned, 2, "excluded file not scanned");
    }

    #[test]
    fn unknown_rule_in_config_is_an_error() {
        let cfg = config::parse("[[allow]]\nrule = \"not-a-rule\"\npath = \"x\"\nreason = \"y\"\n")
            .expect("syntactically valid");
        let err = analyze(&[], &cfg, None).expect_err("must fail");
        assert!(err.contains("not-a-rule"), "{err}");
    }

    #[test]
    fn baseline_roundtrip() {
        let mut b = Baseline::new();
        b.insert(
            "panic-in-engine".into(),
            BTreeMap::from([
                ("crates/des".to_string(), 3u64),
                ("crates/core".to_string(), 41u64),
            ]),
        );
        let text = render_baseline(&b);
        assert_eq!(parse_baseline(&text).expect("roundtrips"), b);
        assert!(text.ends_with("}\n"));
        // Re-rendering the parsed form is byte-identical (stable ordering).
        assert_eq!(
            render_baseline(&parse_baseline(&text).expect("parses")),
            text
        );
    }

    #[test]
    fn findings_are_sorted_and_deterministic() {
        let files = [
            file(
                "crates/des/src/b.rs",
                "use std::collections::HashMap;\nuse std::time::Instant;\n",
            ),
            file("crates/des/src/a.rs", "use std::collections::HashSet;"),
        ];
        let a1 = analyze(&files, &sim_cfg(), None).expect("runs");
        let a2 = analyze(&files, &sim_cfg(), None).expect("runs");
        let order: Vec<(String, u32)> = a1
            .report
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
        assert_eq!(a1.report.render_human(), a2.report.render_human());
    }
}
