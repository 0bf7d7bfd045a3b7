//! Findings, severities and report rendering.

use std::fmt;

/// How serious a finding is. `Error` findings fail the run (exit code 1);
/// `Warning`s are reported but do not fail; `Info` is advisory (e.g. the
/// panic budget shrank and the baseline can be ratcheted down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Reported, does not fail the run.
    Warning,
    /// Fails the run.
    Error,
}

impl Severity {
    /// Lowercase name as printed in the report.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name, e.g. `float-total-order`.
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 for crate-level findings such as budget breaches).
    pub line: u32,
    /// 1-based column (0 when not applicable).
    pub col: u32,
    /// Human-readable description of the hazard at this site.
    pub message: String,
    /// Source line the finding points at, for the human snippet.
    pub snippet: Option<String>,
}

/// A finished analysis run: findings plus counters for the summary line.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings that survived allowlisting, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Number of suppressions applied (inline escapes + config allows).
    pub suppressed: usize,
}

impl Report {
    /// Number of error-severity findings (what drives the exit code).
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Renders the human-readable report to a string.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line > 0 {
                out.push_str(&format!(
                    "{}[{}]: {}\n  --> {}:{}:{}\n",
                    f.severity, f.rule, f.message, f.file, f.line, f.col
                ));
                if let Some(snippet) = &f.snippet {
                    let gutter = format!("{}", f.line);
                    out.push_str(&format!("{} | {}\n", gutter, snippet));
                    if f.col > 0 {
                        let pad = " ".repeat(gutter.len() + 3 + f.col as usize - 1);
                        out.push_str(&pad);
                        out.push_str("^\n");
                    }
                }
            } else {
                out.push_str(&format!(
                    "{}[{}]: {}\n  --> {}\n",
                    f.severity, f.rule, f.message, f.file
                ));
            }
            out.push('\n');
        }
        let errors = self.error_count();
        let warnings = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count();
        out.push_str(&format!(
            "analysis: {} file(s) scanned, {} error(s), {} warning(s), {} finding(s) suppressed by allowlist\n",
            self.files_scanned, errors, warnings, self.suppressed
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "float-total-order",
            severity: Severity::Error,
            file: "crates/sched/src/lib.rs".into(),
            line: 138,
            col: 22,
            message: "partial_cmp().expect() on floats".into(),
            snippet: Some("            .min_by(|x, y| x.1.partial_cmp(&y.1))".into()),
        }
    }

    #[test]
    fn human_report_shows_span_and_caret() {
        let mut r = Report::default();
        r.findings.push(finding());
        r.files_scanned = 1;
        let text = r.render_human();
        assert!(text.contains("error[float-total-order]"));
        assert!(text.contains("crates/sched/src/lib.rs:138:22"));
        assert!(text.contains("^"));
        assert!(text.contains("1 error(s)"));
    }
}
