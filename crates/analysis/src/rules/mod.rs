//! Rule trait, registry, and the inline-escape helper shared by rules and
//! the engine.

use std::collections::BTreeMap;

use crate::config::{Config, Scope};
use crate::diag::{Finding, Severity};
use crate::index::{Reachability, SymbolIndex};
use crate::source::SourceFile;

mod float_accumulation;
mod float_total_order;
mod ignored_result;
mod panic_budget;
mod relaxed_atomic;

/// Pseudo-rule name used when an inline escape is missing its justification.
pub const ALLOW_WITHOUT_JUSTIFICATION: &str = "allow-without-justification";

/// Context handed to every rule invocation.
pub struct RuleCtx<'a> {
    /// Parsed `analysis.toml`.
    pub config: &'a Config,
    /// Workspace symbol index, when the engine built one (always in the
    /// two-pass pipeline; `None` only in narrow unit tests).
    pub index: Option<&'a SymbolIndex>,
    /// Engine reachability, when entry points are configured.
    pub reach: Option<&'a Reachability>,
}

impl<'a> RuleCtx<'a> {
    /// A context with no semantic layers, for rule unit tests.
    pub fn bare(config: &'a Config) -> RuleCtx<'a> {
        RuleCtx {
            config,
            index: None,
            reach: None,
        }
    }

    /// True when token `idx` of `file` is inside `scope`. With no
    /// reachability computed (no entry points configured), reachability
    /// predicates degrade to the crate allowlist, so legacy configs and
    /// fixture runs keep their meaning.
    pub fn in_scope(&self, scope: Scope, file: &SourceFile, idx: usize) -> bool {
        let sim = self.config.is_sim_crate(&file.crate_root);
        match scope {
            Scope::All => true,
            Scope::SimCrates => sim,
            Scope::Reachable => match self.reach {
                Some(r) => r.is_reachable(&file.path, idx),
                None => sim,
            },
            Scope::SimOrReachable => {
                sim || self.reach.is_some_and(|r| r.is_reachable(&file.path, idx))
            }
        }
    }

    /// Cheap per-file pre-filter: false when no token of `file` can be in
    /// `scope`, so rules can skip the token walk entirely.
    pub fn file_in_scope(&self, scope: Scope, file: &SourceFile) -> bool {
        let sim = self.config.is_sim_crate(&file.crate_root);
        match scope {
            Scope::All => true,
            Scope::SimCrates => sim,
            Scope::Reachable => match self.reach {
                Some(r) => r.touches_file(&file.path),
                None => sim,
            },
            Scope::SimOrReachable => sim || self.reach.is_some_and(|r| r.touches_file(&file.path)),
        }
    }
}

/// Context for the post-pass, where cross-file rules (the panic budget)
/// reconcile their accumulated state against the checked-in baseline.
pub struct FinalizeCtx<'a> {
    /// Parsed `analysis-baseline.json` budgets (`rule -> crate -> count`),
    /// `None` when the file does not exist yet.
    pub baseline: Option<&'a BTreeMap<String, BTreeMap<String, u64>>>,
}

/// One simulation-safety rule.
pub trait Rule {
    /// Stable kebab-case rule name (used in config, escapes, and output).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Where this rule fires.
    fn default_scope(&self) -> Scope {
        Scope::All
    }
    /// Scans one file, pushing site findings. Site findings are subject to
    /// inline and config allowlisting by the engine.
    fn check(&self, file: &SourceFile, ctx: &RuleCtx, out: &mut Vec<Finding>);
    /// Runs once after all files, for rules that aggregate (budgets).
    /// Findings emitted here bypass site allowlisting.
    fn finalize(&self, _ctx: &FinalizeCtx, _out: &mut Vec<Finding>) {}
    /// Crate-level counters this rule wants persisted in the baseline file
    /// (only the panic budget uses this).
    fn counters(&self) -> Option<BTreeMap<String, u64>> {
        None
    }
}

/// The shipped rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_total_order::FloatTotalOrder),
        Box::new(panic_budget::PanicBudget::default()),
        Box::new(float_accumulation::FloatAccumulationOrder),
        Box::new(ignored_result::IgnoredResult),
        Box::new(relaxed_atomic::RelaxedAtomicInResults),
    ]
}

/// Result of looking for a `// hhsim: allow(<rule>)` escape near a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineAllow {
    /// No escape present.
    None,
    /// Escape present with a non-empty justification.
    Justified,
    /// Escape present but no justification text after the colon.
    Unjustified,
}

/// Checks the finding's own line and the line directly above it for an
/// inline escape of `rule`:
///
/// ```text
/// // hhsim: allow(rule-name): why this site is sound
/// ```
pub fn inline_allow(file: &SourceFile, rule: &str, line: u32) -> InlineAllow {
    let mut state = InlineAllow::None;
    for c in &file.comments {
        if c.line != line && c.line + 1 != line {
            continue;
        }
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("hhsim:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some((named, after)) = rest.split_once(')') else {
            continue;
        };
        if named.trim() != rule {
            continue;
        }
        let justification = after.trim_start().strip_prefix(':').unwrap_or("");
        if justification.trim().is_empty() {
            // Keep looking: another comment may carry the justification.
            state = InlineAllow::Unjustified;
        } else {
            return InlineAllow::Justified;
        }
    }
    state
}

/// Builds a site finding (every site finding is an error) with the snippet
/// filled in from the source line.
pub fn finding_at(
    rule: &'static str,
    file: &SourceFile,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity: Severity::Error,
        file: file.path.clone(),
        line,
        col,
        message,
        snippet: file.line_text(line).map(str::to_string),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_kebab() {
        let rules = all_rules();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        names.sort();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "duplicate rule names");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{n} not kebab-case"
            );
        }
    }

    #[test]
    fn inline_allow_grammar() {
        let src = "\
// hhsim: allow(ignored-result): the caller logs the error
let a = 1;
let b = 2; // hhsim: allow(float-accumulation-order): integer count
// hhsim: allow(panic-in-engine)
let c = 3;
";
        let f = SourceFile::parse("crates/des/src/x.rs", src);
        assert_eq!(
            inline_allow(&f, "ignored-result", 2),
            InlineAllow::Justified,
            "comment on preceding line"
        );
        assert_eq!(
            inline_allow(&f, "float-accumulation-order", 3),
            InlineAllow::Justified,
            "comment on same line"
        );
        assert_eq!(
            inline_allow(&f, "panic-in-engine", 5),
            InlineAllow::Unjustified,
            "missing justification"
        );
        assert_eq!(inline_allow(&f, "ignored-result", 3), InlineAllow::None);
        assert_eq!(
            inline_allow(&f, "float-total-order", 2),
            InlineAllow::None,
            "rule name must match"
        );
    }
}
