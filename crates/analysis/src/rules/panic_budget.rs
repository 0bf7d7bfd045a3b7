//! `panic-in-engine`: a ratcheting budget on panic sites in sim crates.
//!
//! `unwrap`, `expect`, panic-family macros and slice indexing are all
//! places the engine can abort mid-simulation. They cannot realistically be
//! banned outright — the workspace asserts internal invariants on purpose —
//! so instead every sim-critical crate gets a *budget*: the current count,
//! checked into `analysis-baseline.json`. A PR that adds a panic site over
//! the budget fails; a PR that removes sites is invited (info-level) to
//! ratchet the baseline down with `--update-baseline`. The budget can only
//! shrink.
//!
//! Sites carrying a justified `// hhsim: allow(panic-in-engine): ...`
//! escape are not counted at all.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::config::Scope;
use crate::diag::{Finding, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

use super::{inline_allow, FinalizeCtx, InlineAllow, Rule, RuleCtx};

/// Panic-family macro names counted by the budget.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can stand directly before a `[` which opens a slice
/// type, a slice pattern or an array literal: `&mut [T]`, `*const [T]`,
/// `dyn`/`as`/`for`/`where` before a type, `let [a, b] = ..`,
/// `for x in [a, b]`, `return [..]`. The lexer hands keywords over as
/// identifiers, and none of these can end an expression, so a `[` after
/// one is never an index. (`self` can, and stays countable.)
const NON_EXPR_KEYWORDS: &[&str] = &[
    "as", "break", "const", "dyn", "else", "for", "if", "in", "let", "match", "move", "mut",
    "return", "where", "while",
];

/// See module docs.
#[derive(Default)]
pub struct PanicBudget {
    counts: RefCell<BTreeMap<String, u64>>,
}

impl Rule for PanicBudget {
    fn name(&self) -> &'static str {
        "panic-in-engine"
    }

    fn description(&self) -> &'static str {
        "unwrap/expect/panic!/indexing sites per sim crate, ratcheted against analysis-baseline.json (can only shrink)"
    }

    fn default_scope(&self) -> Scope {
        // Budgets are keyed per crate in the baseline file; switching the
        // count to call-graph granularity would churn every budget each
        // time the graph shifts. The ratchet stays crate-scoped.
        Scope::SimCrates
    }

    fn check(&self, file: &SourceFile, ctx: &RuleCtx, _out: &mut Vec<Finding>) {
        if !ctx.file_in_scope(self.default_scope(), file) {
            return;
        }
        if ctx.config.allow_for(self.name(), &file.path).is_some() {
            return;
        }
        let toks = &file.tokens;
        let mut count = 0u64;
        for i in 0..toks.len() {
            if file.in_test_code(i) {
                continue;
            }
            let t = &toks[i];
            let site = match &t.kind {
                // `.unwrap` / `.expect` method calls.
                TokenKind::Ident(name) if name == "unwrap" || name == "expect" => {
                    i > 0 && toks[i - 1].is_punct('.')
                }
                // `panic!(..)`-family macros.
                TokenKind::Ident(name) if PANIC_MACROS.contains(&name.as_str()) => {
                    toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                }
                // Index expressions `expr[..]`: a `[` whose preceding
                // significant token ends an expression. Array types/literals
                // (`[u8; 4]`, `= [1, 2]`), attributes (`#[..]`) and macro
                // brackets (`vec![..]`) are preceded by punctuation that
                // cannot end an expression, so they are skipped — as are
                // the ones behind a keyword (`&mut [T]`, `in [a, b]`).
                TokenKind::Punct('[') => {
                    i > 0
                        && match &toks[i - 1].kind {
                            TokenKind::Ident(name) => !NON_EXPR_KEYWORDS.contains(&name.as_str()),
                            TokenKind::Punct(c) => matches!(c, ')' | ']'),
                            _ => false,
                        }
                }
                _ => false,
            };
            if site && inline_allow(file, self.name(), t.line) != InlineAllow::Justified {
                count += 1;
            }
        }
        if count > 0 {
            *self
                .counts
                .borrow_mut()
                .entry(file.crate_root.clone())
                .or_insert(0) += count;
        }
    }

    fn finalize(&self, ctx: &FinalizeCtx, out: &mut Vec<Finding>) {
        let counts = self.counts.borrow();
        let budgets = ctx.baseline.and_then(|b| b.get(self.name()));
        let Some(budgets) = budgets else {
            if counts.is_empty() {
                // Nothing to budget and nothing baselined: stay silent so
                // fixture runs over non-sim files are clean.
                return;
            }
            out.push(Finding {
                rule: self.name(),
                severity: Severity::Warning,
                file: "analysis-baseline.json".to_string(),
                line: 0,
                col: 0,
                message: format!(
                    "no panic budget baseline found; run with --update-baseline to record the current counts ({})",
                    render_counts(&counts)
                ),
                snippet: None,
            });
            return;
        };
        for (crate_root, &count) in counts.iter() {
            let budget = budgets.get(crate_root).copied().unwrap_or(0);
            if count > budget {
                out.push(Finding {
                    rule: self.name(),
                    severity: Severity::Error,
                    file: crate_root.clone(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "panic budget exceeded: {count} unwrap/expect/panic!/indexing sites vs budget {budget}; remove sites, justify them with `// hhsim: allow(panic-in-engine): ...`, or (for a genuinely new subsystem) re-baseline with --update-baseline"
                    ),
                    snippet: None,
                });
            } else if count < budget {
                out.push(Finding {
                    rule: self.name(),
                    severity: Severity::Info,
                    file: crate_root.clone(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "panic budget shrank: {count} sites vs budget {budget}; ratchet the baseline down with --update-baseline"
                    ),
                    snippet: None,
                });
            }
        }
        // A crate in the baseline that no longer has any counted site.
        for (crate_root, &budget) in budgets.iter() {
            if budget > 0 && !counts.contains_key(crate_root) {
                out.push(Finding {
                    rule: self.name(),
                    severity: Severity::Info,
                    file: crate_root.clone(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "panic budget shrank: 0 sites vs budget {budget}; ratchet the baseline down with --update-baseline"
                    ),
                    snippet: None,
                });
            }
        }
    }

    fn counters(&self) -> Option<BTreeMap<String, u64>> {
        Some(self.counts.borrow().clone())
    }
}

fn render_counts(counts: &BTreeMap<String, u64>) -> String {
    if counts.is_empty() {
        return "no sites".to_string();
    }
    counts
        .iter()
        .map(|(k, v)| format!("{k}: {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn cfg() -> Config {
        Config {
            sim_crates: vec!["crates/des".into()],
            ..Config::default()
        }
    }

    fn count(src: &str) -> u64 {
        let rule = PanicBudget::default();
        let file = SourceFile::parse("crates/des/src/x.rs", src);
        let c = cfg();
        rule.check(&file, &RuleCtx::bare(&c), &mut Vec::new());
        rule.counters()
            .expect("has counters")
            .get("crates/des")
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn counts_panic_sites() {
        assert_eq!(
            count(
                "fn f(v: Vec<u32>) {\n\
                 v.first().unwrap();\n\
                 v.last().expect(\"non-empty\");\n\
                 panic!(\"boom\");\n\
                 unreachable!();\n\
                 let _ = v[0];\n\
                 }"
            ),
            5
        );
    }

    #[test]
    fn array_types_literals_attrs_and_macros_are_not_indexing() {
        assert_eq!(
            count(
                "#[derive(Debug)]\n\
                 struct S { a: [u8; 4] }\n\
                 fn f() -> Vec<u32> { let s = S { a: [0; 4] }; vec![1, 2] }\n\
                 fn g(x: &[u8]) -> usize { x.len() }"
            ),
            0
        );
        // But chained/real indexing counts.
        assert_eq!(count("fn f() { a[0]; b()[1]; c[0][1]; }"), 4);
    }

    #[test]
    fn slice_types_patterns_and_literals_behind_a_keyword_are_not_indexing() {
        assert_eq!(
            count(
                "fn f(rate: &mut [f64], p: *const [u8], d: &dyn [u8]) -> [u8; 2] {\n\
                 for x in [1, 2] { g(x); }\n\
                 let [a, b] = pair();\n\
                 if let [first, ..] = rate { g(*first); }\n\
                 match [a, b] { [0, _] => {} _ => {} }\n\
                 if [a, b] == [b, a] { return [a, b]; }\n\
                 let t = x as [u8; 2];\n\
                 loop { break [b, a]; }\n\
                 }\n\
                 impl<T> Tr for [T] where [T]: Sized {}\n\
                 fn h<'a>(s: &'a [u8], m: &'a mut [u8]) {}"
            ),
            0
        );
        // Identifiers that merely start like a keyword, `self`, and a
        // keyword-led expression that is then indexed, all still count.
        assert_eq!(
            count("fn f(&self) { mutable[0]; input[1]; self[2]; self.rows[3]; (if c { a } else { b })[4]; }"),
            5
        );
    }

    #[test]
    fn unwrap_or_family_is_not_counted() {
        assert_eq!(
            count("fn f(o: Option<u32>) { o.unwrap_or(0); o.unwrap_or_else(|| 1); o.unwrap_or_default(); }"),
            0
        );
    }

    #[test]
    fn test_code_and_justified_sites_are_free() {
        assert_eq!(
            count("#[cfg(test)] mod tests { fn t() { x.unwrap(); y[0]; } }"),
            0
        );
        assert_eq!(
            count(
                "fn f() {\n\
                 // hhsim: allow(panic-in-engine): checked two lines above\n\
                 x.unwrap();\n\
                 }"
            ),
            0
        );
    }

    #[test]
    fn finalize_ratchets_against_baseline() {
        let rule = PanicBudget::default();
        let file = SourceFile::parse("crates/des/src/x.rs", "fn f() { x.unwrap(); y.unwrap(); }");
        let c = cfg();
        rule.check(&file, &RuleCtx::bare(&c), &mut Vec::new());

        // Over budget -> error.
        let mut baseline = BTreeMap::new();
        baseline.insert(
            "panic-in-engine".to_string(),
            BTreeMap::from([("crates/des".to_string(), 1u64)]),
        );
        let mut out = Vec::new();
        rule.finalize(
            &FinalizeCtx {
                baseline: Some(&baseline),
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("2") && out[0].message.contains("budget 1"));

        // Under budget -> info ratchet hint.
        baseline.insert(
            "panic-in-engine".to_string(),
            BTreeMap::from([("crates/des".to_string(), 5u64)]),
        );
        let mut out = Vec::new();
        rule.finalize(
            &FinalizeCtx {
                baseline: Some(&baseline),
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Info);

        // No baseline at all -> warning.
        let mut out = Vec::new();
        rule.finalize(&FinalizeCtx { baseline: None }, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warning);
    }
}
