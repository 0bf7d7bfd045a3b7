//! `truncating-cast`: a ratcheting budget on lossy `as` casts in engine
//! arithmetic.
//!
//! The SoA arena packs indices into `u32` columns and the ladder calendar
//! divides 64-bit virtual timestamps down to bucket indices — both are
//! full of `expr as u32` / `expr as usize` casts that silently wrap when
//! the value outgrows the target. A wrapped index does not crash; it reads
//! the *wrong slot*, which is a determinism bug of the worst kind (output
//! changes only at scale). Like `panic-in-engine`, the sites cannot be
//! banned outright, so they are budgeted per crate in
//! `analysis-baseline.json`: new casts over the recorded count fail, and
//! removals invite a ratchet-down.
//!
//! Counted targets are the types a 64-bit value can lose bits in:
//! `u8/i8/u16/i16/u32/i32/f32` and `usize/isize` (32-bit hosts truncate
//! `u64 as usize`). Casts *to* `u64/i64/f64` are not counted: they only
//! lose bits from 128-bit sources, which the workspace does not use in
//! index math. `use x as y` renames and `<T as Trait>` paths never match
//! because the following token is not a counted primitive type name.
//!
//! Scope: `sim-and-reachable` — the crate allowlist *narrowed* by the
//! call graph, so exporters and dead helpers inside sim crates stop
//! consuming budget once entry points are configured.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::config::Scope;
use crate::diag::{Finding, Severity};
use crate::source::SourceFile;

use super::{inline_allow, FinalizeCtx, InlineAllow, Rule, RuleCtx};

/// Cast targets that can drop bits from a 64-bit source.
const NARROW_TARGETS: &[&str] = &[
    "u8", "i8", "u16", "i16", "u32", "i32", "f32", "usize", "isize",
];

/// See module docs.
#[derive(Default)]
pub struct TruncatingCast {
    counts: RefCell<BTreeMap<String, u64>>,
}

impl Rule for TruncatingCast {
    fn name(&self) -> &'static str {
        "truncating-cast"
    }

    fn description(&self) -> &'static str {
        "lossy `as` casts (to u8..u32/i8..i32/f32/usize) in reachable engine arithmetic, ratcheted against analysis-baseline.json"
    }

    fn default_scope(&self) -> Scope {
        Scope::SimAndReachable
    }

    fn check(&self, file: &SourceFile, ctx: &RuleCtx, _out: &mut Vec<Finding>) {
        let scope = self.default_scope();
        if !ctx.file_in_scope(scope, file) {
            return;
        }
        if ctx.config.allow_for(self.name(), &file.path).is_some() {
            return;
        }
        let toks = &file.tokens;
        let mut count = 0u64;
        for i in 0..toks.len() {
            if !toks[i].is_ident("as") {
                continue;
            }
            let Some(target) = toks.get(i + 1).and_then(|t| t.ident()) else {
                continue;
            };
            if !NARROW_TARGETS.contains(&target) {
                continue;
            }
            if file.in_test_code(i) || !ctx.in_scope(scope, file, i) {
                continue;
            }
            if inline_allow(file, self.name(), toks[i].line) != InlineAllow::Justified {
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
                return;
            }
            out.push(budget_finding(
                self.name(),
                Severity::Warning,
                "analysis-baseline.json",
                format!(
                    "no truncating-cast baseline found; run with --update-baseline to record the current counts ({})",
                    counts
                        .iter()
                        .map(|(k, v)| format!("{k}: {v}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
            return;
        };
        for (crate_root, &count) in counts.iter() {
            let budget = budgets.get(crate_root).copied().unwrap_or(0);
            if count > budget {
                out.push(budget_finding(
                    self.name(),
                    Severity::Error,
                    crate_root,
                    format!(
                        "truncating-cast budget exceeded: {count} lossy `as` casts vs budget {budget}; use `try_from`/`checked` conversions, justify sites with `// hhsim: allow(truncating-cast): ...`, or re-baseline with --update-baseline for a genuinely new subsystem"
                    ),
                ));
            } else if count < budget {
                out.push(budget_finding(
                    self.name(),
                    Severity::Info,
                    crate_root,
                    format!(
                        "truncating-cast budget shrank: {count} sites vs budget {budget}; ratchet the baseline down with --update-baseline"
                    ),
                ));
            }
        }
        for (crate_root, &budget) in budgets.iter() {
            if budget > 0 && !counts.contains_key(crate_root) {
                out.push(budget_finding(
                    self.name(),
                    Severity::Info,
                    crate_root,
                    format!(
                        "truncating-cast budget shrank: 0 sites vs budget {budget}; ratchet the baseline down with --update-baseline"
                    ),
                ));
            }
        }
    }

    fn counters(&self) -> Option<BTreeMap<String, u64>> {
        Some(self.counts.borrow().clone())
    }
}

fn budget_finding(rule: &'static str, severity: Severity, file: &str, message: String) -> Finding {
    Finding {
        rule,
        severity,
        file: file.to_string(),
        line: 0,
        col: 0,
        message,
        snippet: None,
    }
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
        let rule = TruncatingCast::default();
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
    fn counts_narrowing_casts_only() {
        assert_eq!(
            count(
                "fn f(a: u64, b: i64, c: f64) {\n\
                 let _ = a as u32;\n\
                 let _ = a as usize;\n\
                 let _ = b as i16;\n\
                 let _ = c as f32;\n\
                 }"
            ),
            4
        );
        // Widening / same-width and f64 targets are free.
        assert_eq!(
            count("fn f(a: u32, b: u8) { let _ = a as u64; let _ = b as f64; let _ = a as i64; }"),
            0
        );
    }

    #[test]
    fn use_renames_and_trait_paths_are_not_casts() {
        assert_eq!(
            count(
                "use std::fmt::Write as _;\n\
                 use std::collections::BTreeMap as Map;\n\
                 fn f<T: Iterator>(x: T) -> usize { <T as Iterator>::size_hint(&x).0 }"
            ),
            0
        );
    }

    #[test]
    fn test_code_and_justified_sites_are_free() {
        assert_eq!(
            count("#[cfg(test)] mod tests { fn t(a: u64) { let _ = a as u32; } }"),
            0
        );
        assert_eq!(
            count(
                "fn f(a: u64) {\n\
                 // hhsim: allow(truncating-cast): a < 2^20 by construction\n\
                 let _ = a as u32;\n\
                 }"
            ),
            0
        );
    }

    #[test]
    fn reachability_narrows_within_sim_crates() {
        use crate::index::{Reachability, SymbolIndex};
        let src = "pub fn entry(a: u64) -> u32 { narrow(a) }\n\
                   fn narrow(a: u64) -> u32 { a as u32 }\n\
                   fn exporter(a: u64) -> u32 { a as u32 }\n";
        let file = SourceFile::parse("crates/des/src/x.rs", src);
        let parsed = vec![file];
        let idx = SymbolIndex::build(&parsed);
        let reach = Reachability::compute(&idx, &["entry".to_string()]).expect("resolves");
        let rule = TruncatingCast::default();
        let c = cfg();
        let ctx = RuleCtx {
            config: &c,
            index: Some(&idx),
            reach: Some(&reach),
        };
        rule.check(&parsed[0], &ctx, &mut Vec::new());
        assert_eq!(
            rule.counters().unwrap().get("crates/des").copied(),
            Some(1),
            "only the reachable cast counts; `exporter` is out of scope"
        );
    }

    #[test]
    fn finalize_ratchets_against_baseline() {
        let rule = TruncatingCast::default();
        let file = SourceFile::parse("crates/des/src/x.rs", "fn f(a: u64) { let _ = a as u32; }");
        let c = cfg();
        rule.check(&file, &RuleCtx::bare(&c), &mut Vec::new());

        let mut baseline = BTreeMap::new();
        baseline.insert(
            "truncating-cast".to_string(),
            BTreeMap::from([("crates/des".to_string(), 0u64)]),
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

        baseline.insert(
            "truncating-cast".to_string(),
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
    }
}
