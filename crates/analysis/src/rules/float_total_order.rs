//! `float-total-order`: flags `partial_cmp(..).unwrap()` / `.expect(..)`.
//!
//! `PartialOrd::partial_cmp` on floats returns `None` for NaN, so the
//! `unwrap`/`expect` idiom both panics on NaN *and* documents that the
//! comparison is not a total order — the exact hazard behind nondeterministic
//! sort results. Floats must use `f64::total_cmp`; `Ord` types must use
//! `Ord::cmp`. Applies everywhere, including tests: a flaky tie-break in a
//! test invalidates golden files just as surely as one in the engine.

use crate::diag::Finding;
use crate::source::{matching, SourceFile};

use super::{finding_at, Rule, RuleCtx};

/// See module docs.
pub struct FloatTotalOrder;

impl Rule for FloatTotalOrder {
    fn name(&self) -> &'static str {
        "float-total-order"
    }

    fn description(&self) -> &'static str {
        "partial_cmp().unwrap()/expect() is a partial order and panics on NaN; use f64::total_cmp or Ord::cmp"
    }

    fn check(&self, file: &SourceFile, _ctx: &RuleCtx, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("partial_cmp") {
                continue;
            }
            // Must be a call: `partial_cmp(` (method or UFCS path form).
            let Some(open) = toks.get(i + 1).filter(|t| t.is_punct('(')) else {
                continue;
            };
            let _ = open;
            let Some(close) = matching(toks, i + 1, '(', ')') else {
                continue;
            };
            let escalates = toks.get(close + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(close + 2)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
            if escalates {
                let t = &toks[i];
                out.push(finding_at(
                    self.name(),
                    file,
                    t.line,
                    t.col,
                    "`partial_cmp(..)` followed by `unwrap`/`expect` imposes a partial order and panics on NaN; use `f64::total_cmp` for floats or `Ord::cmp` for totally ordered types".to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/des/src/x.rs", src);
        let cfg = Config::default();
        let mut out = Vec::new();
        FloatTotalOrder.check(&file, &RuleCtx::bare(&cfg), &mut out);
        out
    }

    #[test]
    fn flags_unwrap_and_expect_forms() {
        let hits = run("fn f(a: f64, b: f64) {\n\
             let _ = a.partial_cmp(&b).unwrap();\n\
             let _ = a.partial_cmp(&b).expect(\"finite\");\n\
             v.sort_by(|x, y| x.1.partial_cmp(&y.1).expect(\"finite metrics\"));\n\
             }");
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[2].line, 4);
    }

    #[test]
    fn ignores_sound_uses() {
        let hits = run("impl PartialOrd for X {\n\
             fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }\n\
             }\n\
             fn g(a: f64, b: f64) -> Ordering { a.total_cmp(&b) }\n\
             fn h(a: f64, b: f64) -> Option<Ordering> { a.partial_cmp(&b) }\n\
             fn k(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap_or(Ordering::Equal) }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn flags_in_test_code_too() {
        let hits = run("#[cfg(test)] mod tests {\n\
             #[test] fn t() { let _ = (1.0f64).partial_cmp(&2.0).unwrap(); }\n\
             }");
        assert_eq!(hits.len(), 1);
    }
}
