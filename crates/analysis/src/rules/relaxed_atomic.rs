//! `relaxed-atomic-in-results`: flags `Ordering::Relaxed` on simulation
//! paths.
//!
//! `Relaxed` atomics guarantee atomicity but no ordering: two threads
//! incrementing a shared accumulator with relaxed ordering observe each
//! other's updates in nondeterministic interleavings. That is harmless
//! for *telemetry* (a busy-nanos counter that never feeds an artifact)
//! and for *unique-index dispensers* (each `fetch_add` result is used
//! once, so interleaving cannot alias work items), but lethal for any
//! value folded into simulation output — results must not depend on the
//! host's memory-visibility races. The rule cannot see data flow, so it
//! flags every reachable `Relaxed` token and relies on the allowlist to
//! document the telemetry/dispenser sites: the written justification *is*
//! the audit trail distinguishing output from instrumentation.
//!
//! Scope: `reachable` — telemetry in never-reached helper binaries stays
//! silent once entry points are configured (degrades to the crate
//! allowlist without them).

use crate::config::Scope;
use crate::diag::Finding;
use crate::source::SourceFile;

use super::{finding_at, Rule, RuleCtx};

/// See module docs.
pub struct RelaxedAtomicInResults;

impl Rule for RelaxedAtomicInResults {
    fn name(&self) -> &'static str {
        "relaxed-atomic-in-results"
    }

    fn description(&self) -> &'static str {
        "Ordering::Relaxed on a reachable sim path; results must not depend on memory-visibility races — justify telemetry/unique-index uses"
    }

    fn default_scope(&self) -> Scope {
        Scope::Reachable
    }

    fn check(&self, file: &SourceFile, ctx: &RuleCtx, out: &mut Vec<Finding>) {
        let scope = self.default_scope();
        if !ctx.file_in_scope(scope, file) {
            return;
        }
        for (i, t) in file.tokens.iter().enumerate() {
            if !t.is_ident("Relaxed") {
                continue;
            }
            if file.in_test_code(i) || !ctx.in_scope(scope, file, i) {
                continue;
            }
            out.push(finding_at(
                self.name(),
                file,
                t.line,
                t.col,
                "`Ordering::Relaxed` on a reachable simulation path: loads may observe racy interleavings; use `SeqCst` for anything feeding results, or justify telemetry/unique-index uses with an allow".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/des/src/x.rs", src);
        let cfg = Config {
            sim_crates: vec!["crates/des".into()],
            ..Config::default()
        };
        let mut out = Vec::new();
        RelaxedAtomicInResults.check(&file, &RuleCtx::bare(&cfg), &mut out);
        out
    }

    #[test]
    fn flags_relaxed_orderings() {
        let hits = run("use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn bump(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed) }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn seqcst_and_test_code_are_fine() {
        assert!(run("use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn bump(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::SeqCst) }")
        .is_empty());
        assert!(run(
            "#[cfg(test)] mod tests { use std::sync::atomic::Ordering;\n\
             fn t() -> Ordering { Ordering::Relaxed } }"
        )
        .is_empty());
    }
}
