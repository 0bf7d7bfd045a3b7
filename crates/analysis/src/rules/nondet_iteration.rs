//! `nondet-iteration`: flags `HashMap`/`HashSet` in sim-critical crates.
//!
//! `std` hash collections use a per-process random hasher seed, so their
//! iteration order differs between runs. Any hash collection reachable from
//! a simulation path is therefore a latent reproducibility bug — the moment
//! someone iterates it (today or in a refactor), event order, float
//! accumulation order, or output order starts varying run to run. The rule
//! flags the *type* rather than trying to prove an iteration happens:
//! keyed-lookup-only uses (e.g. `simcache`) are explicitly allowlisted
//! with a written rationale, everything else should use
//! `BTreeMap`/`BTreeSet`/`Vec`. Test-only code is exempt — a test that
//! hashes into a set to count buckets cannot perturb simulation output.
//!
//! Scope: `sim-or-reachable` — the crate allowlist *widened* by the call
//! graph, so a hash collection used inside a function the engine can
//! reach flags even when its crate is not listed in `sim_crates`. Tokens
//! outside any function body (struct fields, use declarations) are only
//! covered by the crate-allowlist half.

use crate::config::Scope;
use crate::diag::Finding;
use crate::source::SourceFile;

use super::{finding_at, Rule, RuleCtx};

/// See module docs.
pub struct NondetIteration;

impl Rule for NondetIteration {
    fn name(&self) -> &'static str {
        "nondet-iteration"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet reachable from sim code: iteration order is nondeterministic across runs"
    }

    fn default_scope(&self) -> Scope {
        Scope::SimOrReachable
    }

    fn check(&self, file: &SourceFile, ctx: &RuleCtx, out: &mut Vec<Finding>) {
        let scope = self.default_scope();
        if !ctx.file_in_scope(scope, file) {
            return;
        }
        for (i, t) in file.tokens.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if name != "HashMap" && name != "HashSet" {
                continue;
            }
            if file.in_test_code(i) || !ctx.in_scope(scope, file, i) {
                continue;
            }
            let ordered = if name == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(finding_at(
                self.name(),
                self.default_severity(),
                file,
                t.line,
                t.col,
                format!(
                    "`{name}` reachable from simulation code (crate `{}`): iteration order is randomized per process; use `{ordered}`/`Vec`, or allowlist keyed-lookup-only uses with a rationale",
                    file.crate_root
                ),
            ));
        }
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

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, src);
        let cfg = cfg();
        let mut out = Vec::new();
        NondetIteration.check(&file, &RuleCtx::bare(&cfg), &mut out);
        out
    }

    #[test]
    fn flags_hash_collections_in_sim_crates() {
        let hits = run(
            "crates/des/src/x.rs",
            "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }",
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("crates/des"));
    }

    #[test]
    fn ignores_non_sim_crates_and_btree() {
        assert!(run(
            "crates/workloads/src/x.rs",
            "use std::collections::HashMap;"
        )
        .is_empty());
        assert!(run(
            "crates/des/src/x.rs",
            "use std::collections::{BTreeMap, BTreeSet};"
        )
        .is_empty());
    }

    #[test]
    fn reachability_widens_past_the_crate_allowlist() {
        use crate::index::{Reachability, SymbolIndex};
        // crates/workloads is NOT in sim_crates, but `gen_sizes` is
        // reachable from the entry point, so the HashMap inside it flags.
        let src = "use std::collections::HashMap;\n\
                   pub fn gen_sizes() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }\n\
                   pub fn export_csv() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }\n";
        let file = SourceFile::parse("crates/workloads/src/x.rs", src);
        let entry = SourceFile::parse(
            "crates/core/src/model.rs",
            "pub fn simulate() { gen_sizes(); }\n",
        );
        let parsed = vec![entry, file];
        let idx = SymbolIndex::build(&parsed);
        let reach = Reachability::compute(&idx, &["simulate".to_string()]).expect("resolves");
        let cfg = cfg();
        let ctx = RuleCtx {
            config: &cfg,
            index: Some(&idx),
            reach: Some(&reach),
        };
        let mut out = Vec::new();
        NondetIteration.check(&parsed[1], &ctx, &mut out);
        // Only the two mentions inside gen_sizes' body; the use-declaration
        // and export_csv (unreachable) stay silent.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.line == 2), "{out:?}");
    }

    #[test]
    fn ignores_test_code() {
        let hits = run(
            "crates/des/src/x.rs",
            "#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n}",
        );
        assert!(hits.is_empty(), "{hits:?}");
        assert!(run("crates/des/tests/t.rs", "use std::collections::HashSet;").is_empty());
    }
}
