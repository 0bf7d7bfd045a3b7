//! `float-accumulation-order`: flags float folds whose iteration order is
//! not fixed.
//!
//! Float addition is not associative: summing the same set of values in a
//! different order changes the low bits, and low bits are exactly what
//! byte-identical artifacts pin. Two shapes lose the order guarantee:
//!
//! 1. **Folds over hash collections** — a `.sum()`/`.fold()` chain or a
//!    `+=` loop whose source is a `HashMap`/`HashSet` visits elements in
//!    per-process-randomized order. The rule tracks which local names are
//!    bound to hash types (`let m: HashMap<..>`, `= HashMap::new()`,
//!    `HashMap::from(..)`) and flags folds that iterate them.
//! 2. **Accumulation inside spawned closures** — a `+=` inside a closure
//!    handed to `spawn(..)` runs under the scheduler's interleaving; if
//!    the target is shared, the fold order is the race outcome. (The
//!    harness's sanctioned pattern — each worker writing disjoint indexed
//!    slots, reduced sequentially afterwards — contains no `+=` in the
//!    closure and stays silent.)
//!
//! This is a heuristic over tokens, not a dataflow analysis: integer
//! `+=` in a spawned closure also flags (the rule cannot see types), and
//! such sites document themselves with an allow. The complementary
//! `nondet-iteration` rule already flags the hash *types* in sim crates;
//! this rule exists for the scoping modes where hash containers are
//! tolerated (keyed lookup allows) but folding them still must not happen,
//! and for the spawn-closure shape no type-based rule can see.

use std::collections::BTreeSet;

use crate::config::Scope;
use crate::diag::Finding;
use crate::source::{matching, SourceFile};

use super::{finding_at, Rule, RuleCtx};

/// Iterator-source methods whose result preserves the container's
/// (randomized) order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "drain",
];

/// Fold sinks that accumulate across elements.
const FOLD_METHODS: &[&str] = &["sum", "fold", "product"];

/// See module docs.
pub struct FloatAccumulationOrder;

impl Rule for FloatAccumulationOrder {
    fn name(&self) -> &'static str {
        "float-accumulation-order"
    }

    fn description(&self) -> &'static str {
        "sum/fold/+= over a hash container or inside a spawned closure: float accumulation order is not fixed"
    }

    fn default_scope(&self) -> Scope {
        Scope::SimOrReachable
    }

    fn check(&self, file: &SourceFile, ctx: &RuleCtx, out: &mut Vec<Finding>) {
        let scope = self.default_scope();
        if !ctx.file_in_scope(scope, file) {
            return;
        }
        let toks = &file.tokens;
        let hash_vars = hash_bound_names(file);

        for i in 0..toks.len() {
            if file.in_test_code(i) {
                continue;
            }
            // Shape 1a: `<hashvar> . (iter|values|keys|..) ( ) ... . (sum|fold|product) (`
            // within one method chain.
            if let Some(name) = toks[i].ident() {
                if hash_vars.contains(name)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(i + 2)
                        .and_then(|t| t.ident())
                        .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                {
                    if let Some(fold_at) = chain_reaches_fold(toks, i + 2) {
                        if ctx.in_scope(scope, file, i) {
                            out.push(self.fold_finding(file, fold_at, name, toks));
                        }
                        continue;
                    }
                }
                // Shape 1b: `for x in <hashvar>` (or `&hashvar` /
                // `hashvar.iter()`): flag `+=` in the loop body.
                if toks[i].is_ident("for") {
                    if let Some((var, body_open, body_close)) = for_over_hash(toks, i, &hash_vars) {
                        for j in body_open..body_close {
                            if is_plus_eq(toks, j) && ctx.in_scope(scope, file, j) {
                                let t = &toks[j];
                                out.push(finding_at(
                                    self.name(),
                                    self.default_severity(),
                                    file,
                                    t.line,
                                    t.col,
                                    format!(
                                        "`+=` inside a loop over hash container `{var}`: accumulation order is randomized per process; iterate an ordered container or collect-and-sort first"
                                    ),
                                ));
                            }
                        }
                        continue;
                    }
                }
                // Shape 2: `+=` inside a closure passed to `spawn(..)`.
                if toks[i].is_ident("spawn") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    if let Some(close) = matching(toks, i + 1, '(', ')') {
                        for j in i + 2..close {
                            if is_plus_eq(toks, j) && ctx.in_scope(scope, file, j) {
                                let t = &toks[j];
                                out.push(finding_at(
                                    self.name(),
                                    self.default_severity(),
                                    file,
                                    t.line,
                                    t.col,
                                    "`+=` inside a spawned closure: accumulation order follows the scheduler's interleaving; have each worker write a disjoint slot and reduce sequentially".to_string(),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
}

impl FloatAccumulationOrder {
    fn fold_finding(
        &self,
        file: &SourceFile,
        fold_at: usize,
        var: &str,
        toks: &[crate::lexer::Token],
    ) -> Finding {
        let t = &toks[fold_at];
        finding_at(
            self.name(),
            self.default_severity(),
            file,
            t.line,
            t.col,
            format!(
                "fold over hash container `{var}`: element order is randomized per process, so float accumulation differs run to run; iterate an ordered container or collect-and-sort first"
            ),
        )
    }
}

/// Local names bound to hash-collection types in this file: `name :
/// HashMap<..>` (let bindings, params, struct fields) or `name = HashMap::
/// new()/from(..)/with_capacity(..)`.
fn hash_bound_names(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(ty) = toks[i].ident() else { continue };
        if ty != "HashMap" && ty != "HashSet" {
            continue;
        }
        // `name : HashMap` / `name : &mut HashMap` (annotation) — walk
        // back over reference sigils to the colon; one colon, not `::`.
        let mut k = i;
        while k >= 1
            && (toks[k - 1].is_punct('&')
                || toks[k - 1].is_ident("mut")
                || matches!(toks[k - 1].kind, crate::lexer::TokenKind::Lifetime))
        {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].is_punct(':') && !(k >= 3 && toks[k - 2].is_punct(':')) {
            if let Some(name) = toks[k - 2].ident() {
                names.insert(name.to_string());
            }
        }
        // `name = HashMap :: ctor` (inference through a constructor).
        if i >= 2 && toks[i - 1].is_punct('=') {
            if let Some(name) = toks[i - 2].ident() {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// From the iterator-source method token at `m`, follows the `.a(..).b(..)`
/// chain; returns the token index of the first fold method reached.
fn chain_reaches_fold(toks: &[crate::lexer::Token], m: usize) -> Option<usize> {
    let mut at = m;
    loop {
        let open = at + 1;
        if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
            // Turbofish `sum::<f64>(` still counts: skip the path segment.
            return None;
        }
        let close = matching(toks, open, '(', ')')?;
        if !toks.get(close + 1).is_some_and(|t| t.is_punct('.')) {
            return None;
        }
        let next = close + 2;
        let name = toks.get(next).and_then(|t| t.ident())?;
        if FOLD_METHODS.contains(&name) {
            return Some(next);
        }
        // Skip optional turbofish between name and `(`.
        let mut paren = next + 1;
        if toks.get(paren).is_some_and(|t| t.is_punct(':')) {
            // `::< .. >` — advance to the `(` after the generic args.
            let lt = (paren..toks.len().min(paren + 4)).find(|&k| toks[k].is_punct('<'))?;
            let mut depth = 0i64;
            let mut k = lt;
            loop {
                toks.get(k)?;
                if toks[k].is_punct('<') {
                    depth += 1;
                } else if toks[k].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            paren = k + 1;
        }
        if !toks.get(paren).is_some_and(|t| t.is_punct('(')) {
            return None;
        }
        at = paren - 1;
        // Re-point `at` so the loop's `open = at + 1` lands on this paren.
    }
}

/// Matches `for <pat> in <expr> {` where `<expr>` mentions a hash-bound
/// name before the body opens; returns (name, body_open+1, body_close).
fn for_over_hash<'a>(
    toks: &[crate::lexer::Token],
    for_at: usize,
    hash_vars: &'a BTreeSet<String>,
) -> Option<(&'a str, usize, usize)> {
    // Find the body `{`: first `{` after the `in` keyword.
    let in_at = (for_at..toks.len().min(for_at + 12)).find(|&k| toks[k].is_ident("in"))?;
    let open = (in_at..toks.len()).find(|&k| toks[k].is_punct('{'))?;
    let hit = (in_at + 1..open).find_map(|k| {
        toks[k]
            .ident()
            .and_then(|n| hash_vars.get(n).map(String::as_str))
    })?;
    let close = matching(toks, open, '{', '}')?;
    Some((hit, open + 1, close))
}

/// `+` directly followed by `=` at the same site (the lexer splits `+=`).
fn is_plus_eq(toks: &[crate::lexer::Token], j: usize) -> bool {
    toks[j].is_punct('+')
        && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
        && toks[j + 1].offset == toks[j].end
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
        FloatAccumulationOrder.check(&file, &RuleCtx::bare(&cfg), &mut out);
        out
    }

    #[test]
    fn flags_sum_over_hash_values() {
        let hits = run("use std::collections::HashMap;\n\
             pub fn total(m: &HashMap<u32, f64>) -> f64 {\n\
                 m.values().sum()\n\
             }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn flags_plus_eq_in_hash_loop_and_spawn_closure() {
        let hits = run("use std::collections::HashMap;\n\
             pub fn fold(m: HashMap<u32, f64>) -> f64 {\n\
                 let mut acc = 0.0;\n\
                 for (_, v) in m { acc += v; }\n\
                 acc\n\
             }\n\
             pub fn racy(total: &std::sync::Mutex<f64>) {\n\
                 std::thread::spawn(move || { let mut t = total.lock(); *t += 1.0; });\n\
             }");
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 4);
        assert_eq!(hits[1].line, 8);
    }

    #[test]
    fn ordered_folds_and_slot_writes_are_fine() {
        let hits = run("use std::collections::BTreeMap;\n\
             pub fn total(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }\n\
             pub fn vec_fold(v: &[f64]) -> f64 { v.iter().sum() }\n\
             pub fn workers(slots: &mut [f64]) {\n\
                 std::thread::spawn(move || { slots[0] = 1.0; });\n\
             }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn hash_lookup_without_fold_is_fine() {
        // Keyed lookups (the allowlisted simcache pattern) do not fold.
        let hits = run("use std::collections::HashMap;\n\
             pub fn get(m: &HashMap<u32, f64>, k: u32) -> Option<f64> {\n\
                 m.get(&k).copied()\n\
             }");
        assert!(hits.is_empty(), "{hits:?}");
    }
}
