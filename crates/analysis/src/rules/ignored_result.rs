//! `ignored-result`: flags statement-position calls that drop a `Result`.
//!
//! The engine's fallible entry points (`push` on a bounded calendar,
//! settlement steps, replication folds) return `Result` precisely so a
//! caller cannot lose a failure; a bare `call();` statement throws the
//! error away and the simulation silently continues from a corrupt state.
//! The rule uses the symbol index: a call site whose *every* resolved
//! workspace candidate returns `Result` and whose value reaches neither a
//! binding, an operator, `?`, nor a `return` is a finding. Explicit
//! discards (`let _ = call();`) are deliberate and stay silent, as do
//! calls the index cannot resolve (std/shim functions are outside the
//! workspace's jurisdiction). Without a symbol index (bare unit-test
//! contexts) the rule is inert.
//!
//! Scope: `reachable` — only calls the engine can actually execute are
//! flagged (degrades to the crate allowlist when no entry points are
//! configured).

use crate::config::Scope;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::{matching, SourceFile};

use super::{finding_at, Rule, RuleCtx};

/// See module docs.
pub struct IgnoredResult;

/// Keywords after which an identifier is not a call we care about.
const KEYWORDS: &[&str] = &[
    "fn", "if", "while", "for", "match", "loop", "return", "let", "in", "as", "else", "move",
    "mut", "ref", "impl", "dyn", "where", "break", "continue", "use", "mod", "pub",
];

impl Rule for IgnoredResult {
    fn name(&self) -> &'static str {
        "ignored-result"
    }

    fn description(&self) -> &'static str {
        "statement drops the Result of a reachable engine call; handle it, `?` it, or discard explicitly with `let _ =`"
    }

    fn default_scope(&self) -> Scope {
        Scope::Reachable
    }

    fn check(&self, file: &SourceFile, ctx: &RuleCtx, out: &mut Vec<Finding>) {
        let Some(index) = ctx.index else { return };
        let scope = self.default_scope();
        if !ctx.file_in_scope(scope, file) {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if KEYWORDS.contains(&name) {
                continue;
            }
            // A direct call `name(`; macro bangs are not calls.
            if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if i > 0 && (toks[i - 1].is_ident("fn") || toks[i + 1].is_punct('!')) {
                continue;
            }
            if file.in_test_code(i) || !ctx.in_scope(scope, file, i) {
                continue;
            }
            let Some(close) = matching(toks, i + 1, '(', ')') else {
                continue;
            };
            // Result must be discarded: the call is the end of its
            // statement. `?`, `.chain()`, operators, `)` all consume it.
            if !toks.get(close + 1).is_some_and(|t| t.is_punct(';')) {
                continue;
            }
            // The whole statement must be just the (receiver-chained) call:
            // walk back over `recv.a().b`-style prefixes to the statement
            // boundary. Stopping on `=`/`return`/`(`/`,`/... means the
            // value is consumed.
            if !statement_position(toks, i) {
                continue;
            }
            // Qualifier for `Q::name(..)` resolution.
            let qualifier = if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                toks[i - 3].ident()
            } else {
                None
            };
            let candidates = index.candidates(name, qualifier);
            if candidates.is_empty() {
                continue;
            }
            if !candidates.iter().all(|&id| index.fns[id].returns_result) {
                continue;
            }
            let t = &toks[i];
            out.push(finding_at(
                self.name(),
                file,
                t.line,
                t.col,
                format!(
                    "`{name}(..)` returns `Result` (per the workspace index) and the statement drops it; propagate with `?`, handle the error, or discard explicitly with `let _ = ...` and a comment"
                ),
            ));
        }
    }
}

/// True when the call whose name token sits at `i` begins its statement,
/// i.e. walking back over a receiver chain (idents, `.`, `::`, `&`, `*`,
/// and matched `(..)`/`[..]` groups) hits `;`, `{`, `}`, or the start of
/// the file.
fn statement_position(toks: &[crate::lexer::Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let p = &toks[j - 1];
        match &p.kind {
            TokenKind::Punct('.')
            | TokenKind::Punct(':')
            | TokenKind::Punct('&')
            | TokenKind::Punct('*') => j -= 1,
            TokenKind::Ident(name) if !KEYWORDS.contains(&name.as_str()) => j -= 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                let close = if p.is_punct(')') { ')' } else { ']' };
                let open = if p.is_punct(')') { '(' } else { '[' };
                match matching_back(toks, j - 1, open, close) {
                    Some(o) => j = o,
                    None => return false,
                }
            }
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => return true,
            _ => return false,
        }
    }
    true
}

/// Index of the `open` punct matching the `close` punct at `at`, scanning
/// backward.
fn matching_back(
    toks: &[crate::lexer::Token],
    at: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for j in (0..=at).rev() {
        if toks[j].is_punct(close) {
            depth += 1;
        } else if toks[j].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::index::SymbolIndex;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/des/src/x.rs", src);
        let parsed = vec![file];
        let idx = SymbolIndex::build(&parsed);
        let cfg = Config {
            sim_crates: vec!["crates/des".into()],
            ..Config::default()
        };
        let ctx = RuleCtx {
            config: &cfg,
            index: Some(&idx),
            reach: None,
        };
        let mut out = Vec::new();
        IgnoredResult.check(&parsed[0], &ctx, &mut out);
        out
    }

    #[test]
    fn flags_dropped_result_statements() {
        let hits = run("fn fallible() -> Result<u32, String> { Ok(1) }\n\
             pub fn engine(s: &mut State) {\n\
                 fallible();\n\
                 s.sub.fallible();\n\
             }");
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn consumed_results_are_fine() {
        let hits = run("fn fallible() -> Result<u32, String> { Ok(1) }\n\
             pub fn engine() -> Result<u32, String> {\n\
                 let a = fallible()?;\n\
                 let _ = fallible();\n\
                 if fallible().is_ok() { }\n\
                 let b = match fallible() { Ok(v) => v, Err(_) => 0 };\n\
                 fallible()\n\
             }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn non_result_and_unknown_callees_are_fine() {
        let hits = run("fn infallible() -> u32 { 1 }\n\
             pub fn engine(v: &mut Vec<u32>) {\n\
                 infallible();\n\
                 v.sort();\n\
                 v.push(1);\n\
             }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn mixed_candidates_do_not_flag() {
        // Two `tick` fns, only one returns Result: the method call resolves
        // to both, so the conservative answer is silence.
        let hits = run("struct A; struct B;\n\
             impl A { fn tick(&self) -> Result<(), String> { Ok(()) } }\n\
             impl B { fn tick(&self) {} }\n\
             pub fn engine(a: &A) { a.tick(); }");
        assert!(hits.is_empty(), "{hits:?}");
    }
}
