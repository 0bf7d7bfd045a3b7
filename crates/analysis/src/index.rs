//! Symbol index, approximate call graph, and engine reachability.
//!
//! The linter's first four rules scoped themselves by *crate allowlist*
//! (`sim_crates` in `analysis.toml`): blunt, over-linting exporters and
//! test helpers inside listed crates while blind to hazards in unlisted
//! ones. This module upgrades the scoping to *function granularity*: a
//! workspace-wide symbol index (module tree from file layout + `mod`
//! blocks, `fn` definitions with token spans, `impl`/`trait` owner
//! qualification) plus an approximate call graph, from which the engine
//! computes the set of functions reachable from the simulation entry
//! points declared in `analysis.toml`.
//!
//! # Resolution rules and over-approximation policy
//!
//! The lexer-level graph has no type information, so resolution is
//! name-based and deliberately **over-approximates** reachability — a
//! rule scoped to "reachable" may fire on a function that types would
//! prove unreachable, but never silently skips one the engine can reach:
//!
//! * A free call `f(..)` resolves to every workspace `fn f`.
//! * A qualified call `T::f(..)` resolves to `fn f` owned by `T` (impl
//!   type, trait, module, or crate name); if no owner matches, it falls
//!   back to every `fn f` rather than dropping the edge.
//! * A method call `x.f(..)` resolves to every workspace `fn f` — the
//!   receiver's type is unknown, so all impls (and trait default bodies)
//!   are candidates. This is what makes trait dispatch (`Placement`,
//!   `Mapper`, `Reducer`) conservatively visible.
//! * A bare identifier naming a known function in argument position
//!   (`pool.map(simulate)`) is treated as a call edge: function values
//!   escape into combinators the graph cannot follow.
//! * Calls to functions the index does not know (std, shims) produce no
//!   edge; their bodies are outside the workspace and outside the rules'
//!   jurisdiction anyway.
//!
//! Reachability is a plain BFS over resolved edges from the configured
//! entry points. An entry point that resolves to no function is a
//! configuration error, not a silent no-op — CI runs `--dump-graph` to
//! keep the declared entry points live as the engine evolves.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::lexer::TokenKind;
use crate::source::{matching, SourceFile};

/// One `fn` definition with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into [`SymbolIndex::fns`].
    pub id: usize,
    /// Bare function name (last path segment).
    pub name: String,
    /// Owners the function can be qualified by: impl/trait type, module
    /// segments (file stem + enclosing `mod` blocks), and crate-name
    /// aliases (`hhsim_des`, `des`).
    pub owners: Vec<String>,
    /// Display qualification, e.g. `Simulation::run` or `calendar::push`.
    pub qual: String,
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line of the `fn` name token.
    pub line: u32,
    /// Half-open token-index range of the body (open brace ..= close
    /// brace, exclusive end).
    pub body: (usize, usize),
    /// True when the declared return type mentions `Result`.
    pub returns_result: bool,
    /// True when the definition sits in test code.
    pub is_test: bool,
    /// True when the fn is an item of an `impl` or `trait` block: a bare
    /// `name(..)` call without a `Self::`/`T::` qualifier or a receiver
    /// cannot reach it.
    pub associated: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Calling function id.
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// Path qualifier immediately before `::name`, if any.
    pub qualifier: Option<String>,
    /// How the callee was referenced.
    pub kind: CallKind,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// How a call site references its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(..)` — free function call.
    Free,
    /// `x.f(..)` — method call.
    Method,
    /// `T::f(..)` — qualified path call.
    Qualified,
    /// `combinator(f)` — function referenced as a value.
    Reference,
}

impl CallKind {
    /// Stable name used in `--dump-graph` output.
    pub fn as_str(self) -> &'static str {
        match self {
            CallKind::Free => "free",
            CallKind::Method => "method",
            CallKind::Qualified => "qualified",
            CallKind::Reference => "reference",
        }
    }
}

/// The workspace symbol index plus the resolved call graph.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Analyzed file paths, aligned with [`FnDef::file`].
    pub files: Vec<String>,
    /// Every function definition found.
    pub fns: Vec<FnDef>,
    /// `name -> fn ids` lookup.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Every call site found, in file/token order.
    pub calls: Vec<CallSite>,
    /// Per-call resolved candidate fn ids (aligned with `calls`).
    pub resolved: Vec<Vec<usize>>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "else", "move", "ref",
    "mut", "fn", "impl", "dyn", "where", "break", "continue", "async", "await", "unsafe", "pub",
    "use", "mod", "struct", "enum", "trait", "type", "const", "static", "crate", "self", "Self",
    "super",
];

/// Tokens that, appearing before a bare known-fn identifier, put it in
/// argument position (a function value escaping into a combinator).
fn is_arg_position(prev: Option<&TokenKind>, next: Option<&TokenKind>) -> bool {
    matches!(
        prev,
        Some(TokenKind::Punct('(')) | Some(TokenKind::Punct(','))
    ) && matches!(
        next,
        Some(TokenKind::Punct(')')) | Some(TokenKind::Punct(','))
    )
}

impl SymbolIndex {
    /// Builds the index over already-parsed sources.
    pub fn build(files: &[SourceFile]) -> SymbolIndex {
        let mut idx = SymbolIndex {
            files: files.iter().map(|f| f.path.clone()).collect(),
            ..SymbolIndex::default()
        };
        for (fi, file) in files.iter().enumerate() {
            collect_fns(&mut idx, fi, file);
        }
        for (id, f) in idx.fns.iter().enumerate() {
            idx.by_name.entry(f.name.clone()).or_default().push(id);
        }
        for (fi, file) in files.iter().enumerate() {
            collect_calls(&mut idx, fi, file);
        }
        idx.resolved = idx.calls.iter().map(|c| idx.resolve(c)).collect();
        idx
    }

    /// Candidate fn ids for a `(name, qualifier)` reference, applying the
    /// documented over-approximation policy.
    pub fn candidates(&self, name: &str, qualifier: Option<&str>) -> Vec<usize> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        if let Some(q) = qualifier {
            let owned: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&id| self.fns[id].owners.iter().any(|o| o == q))
                .collect();
            if !owned.is_empty() {
                return owned;
            }
            // Unknown qualifier (std type, shim, `Self`): fall back to all
            // same-name fns rather than dropping the edge.
        }
        all.clone()
    }

    fn resolve(&self, call: &CallSite) -> Vec<usize> {
        self.candidates(&call.name, call.qualifier.as_deref())
    }

    /// Resolves an entry-point spec: `name` or `Owner::name`.
    pub fn resolve_entry(&self, spec: &str) -> Vec<usize> {
        match spec.rsplit_once("::") {
            Some((owner, name)) => self
                .by_name
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.fns[id].owners.iter().any(|o| o == owner))
                        .collect()
                })
                .unwrap_or_default(),
            None => self.by_name.get(spec).cloned().unwrap_or_default(),
        }
    }
}

/// Engine reachability: which functions (and therefore token ranges) are
/// reachable from the configured entry points.
#[derive(Debug, Default)]
pub struct Reachability {
    /// Reachable fn ids.
    pub reachable: BTreeSet<usize>,
    /// Per-file sorted `(body_start, body_end, fn_id)` of reachable fns.
    by_file: BTreeMap<String, Vec<(usize, usize, usize)>>,
    /// Entry specs with their resolved fn ids, in config order.
    pub entries: Vec<(String, Vec<usize>)>,
}

impl Reachability {
    /// Computes reachability from `entry_points` over `index`. Errors when
    /// a declared entry point resolves to no known function — a dead
    /// entry point would silently unscope every reachability rule.
    pub fn compute(index: &SymbolIndex, entry_points: &[String]) -> Result<Reachability, String> {
        let mut entries = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        for spec in entry_points {
            let ids = index.resolve_entry(spec);
            if ids.is_empty() {
                return Err(format!(
                    "analysis.toml: entry point `{spec}` resolves to no function in the workspace index; \
                     fix the name or remove it (run --dump-graph to inspect the index)"
                ));
            }
            queue.extend(&ids);
            entries.push((spec.clone(), ids));
        }

        let mut reachable = BTreeSet::new();
        // Per-caller resolved callees, precomputed once.
        let mut callees: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ci, call) in index.calls.iter().enumerate() {
            callees
                .entry(call.caller)
                .or_default()
                .extend(&index.resolved[ci]);
        }
        while let Some(id) = queue.pop() {
            if !reachable.insert(id) {
                continue;
            }
            if let Some(next) = callees.get(&id) {
                queue.extend(next.iter().copied().filter(|n| !reachable.contains(n)));
            }
        }

        let mut by_file: BTreeMap<String, Vec<(usize, usize, usize)>> = BTreeMap::new();
        for &id in &reachable {
            let f = &index.fns[id];
            by_file
                .entry(index.files[f.file].clone())
                .or_default()
                .push((f.body.0, f.body.1, id));
        }
        for ranges in by_file.values_mut() {
            ranges.sort_unstable();
        }
        Ok(Reachability {
            reachable,
            by_file,
            entries,
        })
    }

    /// True when token `idx` of `path` lies inside a reachable fn body.
    pub fn is_reachable(&self, path: &str, idx: usize) -> bool {
        self.by_file
            .get(path)
            .is_some_and(|ranges| ranges.iter().any(|&(lo, hi, _)| idx >= lo && idx < hi))
    }

    /// True when `path` contains at least one reachable fn.
    pub fn touches_file(&self, path: &str) -> bool {
        self.by_file.contains_key(path)
    }
}

/// Scans one file for `mod`/`impl`/`trait` scopes and `fn` definitions.
fn collect_fns(idx: &mut SymbolIndex, fi: usize, file: &SourceFile) {
    let toks = &file.tokens;
    // (open, close, owner-name, is impl/trait) intervals from
    // mod/impl/trait blocks.
    let mut scopes: Vec<(usize, usize, String, bool)> = Vec::new();
    let module_owners = module_aliases(&file.path);

    let mut i = 0usize;
    while i < toks.len() {
        let Some(word) = toks[i].ident() else {
            i += 1;
            continue;
        };
        match word {
            "mod" => {
                // `mod name { .. }` (inline) — `mod name;` names a sibling
                // file whose stem already serves as its module owner.
                if let (Some(name), Some(open)) = (
                    toks.get(i + 1).and_then(|t| t.ident()),
                    toks.get(i + 2).filter(|t| t.is_punct('{')).map(|_| i + 2),
                ) {
                    if let Some(close) = matching(toks, open, '{', '}') {
                        scopes.push((open, close, name.to_string(), false));
                    }
                    i += 3;
                    continue;
                }
                i += 1;
            }
            "impl" | "trait" => {
                if let Some((owner, open)) = parse_impl_owner(toks, i) {
                    if let Some(close) = matching(toks, open, '{', '}') {
                        scopes.push((open, close, owner, true));
                    }
                    i = open + 1;
                    continue;
                }
                i += 1;
            }
            "fn" => {
                if let Some(def) = parse_fn(toks, i) {
                    let (name, line, sig_end, body, returns_result) = def;
                    let scope = scopes.iter().rev().find(|s| i > s.0 && i < s.1);
                    let owner = scope.map(|s| s.2.clone());
                    // An item of the block itself, not a fn nested in one
                    // of its methods' bodies.
                    let associated = scope.is_some_and(|s| {
                        s.3 && !idx
                            .fns
                            .iter()
                            .any(|f| f.file == fi && f.body.0 > s.0 && f.body.0 < i && i < f.body.1)
                    });
                    let mut owners = module_owners.clone();
                    if let Some(o) = &owner {
                        owners.insert(0, o.clone());
                    }
                    let qual = match &owner {
                        Some(o) => format!("{o}::{name}"),
                        None => match module_owners.first() {
                            Some(m) => format!("{m}::{name}"),
                            None => name.clone(),
                        },
                    };
                    owners.dedup();
                    let id = idx.fns.len();
                    idx.fns.push(FnDef {
                        id,
                        name,
                        owners,
                        qual,
                        file: fi,
                        line,
                        body,
                        returns_result,
                        is_test: file.in_test_code(i),
                        associated,
                    });
                    // Continue *inside* the body (nested items) but past
                    // the signature (`-> impl Trait` must not open a bogus
                    // impl scope).
                    i = sig_end;
                    continue;
                }
                i += 1;
            }
            "macro_rules" => {
                // `macro_rules! name { .. }`: the body is pattern soup, not
                // items; skip it wholesale.
                if let Some(open) = (i..toks.len().min(i + 6)).find(|&j| toks[j].is_punct('{')) {
                    i = matching(toks, open, '{', '}').map_or(toks.len(), |c| c + 1);
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
}

/// Owner aliases derived from the file path: file stem, crate directory
/// name, and the `hhsim_*` lib name.
fn module_aliases(path: &str) -> Vec<String> {
    let mut out = Vec::new();
    let parts: Vec<&str> = path.split('/').collect();
    if let Some(stem) = parts.last().and_then(|f| f.strip_suffix(".rs")) {
        if stem != "lib" && stem != "main" && stem != "mod" {
            out.push(stem.to_string());
        }
    }
    if parts.first() == Some(&"crates") && parts.len() >= 2 {
        out.push(parts[1].to_string());
        out.push(format!("hhsim_{}", parts[1]));
    }
    out
}

/// Parses the owner of an `impl`/`trait` block starting at `kw`. Returns
/// `(owner_name, body_open_idx)`.
fn parse_impl_owner(toks: &[crate::lexer::Token], kw: usize) -> Option<(String, usize)> {
    let mut j = kw + 1;
    // Skip `<..>` generic parameters.
    if toks.get(j)?.is_punct('<') {
        j = skip_angles(toks, j)?;
    }
    // Collect the type path until `for`, `where`, or `{`; on `for`, the
    // implementing type follows and replaces what came before.
    let mut last_ident: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            return last_ident.map(|o| (o, j));
        }
        if t.is_ident("where") {
            // Skip the clause to the body brace.
            let open = (j..toks.len()).find(|&k| toks[k].is_punct('{'))?;
            return last_ident.map(|o| (o, open));
        }
        if t.is_ident("for") {
            last_ident = None;
            j += 1;
            continue;
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j)?;
            continue;
        }
        if let Some(name) = t.ident() {
            last_ident = Some(name.to_string());
            j += 1;
            continue;
        }
        if t.is_punct(':')
            || t.is_punct('&')
            || t.is_punct('\'')
            || t.is_punct('(')
            || t.is_punct(')')
            || t.is_punct('+')
            || t.is_punct('?')
            || t.is_punct('!')
        {
            j += 1;
            continue;
        }
        if matches!(t.kind, TokenKind::Lifetime) {
            j += 1;
            continue;
        }
        // Anything else (`;` of a bodiless impl, `=`, ...) — give up.
        return None;
    }
    None
}

/// Skips a balanced `<..>` group starting at the `<` at `open`; returns
/// the index one past the matching `>`. A `>` preceded by `-` is an arrow
/// (`->`), not a closer.
fn skip_angles(toks: &[crate::lexer::Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Parses a `fn` item at keyword index `kw`. Returns
/// `(name, line, continue_idx, body_range, returns_result)`; `None` for
/// bodyless declarations (trait method signatures).
#[expect(
    clippy::type_complexity,
    reason = "one private caller destructures the tuple at once; the doc names each field"
)]
fn parse_fn(
    toks: &[crate::lexer::Token],
    kw: usize,
) -> Option<(String, u32, usize, (usize, usize), bool)> {
    let name_tok = toks.get(kw + 1)?;
    let name = name_tok.ident()?.to_string();
    let mut j = kw + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j)?;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = matching(toks, j, '(', ')')?;
    // Between params and body: return type and/or where clause.
    let mut k = params_close + 1;
    let mut returns_result = false;
    let mut body_open = None;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            body_open = Some(k);
            break;
        }
        if toks[k].is_punct('[') {
            // An array type (`-> [T; N]`): its `;` ends nothing.
            k = matching(toks, k, '[', ']')? + 1;
            continue;
        }
        if toks[k].is_punct(';') {
            return None; // bodyless declaration
        }
        if toks[k].is_ident("Result") {
            returns_result = true;
        }
        k += 1;
    }
    let open = body_open?;
    let close = matching(toks, open, '{', '}').unwrap_or(toks.len().saturating_sub(1));
    Some((
        name,
        name_tok.line,
        open + 1,
        (open, close + 1),
        returns_result,
    ))
}

/// Scans one file's fn bodies for call sites.
fn collect_calls(idx: &mut SymbolIndex, fi: usize, file: &SourceFile) {
    let toks = &file.tokens;
    // Bodies of this file's fns, sorted by open index.
    let mut bodies: Vec<(usize, usize, usize)> = idx
        .fns
        .iter()
        .filter(|f| f.file == fi)
        .map(|f| (f.body.0, f.body.1, f.id))
        .collect();
    bodies.sort_unstable();
    let mut opens: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for &(lo, hi, id) in &bodies {
        opens.insert(lo, (hi, id));
    }

    let mut stack: Vec<(usize, usize)> = Vec::new(); // (close, fn_id)
    for i in 0..toks.len() {
        if let Some(&(hi, id)) = opens.get(&i) {
            stack.push((hi, id));
        }
        while stack.last().is_some_and(|&(hi, _)| i >= hi) {
            stack.pop();
        }
        let Some(&(_, caller)) = stack.last() else {
            continue;
        };
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // The definition's own name token follows `fn`.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        // Macro invocation `name!(..)`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }

        // Where do the call parens start? Direct `name(`, or turbofish
        // `name::<..>(`.
        let mut paren = i + 1;
        if toks.get(paren).is_some_and(|t| t.is_punct(':'))
            && toks.get(paren + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(paren + 2).is_some_and(|t| t.is_punct('<'))
        {
            match skip_angles(toks, paren + 2) {
                Some(after) => paren = after,
                None => continue,
            }
        }
        let is_call = toks.get(paren).is_some_and(|t| t.is_punct('('));

        if is_call {
            let prev = toks.get(i.wrapping_sub(1));
            let kind = if i > 0 && prev.is_some_and(|t| t.is_punct('.')) {
                CallKind::Method
            } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                CallKind::Qualified
            } else {
                CallKind::Free
            };
            let qualifier = if kind == CallKind::Qualified && i >= 3 {
                toks[i - 3].ident().map(str::to_string)
            } else {
                None
            };
            idx.calls.push(CallSite {
                caller,
                name: name.to_string(),
                qualifier,
                kind,
                line: toks[i].line,
            });
        } else if idx.by_name.contains_key(name) {
            // Known fn referenced as a value in argument position.
            let prev = toks.get(i.wrapping_sub(1)).map(|t| &t.kind);
            let next = toks.get(i + 1).map(|t| &t.kind);
            // Skip path/method/field contexts: `a.name`, `a::name`,
            // `name:`-struct-fields are not references to the fn.
            let prev_is_path = i > 0
                && (toks[i - 1].is_punct('.')
                    || toks[i - 1].is_punct(':')
                    || toks[i - 1].is_ident("fn"));
            if !prev_is_path && is_arg_position(prev, next) {
                idx.calls.push(CallSite {
                    caller,
                    name: name.to_string(),
                    qualifier: None,
                    kind: CallKind::Reference,
                    line: toks[i].line,
                });
            }
        }
    }
}

/// Serializes the index + reachability as deterministic JSON for
/// `--dump-graph`.
pub fn dump_graph(index: &SymbolIndex, reach: Option<&Reachability>) -> String {
    use crate::json::escape;
    let mut out = String::from("{\n  \"entry_points\": [");
    if let Some(r) = reach {
        for (i, (spec, ids)) in r.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"spec\": \"{}\", \"resolved\": [{}]}}",
                escape(spec),
                ids.iter()
                    .map(|id| id.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        if !r.entries.is_empty() {
            out.push_str("\n  ");
        }
    }
    out.push_str("],\n  \"fns\": [");
    for (i, f) in index.fns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": {}, \"qual\": \"{}\", \"file\": \"{}\", \"line\": {}, \"returns_result\": {}, \"is_test\": {}, \"reachable\": {}}}",
            f.id,
            escape(&f.qual),
            escape(&index.files[f.file]),
            f.line,
            f.returns_result,
            f.is_test,
            reach.is_some_and(|r| r.reachable.contains(&f.id)),
        );
    }
    if !index.fns.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"calls\": [");
    for (i, c) in index.calls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"caller\": {}, \"name\": \"{}\", \"kind\": \"{}\", \"line\": {}, \"resolved\": [{}]}}",
            c.caller,
            escape(&c.name),
            c.kind.as_str(),
            c.line,
            index.resolved[i]
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if !index.calls.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"summary\": {{\"fns\": {}, \"calls\": {}, \"reachable\": {}}}\n}}\n",
        index.fns.len(),
        index.calls.len(),
        reach.map_or(0, |r| r.reachable.len()),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(files: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolIndex) {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let idx = SymbolIndex::build(&parsed);
        (parsed, idx)
    }

    fn fn_named<'a>(idx: &'a SymbolIndex, qual: &str) -> &'a FnDef {
        idx.fns.iter().find(|f| f.qual == qual).unwrap_or_else(|| {
            panic!(
                "no fn {qual}; have {:?}",
                idx.fns.iter().map(|f| &f.qual).collect::<Vec<_>>()
            )
        })
    }

    #[test]
    fn indexes_free_fns_methods_and_trait_impls() {
        let (_, idx) = parse_all(&[(
            "crates/des/src/sim.rs",
            "pub struct Simulation;\n\
             impl Simulation {\n  pub fn run(&mut self) -> SimTime { self.step() }\n\
               fn step(&self) -> SimTime { SimTime::ZERO }\n}\n\
             pub trait Calendar {\n  fn pop(&mut self) -> Option<u64>;\n\
               fn drain(&mut self) { while self.pop().is_some() {} }\n}\n\
             pub fn run_all(s: &mut Simulation) { s.run(); }\n",
        )]);
        assert_eq!(fn_named(&idx, "Simulation::run").owners[0], "Simulation");
        assert!(fn_named(&idx, "Simulation::run")
            .owners
            .contains(&"sim".to_string()));
        assert!(fn_named(&idx, "Simulation::run")
            .owners
            .contains(&"hhsim_des".to_string()));
        // Bodyless trait signature is not a definition; the default body is.
        assert!(!idx.by_name.contains_key("pop"));
        assert_eq!(fn_named(&idx, "Calendar::drain").owners[0], "Calendar");
        // run_all's method call resolves to Simulation::run.
        let call = idx
            .calls
            .iter()
            .position(|c| c.name == "run" && c.kind == CallKind::Method)
            .expect("method call edge");
        assert_eq!(
            idx.resolved[call],
            vec![fn_named(&idx, "Simulation::run").id]
        );
    }

    #[test]
    fn cross_module_calls_resolve_by_name() {
        let (_, idx) = parse_all(&[
            (
                "crates/core/src/model.rs",
                "pub fn simulate() { cluster::run_phase(); helper(); }\n\
                 fn helper() {}\n",
            ),
            (
                "crates/core/src/cluster.rs",
                "pub fn run_phase() { settle(); }\nfn settle() {}\n",
            ),
        ]);
        let entry = idx.resolve_entry("simulate");
        assert_eq!(entry.len(), 1);
        let r = Reachability::compute(&idx, &["simulate".to_string()]).expect("resolves");
        for q in [
            "model::simulate",
            "cluster::run_phase",
            "cluster::settle",
            "model::helper",
        ] {
            assert!(
                r.reachable.contains(&fn_named(&idx, q).id),
                "{q} should be reachable"
            );
        }
        // Qualified resolution filtered to the owning module.
        let call = idx
            .calls
            .iter()
            .position(|c| c.name == "run_phase")
            .expect("qualified call");
        assert_eq!(idx.calls[call].qualifier.as_deref(), Some("cluster"));
        assert_eq!(
            idx.resolved[call],
            vec![fn_named(&idx, "cluster::run_phase").id]
        );
    }

    #[test]
    fn method_vs_function_ambiguity_over_approximates() {
        // Two `advance` definitions; a method call resolves to both — the
        // receiver type is unknown at token level.
        let (_, idx) = parse_all(&[(
            "crates/des/src/calendar.rs",
            "pub struct Heap;\npub struct Ladder;\n\
             impl Heap { fn advance(&mut self) {} }\n\
             impl Ladder { fn advance(&mut self) {} }\n\
             pub fn tick(h: &mut Heap) { h.advance(); }\n",
        )]);
        let call = idx
            .calls
            .iter()
            .position(|c| c.name == "advance")
            .expect("call");
        assert_eq!(idx.resolved[call].len(), 2, "both impls are candidates");
        // But a qualified call picks the owner.
        assert_eq!(
            idx.candidates("advance", Some("Ladder")),
            vec![fn_named(&idx, "Ladder::advance").id]
        );
    }

    #[test]
    fn unreachable_fn_stays_unreachable() {
        let (_, idx) = parse_all(&[(
            "crates/core/src/model.rs",
            "pub fn entry() { used(); }\nfn used() {}\nfn dead_code() { used(); }\n",
        )]);
        let r = Reachability::compute(&idx, &["entry".to_string()]).expect("resolves");
        assert!(r.reachable.contains(&fn_named(&idx, "model::entry").id));
        assert!(r.reachable.contains(&fn_named(&idx, "model::used").id));
        assert!(
            !r.reachable.contains(&fn_named(&idx, "model::dead_code").id),
            "dead_code is never called from entry"
        );
        // Token-level query: tokens inside dead_code's body are unreachable.
        let dead = fn_named(&idx, "model::dead_code");
        assert!(!r.is_reachable("crates/core/src/model.rs", dead.body.0 + 1));
        let entry = fn_named(&idx, "model::entry");
        assert!(r.is_reachable("crates/core/src/model.rs", entry.body.0 + 1));
    }

    #[test]
    fn fn_reference_in_argument_position_is_an_edge() {
        let (_, idx) = parse_all(&[(
            "crates/core/src/harness.rs",
            "pub fn run_grid() { let v: Vec<u32> = points.iter().map(simulate).collect(); }\n\
             fn simulate() {}\n",
        )]);
        let r = Reachability::compute(&idx, &["run_grid".to_string()]).expect("resolves");
        assert!(
            r.reachable
                .contains(&fn_named(&idx, "harness::simulate").id),
            "fn value escaping into a combinator is a call edge"
        );
    }

    #[test]
    fn unresolvable_entry_point_is_an_error() {
        let (_, idx) = parse_all(&[("crates/core/src/lib.rs", "pub fn real() {}\n")]);
        let err =
            Reachability::compute(&idx, &["no_such_fn".to_string()]).expect_err("must fail loudly");
        assert!(err.contains("no_such_fn"), "{err}");
        // Qualified specs resolve through owners.
        let (_, idx) = parse_all(&[(
            "crates/des/src/sim.rs",
            "pub struct Simulation;\nimpl Simulation { pub fn run(&mut self) {} }\n",
        )]);
        assert_eq!(idx.resolve_entry("Simulation::run").len(), 1);
        assert!(idx.resolve_entry("Ladder::run").is_empty());
    }

    #[test]
    fn returns_result_is_detected() {
        let (_, idx) = parse_all(&[(
            "crates/core/src/model.rs",
            "pub fn fallible() -> Result<u32, String> { Ok(1) }\n\
             pub fn infallible() -> u32 { 1 }\n\
             pub fn generic_ok<T>(x: T) -> Vec<T> where T: Clone { vec![x] }\n",
        )]);
        assert!(fn_named(&idx, "model::fallible").returns_result);
        assert!(!fn_named(&idx, "model::infallible").returns_result);
        assert!(!fn_named(&idx, "model::generic_ok").returns_result);
    }

    #[test]
    fn array_return_type_is_not_a_bodyless_declaration() {
        // The `;` of `[T; N]` used to read as the end of a trait-method
        // signature: the fn vanished from the index, and with it every
        // call edge through it.
        let (_, idx) = parse_all(&[(
            "crates/core/src/model.rs",
            "pub fn pair<const N: usize>(x: [&u32; N]) -> [Vec<u32>; N] { inner() }\n\
             fn inner() -> [Vec<u32>; 2] { [vec![], vec![]] }\n\
             trait T { fn declared(&self) -> [u8; 2]; }\n",
        )]);
        let pair = fn_named(&idx, "model::pair").id;
        let inner = fn_named(&idx, "model::inner").id;
        assert!(idx
            .calls
            .iter()
            .zip(&idx.resolved)
            .any(|(c, callees)| c.caller == pair && callees.contains(&inner)));
        assert!(idx.fns.iter().all(|f| f.qual != "T::declared"));
    }

    #[test]
    fn impl_trait_return_does_not_open_a_scope() {
        // `-> impl Iterator` inside a signature must not swallow the next
        // fn into a bogus impl block.
        let (_, idx) = parse_all(&[(
            "crates/core/src/cluster.rs",
            "impl Timeline {\n\
               pub fn iter(&self) -> impl Iterator<Item = u32> + '_ { (0..1).into_iter() }\n\
               pub fn len(&self) -> usize { 0 }\n\
             }\n\
             pub fn free_standing() {}\n",
        )]);
        assert_eq!(fn_named(&idx, "Timeline::iter").owners[0], "Timeline");
        assert_eq!(fn_named(&idx, "Timeline::len").owners[0], "Timeline");
        let free = fn_named(&idx, "cluster::free_standing");
        assert_ne!(free.owners.first().map(String::as_str), Some("Timeline"));
    }

    #[test]
    fn dump_graph_is_valid_json_with_entries() {
        let (_, idx) = parse_all(&[(
            "crates/core/src/model.rs",
            "pub fn entry() { leaf(); }\nfn leaf() {}\n",
        )]);
        let r = Reachability::compute(&idx, &["entry".to_string()]).expect("resolves");
        let dump = dump_graph(&idx, Some(&r));
        let v = crate::json::parse(&dump).expect("dump is valid JSON");
        assert_eq!(
            v.get("summary")
                .and_then(|s| s.get("fns"))
                .and_then(|n| n.as_u64()),
            Some(2)
        );
        let eps = v
            .get("entry_points")
            .and_then(|e| e.as_array())
            .expect("array");
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].get("spec").and_then(|s| s.as_str()), Some("entry"));
    }
}
