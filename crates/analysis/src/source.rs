//! A lexed source file plus the derived facts rules need: which crate it
//! belongs to, which token ranges are test-only code, and line text for
//! span-accurate snippets.

use std::path::Path;

use crate::lexer::{lex, Comment, Token};

/// One analyzed file: tokens, comments, and layout metadata.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across OSes).
    pub path: String,
    /// Workspace-relative crate root, e.g. `crates/des` (empty if the file
    /// lives outside any crate directory, e.g. root `examples/`).
    pub crate_root: String,
    /// Source lines, for diagnostics snippets.
    pub lines: Vec<String>,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Comments, for inline `hhsim: allow` escapes.
    pub comments: Vec<Comment>,
    /// True when the whole file is test/bench/example code by location
    /// (`tests/`, `benches/`, `examples/` directories).
    pub is_test_file: bool,
    /// Half-open token index ranges covered by `#[cfg(test)]` / `#[test]` /
    /// `#[bench]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` as the file at workspace-relative `path`.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let test_ranges = find_test_ranges(&lexed.tokens);
        let is_test_file = {
            let p = Path::new(path);
            p.components().any(|c| {
                matches!(
                    c.as_os_str().to_str(),
                    Some("tests") | Some("benches") | Some("examples")
                )
            })
        };
        SourceFile {
            path: path.to_string(),
            crate_root: crate_root_of(path),
            lines: text.lines().map(str::to_string).collect(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            is_test_file,
            test_ranges,
        }
    }

    /// True when token `idx` lies in test code: a test-located file, or a
    /// `#[cfg(test)]` module / `#[test]` function body in a `src/` file.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| idx >= lo && idx < hi)
    }

    /// The 1-based source line `line`, if present.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        self.lines.get(line as usize - 1).map(String::as_str)
    }
}

/// `crates/des/src/sim.rs` → `crates/des`; `shims/rand/src/lib.rs` →
/// `shims/rand`; anything else → first path component or empty.
fn crate_root_of(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.first() {
        Some(&"crates") | Some(&"shims") if parts.len() >= 2 => {
            format!("{}/{}", parts[0], parts[1])
        }
        _ => String::new(),
    }
}

/// Finds token ranges belonging to `#[cfg(test)]`, `#[test]` or `#[bench]`
/// items. The scan is purely lexical: after a matching attribute it skips
/// any further attributes, then marks everything to the end of the next
/// brace-balanced block (or the next `;` for bodyless items).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && matches!(tokens.get(i + 1), Some(t) if t.is_punct('[')) {
            let attr_end = match matching_bracket(tokens, i + 1) {
                Some(e) => e,
                None => break,
            };
            if attr_is_test(&tokens[i + 2..attr_end]) {
                // Skip any further attributes between this one and the item.
                let mut j = attr_end + 1;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && matches!(tokens.get(j + 1), Some(t) if t.is_punct('['))
                {
                    match matching_bracket(tokens, j + 1) {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                // Find the item body: first `{` before any `;` terminator.
                let mut k = j;
                let mut body = None;
                while k < tokens.len() {
                    if tokens[k].is_punct('{') {
                        body = Some(k);
                        break;
                    }
                    if tokens[k].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = body {
                    let close = matching_brace(tokens, open).unwrap_or(tokens.len() - 1);
                    ranges.push((i, close + 1));
                    i = close + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// True for attribute token bodies like `cfg(test)`, `cfg(any(test, ...))`,
/// `test`, `bench`, `tokio::test` — any attribute whose tokens mention
/// `test`/`bench` at lexical level. Conservative in the right direction:
/// over-marking code as test-only only ever silences rules.
fn attr_is_test(body: &[Token]) -> bool {
    // `#[cfg(not(test))]` is production code, not test code.
    body.iter()
        .any(|t| t.is_ident("test") || t.is_ident("bench"))
        && !body.iter().any(|t| t.is_ident("not"))
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    matching(tokens, open, '[', ']')
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    matching(tokens, open, '{', '}')
}

/// Index of the `close` punct matching the `open` punct at index `start`.
pub fn matching(tokens: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    debug_assert!(tokens[start].is_punct(open));
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(start) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/des/src/sim.rs", src)
    }

    fn idx_of(f: &SourceFile, name: &str) -> usize {
        f.tokens
            .iter()
            .position(|t| t.is_ident(name))
            .unwrap_or_else(|| panic!("no token {name}"))
    }

    #[test]
    fn cfg_test_module_is_test_code() {
        let f = file(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n\
             fn live2() {}",
        );
        assert!(!f.in_test_code(idx_of(&f, "x")));
        assert!(f.in_test_code(idx_of(&f, "y")));
        assert!(!f.in_test_code(idx_of(&f, "live2")));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_test_code() {
        let f = file(
            "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { q.unwrap() }\nfn live() { r }",
        );
        assert!(f.in_test_code(idx_of(&f, "q")));
        assert!(!f.in_test_code(idx_of(&f, "r")));
    }

    #[test]
    fn tests_directory_files_are_entirely_test_code() {
        let f = SourceFile::parse("crates/des/tests/properties.rs", "fn f() { a }");
        assert!(f.in_test_code(idx_of(&f, "a")));
    }

    #[test]
    fn crate_roots() {
        assert_eq!(crate_root_of("crates/des/src/sim.rs"), "crates/des");
        assert_eq!(crate_root_of("shims/rand/src/lib.rs"), "shims/rand");
        assert_eq!(crate_root_of("examples/quickstart.rs"), "");
    }
}
