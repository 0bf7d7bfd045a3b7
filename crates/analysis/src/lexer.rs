//! A minimal Rust lexer producing spanned tokens and comments.
//!
//! The build environment has no registry access, so `syn` is unavailable;
//! every rule this linter ships is expressible over a token stream, which a
//! few hundred lines of hand-rolled lexing covers exactly. The lexer
//! understands the parts of Rust's lexical grammar that matter for not
//! mis-tokenizing real code: line/block comments (nested), string and raw
//! string literals (including byte variants), character literals vs
//! lifetimes, and numeric literals with exponents and suffixes. Operators
//! are deliberately kept as single-character punctuation — the rules match
//! on identifier/punct sequences and never need `::` or `->` fused.

/// What a token is; identifiers carry their text, punctuation its char.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (the lexer does not distinguish them).
    Ident(String),
    /// Single punctuation character (`.` `:` `(` `)` `[` `]` `{` `}` ...).
    Punct(char),
    /// String, raw-string, byte-string or char literal (text not kept).
    StrLit,
    /// Numeric literal (text not kept).
    NumLit,
    /// Lifetime such as `'a` or `'static` (name not kept).
    Lifetime,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
    /// Byte offset of the token's first character in the source text.
    pub offset: usize,
    /// Byte offset one past the token's last character (`offset..end` is
    /// the token's exact source slice; rules compare offsets to tell
    /// adjacent tokens from separated ones).
    pub end: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A comment with its position; rules scan these for `hhsim: allow(...)`
/// escapes, so the text is kept verbatim (without the `//` / `/* */`).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment body, delimiters stripped.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: the token stream plus every comment encountered.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order (doc comments included).
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Unterminated literals and comments are tolerated (the
/// remainder of the file is consumed as that literal): a linter must never
/// panic on the code it inspects.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut byte = 0usize;

    // Advances by one character, maintaining line/col/byte counters.
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            byte += chars[i].len_utf8();
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol, tbyte) = (line, col, byte);

        if c.is_whitespace() {
            bump!();
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                let start = i + 2;
                while i < chars.len() && chars[i] != '\n' {
                    bump!();
                }
                out.comments.push(Comment {
                    text: chars[start..i].iter().collect(),
                    line: tline,
                });
                continue;
            }
            if chars[i + 1] == '*' {
                bump!();
                bump!();
                let start = i;
                let mut depth = 1usize;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                        depth += 1;
                        bump!();
                        bump!();
                    } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                        depth -= 1;
                        bump!();
                        bump!();
                    } else {
                        bump!();
                    }
                }
                let end = i.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    text: chars[start..end].iter().collect(),
                    line: tline,
                });
                continue;
            }
        }

        // Raw strings and byte strings: r"", r#""#, br"", b"", b''.
        if (c == 'r' || c == 'b') && i + 1 < chars.len() {
            let mut j = i + 1;
            let mut is_raw = c == 'r';
            if c == 'b' && j < chars.len() && chars[j] == 'r' {
                is_raw = true;
                j += 1;
            }
            if is_raw && j < chars.len() && (chars[j] == '#' || chars[j] == '"') {
                let mut hashes = 0usize;
                while j < chars.len() && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < chars.len() && chars[j] == '"' {
                    // Consume prefix + opening quote.
                    while i <= j {
                        bump!();
                    }
                    // Scan to closing quote + same number of hashes.
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut k = i + 1;
                            let mut seen = 0usize;
                            while seen < hashes && k < chars.len() && chars[k] == '#' {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                while i < k {
                                    bump!();
                                }
                                break 'raw;
                            }
                        }
                        bump!();
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::StrLit,
                        line: tline,
                        col: tcol,
                        offset: tbyte,
                        end: byte,
                    });
                    continue;
                }
                // `r#ident`: a raw identifier, not a raw string. Lex it as
                // the identifier it escapes (`r#type` ≡ `type`) so rules
                // match on the real name.
                if c == 'r'
                    && hashes == 1
                    && j < chars.len()
                    && (chars[j].is_alphabetic() || chars[j] == '_')
                {
                    bump!(); // r
                    bump!(); // #
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        bump!();
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Ident(chars[start..i].iter().collect()),
                        line: tline,
                        col: tcol,
                        offset: tbyte,
                        end: byte,
                    });
                    continue;
                }
            }
            if c == 'b' && i + 1 < chars.len() && (chars[i + 1] == '"' || chars[i + 1] == '\'') {
                // b"..." / b'.': consume the prefix, fall through to the
                // string/char scanners below via the quote character.
                bump!();
                let q = chars[i];
                consume_quoted(&chars, &mut i, &mut line, &mut col, &mut byte, q);
                out.tokens.push(Token {
                    kind: TokenKind::StrLit,
                    line: tline,
                    col: tcol,
                    offset: tbyte,
                    end: byte,
                });
                continue;
            }
        }

        // Plain strings.
        if c == '"' {
            consume_quoted(&chars, &mut i, &mut line, &mut col, &mut byte, '"');
            out.tokens.push(Token {
                kind: TokenKind::StrLit,
                line: tline,
                col: tcol,
                offset: tbyte,
                end: byte,
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let is_char_lit = match next {
                Some('\\') => true,
                Some(n) => chars.get(i + 2) == Some(&'\'') && n != '\'',
                None => false,
            };
            if is_char_lit {
                consume_quoted(&chars, &mut i, &mut line, &mut col, &mut byte, '\'');
                out.tokens.push(Token {
                    kind: TokenKind::StrLit,
                    line: tline,
                    col: tcol,
                    offset: tbyte,
                    end: byte,
                });
            } else {
                bump!();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    line: tline,
                    col: tcol,
                    offset: tbyte,
                    end: byte,
                });
            }
            continue;
        }

        // Identifiers and keywords.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                bump!();
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident(chars[start..i].iter().collect()),
                line: tline,
                col: tcol,
                offset: tbyte,
                end: byte,
            });
            continue;
        }

        // Numbers (integers, floats, hex/oct/bin, exponents, suffixes).
        if c.is_ascii_digit() {
            bump!();
            while i < chars.len() {
                let d = chars[i];
                if d.is_alphanumeric() || d == '_' {
                    // `1e-9` / `2E+3`: pull the sign into the literal.
                    if (d == 'e' || d == 'E')
                        && matches!(chars.get(i + 1), Some('+') | Some('-'))
                        && chars.get(i + 2).is_some_and(|c| c.is_ascii_digit())
                    {
                        bump!();
                        bump!();
                    }
                    bump!();
                } else if d == '.'
                    && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                    && chars.get(i + 1) != Some(&'.')
                {
                    // Fractional part — but never swallow a `..` range.
                    bump!();
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::NumLit,
                line: tline,
                col: tcol,
                offset: tbyte,
                end: byte,
            });
            continue;
        }

        // Everything else: single-character punctuation.
        bump!();
        out.tokens.push(Token {
            kind: TokenKind::Punct(c),
            line: tline,
            col: tcol,
            offset: tbyte,
            end: byte,
        });
    }

    out
}

/// Consumes a `q`-delimited literal starting at `chars[*i] == q`, honoring
/// backslash escapes. Leaves `*i` one past the closing quote (or at EOF).
fn consume_quoted(
    chars: &[char],
    i: &mut usize,
    line: &mut u32,
    col: &mut u32,
    byte: &mut usize,
    q: char,
) {
    let mut bump = |i: &mut usize| {
        if chars[*i] == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
        *byte += chars[*i].len_utf8();
        *i += 1;
    };
    debug_assert_eq!(chars[*i], q);
    bump(i);
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                bump(i);
                if *i < chars.len() {
                    bump(i);
                }
            }
            c if c == q => {
                bump(i);
                return;
            }
            _ => bump(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn idents_puncts_and_positions() {
        let l = lex("let x = a.unwrap();");
        assert_eq!(
            idents("let x = a.unwrap();"),
            vec!["let", "x", "a", "unwrap"]
        );
        let dot = l.tokens.iter().find(|t| t.is_punct('.')).expect("dot");
        assert_eq!((dot.line, dot.col), (1, 10));
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("a // hhsim: allow(x): why\nb /* block\nspan */ c");
        assert_eq!(idents("a // trailing\nb"), vec!["a", "b"]);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text.trim(), "hhsim: allow(x): why");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn strings_hide_their_contents() {
        // Nothing inside a literal may leak tokens: `unwrap` here is data.
        for src in [
            "\"call .unwrap() now\"",
            "r#\"raw .unwrap() \"quoted\" \"#",
            "b\"bytes .unwrap()\"",
            "'\\''",
        ] {
            let l = lex(src);
            assert!(
                l.tokens.iter().all(|t| t.ident().is_none()),
                "{src}: leaked {:?}",
                l.tokens
            );
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_dots() {
        let l = lex("0..10");
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "{:?}", l.tokens);
        // Exponent with a sign is one literal: no `-` punct survives.
        let l = lex("1e-9");
        assert_eq!(l.tokens.len(), 1);
        // Float method calls still tokenize the dot-dot correctly.
        assert_eq!(idents("1.0f64.total_cmp"), vec!["total_cmp"]);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ x");
        assert_eq!(idents("/* a /* b */ c */ x"), vec!["x"]);
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn unterminated_literal_is_tolerated() {
        let l = lex("let s = \"never closed");
        assert_eq!(
            l.tokens.last().map(|t| t.kind.clone()),
            Some(TokenKind::StrLit)
        );
    }

    /// Renders a token stream in compact pinned form for regression tests.
    fn stream(src: &str) -> String {
        lex(src)
            .tokens
            .iter()
            .map(|t| match &t.kind {
                TokenKind::Ident(s) => format!("id({s})"),
                TokenKind::Punct(c) => format!("p({c})"),
                TokenKind::StrLit => "str".to_string(),
                TokenKind::NumLit => "num".to_string(),
                TokenKind::Lifetime => "life".to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn pinned_raw_string_streams() {
        // Hash-delimited raw strings swallow quotes, comment markers and
        // escape-looking content; the stream must stay exactly one StrLit.
        assert_eq!(
            stream(r###"let x = r#"a "quoted" \n not-escape"#;"###),
            "id(let) id(x) p(=) str p(;)"
        );
        assert_eq!(
            stream("r\"no hashes\" + r##\"has \"# inside\"## + br#\"bytes\"#"),
            "str p(+) str p(+) str"
        );
        // Comment markers inside raw strings are data, not comments.
        let l = lex("r#\"// not a comment /* nor this */\"# fn");
        assert!(l.comments.is_empty());
        assert_eq!(stream("r#\"// x\"# fn"), "str id(fn)");
        // An unterminated raw string consumes the rest of the file.
        assert_eq!(stream("r##\"open \"# still open"), "str");
    }

    #[test]
    fn pinned_raw_identifier_streams() {
        // `r#type` is the identifier `type`, not a truncated raw string.
        assert_eq!(
            stream("fn r#type(r#match: u32) {}"),
            "id(fn) id(type) p(() id(match) p(:) id(u32) p()) p({) p(})"
        );
        // A raw identifier shadowing a rule target must still match rules.
        assert_eq!(stream("x.r#unwrap()"), "id(x) p(.) id(unwrap) p(() p())");
        // `r` alone and `r #` stay plain tokens.
        assert_eq!(stream("r # x"), "id(r) p(#) id(x)");
    }

    #[test]
    fn pinned_nested_block_comment_streams() {
        assert_eq!(stream("a /* x /* y /* z */ y */ x */ b"), "id(a) id(b)");
        // Star/slash soup that must not terminate early.
        assert_eq!(stream("a /* ** /* */ ** */ b"), "id(a) id(b)");
        // Unterminated nested comment consumes to EOF (no token leak).
        assert_eq!(stream("a /* open /* inner */ still"), "id(a)");
        // `/*/` does not self-close.
        assert_eq!(stream("a /*/ b */ c"), "id(a) id(c)");
    }

    #[test]
    fn pinned_lifetime_vs_char_streams() {
        assert_eq!(stream("<'a>('b')"), "p(<) life p(>) p(() str p())");
        assert_eq!(stream("&'static str"), "p(&) life id(str)");
        // Escaped quote and escape-class chars are char literals.
        assert_eq!(stream(r"'\'' '\\' '\n'"), "str str str");
        // Loop labels lex as lifetimes, not chars.
        assert_eq!(
            stream("'outer: loop { break 'outer; }"),
            "life p(:) id(loop) p({) id(break) life p(;) p(})"
        );
        // `b'x'` is a byte char literal.
        assert_eq!(stream(r"b'q' b'\''"), "str str");
    }

    #[test]
    fn offsets_slice_the_source_exactly() {
        let src = "let é = x.partial_cmp(&y).unwrap();";
        let l = lex(src);
        for t in &l.tokens {
            let slice = &src[t.offset..t.end];
            if let TokenKind::Ident(name) = &t.kind {
                assert_eq!(slice, name, "ident slice mismatch");
            }
        }
        let pc = l
            .tokens
            .iter()
            .find(|t| t.is_ident("partial_cmp"))
            .expect("partial_cmp token");
        assert_eq!(&src[pc.offset..pc.end], "partial_cmp");
        // Multi-byte chars before the token do not skew byte offsets.
        let uw = l
            .tokens
            .iter()
            .find(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        assert_eq!(&src[uw.offset..uw.end], "unwrap");
    }
}
