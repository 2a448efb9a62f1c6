//! A lightweight Rust lexer — just enough structure for lint rules.
//!
//! The point of lexing (rather than grepping) is that rule tokens inside
//! string literals, comments, raw strings and char literals must *not*
//! fire, while tokens inside ordinary code must. The lexer therefore
//! classifies the source into identifiers, punctuation, literals and
//! comments, tracking line numbers throughout, and a post-pass marks the
//! line ranges of `#[cfg(test)]` / `#[test]` items so tier rules can skip
//! test-only code.

/// One lexical token (comments are kept separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A raw identifier `r#name`. Kept distinct from [`Tok::Ident`]
    /// because `r#match`/`r#fn` are *names*, never keywords — structural
    /// passes (match-site and item parsing) must not treat them as the
    /// keyword they spell. Hazard scans treat them like the plain
    /// identifier, since `r#Instant` resolves to the same item.
    RawIdent(String),
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// A numeric literal (value irrelevant to every rule).
    Num,
    /// A string, byte-string, raw-string or char literal (contents opaque).
    Str,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

impl Tok {
    /// The identifier name, raw or not. Rule scans that care about *which
    /// item* is referenced (not about keyword-ness) go through this.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(w) | Tok::RawIdent(w) => Some(w),
            _ => None,
        }
    }

    /// True when this token is the plain (non-raw) keyword `kw`.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(w) if w == kw)
    }
}

/// A token with the 1-based line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A comment (line or block) with its text and starting line.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment text, delimiters stripped.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The lexed form of one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens, in order.
    pub tokens: Vec<Token>,
    /// Comments, in order.
    pub comments: Vec<Comment>,
    /// Inclusive line ranges covered by test-only items
    /// (`#[cfg(test)] mod …`, `#[test] fn …`, `#[cfg(all(test, …))] …`).
    pub test_ranges: Vec<(u32, u32)>,
}

impl Lexed {
    /// True when `line` lies inside a test-only item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Lex `src`. Never fails: unrecognized bytes become punctuation tokens,
/// and unterminated literals simply run to end of file — for a linter,
/// graceful degradation beats rejection.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    macro_rules! bump_line {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_line!(c);
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if chars[i + 1] == '/' {
                let start_line = line;
                let mut j = i + 2;
                // Strip any further leading slashes / bang of doc comments.
                while j < n && (chars[j] == '/' || chars[j] == '!') {
                    j += 1;
                }
                let mut text = String::new();
                while j < n && chars[j] != '\n' {
                    text.push(chars[j]);
                    j += 1;
                }
                out.comments.push(Comment { text: text.trim().to_string(), line: start_line });
                i = j;
                continue;
            }
            if chars[i + 1] == '*' {
                let start_line = line;
                let mut depth = 1usize;
                let mut j = i + 2;
                let mut text = String::new();
                while j < n && depth > 0 {
                    if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                        continue;
                    }
                    if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                        continue;
                    }
                    bump_line!(chars[j]);
                    text.push(chars[j]);
                    j += 1;
                }
                out.comments.push(Comment { text: text.trim().to_string(), line: start_line });
                i = j;
                continue;
            }
        }
        // String literal.
        if c == '"' {
            let start_line = line;
            i += 1;
            while i < n {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    ch => {
                        bump_line!(ch);
                        i += 1;
                    }
                }
            }
            out.tokens.push(Token { tok: Tok::Str, line: start_line });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let start_line = line;
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: consume to the closing quote.
                i += 2;
                while i < n && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token { tok: Tok::Str, line: start_line });
                continue;
            }
            let is_lifetime = i + 1 < n
                && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_')
                && (i + 2 >= n || chars[i + 2] != '\'');
            if is_lifetime {
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token { tok: Tok::Lifetime, line: start_line });
            } else {
                // 'x' char literal (or a stray quote — consume defensively).
                i += 1;
                while i < n && chars[i] != '\'' && chars[i] != '\n' {
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token { tok: Tok::Str, line: start_line });
            }
            continue;
        }
        // Identifier — or the r"/b"/br"/r#"…"# literal families.
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut j = i;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let word: String = chars[i..j].iter().collect();
            // Byte-char literal b'x' / b'\n': without this, the `b` would
            // leak as a stray identifier and the quote would be
            // re-classified from scratch (historically as a lifetime for
            // b'a-like shapes).
            if word == "b" && j < n && chars[j] == '\'' {
                i = j + 1;
                if i < n && chars[i] == '\\' {
                    i += 1; // skip the escaped char, then scan to the quote
                }
                i += 1;
                while i < n && chars[i] != '\'' && chars[i] != '\n' {
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token { tok: Tok::Str, line: start_line });
                continue;
            }
            // Raw / byte string prefixes.
            if (word == "r" || word == "b" || word == "br" || word == "rb")
                && j < n
                && (chars[j] == '"' || chars[j] == '#')
            {
                if word == "b" && chars[j] == '"' {
                    // Byte string: same rules as a normal string.
                    i = j + 1;
                    while i < n {
                        match chars[i] {
                            '\\' => i += 2,
                            '"' => {
                                i += 1;
                                break;
                            }
                            ch => {
                                bump_line!(ch);
                                i += 1;
                            }
                        }
                    }
                    out.tokens.push(Token { tok: Tok::Str, line: start_line });
                    continue;
                }
                // Count hashes for the raw forms.
                let mut hashes = 0usize;
                let mut k = j;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' {
                    // Raw (byte) string: scan for `"` + `hashes` hashes.
                    k += 1;
                    'raw: while k < n {
                        if chars[k] == '"' {
                            let mut h = 0usize;
                            while k + 1 + h < n && h < hashes && chars[k + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                k += 1 + hashes;
                                break 'raw;
                            }
                        }
                        bump_line!(chars[k]);
                        k += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Str, line: start_line });
                    i = k;
                    continue;
                }
                if word == "r"
                    && hashes == 1
                    && k < n
                    && (chars[k].is_alphabetic() || chars[k] == '_')
                {
                    // Raw identifier r#ident: a distinct token kind, so
                    // `r#match` is never mistaken for the `match` keyword
                    // by the structural passes.
                    let mut m = k;
                    while m < n && (chars[m].is_alphanumeric() || chars[m] == '_') {
                        m += 1;
                    }
                    let raw: String = chars[k..m].iter().collect();
                    out.tokens.push(Token { tok: Tok::RawIdent(raw), line: start_line });
                    i = m;
                    continue;
                }
            }
            out.tokens.push(Token { tok: Tok::Ident(word), line: start_line });
            i = j;
            continue;
        }
        // Numeric literal (digits, hex/bin/oct, underscores, float dots,
        // exponent signs — lumped into one token).
        if c.is_ascii_digit() {
            let start_line = line;
            let mut j = i;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            // `1.5` — but not `1..n` (range) and not `1.method()`.
            if j + 1 < n && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
            }
            // `1e-9` / `1.5E+3`.
            if j < n
                && (chars[j] == '+' || chars[j] == '-')
                && j >= 1
                && (chars[j - 1] == 'e' || chars[j - 1] == 'E')
                && j + 1 < n
                && chars[j + 1].is_ascii_digit()
            {
                j += 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
            }
            out.tokens.push(Token { tok: Tok::Num, line: start_line });
            i = j;
            continue;
        }
        // Anything else: one punctuation token.
        out.tokens.push(Token { tok: Tok::Punct(c), line });
        i += 1;
    }

    out.test_ranges = test_ranges(&out.tokens);
    out
}

/// Identify line ranges of test-only items: an outer attribute whose token
/// stream contains the identifier `test` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, `#[cfg_attr(test, …)]`) marks the item that
/// follows, through the matching close brace (or terminating `;`).
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    let n = tokens.len();
    while i < n {
        if tokens[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![…]` — applies to the enclosing module, skip.
        if i + 1 < n && tokens[i + 1].tok == Tok::Punct('!') {
            i += 1;
            continue;
        }
        if i + 1 >= n || tokens[i + 1].tok != Tok::Punct('[') {
            i += 1;
            continue;
        }
        let attr_start_line = tokens[i].line;
        // Scan the attribute body for `test`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut is_test = false;
        while j < n && depth > 0 {
            match &tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(w) if w == "test" => is_test = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test {
            i = j;
            continue;
        }
        // Skip any further outer attributes stacked on the same item.
        while j + 1 < n && tokens[j].tok == Tok::Punct('#') && tokens[j + 1].tok == Tok::Punct('[')
        {
            let mut d = 0usize;
            loop {
                match &tokens[j].tok {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
                if j >= n {
                    break;
                }
            }
        }
        // Find the item extent: `;` before any `{` ends it; otherwise the
        // matching `}` of the first `{`.
        let mut brace = 0usize;
        let mut end_line = attr_start_line;
        while j < n {
            match tokens[j].tok {
                Tok::Punct(';') if brace == 0 => {
                    end_line = tokens[j].line;
                    j += 1;
                    break;
                }
                Tok::Punct('{') => brace += 1,
                Tok::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = tokens[j].line;
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            end_line = tokens[j].line;
            j += 1;
        }
        ranges.push((attr_start_line, end_line));
        i = j;
    }
    // Merge overlapping ranges (nested `#[test]` fns inside a
    // `#[cfg(test)] mod` collapse into the mod's range).
    ranges.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::new();
    for (a, b) in ranges {
        match merged.last_mut() {
            Some((_, pb)) if a <= *pb + 1 => *pb = (*pb).max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(w) => Some(w),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            let a = "Instant::now() inside a string";
            // Instant in a line comment
            /* Instant in a /* nested */ block */
            let b = r#"Instant in a raw string"#;
            let c = b"Instant in bytes";
            let real = 1;
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|w| w == "Instant"), "{ids:?}");
        assert!(ids.iter().any(|w| w == "real"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; x }";
        let lx = lex(src);
        let lifetimes = lx.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let strs = lx.tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(lifetimes, 3);
        assert_eq!(strs, 1);
    }

    #[test]
    fn comment_text_is_captured_with_lines() {
        let src = "let x = 1;\n// simlint: allow(hash-container, \"why\")\nlet y = 2;";
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 1);
        assert_eq!(lx.comments[0].line, 2);
        assert!(lx.comments[0].text.contains("allow(hash-container"));
    }

    #[test]
    fn cfg_test_mod_range_is_detected() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n    }\n}\nfn live2() {}\n";
        let lx = lex(src);
        assert_eq!(lx.test_ranges, vec![(2, 7)]);
        assert!(!lx.in_test_code(1));
        assert!(lx.in_test_code(5));
        assert!(!lx.in_test_code(8));
    }

    #[test]
    fn raw_strings_with_hashes_terminate_correctly() {
        let src = "let a = r##\"end\"# not yet\"##; let tail = 9;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "tail"]);
    }

    #[test]
    fn raw_identifiers_are_not_keywords() {
        let src = "fn r#match(r#fn: u32) { let r#in = r#fn; }";
        let lx = lex(src);
        assert!(
            !lx.tokens.iter().any(|t| t.tok.is_kw("match") || t.tok.is_kw("in")),
            "raw identifiers must not surface as keywords: {:?}",
            lx.tokens
        );
        let raws: Vec<&str> = lx
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::RawIdent(w) => Some(w.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(raws, vec!["match", "fn", "in", "fn"]);
        // Hazard scans still see the underlying name through ident().
        assert_eq!(Tok::RawIdent("Instant".into()).ident(), Some("Instant"));
    }

    #[test]
    fn byte_char_literals_do_not_leak_a_stray_b() {
        let src = "let a = b'x'; let b2 = b'\\n'; let c = b'\\''; let tail = 1;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b2", "let", "c", "let", "tail"]);
        let strs = lex(src).tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn lifetimes_vs_chars_in_nested_turbofish() {
        // Every quote here is a lifetime except the final char literal.
        let src = "let v = Vec::<&'a str>::with::<Map<&'b str, u8>>(); let c = '<';";
        let lx = lex(src);
        let lifetimes = lx.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let strs = lx.tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(strs, 1);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..n { let x = 1.5e-3; let y = 2.max(3); }";
        let lx = lex(src);
        let nums = lx.tokens.iter().filter(|t| t.tok == Tok::Num).count();
        // 0, 1.5e-3, 2, 3 — and `n`/`max` survive as idents.
        assert_eq!(nums, 4);
        let ids = idents(src);
        assert!(ids.iter().any(|w| w == "max"));
        assert!(ids.iter().any(|w| w == "n"));
    }
}
