//! A small hand-rolled Rust token scanner.
//!
//! The linter does not need a full parser — the call graph and rule P1
//! in [`crate::rules`] are expressible over a flat token stream plus
//! line numbers — but it *does* need to be exactly right about what is
//! code and what is not: string literals, raw strings, char literals,
//! lifetimes, and (nested) block comments must never leak tokens,
//! otherwise a doc comment mentioning `.clone()` would fail P1.
//!
//! The scanner also extracts `// pcn-lint: allow(<rule>) — <why>`
//! suppression annotations plus `// pcn-lint: hot` root markers from
//! line comments, because those are the places where comments carry
//! lint-relevant content.

/// What kind of token this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `for`, `HashMap`, …).
    Ident,
    /// Punctuation; multi-char operators (`::`, `=>`, `==`, …) are one
    /// token so single-char matches (`=`, `:`) stay unambiguous.
    Punct,
    /// String / char / byte literal. `text` keeps the *contents* of
    /// string literals (without quotes); char literals keep their
    /// source form.
    Str,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`). Kept distinct so it never pollutes ident rules.
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token text (see [`TokKind::Str`] for the literal convention).
    pub text: String,
    /// Token class.
    pub kind: TokKind,
}

/// A parsed `// pcn-lint: allow(<rule>) — <justification>` annotation.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Line the annotation comment sits on.
    pub line: u32,
    /// The rule name inside `allow(…)`, e.g. `hot-alloc`.
    pub rule: String,
    /// The free-text justification after the dash separator.
    pub justification: String,
}

/// A malformed `pcn-lint:` comment: the text after the
/// marker plus a reason. Always a lint error — a suppression that does
/// not parse must not silently suppress nothing.
#[derive(Clone, Debug)]
pub struct BadAnnotation {
    /// Line of the malformed annotation.
    pub line: u32,
    /// Why it failed to parse.
    pub reason: String,
}

/// Output of [`lex`].
#[derive(Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace stripped.
    pub toks: Vec<Tok>,
    /// Well-formed suppression annotations, in line order.
    pub annotations: Vec<Annotation>,
    /// Malformed `pcn-lint:` comments.
    pub bad_annotations: Vec<BadAnnotation>,
    /// Lines carrying a `// pcn-lint: hot` root marker; the call-graph
    /// pass attaches each to the function item that follows it.
    pub hot_marks: Vec<u32>,
}

/// Multi-char operators that must lex as one token. Longest first.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lexes `src` into tokens + `pcn-lint:` annotations.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let comment = &src[start..i];
                scan_annotation(comment, line, &mut out);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Block comments nest in Rust.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (text, ni, nl) = scan_string(src, i, line);
                out.toks.push(Tok {
                    line,
                    text,
                    kind: TokKind::Str,
                });
                i = ni;
                line = nl;
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                let (ni, nl) = scan_raw_or_byte(src, i, line, &mut out);
                i = ni;
                line = nl;
            }
            b'\'' => {
                // Lifetime or char literal. `'a` / `'static` are
                // lifetimes; `'a'`, `'\n'`, `'\u{1F600}'` are chars.
                let (ni, nl) = scan_quote(src, i, line, &mut out);
                i = ni;
                line = nl;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.toks.push(Tok {
                    line,
                    text: src[start..i].to_string(),
                    kind: TokKind::Ident,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i] == b'_'
                        || b[i] == b'.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                        || b[i].is_ascii_alphanumeric())
                {
                    // Stop `1..2` from consuming the range operator.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    line,
                    text: src[start..i].to_string(),
                    kind: TokKind::Num,
                });
            }
            _ => {
                let rest = &src[i..];
                // Fall back to the full char width so multi-byte
                // punctuation (stray `…`/`—` in code position) never
                // splits a UTF-8 sequence.
                let mut matched = rest.chars().next().map_or(1, char::len_utf8);
                for op in MULTI_PUNCT {
                    if rest.starts_with(op) {
                        matched = op.len();
                        break;
                    }
                }
                out.toks.push(Tok {
                    line,
                    text: src[i..i + matched].to_string(),
                    kind: TokKind::Punct,
                });
                i += matched;
            }
        }
    }
    out
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` — but NOT the ident `r` or `b`
/// on its own (`b.get(…)`), and not raw identifiers (`r#match`): after
/// the optional `b`, optional `r`, and optional hashes there must be a
/// double quote.
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
        while b.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    j > i && b.get(j) == Some(&b'"')
}

/// Scans a plain `"…"` string starting at `i`; returns (contents,
/// next index, next line).
fn scan_string(src: &str, i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i + 1;
    let mut j = start;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                line += 1;
                j += 1;
            }
            b'"' => {
                return (src[start..j].to_string(), j + 1, line);
            }
            _ => j += 1,
        }
    }
    (src[start..].to_string(), b.len(), line)
}

/// Scans raw / byte strings (`r#"…"#`, `b"…"`, `br"…"` …).
fn scan_raw_or_byte(src: &str, i: usize, mut line: u32, out: &mut Lexed) -> (usize, u32) {
    let b = src.as_bytes();
    let mut j = i;
    let mut raw = false;
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') {
        raw |= b[j] == b'r';
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(b.get(j), Some(&b'"'));
    j += 1;
    let start = j;
    let closer = format!("\"{}", "#".repeat(hashes));
    if raw || hashes > 0 {
        // Raw: no escapes; find the exact closer.
        if let Some(off) = src[j..].find(&closer) {
            let contents = &src[start..j + off];
            line += contents.bytes().filter(|&c| c == b'\n').count() as u32;
            out.toks.push(Tok {
                line,
                text: contents.to_string(),
                kind: TokKind::Str,
            });
            return (j + off + closer.len(), line);
        }
        (b.len(), line)
    } else {
        // Byte string with escapes: same rules as a plain string.
        let (text, ni, nl) = scan_string(src, j - 1, line);
        out.toks.push(Tok {
            line,
            text,
            kind: TokKind::Str,
        });
        (ni, nl)
    }
}

/// Scans from a `'`: lifetime or char literal.
fn scan_quote(src: &str, i: usize, line: u32, out: &mut Lexed) -> (usize, u32) {
    let b = src.as_bytes();
    // `'\…'` is always a char literal.
    if b.get(i + 1) == Some(&b'\\') {
        let mut j = i + 2;
        while j < b.len() && b[j] != b'\'' {
            if b[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        out.toks.push(Tok {
            line,
            text: src[i..(j + 1).min(src.len())].to_string(),
            kind: TokKind::Str,
        });
        return ((j + 1).min(src.len()), line);
    }
    // `'x'` (char, possibly multi-byte: `'—'`) vs `'x` / `'ident`
    // (lifetime): a lifetime is a run of ident chars NOT followed by a
    // closing quote.
    if let Some(ch) = src[i + 1..].chars().next() {
        let after = i + 1 + ch.len_utf8();
        if !ch.is_ascii() && b.get(after) == Some(&b'\'') {
            out.toks.push(Tok {
                line,
                text: src[i..after + 1].to_string(),
                kind: TokKind::Str,
            });
            return (after + 1, line);
        }
    }
    let mut j = i + 1;
    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    if j > i + 1 && b.get(j) == Some(&b'\'') {
        out.toks.push(Tok {
            line,
            text: src[i..j + 1].to_string(),
            kind: TokKind::Str,
        });
        (j + 1, line)
    } else {
        out.toks.push(Tok {
            line,
            text: src[i..j].to_string(),
            kind: TokKind::Lifetime,
        });
        (j.max(i + 1), line)
    }
}

/// Parses `pcn-lint:` content out of one line comment, if present.
///
/// Only comments that *start* with the marker count (after stripping
/// doc-comment `/`/`!` prefixes): prose that merely mentions the
/// annotation syntax — like this very sentence — must not register.
fn scan_annotation(comment: &str, line: u32, out: &mut Lexed) {
    let trimmed = comment.trim_start_matches(['/', '!']).trim_start();
    if let Some(rest) = trimmed.strip_prefix("pcn-lint:") {
        scan_directive(rest, line, out);
    }
}

/// Parses the directive body after a `pcn-lint:` marker:
/// `allow(<rule>) — <why>`, or the bare `hot` root marker (optionally
/// followed by prose).
fn scan_directive(rest: &str, line: u32, out: &mut Lexed) {
    let rest = rest.trim();
    if let Some(tail) = rest.strip_prefix("hot") {
        if tail.is_empty() || tail.starts_with([' ', '—', '-', ':']) {
            out.hot_marks.push(line);
            return;
        }
    }
    let Some(args) = rest.strip_prefix("allow") else {
        out.bad_annotations.push(BadAnnotation {
            line,
            reason: format!("expected `allow(<rule>)` or `hot` after `pcn-lint:`, found `{rest}`"),
        });
        return;
    };
    let args = args.trim_start();
    let Some(inner) = args.strip_prefix('(').and_then(|a| {
        a.find(')')
            .map(|close| (a[..close].trim().to_string(), a[close + 1..].trim()))
    }) else {
        out.bad_annotations.push(BadAnnotation {
            line,
            reason: "unclosed `allow(` in pcn-lint annotation".into(),
        });
        return;
    };
    let (rule, tail) = inner;
    if rule.is_empty() {
        out.bad_annotations.push(BadAnnotation {
            line,
            reason: "empty rule name in `pcn-lint: allow()`".into(),
        });
        return;
    }
    // Justification: everything after an em-dash / double-dash / colon
    // separator. Required — a suppression must say *why* the site is
    // exempt.
    let just = tail
        .trim_start_matches(['—', '-', ':', ' '])
        .trim()
        .to_string();
    if just.len() < 8 {
        out.bad_annotations.push(BadAnnotation {
            line,
            reason: format!("`pcn-lint: allow({rule})` needs a written justification after `—`"),
        });
        return;
    }
    out.annotations.push(Annotation {
        line,
        rule,
        justification: just,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_emit_no_code_tokens() {
        let src = r##"
            // Instant::now in a comment
            /* HashMap::iter in /* a nested */ block */
            let s = "Instant::now()";
            let r = r#"HashSet iteration"#;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn string_contents_are_kept_for_format_inspection() {
        let l = lex(r#"format!("{:?}", m)"#);
        let lit: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(lit.len(), 1);
        assert_eq!(lit[0].text, "{:?}");
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "'x'"));
    }

    #[test]
    fn double_colon_is_one_token() {
        let l = lex("Instant::now()");
        let texts: Vec<_> = l.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["Instant", "::", "now", "(", ")"]);
    }

    #[test]
    fn annotation_with_justification_parses() {
        let l = lex("x.clone() // pcn-lint: allow(hot-alloc) — one Vec per run, not per event\n");
        assert_eq!(l.annotations.len(), 1);
        assert_eq!(l.annotations[0].rule, "hot-alloc");
        assert!(l.annotations[0].justification.contains("per run"));
        assert!(l.bad_annotations.is_empty());
    }

    #[test]
    fn annotation_without_justification_is_bad() {
        let l = lex("// pcn-lint: allow(hot-alloc)\n");
        assert!(l.annotations.is_empty());
        assert_eq!(l.bad_annotations.len(), 1);
    }

    #[test]
    fn hot_marks_are_collected_with_optional_prose() {
        let l = lex("// pcn-lint: hot\nfn a() {}\n// pcn-lint: hot — DES event loop\nfn b() {}\n");
        assert_eq!(l.hot_marks, vec![1, 3]);
        assert!(l.bad_annotations.is_empty());
        // `hotel`-style prefixes and malformed pcn directives are bad,
        // not silently ignored.
        let bad = lex("// pcn-lint: hotel\n// pcn-lint: deny(x)\n");
        assert!(bad.hot_marks.is_empty());
        assert_eq!(bad.bad_annotations.len(), 2);
    }

    #[test]
    fn lines_are_tracked_through_multiline_strings() {
        let l = lex("let a = \"x\ny\";\nlet b = 1;");
        let b_tok = l.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b_tok.line, 3);
    }
}
