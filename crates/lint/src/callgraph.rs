//! A conservative intra-crate call graph over the token stream, for
//! the hot-path rule P1.
//!
//! ## What it builds
//!
//! From each crate's lexed files this module extracts function items
//! (name, owning `impl` type, body token span), attaches
//! `// pcn-lint: hot` root markers to the function they precede, and
//! resolves call sites inside function bodies to other functions *of
//! the same crate*. A BFS from the hot roots then yields the set of
//! hot-reachable functions; rule P1 scans exactly those body spans for
//! allocating constructs.
//!
//! ## The approximation, stated honestly
//!
//! There is no type information — this is a lexer, not rustc — so
//! resolution is name-based and deliberately asymmetric:
//!
//! * **Method calls** (`recv.name(…)`) are **over-approximated**: the
//!   edge goes to *every* function named `name` in the crate,
//!   whatever its `impl` owner. Trait dispatch thus stays inside the
//!   net (any impl of a trait method is reachable), at the cost of
//!   false-positive edges between unrelated same-named methods — a
//!   false positive costs one justified `allow(hot-alloc)`.
//! * **Qualified calls** (`Type::name(…)`, `Self::name(…)`) resolve
//!   **only** against a matching `impl Type` owner in the crate
//!   (`Self` is substituted with the enclosing impl's type). An
//!   unknown owner produces *no* edge — otherwise every `X::new(…)`
//!   would mark all `new` functions in the crate hot.
//! * **Plain calls** (`name(…)`) resolve to free functions only; a
//!   method cannot be called bare in Rust.
//!
//! ## Known false-negative edges
//!
//! * **Cross-crate calls**: resolution is per-crate, so
//!   `DesEngine::run → Router::route` (pcn-sim → flash-core) is
//!   invisible. Hot roots must therefore be marked per crate — the
//!   DES session/network entry points and the testbed reactor each
//!   carry their own `// pcn-lint: hot`.
//! * **Function-pointer / closure indirection**: `(self.make)(…)` and
//!   values passed as `fn` arguments (`schedule(Settle::commit)`)
//!   produce no edge.
//! * **Macro-generated calls**: the lexer sees macro *invocations*,
//!   not expansions.
//!
//! ## Known false-positive edges
//!
//! * Same-named methods on unrelated types (see above).
//! * `#[cfg]`-disabled code still contributes items and edges (only
//!   `test` cfgs are excluded).
//!
//! Test code — `#[cfg(test)]` modules and `#[test]` functions — is
//! excluded from both the graph and the P1 scan: the rule guards
//! library code on the hot path, not assertions.

use crate::lexer::{Lexed, TokKind};

/// One hot-reachable function's body span in a file, for rule P1.
#[derive(Clone, Debug)]
pub struct HotFn {
    /// `Owner::name` (or bare `name` for free functions), for
    /// messages.
    pub name: String,
    /// Inclusive token-index span of the body (`{` … `}`).
    pub body: (usize, usize),
}

/// Per-file output of [`analyze`]: which token spans are hot, which
/// are test code, and which `hot` marks failed to attach.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Bodies of functions reachable from a `// pcn-lint: hot` root.
    pub hot: Vec<HotFn>,
    /// Inclusive token-index spans of `#[test]` / `#[cfg(test)]`
    /// items.
    pub tests: Vec<(usize, usize)>,
    /// Lines of `// pcn-lint: hot` marks with no function item on the
    /// next few lines — always a lint error.
    pub unmatched_hot_marks: Vec<u32>,
}

impl FileAnalysis {
    /// Is token index `idx` inside a test item?
    pub fn in_test(&self, idx: usize) -> bool {
        self.tests.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// The hot function whose body contains token index `idx`, if any.
    pub fn hot_fn(&self, idx: usize) -> Option<&HotFn> {
        self.hot.iter().find(|h| idx >= h.body.0 && idx <= h.body.1)
    }
}

/// One extracted function item.
struct FnItem {
    name: String,
    owner: Option<String>,
    line: u32,
    body: Option<(usize, usize)>,
    hot: bool,
    is_test: bool,
}

impl FnItem {
    fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Control-flow keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "let", "move", "as", "break",
    "continue", "else", "unsafe", "await", "fn",
];

/// Finds the index of the `}` matching the `{` at `open`.
fn match_brace(lexed: &Lexed, open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in lexed.toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    lexed.toks.len().saturating_sub(1)
}

/// Collects token spans of `#[test]` functions and `#[cfg(test)]`
/// items (modules, functions). A `#[cfg(not(test))]` is real code.
fn test_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.toks;
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "#" || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Scan the attribute's bracket group.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if toks[j].kind == TokKind::Ident {
                        idents.push(toks[j].text.as_str());
                    }
                }
            }
            j += 1;
        }
        let is_test = idents == ["test"]
            || (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"));
        if !is_test {
            i = j + 1;
            continue;
        }
        // Find the attributed item's body `{` (skipping stacked
        // attributes and the signature); a `;` first means no body.
        let mut pd = 0i32;
        let mut k = j + 1;
        let mut open = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "#" if pd == 0 && toks.get(k + 1).map(|t| t.text.as_str()) == Some("[") => {
                    let mut ad = 0i32;
                    k += 1;
                    while k < toks.len() {
                        match toks[k].text.as_str() {
                            "[" => ad += 1,
                            "]" => {
                                ad -= 1;
                                if ad == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                "(" | "[" => pd += 1,
                ")" | "]" => pd -= 1,
                "{" if pd == 0 => {
                    open = Some(k);
                    break;
                }
                ";" if pd == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(open) = open {
            spans.push((i, match_brace(lexed, open)));
        }
        i = j + 1;
    }
    spans
}

/// Extracts all function items from one file, attaching impl owners,
/// test membership, and `// pcn-lint: hot` marks. Returns the items
/// plus any unattached hot-mark lines.
fn extract_fns(lexed: &Lexed, tests: &[(usize, usize)]) -> (Vec<FnItem>, Vec<u32>) {
    let toks = &lexed.toks;
    let mut fns: Vec<FnItem> = Vec::new();
    let mut depth = 0i32;
    // (brace depth of the impl body, owning type name)
    let mut impl_stack: Vec<(i32, Option<String>)> = Vec::new();
    let mut pending_impl: Option<Option<String>> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let tx = toks[i].text.as_str();
        match tx {
            "{" => {
                depth += 1;
                if let Some(owner) = pending_impl.take() {
                    impl_stack.push((depth, owner));
                }
            }
            "}" => {
                if impl_stack.last().is_some_and(|&(d, _)| d == depth) {
                    impl_stack.pop();
                }
                depth -= 1;
            }
            "impl" if toks[i].kind == TokKind::Ident => {
                // Parse the header up to the body `{`: the owner is
                // the last path ident at angle depth 0 (after `for`,
                // if present — `impl Trait for Type`).
                let mut angle = 0i32;
                let mut owner: Option<String> = None;
                let mut j = i + 1;
                while j < toks.len() {
                    let h = toks[j].text.as_str();
                    match h {
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        "{" | ";" if angle <= 0 => break,
                        "for" if angle == 0 => owner = None,
                        "where" if angle == 0 => {
                            while j + 1 < toks.len() && toks[j + 1].text != "{" {
                                j += 1;
                            }
                        }
                        _ if angle == 0 && toks[j].kind == TokKind::Ident => {
                            owner = Some(toks[j].text.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                pending_impl = Some(owner);
                i = j;
                continue;
            }
            "fn" if toks[i].kind == TokKind::Ident => {
                if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    // Find the body `{` at paren depth 0; a `;` first
                    // means a bodyless trait signature.
                    let mut pd = 0i32;
                    let mut j = i + 2;
                    let mut body = None;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "(" | "[" => pd += 1,
                            ")" | "]" => pd -= 1,
                            "{" if pd == 0 => {
                                body = Some((j, match_brace(lexed, j)));
                                break;
                            }
                            ";" if pd == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let in_test = tests.iter().any(|&(a, b)| i >= a && i <= b);
                    fns.push(FnItem {
                        name: name_tok.text.clone(),
                        owner: impl_stack.last().and_then(|(_, o)| o.clone()),
                        line: toks[i].line,
                        body,
                        hot: false,
                        is_test: in_test,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Attach hot marks: a mark binds to the first function item whose
    // signature starts on the mark's line (trailing comment) or within
    // the next few lines (mark directly above the `fn`).
    let mut unmatched = Vec::new();
    for &mark in &lexed.hot_marks {
        let target = fns
            .iter_mut()
            .filter(|f| f.body.is_some() && f.line >= mark && f.line <= mark + 4)
            .min_by_key(|f| f.line);
        match target {
            Some(f) => f.hot = true,
            None => unmatched.push(mark),
        }
    }
    (fns, unmatched)
}

/// Analyzes one crate's files together: extracts functions, builds the
/// call graph, runs reachability from the `// pcn-lint: hot` roots,
/// and returns one [`FileAnalysis`] per input file, in order.
pub fn analyze(files: &[&Lexed]) -> Vec<FileAnalysis> {
    let per_tests: Vec<Vec<(usize, usize)>> = files.iter().map(|l| test_spans(l)).collect();
    let mut per_fns: Vec<Vec<FnItem>> = Vec::new();
    let mut per_unmatched: Vec<Vec<u32>> = Vec::new();
    for (l, tests) in files.iter().zip(&per_tests) {
        let (fns, unmatched) = extract_fns(l, tests);
        per_fns.push(fns);
        per_unmatched.push(unmatched);
    }

    // Global ids for non-test functions with bodies.
    let mut ids: Vec<(usize, usize)> = Vec::new(); // (file, fn index)
    for (fi, fns) in per_fns.iter().enumerate() {
        for (xi, f) in fns.iter().enumerate() {
            if !f.is_test && f.body.is_some() {
                ids.push((fi, xi));
            }
        }
    }
    use std::collections::BTreeMap;
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (gid, &(fi, xi)) in ids.iter().enumerate() {
        let f = &per_fns[fi][xi];
        by_name.entry(&f.name).or_default().push(gid);
        match &f.owner {
            Some(o) => by_owner.entry((o, &f.name)).or_default().push(gid),
            None => free.entry(&f.name).or_default().push(gid),
        }
    }

    // Call edges, then BFS from the hot roots.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (gid, &(fi, xi)) in ids.iter().enumerate() {
        let f = &per_fns[fi][xi];
        let toks = &files[fi].toks;
        let (b0, b1) = f.body.expect("ids only hold bodied fns");
        for i in b0 + 1..b1 {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || toks.get(i + 1).map(|n| n.text.as_str()) != Some("(")
                || NON_CALL_KEYWORDS.contains(&t.text.as_str())
            {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let targets: Option<&Vec<usize>> = if prev == Some(".") {
                by_name.get(t.text.as_str())
            } else if prev == Some("::") && i >= 2 && toks[i - 2].kind == TokKind::Ident {
                let owner = if toks[i - 2].text == "Self" {
                    f.owner.as_deref()
                } else {
                    Some(toks[i - 2].text.as_str())
                };
                owner.and_then(|o| by_owner.get(&(o, t.text.as_str())))
            } else if prev != Some("fn") {
                free.get(t.text.as_str())
            } else {
                None
            };
            if let Some(ts) = targets {
                edges[gid].extend(ts.iter().copied());
            }
        }
    }
    let mut reachable = vec![false; ids.len()];
    let mut work: Vec<usize> = ids
        .iter()
        .enumerate()
        .filter(|(_, &(fi, xi))| per_fns[fi][xi].hot)
        .map(|(gid, _)| gid)
        .collect();
    for &gid in &work {
        reachable[gid] = true;
    }
    while let Some(gid) = work.pop() {
        for &next in &edges[gid] {
            if !reachable[next] {
                reachable[next] = true;
                work.push(next);
            }
        }
    }

    let mut out: Vec<FileAnalysis> = per_tests
        .into_iter()
        .zip(per_unmatched)
        .map(|(tests, unmatched_hot_marks)| FileAnalysis {
            hot: Vec::new(),
            tests,
            unmatched_hot_marks,
        })
        .collect();
    for (gid, &(fi, xi)) in ids.iter().enumerate() {
        if reachable[gid] {
            let f = &per_fns[fi][xi];
            out[fi].hot.push(HotFn {
                name: f.qualified(),
                body: f.body.expect("ids only hold bodied fns"),
            });
        }
    }
    out
}

/// Single-file convenience for fixtures and CLI single-file mode:
/// the call graph is restricted to this file alone.
pub fn analyze_file(lexed: &Lexed) -> FileAnalysis {
    analyze(&[lexed]).pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn hot_reachability_follows_methods_and_qualified_calls() {
        let src = "\
// pcn-lint: hot
fn run(q: &mut Q) { q.step(); Helper::tick(); cold_free(); }
impl Q { fn step(&mut self) { self.inner(); } fn inner(&mut self) {} }
impl Helper { fn tick() {} fn not_called() {} }
fn cold_free() {}
fn never_called() {}
";
        let l = lex(src);
        let a = analyze_file(&l);
        let names: Vec<&str> = a.hot.iter().map(|h| h.name.as_str()).collect();
        assert!(names.contains(&"run"), "{names:?}");
        assert!(names.contains(&"Q::step"), "{names:?}");
        assert!(names.contains(&"Q::inner"), "{names:?}");
        assert!(names.contains(&"Helper::tick"), "{names:?}");
        assert!(names.contains(&"cold_free"), "{names:?}");
        assert!(!names.contains(&"Helper::not_called"), "{names:?}");
        assert!(!names.contains(&"never_called"), "{names:?}");
    }

    #[test]
    fn unknown_qualified_owner_produces_no_edge() {
        // `Vec::with_capacity` must not mark every `with_capacity` in
        // the crate reachable.
        let src = "\
// pcn-lint: hot
fn run() { let v: Vec<u32> = Vec::with_capacity(4); let _ = v; }
impl Pool { fn with_capacity(n: usize) -> Pool { Pool }";
        let l = lex(&format!("{src} }}"));
        let a = analyze_file(&l);
        assert!(a.hot.iter().all(|h| h.name != "Pool::with_capacity"));
    }

    #[test]
    fn test_code_is_excluded_from_graph_and_spans() {
        let src = "\
// pcn-lint: hot
fn run(x: &X) { x.go(); }
impl X { fn go(&self) {} }
#[cfg(test)]
mod tests {
    fn go() { panic!(\"test helper\") }
    #[test]
    fn t() { go(); }
}
";
        let l = lex(src);
        let a = analyze_file(&l);
        // The test-module `go` must not become hot via the `.go()`
        // over-approximation, and its tokens are inside a test span.
        assert_eq!(a.hot.iter().filter(|h| h.name == "go").count(), 0);
        assert!(a.hot.iter().any(|h| h.name == "X::go"));
        let panic_tok = l
            .toks
            .iter()
            .position(|t| t.text == "panic")
            .expect("panic token present");
        assert!(a.in_test(panic_tok));
    }

    #[test]
    fn trait_impl_owner_is_the_implementing_type() {
        let src = "\
impl Router for LineRouter { fn route(&self) {} }
// pcn-lint: hot
fn drive(r: &dyn Router) { r.route(); }
";
        let l = lex(src);
        let a = analyze_file(&l);
        assert!(a.hot.iter().any(|h| h.name == "LineRouter::route"));
    }

    #[test]
    fn unmatched_hot_mark_is_reported() {
        let l = lex("// pcn-lint: hot\n\n\n\n\n\nconst X: u32 = 1;\n");
        let a = analyze_file(&l);
        assert_eq!(a.unmatched_hot_marks, vec![1]);
        assert!(a.hot.is_empty());
    }
}
