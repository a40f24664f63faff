//! The hot-path rule P1 over the token stream.
//!
//! * **P1 `hot-alloc`** — functions reachable from a
//!   `// pcn-lint: hot` root (see [`crate::callgraph`]) must not
//!   allocate per event: `Vec::new`/`with_capacity`, `.collect()`,
//!   `.clone()`, `format!`/`vec!`, `String` ops, `Box::new`, … are
//!   errors unless carrying a justified
//!   `// pcn-lint: allow(hot-alloc) — <why>` (typically: the
//!   allocation is per-run, not per-event).
//!
//! Nothing in rustc or clippy follows calls from a root, which is why
//! this rule lives here; every other workspace law has a cheaper
//! enforcer (see the crate docs). Detection is deliberately
//! *over*-approximate (a method call reaches every same-named method):
//! a false positive costs one justified annotation, a false negative a
//! per-event allocation on a benchmarked path.

use crate::callgraph::FileAnalysis;
use crate::lexer::{lex, Lexed, TokKind};

/// Which rule produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// P1: allocation in a hot-reachable function.
    HotAlloc,
    /// Malformed or unjustified `pcn-lint:` annotation.
    Annotation,
}

impl Rule {
    /// The rule name as written inside `pcn-lint: allow(…)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotAlloc => "hot-alloc",
            Rule::Annotation => "annotation",
        }
    }
}

/// One lint finding. A finding with a `justification` was matched by a
/// well-formed `allow(…)` annotation: it is not a violation, but the
/// audit keeps it so `--json` can report the justified suppressions
/// alongside the failures.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub message: String,
    /// The annotation's justification text, when the site carries one.
    /// `None` means the finding is an unjustified violation.
    pub justification: Option<String>,
}

/// Per-file rule configuration, derived from the crate the file
/// belongs to (see [`crate::policy_for`]).
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// Whether P1 applies (library code of the deterministic crates and
    /// the testbed).
    pub hot_alloc: bool,
}

/// Heap-owning types whose constructors P1 flags in hot code.
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Rc",
    "Arc",
];

/// Constructor names that allocate on the listed types (`Type::new`,
/// `Type::with_capacity`, `Type::from`).
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Method calls that allocate a fresh heap object. `.push` /
/// `.insert` / `.extend` on a *pre-sized* buffer are deliberately NOT
/// listed: amortized growth of a reused buffer is the pattern P1
/// pushes code toward.
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "push_str",
];

/// Macros that allocate (`format!` builds a String, `vec!` a Vec).
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Audits one lexed file under `policy`, given its call-graph
/// `analysis`: the result keeps findings whose site carries a
/// justified annotation (`justification: Some(…)`), so `--json` can
/// report the suppressions.
pub fn audit_tokens(
    file: &str,
    lexed: &Lexed,
    policy: &Policy,
    analysis: &FileAnalysis,
) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out: Vec<Finding> = Vec::new();

    if policy.hot_alloc {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || analysis.in_test(i) {
                continue;
            }
            let Some(hot) = analysis.hot_fn(i) else {
                continue;
            };
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let construct = if ALLOC_TYPES.contains(&t.text.as_str())
                && next == Some("::")
                && toks
                    .get(i + 2)
                    .is_some_and(|c| ALLOC_CTORS.contains(&c.text.as_str()))
            {
                Some(format!("{}::{}", t.text, toks[i + 2].text))
            } else if ALLOC_MACROS.contains(&t.text.as_str()) && next == Some("!") {
                Some(format!("{}!", t.text))
            } else if ALLOC_METHODS.contains(&t.text.as_str())
                && next == Some("(")
                && i >= 1
                && toks[i - 1].text == "."
            {
                Some(format!(".{}()", t.text))
            } else {
                None
            };
            if let Some(c) = construct {
                // A justified `allow(hot-alloc)` on the same or the
                // previous line keeps the finding as a justified one.
                let justification = lexed
                    .annotations
                    .iter()
                    .find(|a| {
                        a.rule == Rule::HotAlloc.name()
                            && (a.line == t.line || a.line + 1 == t.line)
                    })
                    .map(|a| a.justification.clone());
                out.push(Finding {
                    rule: Rule::HotAlloc,
                    file: file.into(),
                    line: t.line,
                    message: format!(
                        "[P1 hot-alloc] `{c}` in `{}`, reachable from a `// pcn-lint: hot` \
                         root: preallocate / reuse a scratch buffer, or annotate \
                         `// pcn-lint: allow(hot-alloc) — <why this is per-run, not per-event>`",
                        hot.name
                    ),
                    justification,
                });
            }
        }
    }

    // --- Annotations: flag malformed and unknown ones --------------------
    for bad in &lexed.bad_annotations {
        out.push(Finding {
            rule: Rule::Annotation,
            file: file.into(),
            line: bad.line,
            message: format!("[annotation] {}", bad.reason),
            justification: None,
        });
    }
    for a in &lexed.annotations {
        if a.rule != Rule::HotAlloc.name() {
            out.push(Finding {
                rule: Rule::Annotation,
                file: file.into(),
                line: a.line,
                message: format!(
                    "[annotation] unknown rule `{}` in pcn-lint allow (expected hot-alloc)",
                    a.rule
                ),
                justification: None,
            });
        }
    }
    for &mark in &analysis.unmatched_hot_marks {
        out.push(Finding {
            rule: Rule::Annotation,
            file: file.into(),
            line: mark,
            message: "[annotation] `pcn-lint: hot` mark does not precede a function item \
                      (it must sit directly above — or trail — the `fn` it roots)"
                .into(),
            justification: None,
        });
    }

    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// Convenience for fixtures and tests: lexes `src` and audits it as a
/// standalone file (call graph from the file itself), keeping
/// justified findings.
pub fn audit_source(file: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    let lexed = lex(src);
    let analysis = crate::callgraph::analyze_file(&lexed);
    audit_tokens(file, &lexed, policy, &analysis)
}

/// Convenience for fixtures and tests: lexes `src` and lints it as a
/// standalone file, returning violations only.
pub fn lint_source(file: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    audit_source(file, src, policy)
        .into_iter()
        .filter(|f| f.justification.is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: Policy = Policy { hot_alloc: true };

    #[test]
    fn annotated_site_is_suppressed_and_needs_justification() {
        let good = "// pcn-lint: hot\nfn f() {\n\
                    // pcn-lint: allow(hot-alloc) — one buffer per run, not per event\n\
                    let v: Vec<u32> = Vec::new(); }";
        assert!(lint_source("x.rs", good, &HOT).is_empty());
        let bare = "// pcn-lint: hot\nfn f() {\n\
                    // pcn-lint: allow(hot-alloc)\n\
                    let v: Vec<u32> = Vec::new(); }";
        let f = lint_source("x.rs", bare, &HOT);
        assert!(f.iter().any(|f| f.rule == Rule::HotAlloc));
        assert!(f.iter().any(|f| f.rule == Rule::Annotation));
        // An allow naming a rule pcn-lint does not have suppresses
        // nothing and is itself reported.
        let unknown = "fn f(x: Option<u32>) -> u32 {\n\
                       // pcn-lint: allow(panic) — the caller checked it\n\
                       x.unwrap() }";
        let f = lint_source("x.rs", unknown, &HOT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Annotation);
        assert!(f[0].message.contains("unknown rule `panic`"));
    }

    #[test]
    fn p1_flags_allocations_only_in_hot_reachable_code() {
        let src = "\
// pcn-lint: hot
fn run(q: &mut Q) { q.step(); }
impl Q {
    fn step(&mut self) { let v: Vec<u32> = (0..4).collect(); self.scratch = v; }
}
fn cold() -> Vec<u32> { Vec::new() }
";
        let f = lint_source("x.rs", src, &HOT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
        assert_eq!(f[0].line, 4, "points at the collect inside Q::step");
        assert!(f[0].message.contains("Q::step"));
    }

    #[test]
    fn p1_justified_allow_is_kept_by_audit_dropped_by_lint() {
        let src = "\
// pcn-lint: hot
fn run() {
    // pcn-lint: allow(hot-alloc) — one order Vec per run, not per event
    let order: Vec<usize> = (0..9).collect();
    let _ = order;
}
";
        assert!(lint_source("x.rs", src, &HOT).is_empty());
        let audit = audit_source("x.rs", src, &HOT);
        assert_eq!(audit.len(), 1, "{audit:?}");
        assert!(audit[0]
            .justification
            .as_deref()
            .unwrap()
            .contains("per run"));
    }

    #[test]
    fn p_rules_respect_policy_gates() {
        let src = "\
// pcn-lint: hot
fn run() -> usize { let v = vec![1]; v.len() }
";
        assert_eq!(lint_source("x.rs", src, &HOT).len(), 1);
        assert!(lint_source("x.rs", src, &Policy { hot_alloc: false }).is_empty());
    }
}
