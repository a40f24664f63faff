//! The determinism rules (D1–D4) and hot-path rules (P1–P3) over the
//! token stream.
//!
//! Every correctness claim in this reproduction — same-seed
//! bit-identical `DesReport`s, the zero-latency DES ≡ instantaneous
//! simulator differential, the committed-bench equality — rests on the
//! codebase never letting unordered state leak into event order or
//! serialized output. These rules encode the project's invariants:
//!
//! * **D1 `wall-clock`** — no `Instant` / `SystemTime` in the
//!   deterministic crates. Bench/experiment binaries and `pcn-proto`
//!   may read wall time, but only through the single
//!   `pcn_proto::wall_now` helper, and only into `wall_*`-prefixed
//!   bindings, so wall metrics stay visibly segregated from virtual
//!   ones.
//! * **D2 `hash-order`** — no order-sensitive iteration over
//!   `HashMap` / `HashSet` in deterministic crates (`for … in &map`,
//!   `.iter()`, `.keys()`, `.values()`, `.drain()`, `.into_iter()`, …)
//!   unless the site feeds an immediate sort or carries a
//!   `// det-lint: allow(hash-order) — <why>` annotation.
//! * **D3 `thread`** — no `thread::spawn` or `std::sync` primitives
//!   inside `pcn-sim`: the DES stays single-threaded until the
//!   conservative parallel engine lands with its own merge rules.
//! * **D4 `debug-format`** — no `{:?}` formatting of hash collections
//!   into strings/reports: `Debug` on a hash map leaks iteration
//!   order into output.
//!
//! The P rules ride the conservative call graph in
//! [`crate::callgraph`] (P1) and the same per-crate taint machinery as
//! D2 (P3):
//!
//! * **P1 `hot-alloc`** — functions reachable from a
//!   `// pcn-lint: hot` root must not allocate per event:
//!   `Vec::new`/`with_capacity`, `.collect()`, `.clone()`,
//!   `format!`/`vec!`, `String` ops, `Box::new`, `HashMap::new` … are
//!   errors unless carrying a justified
//!   `// pcn-lint: allow(hot-alloc) — <why>` (typically: the
//!   allocation is per-run, not per-event).
//! * **P2 `panic`** — no `.unwrap()` / `.expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test code of
//!   the deterministic library crates: a panic aborts a million-payment
//!   run hours in. Each site becomes error propagation, a
//!   `debug_assert!`, or an invariant-carrying
//!   `// pcn-lint: allow(panic) — <why>`. `assert!` family macros stay
//!   legal: they *state* invariants rather than hide them.
//! * **P3 `amount-math`** — raw binary `+`/`-`/`*` with an
//!   `Amount`-tainted operand must go through the
//!   saturating/checked helpers on `Amount`. Compound assignment
//!   (`+=`) and index/`.micros()` chains are documented false
//!   negatives; the taint refinement (latest declaration wins) keeps
//!   same-named `u64` locals out.
//!
//! Detection is deliberately *over*-approximate (an identifier that is
//! hash-typed anywhere in the crate taints every same-named
//! identifier; a method call reaches every same-named method): a false
//! positive costs one justified annotation, while a false negative
//! costs a flaky differential test — or an aborted overnight run —
//! three PRs later.

use crate::callgraph::FileAnalysis;
use crate::lexer::{lex, AnnNs, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// Which rule produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: wall-clock access.
    WallClock,
    /// D2: order-sensitive hash iteration.
    HashOrder,
    /// D3: threads / sync primitives in the DES crate.
    Thread,
    /// D4: `{:?}` of a hash collection into output.
    DebugFormat,
    /// P1: allocation in a hot-reachable function.
    HotAlloc,
    /// P2: panic path in non-test library code.
    NoPanic,
    /// P3: raw arithmetic on `Amount`-tainted bindings.
    AmountMath,
    /// Malformed or unjustified `det-lint:` / `pcn-lint:` annotation.
    Annotation,
}

impl Rule {
    /// The rule name as written inside `…-lint: allow(…)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashOrder => "hash-order",
            Rule::Thread => "thread",
            Rule::DebugFormat => "debug-format",
            Rule::HotAlloc => "hot-alloc",
            Rule::NoPanic => "panic",
            Rule::AmountMath => "amount-math",
            Rule::Annotation => "annotation",
        }
    }

    /// Which annotation namespace suppresses this rule.
    pub fn namespace(self) -> AnnNs {
        match self {
            Rule::HotAlloc | Rule::NoPanic | Rule::AmountMath => AnnNs::Pcn,
            _ => AnnNs::Det,
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

/// How rule D1 applies to a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WallPolicy {
    /// Deterministic crate: any wall-clock token is an error.
    Forbid,
    /// Wall-allowed crate (proto / experiments / bench binaries): raw
    /// `Instant::now` is an error — call `pcn_proto::wall_now()` — and
    /// `wall_now()` results must land in `wall_*`-prefixed bindings.
    HelperOnly,
    /// The single allowlisted helper file itself.
    Free,
}

/// Per-file rule configuration, derived from the crate the file
/// belongs to (see [`crate::policy_for`]).
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// D1 mode.
    pub wall: WallPolicy,
    /// Whether D2 applies (deterministic crates).
    pub hash_order: bool,
    /// Whether D3 applies (`pcn-sim` only).
    pub threads: bool,
    /// Whether D4 applies (deterministic crates).
    pub debug_format: bool,
    /// Whether P1 applies (deterministic crates' library code).
    pub hot_alloc: bool,
    /// Whether P2 applies (deterministic crates' library code).
    pub panics: bool,
    /// Whether P3 applies (deterministic crates' library code, minus
    /// the `Amount` implementation itself).
    pub amount_math: bool,
}

impl Policy {
    /// Policy for the deterministic crates.
    pub fn deterministic(is_sim: bool) -> Self {
        Policy {
            wall: WallPolicy::Forbid,
            hash_order: true,
            threads: is_sim,
            debug_format: true,
            hot_alloc: true,
            panics: true,
            amount_math: true,
        }
    }

    /// Policy for wall-allowed crates (testbed, experiments, benches).
    pub fn wall_allowed() -> Self {
        Policy {
            wall: WallPolicy::HelperOnly,
            hash_order: false,
            threads: false,
            debug_format: false,
            hot_alloc: false,
            panics: false,
            amount_math: false,
        }
    }
}

/// Hash-iteration method names that expose iteration order (D2).
const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Sort-family identifiers that make an iteration order-insensitive
/// when they appear in the same or the immediately following
/// statements ("feeds an immediate sort").
fn is_reordering_ident(text: &str) -> bool {
    text.starts_with("sort") || text == "BTreeMap" || text == "BTreeSet" || text == "BinaryHeap"
}

/// Format-like macros whose output reaches strings / reports (D4).
/// Assert/panic macros are excluded: their output is for humans on the
/// failure path, not for serialized artifacts.
const FORMAT_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln",
];

/// Sync primitives banned in `pcn-sim` (D3).
const SYNC_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "mpsc",
    "rayon",
    "crossbeam",
    "parking_lot",
];

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

/// Unconditional panic macros (P2). The `assert!` family is excluded:
/// stated invariants are the *alternative* to hidden unwraps, and
/// `debug_assert!` is one of P2's suggested fixes.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that can precede a binary `-`/`*` without being an
/// operand (`return x`, `&mut x`, `match x`…): these make the
/// operator unary/deref, not Amount arithmetic (P3).
const NON_OPERAND_KEYWORDS: &[&str] = &[
    "return", "in", "as", "mut", "if", "while", "match", "else", "move", "break", "continue",
    "let", "yield",
];

/// Collects identifiers that are hash-typed somewhere in the given
/// token streams: `name: …HashMap<…>` (let/field/param type
/// annotations) and `let name = HashMap::new()`-style initializations.
///
/// The returned set deliberately spans the whole crate: a struct field
/// declared `entries: HashMap<…>` in one file taints
/// `table.entries` iteration in every other file of that crate.
pub fn collect_hash_names(streams: &[&Lexed]) -> BTreeSet<String> {
    collect_typed_names(streams, &|t| t == "HashMap" || t == "HashSet")
}

/// Collects identifiers that are `Amount`-typed somewhere in the given
/// token streams, for rule P3 — same crate-wide taint mechanics as
/// [`collect_hash_names`].
pub fn collect_amount_names(streams: &[&Lexed]) -> BTreeSet<String> {
    collect_typed_names(streams, &|t| t == "Amount")
}

/// The shared walk behind [`collect_hash_names`] /
/// [`collect_amount_names`]: `is_type` decides which type identifiers
/// taint a binding.
fn collect_typed_names(streams: &[&Lexed], is_type: &dyn Fn(&str) -> bool) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for lexed in streams {
        let toks = &lexed.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !is_type(&t.text) {
                continue;
            }
            // Walk left over the path prefix (`std :: collections ::`).
            let mut j = i;
            while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            }
            // Case b: `let (mut)? NAME (: _)? = HashMap :: new`.
            if j >= 2 && toks[j - 1].text == "=" {
                if let Some(name) = binding_left_of_eq(toks, j - 1) {
                    names.insert(name);
                    continue;
                }
            }
            // Case a: `NAME : …HashMap…` — walk left over type tokens
            // until the single `:` that starts the annotation.
            let mut k = j;
            while k > 0 {
                let p = &toks[k - 1];
                let is_type_tok = p.kind == TokKind::Ident
                    || p.kind == TokKind::Lifetime
                    || matches!(p.text.as_str(), "::" | "<" | ">" | "," | "&" | "[" | "]");
                if p.text == ":" {
                    if k >= 2 && toks[k - 2].kind == TokKind::Ident {
                        names.insert(toks[k - 2].text.clone());
                    }
                    break;
                }
                if !is_type_tok {
                    break;
                }
                k -= 1;
            }
        }
    }
    names
}

/// One identifier declaration seen in a file: a `name: Type`
/// annotation (let/param/field/struct-literal) or an untyped
/// `let name = expr` binding, with whether it is hash-typed.
///
/// Declarations refine the crate-wide taint set: `caps: &[Amount]` in
/// one function must not inherit hash-ness from a `caps: &HashMap<…>`
/// parameter elsewhere in the crate. Resolution is
/// "latest declaration of the name before the site in this file,
/// else the crate-wide taint set".
#[derive(Debug)]
pub struct Decl {
    name: String,
    /// Token index of the declared name.
    pos: usize,
    is_hash: bool,
    is_amount: bool,
}

/// Collects per-file declarations. `taint` is the crate-wide hash-name
/// set and `amount_taint` the crate-wide Amount-name set: an untyped
/// initializer mentioning a tainted name (e.g. `let merged =
/// caps.clone()`) propagates taint.
pub fn collect_decls(
    lexed: &Lexed,
    taint: &BTreeSet<String>,
    amount_taint: &BTreeSet<String>,
) -> Vec<Decl> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let hashy = |t: &Tok| {
        t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet" || taint.contains(&t.text))
    };
    let amounty = |t: &Tok| {
        t.kind == TokKind::Ident && (t.text == "Amount" || amount_taint.contains(&t.text))
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name : …` — type annotation or struct-literal field value.
        if toks.get(i + 1).is_some_and(|n| n.text == ":") {
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut is_hash = false;
            let mut is_amount = false;
            while j < toks.len() && j < i + 60 {
                let p = &toks[j];
                match p.text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," | ";" | "=" | "{" | "}" if depth == 0 => break,
                    _ => {}
                }
                is_hash |= hashy(p);
                is_amount |= amounty(p);
                j += 1;
            }
            out.push(Decl {
                name: t.text.clone(),
                pos: i,
                is_hash,
                is_amount,
            });
        }
        // Untyped `let (mut)? name = expr ;` (typed lets hit the arm above).
        // Hash-ness holds only when the initializer mentions
        // HashMap/HashSet directly, or is a plain alias / clone of a
        // tainted binding (`let m = caps;`, `let m = caps.clone();`).
        // A mere *mention* of a tainted name (`let j = caps.len();`)
        // must not taint: most methods on a hash map return scalars or
        // already-flagged iterators.
        if t.text == "let" {
            let mut m = i + 1;
            if toks.get(m).is_some_and(|n| n.text == "mut") {
                m += 1;
            }
            let (Some(name), Some(eq)) = (toks.get(m), toks.get(m + 1)) else {
                continue;
            };
            if name.kind != TokKind::Ident || eq.text != "=" {
                continue;
            }
            let mut expr: Vec<&Tok> = Vec::new();
            let mut j = m + 2;
            while j < toks.len() && j < m + 80 && toks[j].text != ";" {
                expr.push(&toks[j]);
                j += 1;
            }
            let literal_hash = expr
                .iter()
                .any(|p| p.kind == TokKind::Ident && (p.text == "HashMap" || p.text == "HashSet"));
            // `let x = Amount::…` / `let x = amount` / `let x =
            // amount.clone()` propagate Amount-ness; `let n =
            // amount.micros()` (a u64) must not, so the same strict
            // alias shapes apply, plus a direct `Amount::ctor(…)` head.
            let literal_amount = expr
                .first()
                .is_some_and(|p| p.kind == TokKind::Ident && p.text == "Amount");
            out.push(Decl {
                name: name.text.clone(),
                pos: m,
                is_hash: literal_hash || is_tainted_alias(&expr, taint),
                is_amount: literal_amount || is_tainted_alias(&expr, amount_taint),
            });
        }
    }
    out
}

/// True when `expr` is (a reference to) a tainted binding, optionally
/// `.clone()`d / `.to_owned()`d — the initializer shapes that hand the
/// whole hash collection to a new name.
fn is_tainted_alias(expr: &[&Tok], taint: &BTreeSet<String>) -> bool {
    let mut k = 0usize;
    while k < expr.len() && matches!(expr[k].text.as_str(), "&" | "mut") {
        k += 1;
    }
    let Some(head) = expr.get(k) else {
        return false;
    };
    if head.kind != TokKind::Ident || !taint.contains(&head.text) {
        return false;
    }
    let rest: Vec<&str> = expr[k + 1..].iter().map(|t| t.text.as_str()).collect();
    rest.is_empty() || rest == [".", "clone", "(", ")"] || rest == [".", "to_owned", "(", ")"]
}

/// Is the identifier `name` hash-typed at token position `site`?
fn resolve_hash(name: &str, site: usize, decls: &[Decl], taint: &BTreeSet<String>) -> bool {
    decls
        .iter()
        .rfind(|d| d.name == name && d.pos < site)
        .map_or_else(|| taint.contains(name), |d| d.is_hash)
}

/// Is the identifier `name` `Amount`-typed at token position `site`?
/// Same "latest declaration before the site wins, else crate-wide
/// taint" resolution as [`resolve_hash`].
fn resolve_amount(name: &str, site: usize, decls: &[Decl], taint: &BTreeSet<String>) -> bool {
    decls
        .iter()
        .rfind(|d| d.name == name && d.pos < site)
        .map_or_else(|| taint.contains(name), |d| d.is_amount)
}

/// For `= HashMap…` at `eq`, returns the binding name to the left of
/// the `=`: scans back to the statement's `let` and reads
/// `let (mut)? NAME` forward, which skips any `: Type` annotation in
/// between without mis-reading a type ident as the binding.
fn binding_left_of_eq(toks: &[Tok], eq: usize) -> Option<String> {
    let floor = eq.saturating_sub(40);
    let mut k = eq;
    while k > floor {
        k -= 1;
        match toks[k].text.as_str() {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut m = k + 1;
                if toks.get(m).map(|t| t.text.as_str()) == Some("mut") {
                    m += 1;
                }
                let name = toks.get(m)?;
                return (name.kind == TokKind::Ident).then(|| name.text.clone());
            }
            _ => {}
        }
    }
    None
}

/// Resolves the receiver identifier of a method call: for
/// `base . method (`, `base` may be a plain ident or an index
/// expression `name [ … ]`.
fn receiver_ident(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &toks[dot - 1];
    if prev.kind == TokKind::Ident {
        return Some(prev.text.clone());
    }
    if prev.text == "]" {
        // Scan back to the matching `[` and take the ident before it.
        let mut depth = 0i32;
        let mut k = dot - 1;
        loop {
            match toks[k].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        if k >= 1 && toks[k - 1].kind == TokKind::Ident {
                            return Some(toks[k - 1].text.clone());
                        }
                        return None;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
    }
    None
}

/// True when the statement containing token `pos`, or one of the two
/// statements after it, re-orders the data (sort / BTree collect) —
/// the "feeds an immediate sort" exemption of D2.
fn feeds_immediate_sort(toks: &[Tok], pos: usize) -> bool {
    let mut semis = 0;
    let mut j = pos;
    while j < toks.len() && semis < 3 {
        let t = &toks[j];
        if t.kind == TokKind::Ident && is_reordering_ident(&t.text) {
            return true;
        }
        if t.text == ";" {
            semis += 1;
        }
        j += 1;
    }
    false
}

/// Per-crate context shared by every file audit: the crate-wide taint
/// sets (D2 / P3) and this file's call-graph analysis (P1, test
/// spans).
pub struct CrateCtx<'a> {
    /// Crate-wide hash-typed identifiers, from [`collect_hash_names`].
    pub hash_names: &'a BTreeSet<String>,
    /// Crate-wide `Amount`-typed identifiers, from
    /// [`collect_amount_names`].
    pub amount_names: &'a BTreeSet<String>,
    /// This file's hot spans / test spans, from
    /// [`crate::callgraph::analyze`].
    pub analysis: &'a FileAnalysis,
}

/// Audits one lexed file under `policy`: like [`lint_tokens`] but the
/// result also keeps findings whose site carries a justified
/// annotation (`justification: Some(…)`), so `--json` can report the
/// suppressions.
pub fn audit_tokens(file: &str, lexed: &Lexed, policy: &Policy, ctx: &CrateCtx) -> Vec<Finding> {
    let toks = &lexed.toks;
    let hash_names = ctx.hash_names;
    let analysis = ctx.analysis;
    let decls = collect_decls(lexed, hash_names, ctx.amount_names);
    let mut raw: Vec<Finding> = Vec::new();

    // --- D1: wall clock -------------------------------------------------
    if policy.wall != WallPolicy::Free {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            // Deterministic crates may not name the wall-clock types at
            // all — that also catches `use std::time::*;` plus a stored
            // `Instant`. Wall-allowed crates may hold an `Instant` they
            // got from the helper; there only `Instant::now`, any
            // `SystemTime` and the `time::` import / qualified forms hit.
            let wall_hit = match policy.wall {
                WallPolicy::Forbid => t.text == "SystemTime" || t.text == "Instant",
                _ => {
                    t.text == "SystemTime"
                        || t.text == "Instant"
                            && toks.get(i + 1).is_some_and(|n| n.text == "::")
                            && toks.get(i + 2).is_some_and(|n| n.text == "now")
                        || t.text == "time"
                            && toks.get(i + 1).is_some_and(|n| n.text == "::")
                            && toks
                                .get(i + 2)
                                .is_some_and(|n| n.text == "Instant" || n.text == "SystemTime")
                }
            };
            if wall_hit {
                let msg = match policy.wall {
                    WallPolicy::Forbid => format!(
                        "[D1 wall-clock] `{}` in a deterministic crate: virtual time only — \
                         use `pcn_sim::des::SimTime`; wall metrics belong in bench/testbed \
                         crates behind `pcn_proto::wall_now()`",
                        t.text
                    ),
                    _ => format!(
                        "[D1 wall-clock] raw `{}` outside the allowlisted helper: call \
                         `pcn_proto::wall_now()` so wall time has exactly one entry point",
                        t.text
                    ),
                };
                raw.push(Finding {
                    rule: Rule::WallClock,
                    file: file.into(),
                    line: t.line,
                    message: msg,
                    justification: None,
                });
            }
            // Helper call sites must bind into `wall_*` names so wall
            // metrics stay visibly segregated from virtual ones.
            if t.text == "wall_now" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
                if let Some((name, line)) = assigned_binding(toks, i) {
                    if !name.starts_with("wall") {
                        raw.push(Finding {
                            rule: Rule::WallClock,
                            file: file.into(),
                            line,
                            message: format!(
                                "[D1 wall-clock] `wall_now()` result bound to `{name}`: \
                                 wall-time bindings must be `wall_*`-prefixed"
                            ),
                            justification: None,
                        });
                    }
                }
            }
        }
    }

    // --- D2: hash-order iteration ---------------------------------------
    if policy.hash_order {
        for (i, t) in toks.iter().enumerate() {
            // Method-call sites: `name.iter()`, `nbrs[u].keys()` …
            if t.kind == TokKind::Ident
                && ORDER_METHODS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
                && i >= 1
                && toks[i - 1].text == "."
            {
                if let Some(base) = receiver_ident(toks, i - 1) {
                    if resolve_hash(&base, i, &decls, hash_names) && !feeds_immediate_sort(toks, i)
                    {
                        raw.push(Finding {
                            rule: Rule::HashOrder,
                            file: file.into(),
                            line: t.line,
                            message: format!(
                                "[D2 hash-order] `{base}.{}()` iterates a hash collection in \
                                 arbitrary order: sort first / use BTreeMap, or annotate \
                                 `// det-lint: allow(hash-order) — <why order cannot matter>`",
                                t.text
                            ),
                            justification: None,
                        });
                    }
                }
            }
            // `for PAT in EXPR {` sites where EXPR names a hash
            // collection directly (not a same-named method call).
            if t.kind == TokKind::Ident && t.text == "for" {
                // Find the `in` at paren depth 0, then the loop `{`.
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut in_pos = None;
                while j < toks.len() && j < i + 80 {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 && toks[j].kind == TokKind::Ident => {
                            in_pos = Some(j);
                            break;
                        }
                        "{" | ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(inp) = in_pos {
                    let mut k = inp + 1;
                    while k < toks.len() && toks[k].text != "{" && k < inp + 60 {
                        let e = &toks[k];
                        // Skip method calls and field/method bases
                        // (`caps.len()` iterates a range, not `caps`;
                        // `.iter()` chains hit the method rule above).
                        let next = toks.get(k + 1).map(|n| n.text.as_str());
                        if e.kind == TokKind::Ident
                            && next != Some("(")
                            && next != Some(".")
                            && resolve_hash(&e.text, k, &decls, hash_names)
                            && !feeds_immediate_sort(toks, k)
                        {
                            raw.push(Finding {
                                rule: Rule::HashOrder,
                                file: file.into(),
                                line: e.line,
                                message: format!(
                                    "[D2 hash-order] `for … in {}` iterates a hash collection \
                                     in arbitrary order: sort keys first / switch to BTreeMap, \
                                     or annotate `// det-lint: allow(hash-order) — <why>`",
                                    e.text
                                ),
                                justification: None,
                            });
                            break;
                        }
                        k += 1;
                    }
                }
            }
        }
    }

    // --- D3: threads / sync in the DES crate ----------------------------
    if policy.threads {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit = t.text == "thread"
                && toks.get(i + 1).is_some_and(|n| n.text == "::")
                && toks.get(i + 2).is_some_and(|n| n.text == "spawn")
                || t.text == "sync"
                    && i >= 2
                    && toks[i - 1].text == "::"
                    && toks[i - 2].text == "std"
                || t.text.starts_with("Atomic") && t.text.len() > "Atomic".len()
                || SYNC_IDENTS.contains(&t.text.as_str());
            if hit {
                raw.push(Finding {
                    rule: Rule::Thread,
                    file: file.into(),
                    line: t.line,
                    message: format!(
                        "[D3 thread] `{}` in pcn-sim: the DES is single-threaded by contract \
                         (event order = (time, seq) only) until the conservative parallel \
                         engine lands with deterministic merge rules",
                        t.text
                    ),
                    justification: None,
                });
            }
        }
    }

    // --- D4: {:?} of hash collections into output -----------------------
    if policy.debug_format {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !FORMAT_MACROS.contains(&t.text.as_str())
                || toks.get(i + 1).map(|n| n.text.as_str()) != Some("!")
            {
                continue;
            }
            // Scan the macro's parenthesized args.
            let Some(open) = toks.get(i + 2).filter(|n| n.text == "(") else {
                continue;
            };
            let _ = open;
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut has_debug_spec = false;
            let mut debug_names: Vec<String> = Vec::new();
            let mut arg_hash = false;
            while j < toks.len() {
                let a = &toks[j];
                match a.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if a.kind == TokKind::Str {
                    for name in debug_specs(&a.text) {
                        has_debug_spec = true;
                        if !name.is_empty() {
                            debug_names.push(name);
                        }
                    }
                } else if a.kind == TokKind::Ident && resolve_hash(&a.text, j, &decls, hash_names) {
                    arg_hash = true;
                }
                j += 1;
            }
            let named_hash = debug_names
                .iter()
                .any(|n| resolve_hash(n, i, &decls, hash_names));
            if has_debug_spec && (arg_hash || named_hash) {
                raw.push(Finding {
                    rule: Rule::DebugFormat,
                    file: file.into(),
                    line: t.line,
                    message: format!(
                        "[D4 debug-format] `{}!` debug-formats a hash collection: `Debug` \
                         leaks iteration order into output — sort into a Vec/BTreeMap first \
                         or emit a stable serialization",
                        t.text
                    ),
                    justification: None,
                });
            }
        }
    }

    // --- P1: allocation in hot-reachable functions ----------------------
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
                raw.push(Finding {
                    rule: Rule::HotAlloc,
                    file: file.into(),
                    line: t.line,
                    message: format!(
                        "[P1 hot-alloc] `{c}` in `{}`, reachable from a `// pcn-lint: hot` \
                         root: preallocate / reuse a scratch buffer, or annotate \
                         `// pcn-lint: allow(hot-alloc) — <why this is per-run, not per-event>`",
                        hot.name
                    ),
                    justification: None,
                });
            }
        }
    }

    // --- P2: panic paths in non-test library code ------------------------
    if policy.panics {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || analysis.in_test(i) {
                continue;
            }
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let site = if (t.text == "unwrap" || t.text == "expect")
                && next == Some("(")
                && i >= 1
                && toks[i - 1].text == "."
            {
                Some(format!(".{}()", t.text))
            } else if PANIC_MACROS.contains(&t.text.as_str()) && next == Some("!") {
                Some(format!("{}!", t.text))
            } else {
                None
            };
            if let Some(s) = site {
                raw.push(Finding {
                    rule: Rule::NoPanic,
                    file: file.into(),
                    line: t.line,
                    message: format!(
                        "[P2 panic] `{s}` in non-test library code would abort a \
                         million-payment run: propagate the error, downgrade to \
                         `debug_assert!`, or annotate \
                         `// pcn-lint: allow(panic) — <the invariant making this unreachable>`"
                    ),
                    justification: None,
                });
            }
        }
    }

    // --- P3: raw arithmetic on Amount-tainted bindings -------------------
    if policy.amount_math {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Punct
                || !matches!(t.text.as_str(), "+" | "-" | "*")
                || analysis.in_test(i)
                || i == 0
            {
                continue;
            }
            let Some(next) = toks.get(i + 1) else {
                continue;
            };
            let prev = &toks[i - 1];
            // Binary-operator position only: an operand on both sides.
            // (`+=` etc. lex as single tokens and are not matched —
            // a documented false negative; unary `-`/`*`/`&` have a
            // non-operand on the left.)
            let prev_is_operand = (prev.kind == TokKind::Ident
                && !NON_OPERAND_KEYWORDS.contains(&prev.text.as_str()))
                || prev.kind == TokKind::Num
                || prev.text == ")"
                || prev.text == "]";
            let next_is_operand = next.kind == TokKind::Ident || next.kind == TokKind::Num;
            if !prev_is_operand || !next_is_operand {
                continue;
            }
            let tainted = [prev, next].into_iter().find(|o| {
                o.kind == TokKind::Ident
                    && (o.text == "Amount" || resolve_amount(&o.text, i, &decls, ctx.amount_names))
            });
            if let Some(op) = tainted {
                raw.push(Finding {
                    rule: Rule::AmountMath,
                    file: file.into(),
                    line: t.line,
                    message: format!(
                        "[P3 amount-math] raw `{}` with Amount-typed `{}`: balances use \
                         `saturating_add`/`saturating_sub`/`checked_*` helpers so overflow \
                         can never panic or wrap mid-settlement — or annotate \
                         `// pcn-lint: allow(amount-math) — <why overflow is impossible>`",
                        t.text, op.text
                    ),
                    justification: None,
                });
            }
        }
    }

    // --- Annotations: attach justifications, flag bad ones ---------------
    let mut out: Vec<Finding> = Vec::new();
    for mut f in raw {
        let matched = lexed.annotations.iter().find(|a| {
            a.ns == f.rule.namespace()
                && a.rule == f.rule.name()
                && (a.line == f.line || a.line + 1 == f.line)
        });
        if let Some(a) = matched {
            f.justification = Some(a.justification.clone());
        }
        out.push(f);
    }
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
        let known = match a.ns {
            AnnNs::Det => matches!(
                a.rule.as_str(),
                "wall-clock" | "hash-order" | "thread" | "debug-format"
            ),
            AnnNs::Pcn => matches!(a.rule.as_str(), "hot-alloc" | "panic" | "amount-math"),
        };
        if !known {
            let expected = match a.ns {
                AnnNs::Det => "wall-clock, hash-order, thread, or debug-format",
                AnnNs::Pcn => "hot-alloc, panic, or amount-math",
            };
            out.push(Finding {
                rule: Rule::Annotation,
                file: file.into(),
                line: a.line,
                message: format!(
                    "[annotation] unknown rule `{}` in {} allow (expected {expected})",
                    a.rule,
                    a.ns.marker()
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

/// Lints one lexed file under `policy`: [`audit_tokens`] filtered down
/// to the actual violations (justified findings dropped).
pub fn lint_tokens(file: &str, lexed: &Lexed, policy: &Policy, ctx: &CrateCtx) -> Vec<Finding> {
    audit_tokens(file, lexed, policy, ctx)
        .into_iter()
        .filter(|f| f.justification.is_none())
        .collect()
}

/// For a call token at `pos` (e.g. `wall_now`), finds the binding the
/// result is assigned to, searching back a few tokens for
/// `let (mut)? NAME =` or `NAME =`. Returns `(name, line)`.
fn assigned_binding(toks: &[Tok], pos: usize) -> Option<(String, u32)> {
    let mut k = pos;
    let floor = pos.saturating_sub(10);
    while k > floor {
        k -= 1;
        if toks[k].text == ";" || toks[k].text == "{" {
            return None;
        }
        if toks[k].text == "=" && k >= 1 && toks[k - 1].kind == TokKind::Ident {
            let name = &toks[k - 1];
            if name.text == "mut" {
                continue;
            }
            return Some((name.text.clone(), name.line));
        }
    }
    None
}

/// Extracts debug format specs from a format-string literal: returns
/// one entry per `{…:?}` / `{…:#?}` hole; the entry is the inline name
/// (`{name:?}` → `"name"`) or empty for positional holes.
fn debug_specs(fmt: &str) -> Vec<String> {
    let mut out = Vec::new();
    let b = fmt.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'{' {
            if b.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            if let Some(close) = fmt[i..].find('}') {
                let hole = &fmt[i + 1..i + close];
                if let Some((name, spec)) = hole.split_once(':') {
                    if spec.contains('?') {
                        out.push(name.trim().to_string());
                    }
                }
                i += close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Convenience for fixtures and tests: lexes `src` and audits it as a
/// standalone file (taint sets and call graph from the file itself),
/// keeping justified findings.
pub fn audit_source(file: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    let lexed = lex(src);
    let hash_names = collect_hash_names(&[&lexed]);
    let amount_names = collect_amount_names(&[&lexed]);
    let analysis = crate::callgraph::analyze_file(&lexed);
    audit_tokens(
        file,
        &lexed,
        policy,
        &CrateCtx {
            hash_names: &hash_names,
            amount_names: &amount_names,
            analysis: &analysis,
        },
    )
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

    fn det() -> Policy {
        Policy::deterministic(false)
    }

    #[test]
    fn hash_names_from_type_annotations_and_initializers() {
        let l = lex("struct S { caps: HashMap<EdgeId, Amount> }\n\
             fn f(flow: &std::collections::HashMap<u32, u64>) {\n\
                 let mut seen = HashSet::new();\n\
                 let nbrs: Vec<std::collections::HashSet<u32>> = vec![];\n\
                 let plain: Vec<u32> = vec![];\n\
             }");
        let names = collect_hash_names(&[&l]);
        assert!(names.contains("caps"));
        assert!(names.contains("flow"));
        assert!(names.contains("seen"));
        assert!(names.contains("nbrs"));
        assert!(!names.contains("plain"));
    }

    #[test]
    fn for_over_hash_map_is_flagged() {
        let src = "fn f() { let mut m = HashMap::new(); for (k, v) in &m { use_it(k, v); } }";
        let f = lint_source("x.rs", src, &det());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HashOrder);
    }

    #[test]
    fn sorted_iteration_is_exempt() {
        let src = "fn f() { let mut m = HashSet::new(); \
                   let mut v: Vec<u32> = m.into_iter().collect(); v.sort_unstable(); }";
        assert!(lint_source("x.rs", src, &det()).is_empty());
    }

    #[test]
    fn annotated_site_is_suppressed_and_needs_justification() {
        let good = "fn f() { let m = HashMap::new();\n\
                    // det-lint: allow(hash-order) — sum fold, order-insensitive\n\
                    let s: u64 = m.values().sum(); }";
        assert!(lint_source("x.rs", good, &det()).is_empty());
        let bare = "fn f() { let m = HashMap::new();\n\
                    // det-lint: allow(hash-order)\n\
                    let s: u64 = m.values().sum(); }";
        let f = lint_source("x.rs", bare, &det());
        assert!(f.iter().any(|f| f.rule == Rule::HashOrder));
        assert!(f.iter().any(|f| f.rule == Rule::Annotation));
    }

    #[test]
    fn local_declarations_override_crate_taint() {
        // `caps` is hash-typed in one function, a slice in another: the
        // slice function's sites must not inherit the taint.
        let src = "fn g(caps: &HashMap<u32, u64>) { let _ = caps.get(&1); }\n\
                   fn waterfill(caps: &[u64]) -> u64 {\n\
                       let mut tot = 0;\n\
                       for c in caps.iter() { tot += c; }\n\
                       for k in 1..=caps.len() { tot += k as u64; }\n\
                       tot\n\
                   }";
        let f = lint_source("x.rs", src, &det());
        assert!(f.is_empty(), "{f:?}");
        // …and a Vec rebinding of a hash name is clean after the `let`.
        let shadow = "fn f(m: HashSet<u32>) { \
                      let m: Vec<u32> = m.into_iter().collect(); m.sort(); \
                      for x in m { use_it(x); } }";
        assert!(lint_source("x.rs", shadow, &det()).is_empty());
        // The cross-file taint fallback still fires for undeclared names.
        let l1 = lex("struct S { caps: HashMap<u32, u64> }");
        let l2 = lex("fn f(s: &S) { for (k, v) in &s.caps { use_it(k, v); } }");
        let names = collect_hash_names(&[&l1, &l2]);
        let amounts = collect_amount_names(&[&l1, &l2]);
        let analyses = crate::callgraph::analyze(&[&l1, &l2]);
        let f = lint_tokens(
            "y.rs",
            &l2,
            &det(),
            &CrateCtx {
                hash_names: &names,
                amount_names: &amounts,
                analysis: &analyses[1],
            },
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HashOrder);
    }

    #[test]
    fn wall_clock_forbidden_in_det_crates() {
        let f = lint_source("x.rs", "fn f() { let t = Instant::now(); }", &det());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
        // Naming the type is enough: no import path, no `::now`.
        let stored = lint_source("x.rs", "struct S { started: Instant }", &det());
        assert_eq!(stored.len(), 1, "{stored:?}");
    }

    #[test]
    fn helper_crates_need_wall_prefixed_bindings() {
        let p = Policy::wall_allowed();
        let f = lint_source("x.rs", "fn f() { let start = wall_now(); }", &p);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wall_*"));
        assert!(lint_source("x.rs", "fn f() { let wall_start = wall_now(); }", &p).is_empty());
        let raw = lint_source("x.rs", "fn f() { let wall_t = Instant::now(); }", &p);
        assert_eq!(raw.len(), 1);
    }

    #[test]
    fn threads_flagged_only_in_sim_policy() {
        let src = "fn f() { std::thread::spawn(|| {}); let m = std::sync::Mutex::new(0); }";
        assert!(!lint_source("x.rs", src, &Policy::deterministic(true)).is_empty());
        assert!(lint_source("x.rs", src, &det()).is_empty());
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
        let f = lint_source("x.rs", src, &det());
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
        assert!(lint_source("x.rs", src, &det()).is_empty());
        let audit = audit_source("x.rs", src, &det());
        assert_eq!(audit.len(), 1, "{audit:?}");
        assert!(audit[0]
            .justification
            .as_deref()
            .unwrap()
            .contains("per run"));
    }

    #[test]
    fn p2_flags_panics_outside_tests_only() {
        let src = "\
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g() { panic!(\"boom\"); }
fn h(x: Option<u32>) -> u32 { x.unwrap_or(0) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::f(None), 0); let v: Option<u32> = None; v.unwrap(); }
}
";
        let f = lint_source("x.rs", src, &det());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == Rule::NoPanic));
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn p2_det_namespace_cannot_silence_pcn_rules() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // det-lint: allow(panic) — wrong namespace on purpose
    x.unwrap()
}
";
        let f = lint_source("x.rs", src, &det());
        assert!(f.iter().any(|f| f.rule == Rule::NoPanic), "{f:?}");
        // …and the det-side annotation is flagged as unknown there.
        assert!(f.iter().any(|f| f.rule == Rule::Annotation), "{f:?}");
    }

    #[test]
    fn p3_flags_raw_amount_math_with_taint_refinement() {
        let src = "\
fn settle(bal: Amount, amount: Amount) -> Amount { bal - amount }
fn histogram(count: u64, width: u64) -> u64 { count * width }
";
        let f = lint_source("x.rs", src, &det());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AmountMath);
        assert_eq!(f[0].line, 1);
        // A same-named u64 redeclaration un-taints (D2-style refinement).
        let refined = "\
fn a(amount: Amount) -> Amount { amount }
fn b(amount: u64) -> u64 { amount * 2 }
";
        assert!(lint_source("x.rs", refined, &det()).is_empty());
    }

    #[test]
    fn p3_amount_literal_operand_is_flagged() {
        let src = "fn f(x: u64) -> u64 { x + Amount::UNIT }";
        let f = lint_source("x.rs", src, &det());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AmountMath);
    }

    #[test]
    fn p_rules_respect_policy_gates() {
        let mut p = det();
        p.hot_alloc = false;
        p.panics = false;
        p.amount_math = false;
        let src = "\
// pcn-lint: hot
fn run(bal: Amount, x: Amount) -> Amount { let v = vec![1]; v.first().unwrap(); bal - x }
";
        assert!(lint_source("x.rs", src, &p).is_empty());
    }

    #[test]
    fn debug_format_of_hash_collection_flagged() {
        let src = "fn f() { let m = HashMap::new(); let s = format!(\"{:?}\", m); }";
        let f = lint_source("x.rs", src, &det());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DebugFormat);
        // Inline-named holes resolve too.
        let inline = "fn f() { let m = HashMap::new(); let s = format!(\"{m:?}\"); }";
        assert_eq!(lint_source("x.rs", inline, &det()).len(), 1);
        // Debug of a non-hash value is fine.
        let ok = "fn f() { let v = vec![1]; let s = format!(\"{v:?}\"); }";
        assert!(lint_source("x.rs", ok, &det()).is_empty());
    }
}
