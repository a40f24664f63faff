//! # pcn-lint
//!
//! The workspace determinism auditor: a static-analysis pass that
//! catches hash-order, wall-clock, and stray-thread nondeterminism
//! before the differential tests do.
//!
//! ## Why this exists
//!
//! PR 3 shipped exactly the bug this tool exists to catch:
//! `barabasi_albert` iterated a `HashSet` while growing the
//! preferential-attachment list, so generated topologies differed *per
//! process* and a figure test went flaky. It was found by luck. With
//! ~20 hash-collection sites in the deterministic crates and a
//! parallel DES on the roadmap, the invariants behind every
//! differential test (same-seed bit-identical `DesReport`s,
//! zero-latency DES ≡ instantaneous simulator, regenerated ≡ committed
//! bench records) need enforcement on every PR — the same way
//! `flash_bench::shape` enforces bench shapes.
//!
//! ## What it does
//!
//! [`lint_workspace`] lexes every `.rs` file (a hand-rolled scanner in
//! [`lexer`]; the build environment has no registry access, so no
//! syn/proc-macro), builds a conservative per-crate call graph
//! ([`callgraph`]), and applies the D1–D4 determinism rules and the
//! P1–P3 hot-path rules in [`rules`] with a per-crate [`Policy`]:
//!
//! | crates | D1 wall-clock | D2 hash-order | D3 thread | D4 debug-format | P1–P3 |
//! |---|---|---|---|---|---|
//! | `pcn-types`, `pcn-graph`, `pcn-lp`, `flash-core`, `pcn-workload` | forbid | ✓ | – | ✓ | ✓ (src only) |
//! | `pcn-sim` | forbid | ✓ | ✓ | ✓ | ✓ (src only) |
//! | `pcn-proto` | helper only | – | – | – | P1 (src only) |
//! | `pcn-scenario`, `pcn-experiments`, `flash-bench`, umbrella | helper only | – | – | – | – |
//! | `shims/`, fixtures | skipped | | | | |
//!
//! "src only": the deterministic crates' integration tests, benches,
//! and examples are exempt from P1–P3 (assertions and setup
//! allocations are the point there), as is `#[cfg(test)]` code inside
//! src files. `crates/types/src/amount.rs` is exempt from P3 — it
//! *defines* the raw operators the saturating/checked helpers wrap.
//!
//! "Helper only" means wall time flows through exactly one entry
//! point — `pcn_proto::wall_now()` (defined in the allowlisted
//! `crates/proto/src/wall.rs`) — and must land in `wall_*`-prefixed
//! bindings.
//!
//! Violations that are provably exempt carry a written justification:
//! `// det-lint: allow(hash-order) — <why>` for D rules,
//! `// pcn-lint: allow(hot-alloc|panic|amount-math) — <why>` for P
//! rules. [`audit_workspace`] keeps the justified findings (for the
//! `--json` report); [`lint_workspace`] returns violations only.
//!
//! Run it locally with `cargo run -p pcn-lint --release -- --workspace`
//! (`det_lint` is the package's only binary); CI runs the same command
//! and surfaces findings as inline `::error file=…,line=…` PR
//! annotations plus a JSONL artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the `det_lint` binary prints, the library does not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod callgraph;
pub mod lexer;
pub mod rules;

pub use rules::{Finding, Policy, Rule, WallPolicy};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The deterministic crates: same-seed runs must be bit-identical.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/types",
    "crates/graph",
    "crates/lp",
    "crates/sim",
    "crates/core",
    "crates/workload",
];

/// The one file allowed to touch `std::time::Instant` directly.
pub const WALL_HELPER_FILE: &str = "crates/proto/src/wall.rs";

/// Returns the policy for a workspace-relative path, or `None` when
/// the file is out of scope (shims, vendored code, lint fixtures,
/// build output).
pub fn policy_for(rel: &str) -> Option<Policy> {
    let rel = rel.replace('\\', "/");
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("shims/") || rel.starts_with("target/") || rel.contains("/target/") {
        return None;
    }
    // Known-bad lint fixtures are linted by the fixture tests, not the
    // workspace scan.
    if rel.contains("tests/fixtures/") {
        return None;
    }
    if rel == WALL_HELPER_FILE {
        return Some(Policy {
            wall: WallPolicy::Free,
            hash_order: false,
            threads: false,
            debug_format: false,
            hot_alloc: false,
            panics: false,
            amount_math: false,
        });
    }
    for krate in DETERMINISTIC_CRATES {
        if rel.starts_with(&format!("{krate}/")) {
            let mut p = Policy::deterministic(*krate == "crates/sim");
            // P1–P3 audit library code only: integration tests,
            // benches, and examples assert and allocate freely and are
            // never on the engine's hot path.
            if rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/") {
                p.hot_alloc = false;
                p.panics = false;
                p.amount_math = false;
            }
            // The Amount implementation defines the raw operators that
            // the saturating/checked helpers wrap.
            if rel == "crates/types/src/amount.rs" {
                p.amount_math = false;
            }
            return Some(p);
        }
    }
    // Everything else — proto, scenario, experiments, bench, the lint
    // itself, the umbrella crate's src/tests/examples — may read wall
    // time through the helper only. The testbed's library code also
    // answers to P1: its reactor is a marked hot root.
    let mut p = Policy::wall_allowed();
    p.hot_alloc = rel.starts_with("crates/proto/src/");
    Some(p)
}

/// The crate-grouping key for hash-name collection: identifiers are
/// tainted crate-wide (a field declared in one file is iterated in
/// another), but not across crates (different namespaces).
fn crate_key(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && (parts[0] == "crates" || parts[0] == "shims") {
        format!("{}/{}", parts[0], parts[1])
    } else {
        "workspace-root".to_string()
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `.git`,
/// `target`, and `shims`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, ".git" | "target" | "shims" | "node_modules") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Audits every in-scope source file under the workspace `root`,
/// keeping justified findings (`justification: Some(…)`) alongside
/// violations. Findings come back sorted by (file, line) —
/// deterministically, as one would hope for a determinism linter.
pub fn audit_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);

    // Pass 1: lex everything in scope, group by crate.
    struct FileEntry {
        rel: String,
        policy: Policy,
        lexed: lexer::Lexed,
    }
    let mut by_crate: BTreeMap<String, Vec<FileEntry>> = BTreeMap::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(policy) = policy_for(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path)?;
        by_crate
            .entry(crate_key(&rel))
            .or_default()
            .push(FileEntry {
                rel,
                policy,
                lexed: lexer::lex(&src),
            });
    }

    // Pass 2: per-crate taint sets and call graph, then audit each
    // file. Hot reachability is intra-crate by construction (see the
    // `callgraph` module docs on cross-crate false negatives).
    let mut findings = Vec::new();
    for entries in by_crate.values() {
        let streams: Vec<&lexer::Lexed> = entries.iter().map(|e| &e.lexed).collect();
        let hash_names = rules::collect_hash_names(&streams);
        let amount_names = rules::collect_amount_names(&streams);
        let analyses = callgraph::analyze(&streams);
        for (e, analysis) in entries.iter().zip(&analyses) {
            let ctx = rules::CrateCtx {
                hash_names: &hash_names,
                amount_names: &amount_names,
                analysis,
            };
            findings.extend(rules::audit_tokens(&e.rel, &e.lexed, &e.policy, &ctx));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Lints every in-scope source file under the workspace `root`:
/// [`audit_workspace`] filtered down to the actual violations.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(audit_workspace(root)?
        .into_iter()
        .filter(|f| f.justification.is_none())
        .collect())
}

/// Serializes audit findings as JSONL (one object per line:
/// `file`, `line`, `rule`, `justified`, `justification`, `message`) —
/// the machine-readable artifact CI uploads next to the `::error`
/// annotations. Hand-rolled emission: the lint crate stays
/// zero-dependency.
pub fn jsonl(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::new();
    for f in findings {
        let justification = match &f.justification {
            Some(j) => format!("\"{}\"", esc(j)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"justified\":{},\
             \"justification\":{},\"message\":\"{}\"}}\n",
            esc(&f.file),
            f.line,
            f.rule.name(),
            f.justification.is_some(),
            justification,
            esc(&f.message),
        ));
    }
    out
}

/// Formats findings as GitHub Actions workflow commands, one per line
/// (`::error file=…,line=…::…`), so they render as inline PR
/// annotations.
pub fn github_annotations(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        // Workflow-command values must escape newlines and percents.
        let msg = f
            .message
            .replace('%', "%25")
            .replace('\n', "%0A")
            .replace('\r', "");
        out.push_str(&format!(
            "::error file={},line={},title=det-lint {}::{}\n",
            f.file,
            f.line,
            f.rule.name(),
            msg
        ));
    }
    out
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_match_the_crate_map() {
        assert!(policy_for("crates/sim/src/des/engine.rs").unwrap().threads);
        assert!(
            policy_for("crates/sim/src/des/engine.rs")
                .unwrap()
                .hot_alloc
        );
        assert!(policy_for("crates/sim/src/des/engine.rs").unwrap().panics);
        // Integration tests / benches of deterministic crates keep the
        // D rules but drop the P rules.
        let t = policy_for("crates/sim/tests/des.rs").unwrap();
        assert!(t.hash_order && !t.panics && !t.hot_alloc && !t.amount_math);
        let b = policy_for("crates/graph/benches/maxflow.rs").unwrap();
        assert!(!b.panics && !b.hot_alloc);
        // The Amount implementation is exempt from P3 only.
        let a = policy_for("crates/types/src/amount.rs").unwrap();
        assert!(a.panics && a.hot_alloc && !a.amount_math);
        // The testbed reactor is a hot root: P1 only, library code only.
        let r = policy_for("crates/proto/src/event_loop.rs").unwrap();
        assert!(r.hot_alloc && !r.panics && !r.hash_order);
        assert!(
            !policy_for("crates/scenario/src/builder.rs")
                .unwrap()
                .hot_alloc
        );
        assert!(
            !policy_for("crates/graph/src/generators.rs")
                .unwrap()
                .threads
        );
        assert!(
            policy_for("crates/graph/src/generators.rs")
                .unwrap()
                .hash_order
        );
        assert_eq!(
            policy_for("crates/proto/src/cluster.rs").unwrap().wall,
            WallPolicy::HelperOnly
        );
        // The scenario crate measures wall time on purpose (delays,
        // events/sec) — deliberately helper-only, not deterministic.
        let s = policy_for("crates/scenario/src/builder.rs").unwrap();
        assert_eq!(s.wall, WallPolicy::HelperOnly);
        assert!(!s.hash_order && !s.panics);
        assert_eq!(policy_for(WALL_HELPER_FILE).unwrap().wall, WallPolicy::Free);
        assert!(policy_for("shims/rand/src/lib.rs").is_none());
        assert!(policy_for("crates/lint/tests/fixtures/d1_wall_clock.rs").is_none());
        assert!(policy_for("README.md").is_none());
    }

    #[test]
    fn crate_keys_group_by_crate() {
        assert_eq!(crate_key("crates/sim/src/lib.rs"), "crates/sim");
        assert_eq!(crate_key("crates/sim/tests/des.rs"), "crates/sim");
        assert_eq!(crate_key("tests/atomicity.rs"), "workspace-root");
        assert_eq!(crate_key("src/lib.rs"), "workspace-root");
    }

    #[test]
    fn github_annotations_escape_and_point_at_lines() {
        let f = vec![Finding {
            rule: Rule::HashOrder,
            file: "crates/sim/src/x.rs".into(),
            line: 7,
            message: "100% bad\nnewline".into(),
            justification: None,
        }];
        let s = github_annotations(&f);
        assert_eq!(
            s,
            "::error file=crates/sim/src/x.rs,line=7,title=det-lint hash-order::100%25 bad%0Anewline\n"
        );
    }

    #[test]
    fn jsonl_escapes_and_reports_justification_status() {
        let f = vec![
            Finding {
                rule: Rule::HotAlloc,
                file: "crates/sim/src/x.rs".into(),
                line: 3,
                message: "a \"quoted\"\tthing".into(),
                justification: None,
            },
            Finding {
                rule: Rule::NoPanic,
                file: "crates/graph/src/y.rs".into(),
                line: 9,
                message: "m".into(),
                justification: Some("invariant: tables sized from the graph".into()),
            },
        ];
        let s = jsonl(&f);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"file\":\"crates/sim/src/x.rs\",\"line\":3,\"rule\":\"hot-alloc\",\
             \"justified\":false,\"justification\":null,\
             \"message\":\"a \\\"quoted\\\"\\tthing\"}"
        );
        assert!(lines[1].contains("\"justified\":true"));
        assert!(lines[1].contains("\"rule\":\"panic\""));
    }
}
