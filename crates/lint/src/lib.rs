//! # pcn-lint
//!
//! The workspace's hot-path auditor: rule P1 `hot-alloc`, the one
//! workspace law that needs a call graph.
//!
//! ## Who enforces what
//!
//! Every other law has a cheaper enforcer that rustc or clippy runs,
//! so this crate holds only the rule nothing else can check:
//!
//! | law | enforcer |
//! |---|---|
//! | no raw `+`/`-`/`*` on money | the type: `pcn_types::Amount` has no such operators |
//! | no hash-order iteration, no `{:?}` of a hash map | root `clippy.toml` `disallowed-types` (`HashMap`, `HashSet`) |
//! | no wall clock outside `pcn_proto::wall_now` | `clippy.toml` `disallowed-methods` (`Instant::now`, `SystemTime::now`) |
//! | no threads or sync primitives | `clippy.toml` `disallowed-methods` / `disallowed-types` |
//! | no panics in deterministic library code | `#![deny(clippy::unwrap_used, …)]` in each deterministic crate's `lib.rs` |
//! | every suppression has a reason | `[workspace.lints.clippy]` `allow_attributes*` |
//! | no per-event allocation below a hot root | **this crate: P1 `hot-alloc`** |
//!
//! ## What it does
//!
//! [`lint_workspace`] lexes every `.rs` file (a hand-rolled scanner in
//! [`lexer`]; the build environment has no registry access, so no
//! syn/proc-macro), builds a conservative per-crate call graph
//! ([`callgraph`]) from the `// pcn-lint: hot` roots, and applies P1
//! ([`rules`]) to the library code of the deterministic crates
//! (`pcn-types`, `pcn-graph`, `pcn-lp`, `pcn-sim`, `flash-core`,
//! `pcn-workload`) and of the testbed (`pcn-proto`, whose reactor is a
//! hot root). Integration tests, benches, examples and `#[cfg(test)]`
//! code are exempt; every other file is still checked for malformed
//! `pcn-lint:` annotations. Shims and lint fixtures are skipped.
//!
//! An allocation that is provably per-run carries a written
//! justification: `// pcn-lint: allow(hot-alloc) — <why>`.
//! [`audit_workspace`] keeps the justified findings (for the `--json`
//! report); [`lint_workspace`] returns violations only.
//!
//! Run it locally with `cargo run -p pcn-lint --release -- --workspace`;
//! CI runs the same command and surfaces findings as inline
//! `::error file=…,line=…` PR annotations plus a JSONL artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the `det_lint` binary prints, the library does not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod callgraph;
pub mod lexer;
pub mod rules;

pub use rules::{Finding, Policy, Rule};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The crates whose library code P1 audits: the deterministic crates
/// and the testbed.
const HOT_CRATES: &[&str] = &[
    "crates/types",
    "crates/graph",
    "crates/lp",
    "crates/sim",
    "crates/core",
    "crates/workload",
    "crates/proto",
];

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
    // P1 audits library code only: integration tests, benches, and
    // examples allocate freely and are never on the engine's hot path.
    let hot_alloc = HOT_CRATES
        .iter()
        .any(|krate| rel.starts_with(&format!("{krate}/src/")));
    Some(Policy { hot_alloc })
}

/// The crate-grouping key for the call graph: calls resolve within a
/// crate, not across crates (different namespaces).
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
/// deterministically.
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

    // Pass 2: per-crate call graph, then audit each file. Hot
    // reachability is intra-crate by construction (see the `callgraph`
    // module docs on cross-crate false negatives).
    let mut findings = Vec::new();
    for entries in by_crate.values() {
        let streams: Vec<&lexer::Lexed> = entries.iter().map(|e| &e.lexed).collect();
        let analyses = callgraph::analyze(&streams);
        for (e, analysis) in entries.iter().zip(&analyses) {
            findings.extend(rules::audit_tokens(&e.rel, &e.lexed, &e.policy, analysis));
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
            "::error file={},line={},title=pcn-lint {}::{}\n",
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
        let hot = |rel| policy_for(rel).unwrap().hot_alloc;
        assert!(hot("crates/sim/src/des/engine.rs"));
        assert!(hot("crates/types/src/amount.rs"));
        // The testbed reactor is a hot root: library code only.
        assert!(hot("crates/proto/src/event_loop.rs"));
        // Integration tests and benches of the audited crates, and every
        // other crate, are scanned for annotations only.
        assert!(!hot("crates/sim/tests/des.rs"));
        assert!(!hot("crates/graph/benches/maxflow.rs"));
        assert!(!hot("crates/experiments/src/harness.rs"));
        assert!(!hot("tests/atomicity.rs"));
        assert!(policy_for("shims/rand/src/lib.rs").is_none());
        assert!(policy_for("crates/lint/tests/fixtures/p1_hot_graph_clone.rs").is_none());
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
            rule: Rule::HotAlloc,
            file: "crates/sim/src/x.rs".into(),
            line: 7,
            message: "100% bad\nnewline".into(),
            justification: None,
        }];
        let s = github_annotations(&f);
        assert_eq!(
            s,
            "::error file=crates/sim/src/x.rs,line=7,title=pcn-lint hot-alloc::100%25 bad%0Anewline\n"
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
                rule: Rule::HotAlloc,
                file: "crates/graph/src/y.rs".into(),
                line: 9,
                message: "m".into(),
                justification: Some("one result path per search, not per edge".into()),
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
        assert!(lines[1].contains("\"rule\":\"hot-alloc\""));
    }
}
