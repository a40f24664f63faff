//! Fixture tests: rule P1 must reject its known-bad fixture (a replay
//! of the pre-PR-7 graph/metrics clones in the DES hot loop), a
//! justified annotation must pass, an unjustified one must suppress
//! nothing, and the real workspace must scan clean with P1
//! demonstrably live.

use pcn_lint::rules::{audit_source, lint_source, Rule};
use pcn_lint::Policy;
use std::path::Path;

const HOT: Policy = Policy { hot_alloc: true };

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

#[test]
fn p1_pre_pr7_graph_and_metrics_clones_are_rejected() {
    // The exact churn this rule was built to catch: the DES hot loop
    // used to `graph().clone()` per run and `metrics().clone()` per
    // report. Both sit two calls below the hot root in the fixture.
    let f = lint_source(
        "p1_hot_graph_clone.rs",
        &fixture("p1_hot_graph_clone.rs"),
        &HOT,
    );
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|f| f.rule == Rule::HotAlloc));
    assert_eq!(f[0].line, 13, "must point at `net.graph().clone()`");
    assert!(f[0].message.contains("step"), "{}", f[0].message);
    assert_eq!(f[1].line, 18, "must point at `net.metrics().clone()`");
    assert!(f[1].message.contains("report"), "{}", f[1].message);
}

#[test]
fn p_good_annotated_passes_lint_and_audits_as_justified() {
    let src = fixture("p_good_annotated.rs");
    let f = lint_source("p_good_annotated.rs", &src, &HOT);
    assert!(f.is_empty(), "{f:?}");
    // The audit keeps exactly the one justified suppression.
    let audit = audit_source("p_good_annotated.rs", &src, &HOT);
    assert_eq!(audit.len(), 1, "{audit:?}");
    assert_eq!(audit[0].rule, Rule::HotAlloc);
    assert!(audit[0].justification.is_some(), "{audit:?}");
}

#[test]
fn p_unjustified_allow_suppresses_nothing() {
    let f = lint_source("p_bad_annotation.rs", &fixture("p_bad_annotation.rs"), &HOT);
    assert!(f.iter().any(|f| f.rule == Rule::HotAlloc), "{f:?}");
    assert!(f.iter().any(|f| f.rule == Rule::Annotation), "{f:?}");
}

#[test]
fn real_workspace_scans_clean() {
    // The acceptance bar for every PR: the tree this test runs in has
    // no unjustified per-event allocation below a hot root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file());
    let findings = pcn_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "lint-audit findings in the workspace:\n{}",
        findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // …and P1 is demonstrably *live* on this tree, not vacuously clean:
    // the audit must report justified suppressions (the DES hot loop
    // carries per-run allow(hot-alloc)s).
    let audit = pcn_lint::audit_workspace(&root).expect("workspace audit");
    assert!(
        audit
            .iter()
            .any(|f| f.rule == Rule::HotAlloc && f.justification.is_some()),
        "no justified hot-alloc suppression anywhere in the workspace — is the rule inert?"
    );
}
