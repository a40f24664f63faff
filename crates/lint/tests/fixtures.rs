//! Fixture tests: every rule D1–D4 and P1–P3 must reject its known-bad
//! fixture (including replays of the PR-3 `barabasi_albert` HashSet bug
//! and the pre-PR-7 graph/metrics clones in the DES hot loop),
//! annotated code must pass, and the real workspace must scan clean
//! with the P rules demonstrably live.

use pcn_lint::rules::{audit_source, lint_source, Rule};
use pcn_lint::Policy;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn det() -> Policy {
    Policy::deterministic(false)
}

#[test]
fn d1_wall_clock_fixture_is_rejected() {
    let f = lint_source("d1_wall_clock.rs", &fixture("d1_wall_clock.rs"), &det());
    assert!(!f.is_empty());
    assert!(f.iter().all(|f| f.rule == Rule::WallClock), "{f:?}");
    // The import, the call site, and the `Instant` field behind the
    // glob import are each caught.
    let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
    assert_eq!(lines, [4, 7, 18], "{f:?}");
}

#[test]
fn d2_pr3_hashset_bug_is_rejected() {
    // The exact shape that shipped in PR 3: topologies differed per
    // process because the attachment list grew in HashSet order.
    let f = lint_source(
        "d2_hash_order_pr3.rs",
        &fixture("d2_hash_order_pr3.rs"),
        &det(),
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, Rule::HashOrder);
    assert_eq!(f[0].line, 9, "must point at the `for … in channels` loop");
}

#[test]
fn d3_thread_fixture_is_rejected_under_sim_policy_only() {
    let src = fixture("d3_thread.rs");
    let f = lint_source("d3_thread.rs", &src, &Policy::deterministic(true));
    assert!(
        f.len() >= 3,
        "Mutex import, Mutex::new, thread::spawn: {f:?}"
    );
    assert!(f.iter().all(|f| f.rule == Rule::Thread));
    // The same tokens are fine outside pcn-sim (flash-core may not use
    // them either, but D3 is a sim-only contract).
    assert!(lint_source("d3_thread.rs", &src, &det()).is_empty());
}

#[test]
fn d4_debug_format_fixture_is_rejected() {
    let f = lint_source("d4_debug_format.rs", &fixture("d4_debug_format.rs"), &det());
    assert_eq!(f.len(), 2, "one per format site: {f:?}");
    assert!(f.iter().all(|f| f.rule == Rule::DebugFormat));
}

#[test]
fn annotated_and_sorted_code_passes() {
    let f = lint_source("good_annotated.rs", &fixture("good_annotated.rs"), &det());
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn unjustified_allow_suppresses_nothing() {
    let f = lint_source("bad_annotation.rs", &fixture("bad_annotation.rs"), &det());
    assert!(f.iter().any(|f| f.rule == Rule::HashOrder), "{f:?}");
    assert!(f.iter().any(|f| f.rule == Rule::Annotation), "{f:?}");
}

#[test]
fn p1_pre_pr7_graph_and_metrics_clones_are_rejected() {
    // The exact churn this rule was built to catch: the DES hot loop
    // used to `graph().clone()` per run and `metrics().clone()` per
    // report. Both sit two calls below the hot root in the fixture.
    let f = lint_source(
        "p1_hot_graph_clone.rs",
        &fixture("p1_hot_graph_clone.rs"),
        &det(),
    );
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|f| f.rule == Rule::HotAlloc));
    assert_eq!(f[0].line, 13, "must point at `net.graph().clone()`");
    assert!(f[0].message.contains("step"), "{}", f[0].message);
    assert_eq!(f[1].line, 18, "must point at `net.metrics().clone()`");
    assert!(f[1].message.contains("report"), "{}", f[1].message);
}

#[test]
fn p2_panic_paths_fixture_is_rejected_outside_tests() {
    let f = lint_source("p2_panic_paths.rs", &fixture("p2_panic_paths.rs"), &det());
    assert_eq!(f.len(), 3, "unwrap, expect, unreachable!: {f:?}");
    assert!(f.iter().all(|f| f.rule == Rule::NoPanic));
    // The unwrap inside `#[cfg(test)]` must NOT be among them.
    assert!(f.iter().all(|f| f.line < 20), "{f:?}");
}

#[test]
fn p3_amount_math_fixture_is_rejected() {
    let f = lint_source("p3_amount_math.rs", &fixture("p3_amount_math.rs"), &det());
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|f| f.rule == Rule::AmountMath));
    assert_eq!(f[0].line, 7, "must point at `bal - amount`");
    assert_eq!(f[1].line, 11, "must point at the fee expression");
}

#[test]
fn p_good_annotated_passes_lint_and_audits_as_justified() {
    let src = fixture("p_good_annotated.rs");
    let f = lint_source("p_good_annotated.rs", &src, &det());
    assert!(f.is_empty(), "{f:?}");
    // The audit keeps exactly one justified suppression per P rule.
    let audit = audit_source("p_good_annotated.rs", &src, &det());
    assert_eq!(audit.len(), 3, "{audit:?}");
    for rule in [Rule::HotAlloc, Rule::NoPanic, Rule::AmountMath] {
        assert!(
            audit
                .iter()
                .any(|f| f.rule == rule && f.justification.is_some()),
            "missing justified {} suppression: {audit:?}",
            rule.name()
        );
    }
}

#[test]
fn p_unjustified_allow_suppresses_nothing() {
    let f = lint_source(
        "p_bad_annotation.rs",
        &fixture("p_bad_annotation.rs"),
        &det(),
    );
    assert!(f.iter().any(|f| f.rule == Rule::NoPanic), "{f:?}");
    assert!(f.iter().any(|f| f.rule == Rule::Annotation), "{f:?}");
}

#[test]
fn real_workspace_scans_clean() {
    // The acceptance bar for every PR: the tree this test runs in has
    // zero unjustified nondeterminism.
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
    // …and the hot-path rules are demonstrably *live* on this tree, not
    // vacuously clean: the audit must report justified P1/P2
    // suppressions (the DES hot loop carries per-run allow(hot-alloc)s;
    // invariant-carrying allow(panic)s pepper the graph kernels). P3
    // has no justified sites — every raw Amount op was converted to the
    // saturating helpers — so for it "clean" alone is the contract,
    // exercised by the known-bad fixture above.
    let audit = pcn_lint::audit_workspace(&root).expect("workspace audit");
    for rule in [Rule::HotAlloc, Rule::NoPanic] {
        assert!(
            audit
                .iter()
                .any(|f| f.rule == rule && f.justification.is_some()),
            "no justified {} suppression anywhere in the workspace — is the rule inert?",
            rule.name()
        );
    }
}
