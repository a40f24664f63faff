//! The bench gate: each committed `BENCH_*.json` at the workspace root
//! must be exactly what its family's smoke run produces — in every
//! field not measured on the host clock — and the regenerated records
//! must pass the family's shape rule. A field renamed, dropped or
//! reordered in `flash_bench::record`, a routing or engine change that
//! moves a virtual number, a record gained or lost: all fail here, with
//! the command that accepts the change.

use flash_bench::{differences, to_json_lines, Family, RunRecord, FAMILIES};
use std::path::Path;

/// The families pinned by a test below, one test each.
const PINNED: [&str; 3] = ["e2e", "churn", "testbed"];

fn family(name: &str) -> &'static Family {
    FAMILIES
        .iter()
        .find(|family| family.name == name)
        .unwrap_or_else(|| panic!("no bench family is named {name}"))
}

fn pinned(name: &str) {
    let family = family(name);
    let file = family.file();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join(&file))
        .unwrap_or_else(|e| panic!("{file} is not readable: {e}"));
    let records: Vec<RunRecord> =
        serde_json::from_str(&committed).unwrap_or_else(|e| panic!("{file} does not parse: {e:?}"));
    assert!(!records.is_empty(), "{file} holds no records");
    assert_eq!(
        to_json_lines(&records),
        committed,
        "{file} no longer matches RunRecord's layout"
    );
    let regenerated = (family.records)(true);
    let differences = differences(&records, &regenerated);
    assert!(
        differences.is_empty(),
        "{file} is not what `bench --smoke` produces:\n  {}\n\
         if the change is intended, run \
         `cargo run --release -p flash-bench --bin bench -- --smoke` \
         from the workspace root and commit the files",
        differences.join("\n  ")
    );
    let findings = (family.check)(&regenerated);
    assert!(
        findings.is_empty(),
        "the regenerated {name} records break their shape rule:\n  {}",
        findings.join("\n  ")
    );
}

#[test]
fn every_family_is_pinned() {
    let names: Vec<&str> = FAMILIES.iter().map(|family| family.name).collect();
    assert_eq!(
        names, PINNED,
        "a bench family was added or removed; give it a test here"
    );
}

#[test]
fn e2e_bench_reproduces_the_committed_file() {
    pinned("e2e");
}

#[test]
fn churn_bench_reproduces_the_committed_file() {
    pinned("churn");
}

#[test]
fn testbed_bench_reproduces_the_committed_file() {
    pinned("testbed");
}
