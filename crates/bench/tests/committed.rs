//! The bench gate: each committed `BENCH_*.json` at the workspace root
//! must be exactly what its family's smoke bench produces — in every
//! field not measured on the host clock — and the regenerated records
//! must pass the family's shape rule. A field renamed, dropped or
//! reordered in `flash_bench::record`, a routing or engine change that
//! moves a virtual number, a record gained or lost: all fail here, with
//! the command that accepts the change.

use flash_bench::record::Record;
use flash_bench::{churn, differences, e2e, shape, testbed, to_json_lines};

fn pinned<R: Record>(family: &str, committed: &str, regenerated: &[R], findings: &[String]) {
    let file = format!("BENCH_{family}.json");
    let records: Vec<R> =
        serde_json::from_str(committed).unwrap_or_else(|e| panic!("{file} does not parse: {e:?}"));
    assert!(!records.is_empty(), "{file} holds no records");
    assert_eq!(
        to_json_lines(&records),
        committed,
        "{file} no longer matches its record type"
    );
    let differences = differences(&records, regenerated);
    assert!(
        differences.is_empty(),
        "{file} is not what {family}_bench --smoke produces:\n  {}\n\
         if the change is intended, run \
         `cargo run --release -p flash-bench --bin {family}_bench -- --smoke` \
         from the workspace root and commit {file}",
        differences.join("\n  ")
    );
    assert!(
        findings.is_empty(),
        "the regenerated {family} records break their shape rule:\n  {}",
        findings.join("\n  ")
    );
}

#[test]
fn e2e_bench_reproduces_the_committed_file() {
    let regenerated = e2e::records(true);
    pinned(
        "e2e",
        include_str!("../../../BENCH_e2e.json"),
        &regenerated,
        &shape::check_flat_latency(&regenerated),
    );
}

#[test]
fn churn_bench_reproduces_the_committed_file() {
    let regenerated = churn::records(true);
    pinned(
        "churn",
        include_str!("../../../BENCH_churn.json"),
        &regenerated,
        &shape::check_churn_degrades(&regenerated),
    );
}

#[test]
fn testbed_bench_reproduces_the_committed_file() {
    let regenerated = testbed::records(true);
    pinned(
        "testbed",
        include_str!("../../../BENCH_testbed.json"),
        &regenerated,
        &shape::check_testbed_conserves(&regenerated),
    );
}
