//! Schema-drift check on the committed trajectories: each
//! `BENCH_*.json` at the workspace root must parse under the record type
//! its bench binary writes and re-serialise, through the same writer,
//! to the committed bytes. A field renamed, dropped or reordered in
//! `flash_bench::record` without regenerating the file fails here.

use flash_bench::record::{ChurnRecord, E2eRecord, MaxflowRecord, TestbedRecord};
use flash_bench::to_json_lines;
use serde::{Deserialize, Serialize};

fn round_trips<R: Serialize + for<'de> Deserialize<'de>>(file: &str, committed: &str) {
    let records: Vec<R> =
        serde_json::from_str(committed).unwrap_or_else(|e| panic!("{file} does not parse: {e:?}"));
    assert!(!records.is_empty(), "{file} holds no records");
    assert_eq!(
        to_json_lines(&records),
        committed,
        "{file} no longer matches its record type"
    );
}

#[test]
fn committed_bench_files_round_trip_through_their_record_types() {
    round_trips::<E2eRecord>("BENCH_e2e.json", include_str!("../../../BENCH_e2e.json"));
    round_trips::<ChurnRecord>(
        "BENCH_churn.json",
        include_str!("../../../BENCH_churn.json"),
    );
    round_trips::<TestbedRecord>(
        "BENCH_testbed.json",
        include_str!("../../../BENCH_testbed.json"),
    );
    round_trips::<MaxflowRecord>(
        "BENCH_maxflow.json",
        include_str!("../../../BENCH_maxflow.json"),
    );
}
