//! # flash-bench
//!
//! The smoke-bench producers and the checks on what they produce. Each
//! family is one `records(smoke)` function and a same-named binary that
//! prints the records and writes them to a `BENCH_*.json`:
//!
//! * [`e2e`] / `e2e_bench` — all five schemes through the
//!   discrete-event engine (propagation latency + per-node service
//!   queues) under Poisson load (`BENCH_e2e.json`).
//! * [`churn`] / `churn_bench` — the success-under-churn trajectory
//!   (`BENCH_churn.json`).
//! * [`testbed`] / `testbed_bench` — `run_scheme_testbed` runs on the
//!   event-loop TCP cluster, including the 200-node single-process
//!   scale point (`BENCH_testbed.json`).
//!
//! Max-flow has no family here: its flows are checked by the
//! max-flow/min-cut certificate (`pcn_graph::maxflow::certify`), not by
//! timing a second kernel, and push-relabel's wall time is flashbench's
//! `graph.maxflow.push_relabel_us_p50`.
//!
//! The committed `BENCH_*.json` files at the workspace root are the
//! `--smoke` outputs, and the check on them is `cargo test`:
//! `tests/committed.rs` regenerates each family's smoke records
//! in-process and requires them to equal the committed file in every
//! field that is not measured on the host clock ([`differences`]), then
//! requires the family's [`shape`] rule to find nothing. A change that
//! legitimately moves a number is accepted by running
//! `<family>_bench --smoke` and committing the file. Each binary also
//! runs its family's shape rule on what it produced and exits 1 on a
//! finding, which is the whole check of the weekly full-scale workflow.
//!
//! Each family's record schema lives once, in [`record`]. The sweeps
//! behind [`e2e`] and [`churn`] are the figure modules' own
//! (`pcn_experiments::figures::{latency, churn}`). These files are too
//! small and too short to carry a speed claim; `flashbench/` is the
//! speed ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod churn;
pub mod e2e;
pub mod record;
pub mod shape;
pub mod testbed;

use record::Record;
use serde::Serialize;

/// The command line every bench binary takes: `[--smoke] [--out FILE]`.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Run the CI-sized configuration (what the committed file holds).
    pub smoke: bool,
    /// Where the records go.
    pub out: String,
}

/// Parses the process arguments of bench binary `bin`, whose records go
/// to `default_out` unless `--out` says otherwise. `--help` prints the
/// usage and exits 0; anything unrecognised exits 2.
pub fn parse_args(bin: &str, default_out: &str) -> BenchArgs {
    let mut parsed = BenchArgs {
        smoke: false,
        out: default_out.to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => match args.next() {
                Some(file) => parsed.out = file,
                None => {
                    eprintln!("--out needs a file");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: {bin} [--smoke] [--out FILE]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Renders records the way every `BENCH_*.json` is laid out: a plain
/// JSON array with one record per line, so a changed record is one
/// changed line in review.
pub fn to_json_lines<R: Serialize>(records: &[R]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {}",
                serde_json::to_string(r).expect("bench record serializes")
            )
        })
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

/// The tail of every bench binary: writes `records` to `args.out`, then
/// reports the family's shape `findings` on stderr and exits 1 if there
/// are any.
pub fn write_and_check<R: Serialize>(args: &BenchArgs, records: &[R], findings: &[String]) {
    std::fs::write(&args.out, to_json_lines(records)).expect("write bench output");
    eprintln!("wrote {}", args.out);
    for finding in findings {
        eprintln!("shape rule broken: {finding}");
    }
    if !findings.is_empty() {
        std::process::exit(1);
    }
}

/// The `(key, value text)` pairs of a record's JSON line. Bench records
/// are flat objects of numbers and escape-free strings, so a comma or
/// brace outside a string ends a field.
fn fields<R: Serialize>(record: &R) -> Vec<(String, String)> {
    let json = serde_json::to_string(record).expect("bench record serializes");
    let mut out = Vec::new();
    let (mut in_string, mut start) = (false, 1);
    for (i, c) in json.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' | '}' if !in_string => {
                let (key, value) = json[start..i].split_once(':').expect("\"key\":value");
                out.push((key.trim_matches('"').to_string(), value.to_string()));
                start = i + 1;
            }
            _ => {}
        }
    }
    out
}

/// Every way `regenerated` differs from `committed`, one line each:
/// records pair up by [`Record::label`], a record on one side only is
/// named, and a paired record is named with each field outside
/// [`Record::WALL_FIELDS`] whose value changed, and both values. Empty
/// means the committed file is what the bench produces.
pub fn differences<R: Record>(committed: &[R], regenerated: &[R]) -> Vec<String> {
    let mut found = Vec::new();
    for c in committed {
        let label = c.label();
        let Some(r) = regenerated.iter().find(|r| r.label() == label) else {
            found.push(format!("{label}: committed but no longer produced"));
            continue;
        };
        for ((field, was), (_, now)) in fields(c).into_iter().zip(fields(r)) {
            if was != now && !R::WALL_FIELDS.contains(&field.as_str()) {
                found.push(format!("{label}: {field} is {now}, committed {was}"));
            }
        }
    }
    for r in regenerated {
        let label = r.label();
        if !committed.iter().any(|c| c.label() == label) {
            found.push(format!("{label}: produced but not committed"));
        }
    }
    found
}
