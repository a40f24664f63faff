//! # flash-bench
//!
//! The smoke benches and the checks on what they produce. Every run,
//! on the discrete-event engine or on the TCP testbed, becomes one
//! [`RunRecord`]. The runs fall into three [`FAMILIES`], each written to
//! its own `BENCH_*.json` by the one `bench` binary:
//!
//! * `e2e`: all five schemes through the discrete-event engine
//!   (propagation latency + per-node service queues) under Poisson load
//!   (`BENCH_e2e.json`).
//! * `churn`: the success-under-churn trajectory on the same engine
//!   (`BENCH_churn.json`).
//! * `testbed`: `run_scheme_testbed` runs on the event-loop TCP cluster,
//!   including the 200-node single-process scale point
//!   (`BENCH_testbed.json`).
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
//! legitimately moves a number is accepted by running `bench --smoke`
//! and committing the files. The binary also runs every family's shape
//! rule on what it produced and exits 1 on a finding, which is the
//! whole check of the weekly full-scale workflow.
//!
//! The DES sweeps are the figure modules' own
//! (`pcn_experiments::figures::{latency, churn}`). These files are too
//! small and too short to carry a speed claim; `flashbench/` is the
//! speed ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod record;
pub mod shape;

pub use record::{Backend, RunRecord};

use flash_core::Scheme;
use pcn_experiments::figures::{churn, latency};
use pcn_experiments::harness::{run_scheme_testbed, DEFAULT_MICE_FRACTION};
use pcn_workload::testbed_topology;
use pcn_workload::trace::{generate_trace, TraceConfig};
use std::path::PathBuf;

/// One `BENCH_*.json` family: its name, how its records are produced,
/// and the shape rule they must pass.
pub struct Family {
    /// The family's name; its records go to `BENCH_{name}.json`.
    pub name: &'static str,
    /// Produces the family's records, CI-sized when the flag is set.
    pub records: fn(bool) -> Vec<RunRecord>,
    /// The family's shape rule: one line per finding, empty when healthy.
    pub check: fn(&[RunRecord]) -> Vec<String>,
}

impl Family {
    /// The file the family's records go to.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Every family the `bench` binary writes, in the order it writes them.
pub const FAMILIES: [Family; 3] = [
    Family {
        name: "e2e",
        records: e2e_records,
        check: shape::check_flat_latency,
    },
    Family {
        name: "churn",
        records: churn_records,
        check: shape::check_churn_degrades,
    },
    Family {
        name: "testbed",
        records: testbed_records,
        check: shape::check_testbed_conserves,
    },
];

/// Topology size and trace length of the DES families.
fn des_scale(smoke: bool) -> (usize, usize) {
    if smoke {
        (60, 200)
    } else {
        (200, 800)
    }
}

/// The load sweep. Both sizes sweep the same 8× load spread, so the
/// latency-vs-load shape ([`shape::check_flat_latency`]) is present in
/// the smoke numbers; full scale only grows the topology and trace.
fn e2e_records(smoke: bool) -> Vec<RunRecord> {
    let (nodes, payments) = des_scale(smoke);
    latency::sweep(nodes, payments, &[50.0, 400.0], 1009)
        .iter()
        .map(|point| RunRecord::des(point, nodes, payments))
        .collect()
}

/// The churn sweep. Both sizes sweep the same rates, so the
/// strict-degradation shape ([`shape::check_churn_degrades`]) is present
/// in the smoke numbers.
fn churn_records(smoke: bool) -> Vec<RunRecord> {
    let (nodes, payments) = des_scale(smoke);
    churn::sweep(nodes, payments, &[0.0, 10.0, 40.0, 160.0], 1009)
        .iter()
        .map(|point| RunRecord::des(point, nodes, payments))
        .collect()
}

/// The testbed runs. Both sizes include the 200-node single-process
/// scale point ([`shape::check_testbed_conserves`] requires it); full
/// scale adds the remaining schemes and longer traces.
fn testbed_records(smoke: bool) -> Vec<RunRecord> {
    let schemes: &[Scheme] = if smoke {
        &[Scheme::ShortestPath, Scheme::Flash]
    } else {
        &Scheme::ALL
    };
    let scales: &[(usize, usize)] = if smoke {
        &[(60, 120), (200, 60)]
    } else {
        &[(60, 400), (200, 200)]
    };
    let seed = 2003;
    let mut records = Vec::new();
    for &scheme in schemes {
        for &(nodes, payments) in scales {
            let net = testbed_topology(nodes, 1000, 1500, seed);
            let trace = generate_trace(net.graph(), &TraceConfig::ripple(payments, seed + 7));
            let report = run_scheme_testbed(&net, scheme, &trace, DEFAULT_MICE_FRACTION, seed + 31);
            records.push(RunRecord::testbed(scheme, nodes, payments, &report));
        }
    }
    records
}

/// The command line of the `bench` binary: `[--smoke] [--out-dir DIR]`.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Run the CI-sized configuration (what the committed files hold).
    pub smoke: bool,
    /// The directory the `BENCH_*.json` files go to.
    pub out_dir: PathBuf,
}

/// Parses the process arguments of the `bench` binary; the files go to
/// the working directory unless `--out-dir` says otherwise. `--help`
/// prints the usage and exits 0; anything unrecognised exits 2.
pub fn parse_args() -> BenchArgs {
    let mut parsed = BenchArgs {
        smoke: false,
        out_dir: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out-dir" => match args.next() {
                Some(dir) => parsed.out_dir = dir.into(),
                None => {
                    eprintln!("--out-dir needs a directory");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: bench [--smoke] [--out-dir DIR]");
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
pub fn to_json_lines(records: &[RunRecord]) -> String {
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

/// The `(key, value text)` pairs of a record's JSON line. Records are
/// flat objects of numbers, `null`s and escape-free strings, so a comma
/// or brace outside a string ends a field.
fn fields(record: &RunRecord) -> Vec<(String, String)> {
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
/// records pair up by [`RunRecord::label`], a record on one side only is
/// named, and a paired record is named with each field outside
/// [`RunRecord::WALL_FIELDS`] whose value changed, and both values.
/// Empty means the committed file is what the bench produces.
pub fn differences(committed: &[RunRecord], regenerated: &[RunRecord]) -> Vec<String> {
    let mut found = Vec::new();
    for c in committed {
        let label = c.label();
        let Some(r) = regenerated.iter().find(|r| r.label() == label) else {
            found.push(format!("{label}: committed but no longer produced"));
            continue;
        };
        for ((field, was), (_, now)) in fields(c).into_iter().zip(fields(r)) {
            if was != now && !RunRecord::WALL_FIELDS.contains(&field.as_str()) {
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
