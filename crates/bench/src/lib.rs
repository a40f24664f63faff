//! # flash-bench
//!
//! The smoke-bench binaries and the gate that reads their records:
//!
//! * `maxflow_bench` — times the push-relabel kernel against the
//!   Edmonds–Karp oracle on the Watts–Strogatz and Ripple/Lightning
//!   generator topologies, cross-checks their flow values, and writes
//!   `BENCH_maxflow.json`.
//! * `e2e_bench` — all five schemes through the discrete-event engine
//!   (propagation latency + per-node service queues) under Poisson
//!   load, writing `BENCH_e2e.json`.
//! * `churn_bench` — the success-under-churn trajectory, writing
//!   `BENCH_churn.json`.
//! * `testbed_bench` — scenario-driven runs on the event-loop TCP
//!   cluster (including the 200-node single-process scale point),
//!   writing `BENCH_testbed.json`.
//! * `bench_gate` — diffs the regenerated smoke benches against the
//!   committed files and fails CI on regressions or physically
//!   suspicious shapes (see [`gate`]).
//!
//! Each family's record schema lives once, in [`record`]: the binary
//! serialises it through [`to_json_lines`] and the gate parses the same
//! struct back. The sweeps behind `e2e_bench` and `churn_bench` are the
//! figure modules' own (`pcn_experiments::figures::{latency, churn}`).
//!
//! The committed `BENCH_*.json` files are the `--smoke` outputs (so
//! the gate always compares like with like on PR CI); the weekly
//! scheduled workflow regenerates the full-scale trajectory as
//! artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod gate;
pub mod record;

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
