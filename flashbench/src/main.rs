//! `flashbench` — the repository's benchmark: five paper-scale
//! workloads through the public APIs of `flash-core`, `pcn-sim`,
//! `pcn-sim::des`, `pcn-proto` and `pcn-workload`, with named
//! end-to-end and per-layer metrics and the system's laws checked on
//! every run. See `README.md` beside this package.
//!
//! ```text
//! flashbench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//!            [--quick] [--spans FILE]
//! flashbench --workload all [...]        every workload, one process each
//! flashbench --repeat N --workload ...   N seeds; spread of every metric against its bound
//! flashbench --emit-benchmark-json       the text of BENCHMARK.json
//! flashbench --list                      every workload and metric with its meaning
//! ```
//!
//! One process, one thread. A run prints a table and then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exit code 0 means every check
//! held; 1 means a law was broken (the line is still printed, with
//! `"correct": false`); 2 means the command line was wrong.

mod catalog;
mod host;
mod measure;
mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod traced;
mod workload;

use catalog::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use measure::{run_end_to_end, run_per_layer, RunConfig};
use report::{fmt_value, parse_json_line};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::Workload;

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    spans: Option<PathBuf>,
    repeat: Option<u64>,
}

const USAGE: &str = "usage: flashbench --workload NAME|all [--seed S] [--seconds T] [--trace 0|1] \
                     [--quick] [--spans FILE] [--repeat N] | --emit-benchmark-json | --list";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 11,
        seconds: None,
        trace: false,
        quick: false,
        spans: None,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("a workload name")?.to_string(),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be within (0, 3600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => parsed.quick = true,
            "--spans" => parsed.spans = Some(PathBuf::from(value("a file")?)),
            "--repeat" => {
                let n: u64 = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--repeat takes 2 to 100 runs".into());
                }
                parsed.repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && Workload::from_name(&parsed.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    if parsed.spans.is_some() && !parsed.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(parsed)
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    for (title, defs) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        println!("{title}:");
        for m in defs {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
            println!(
                "  {:<36} {} ({} is better{bound}): {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.meaning
            );
        }
    }
}

/// One workload, in this process.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.5 } else { RUN_SECONDS as f64 });
    let config = RunConfig {
        spec: workload.spec(args.quick),
        seed: args.seed,
        seconds,
        spans_file: args.spans.clone(),
    };
    let (result, defs): (_, &[MetricDef]) = if args.trace {
        match run_per_layer(&config) {
            Ok(result) => (result, PER_LAYER),
            Err(e) => {
                eprintln!("flashbench: cannot write spans: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        (run_end_to_end(&config), END_TO_END)
    };
    for note in &result.notes {
        println!("{note}");
    }
    print!("{}", result.table(defs));
    for v in &result.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", result.json_line(defs));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs this executable again for one workload and seed, so that each
/// workload has a process — and a `peak_rss_mb` — of its own. Returns
/// whether it was correct and the metrics of its last line.
fn run_child(
    args: &Args,
    name: &str,
    seed: u64,
    echo: bool,
) -> Option<(bool, BTreeMap<String, f64>)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let (correct, values) = parse_json_line(stdout.lines().last()?)?;
    Some((correct && output.status.success(), values))
}

/// `--workload all` and `--repeat N`: one child process per (workload,
/// seed). With `--repeat`, prints min / median / max of every metric
/// and its spread — the distance between the quartiles as a share of
/// the median, the rule the pipeline applies — and fails when a spread
/// exceeds the metric's own bound.
fn orchestrate(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    for name in names {
        let Some(runs) = args.repeat else {
            println!("== {name}");
            ok &= run_child(args, name, args.seed, true).is_some_and(|(correct, _)| correct);
            continue;
        };
        let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in args.seed..args.seed + runs {
            match run_child(args, name, seed, false) {
                Some((correct, values)) => {
                    ok &= correct;
                    if !correct {
                        println!("{name} seed {seed}: a check failed");
                    }
                    for (metric, value) in values {
                        by_metric.entry(metric).or_default().push(value);
                    }
                }
                None => {
                    println!("{name} seed {seed}: no result");
                    ok = false;
                }
            }
        }
        println!(
            "== {name}: {runs} runs, seeds {}..{}",
            args.seed,
            args.seed + runs - 1
        );
        println!(
            "{:<36} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "min", "median", "max", "spread", "bound"
        );
        for def in defs {
            let values = by_metric.get(def.name).cloned().unwrap_or_default();
            let spread = stats::quartile_spread(&values);
            // The pipeline bounds every spread but set-up's.
            let over = def.bound.is_some_and(|b| spread > b) && def.name != "setup_s";
            println!(
                "{:<36} {:>14} {:>14} {:>14} {:>7.1}% {:>6}{}",
                def.name,
                fmt_value(values.iter().copied().fold(f64::INFINITY, f64::min)),
                fmt_value(stats::median(&values)),
                fmt_value(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                spread * 100.0,
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                if over { "  SPREAD OVER BOUND" } else { "" },
            );
            ok &= !over;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--list") => {
            list();
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flashbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match Workload::from_name(&args.workload) {
        Some(workload) if args.repeat.is_none() => run_one(&args, workload),
        _ => orchestrate(&args),
    }
}
