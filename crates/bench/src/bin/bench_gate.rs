//! `bench_gate` — fail CI when a regenerated bench regresses against
//! the committed trajectory, or looks physically suspicious.
//!
//! ```text
//! bench_gate <e2e|maxflow|churn|testbed> <committed.json> <regenerated.json>
//! ```
//!
//! Compares the regenerated smoke bench against the committed file
//! (see `flash_bench::gate` for the checks: >25% virtual-metric
//! regressions fail; identical latency percentiles across a ≥4×
//! offered-load spread fail as physically suspicious; the churn sweep
//! must cover ≥3 rates with strictly degrading success; max-flow
//! values must be identical and push-relabel must beat the
//! Edmonds–Karp oracle — by >2× at lightning scale; wall-clock deltas
//! only warn). The delta table and findings are printed to stdout and
//! appended to `$GITHUB_STEP_SUMMARY` when that variable is set, so the
//! per-PR deltas are readable from the Actions run page without
//! downloading artifacts. Exits 1 on any failing finding.

use flash_bench::gate::{gate, GateReport, Severity};
use flash_bench::record::{ChurnRecord, E2eRecord, MaxflowRecord, TestbedRecord};
use std::io::Write;

fn render(kind: &str, baseline_path: &str, candidate_path: &str, report: &GateReport) -> String {
    let verdict = if report.passed() {
        "✅ pass"
    } else {
        "❌ FAIL"
    };
    let mut out = format!(
        "## bench_gate {kind}: {verdict}\n\n\
         `{candidate_path}` (regenerated) vs `{baseline_path}` (committed)\n\n{}",
        report.table
    );
    if !report.findings.is_empty() {
        out.push('\n');
        for f in &report.findings {
            let tag = match f.severity {
                Severity::Fail => "❌",
                Severity::Warn => "⚠️",
            };
            out.push_str(&format!("- {tag} {}\n", f.message));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 3 || matches!(args[0].as_str(), "--help" | "-h") {
        eprintln!(
            "usage: bench_gate <e2e|maxflow|churn|testbed> <committed.json> <regenerated.json>"
        );
        std::process::exit(2);
    }
    let (kind, baseline_path, candidate_path) = (&args[0], &args[1], &args[2]);
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(baseline_path);
    let candidate = read(candidate_path);
    let report = match kind.as_str() {
        "e2e" => gate::<E2eRecord>(&baseline, &candidate),
        "maxflow" => gate::<MaxflowRecord>(&baseline, &candidate),
        "churn" => gate::<ChurnRecord>(&baseline, &candidate),
        "testbed" => gate::<TestbedRecord>(&baseline, &candidate),
        other => {
            eprintln!("bench_gate: unknown kind {other} (want e2e, maxflow, churn, or testbed)");
            std::process::exit(2);
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        std::process::exit(2);
    });

    let text = render(kind, baseline_path, candidate_path, &report);
    println!("{text}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&summary) {
            let _ = writeln!(f, "{text}");
        }
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
