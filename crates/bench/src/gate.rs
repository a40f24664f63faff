//! The bench-regression gate: diffs regenerated bench results against
//! the committed `BENCH_e2e.json` / `BENCH_maxflow.json` /
//! `BENCH_churn.json` / `BENCH_testbed.json` trajectories.
//!
//! Two kinds of check:
//!
//! * **Regression deltas** — records are matched on their full
//!   configuration key; a matched pair whose *virtual* (deterministic)
//!   metrics regress by more than [`MAX_REGRESSION`] fails the gate.
//!   For the e2e bench that is delivered throughput down, completion
//!   latency up, or success ratio down. For the max-flow bench the
//!   flow values themselves must be **identical** (they are
//!   deterministic; any drift is a kernel bug), while wall-clock
//!   timings only *warn* — CI runners are too noisy for a hard
//!   wall-time gate. The e2e bench's wall-derived `events_per_sec`
//!   (the hot-loop churn metric) warns on >25% drops for the same
//!   reason.
//! * **Physical suspicion** — result *shapes* that are numerically
//!   valid but physically implausible fail even when they diff
//!   cleanly against an equally suspicious baseline. The canonical
//!   case (and the regression that motivated this gate): identical
//!   completion-latency percentiles across a ≥[`FLAT_LOAD_SPREAD`]×
//!   offered-load spread. The pre-service-queue engine committed
//!   exactly that — bit-identical p50/p95/p99 at 50 and 400 pps —
//!   and nothing diffing the artifact would ever have objected. The
//!   churn bench carries the same kind of check: success must
//!   *strictly* degrade as the churn rate rises across ≥3 rates per
//!   scheme ([`gate_churn`]) — a flat curve means churn events are
//!   not actually reaching the engine. The max-flow bench hard-fails
//!   on within-run wall-time *ratios* (robust to runner speed, unlike
//!   absolute deltas): the fastest non-oracle kernel must beat
//!   Edmonds–Karp everywhere (>2× on the ≥1000-node lightning-scale
//!   topology, the ROADMAP win condition) and warm-start must beat a
//!   cold restart with identical total flow ([`gate_maxflow`]).
//!
//! The library half (this module) is pure string-in/report-out so the
//! gate itself is testable — `crates/bench/tests/gate.rs` replays the
//! flat PR-4 fixture and asserts the gate rejects it. The
//! `bench_gate` binary wraps it with file IO, a Markdown delta table
//! for `$GITHUB_STEP_SUMMARY`, and a process exit code.

use serde::Deserialize;

/// Maximum tolerated relative regression on matched virtual metrics
/// (0.25 = 25%).
pub const MAX_REGRESSION: f64 = 0.25;

/// Minimum offered-load spread (max/min pps within one configuration)
/// above which identical latency percentiles are physically suspicious.
pub const FLAT_LOAD_SPREAD: f64 = 4.0;

/// One record of `BENCH_e2e.json`. Fields added after PR 4 carry
/// `#[serde(default)]` so the gate can still parse historical
/// artifacts (and its own regression-test fixtures).
#[derive(Clone, Debug, Deserialize)]
pub struct E2eRecord {
    /// Scheme label (`Flash`, `Spider`, …).
    pub scheme: String,
    /// Topology size.
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Offered load, payments per virtual second.
    pub offered_pps: f64,
    /// Per-hop propagation latency, ms.
    pub hop_latency_ms: u64,
    /// Per-node service time, ms (0 in pre-queue artifacts).
    #[serde(default)]
    pub service_time_ms: u64,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Successful payments per virtual second.
    pub throughput_pps: f64,
    /// Completion-latency percentiles, virtual ms.
    pub p50_latency_ms: f64,
    /// p95 completion latency, virtual ms.
    pub p95_latency_ms: f64,
    /// p99 completion latency, virtual ms.
    pub p99_latency_ms: f64,
    /// Median per-message queueing delay, virtual ms.
    #[serde(default)]
    pub p50_queue_delay_ms: f64,
    /// p95 per-message queueing delay, virtual ms.
    #[serde(default)]
    pub p95_queue_delay_ms: f64,
    /// Peak concurrently in-flight payments.
    pub peak_in_flight: u64,
    /// Peak per-node message backlog.
    #[serde(default)]
    pub peak_backlog: u64,
    /// Busiest node's utilization in `[0, 1]`.
    #[serde(default)]
    pub max_node_utilization: f64,
    /// Settlement events processed.
    pub events: u64,
    /// Virtual makespan, ms.
    pub virtual_makespan_ms: f64,
    /// Wall-clock cost of the simulation, ns (not gated).
    pub wall_ns: u64,
    /// Engine events processed per wall-clock second — the hot-loop
    /// churn metric `des_hot_loop` tracks. Wall-derived, so drops
    /// beyond [`MAX_REGRESSION`] only *warn* (CI hardware varies).
    #[serde(default)]
    pub events_per_sec: f64,
}

impl E2eRecord {
    fn key(&self) -> (String, usize, usize, u64, u64, u64) {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.offered_pps.to_bits(),
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }

    /// The configuration group a record sweeps load within.
    fn group(&self) -> (String, usize, usize, u64, u64) {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }
}

/// One record of `BENCH_churn.json`: one (scheme, churn-rate) point of
/// the success-under-churn trajectory. Counter fields carry
/// `#[serde(default)]` so the gate keeps parsing artifacts from before
/// a counter existed.
#[derive(Clone, Debug, Deserialize)]
pub struct ChurnRecord {
    /// Scheme label (`Flash`, `Spider`, …).
    pub scheme: String,
    /// Topology size.
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Offered load, payments per virtual second (fixed within a sweep).
    pub offered_pps: f64,
    /// Channel-close intensity — the sweep variable (crashes and
    /// drains ride along proportionally; see the churn figure module).
    pub closes_per_sec: f64,
    /// Per-hop propagation latency, ms.
    pub hop_latency_ms: u64,
    /// Per-node service time, ms.
    pub service_time_ms: u64,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// p95 completion latency, virtual ms.
    pub p95_latency_ms: f64,
    /// Channels closed by churn during the run.
    #[serde(default)]
    pub closed_channels: u64,
    /// Probes bounced off closed channels / crashed nodes.
    #[serde(default)]
    pub stale_probe_failures: u64,
    /// Threshold-triggered re-probes across all routers.
    #[serde(default)]
    pub reprobes_triggered: u64,
    /// Wall-clock cost of the simulation, ns (not gated).
    #[serde(default)]
    pub wall_ns: u64,
}

impl ChurnRecord {
    fn key(&self) -> (String, usize, usize, u64, u64, u64, u64) {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.offered_pps.to_bits(),
            self.closes_per_sec.to_bits(),
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }

    /// The configuration group a record sweeps churn within.
    fn group(&self) -> (String, usize, usize, u64, u64, u64) {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.offered_pps.to_bits(),
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }
}

/// One record of `BENCH_maxflow.json`.
#[derive(Clone, Debug, Deserialize)]
pub struct MaxflowRecord {
    /// Generator topology name.
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Directed edge count.
    pub directed_edges: usize,
    /// Kernel name (`edmonds-karp`, `dinic`, …).
    pub kernel: String,
    /// Source/sink pairs measured.
    pub pairs: usize,
    /// Timed iterations per pair.
    pub iters_per_pair: usize,
    /// Mean wall time per pair, ns (warn-only: CI hardware varies).
    pub mean_ns_per_pair: u64,
    /// Sum of flow values over the pairs (deterministic; hard-gated).
    pub total_flow: u64,
}

impl MaxflowRecord {
    fn key(&self) -> (String, usize, usize, String, usize, usize) {
        (
            self.topology.clone(),
            self.nodes,
            self.directed_edges,
            self.kernel.clone(),
            self.pairs,
            self.iters_per_pair,
        )
    }
}

/// One record of `BENCH_testbed.json`: one (scheme, scale) scenario run
/// on the event-loop TCP cluster. Wall-derived fields
/// (`events_per_sec`, `wall_ns`) only ever warn; everything else is
/// deterministic for a zero-fault scenario.
#[derive(Clone, Debug, Deserialize)]
pub struct TestbedRecord {
    /// Scheme label (`Flash`, `SP`, …).
    pub scheme: String,
    /// Hosted node count (the ≥200 record is the single-process scale
    /// acceptance check).
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Volume delivered, micro-units.
    #[serde(default)]
    pub success_volume_micros: u64,
    /// Fees charged, micro-units.
    #[serde(default)]
    pub fees_micros: u64,
    /// `PROBE` messages serviced cluster-wide.
    pub probe_messages: u64,
    /// `COMMIT` messages serviced cluster-wide.
    pub commit_messages: u64,
    /// Wire frames received cluster-wide.
    pub wire_in: u64,
    /// Wire frames sent cluster-wide.
    pub wire_out: u64,
    /// Micro-units still escrowed at the end of the run (must be 0:
    /// every commit was confirmed or reversed).
    #[serde(default)]
    pub escrow_end: u64,
    /// Largest per-connection frame-queue high-water mark.
    #[serde(default)]
    pub queue_high_water: u64,
    /// Wire frames received per wall second (warn-only: CI varies).
    #[serde(default)]
    pub events_per_sec: f64,
    /// Wall-clock cost of the run, ns (not gated).
    #[serde(default)]
    pub wall_ns: u64,
    /// `accept`/`read`/`write` calls the reactor issued per wire frame
    /// received (0 in artifacts older than the counter).
    #[serde(default)]
    pub socket_ops_per_frame: f64,
}

impl TestbedRecord {
    fn key(&self) -> (String, usize, usize) {
        (self.scheme.clone(), self.nodes, self.payments)
    }
}

/// How bad one finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Gate fails (process exits nonzero).
    Fail,
    /// Reported but not fatal.
    Warn,
}

/// One gate finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Fail or warn.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

/// The gate's verdict: findings plus a Markdown delta table.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Everything noteworthy, fails first.
    pub findings: Vec<Finding>,
    /// A Markdown table of per-record deltas (for
    /// `$GITHUB_STEP_SUMMARY`).
    pub table: String,
}

impl GateReport {
    /// Whether the gate passes (no [`Severity::Fail`] findings).
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Fail)
    }

    fn fail(&mut self, message: String) {
        self.findings.push(Finding {
            severity: Severity::Fail,
            message,
        });
    }

    fn warn(&mut self, message: String) {
        self.findings.push(Finding {
            severity: Severity::Warn,
            message,
        });
    }

    fn sort(&mut self) {
        self.findings
            .sort_by_key(|f| if f.severity == Severity::Fail { 0 } else { 1 });
    }
}

/// Relative change from `base` to `cand` (`+0.25` = 25% higher); zero
/// when the baseline is zero and the candidate is too.
fn rel_change(base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        if cand == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cand - base) / base
    }
}

fn pct(x: f64) -> String {
    if x.is_infinite() {
        "new".into()
    } else {
        format!("{:+.1}%", x * 100.0)
    }
}

/// Gates a regenerated e2e bench (`candidate`) against the committed
/// one (`baseline`), both as JSON text. See the module docs for the
/// checks.
pub fn gate_e2e(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    let base: Vec<E2eRecord> =
        serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let cand: Vec<E2eRecord> =
        serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let mut report = GateReport::default();
    report.table.push_str(
        "| scheme | pps | svc ms | throughput (pps) | Δ | p95 latency (ms) | Δ | success | Δ |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let mut matched = 0usize;
    for c in &cand {
        let Some(b) = base.iter().find(|b| b.key() == c.key()) else {
            report.warn(format!(
                "no committed baseline for {} @ {} pps (nodes {}, service {}ms) — new configuration?",
                c.scheme, c.offered_pps, c.nodes, c.service_time_ms
            ));
            continue;
        };
        matched += 1;
        let d_tput = rel_change(b.throughput_pps, c.throughput_pps);
        let d_p95 = rel_change(b.p95_latency_ms, c.p95_latency_ms);
        let d_ratio = rel_change(b.success_ratio, c.success_ratio);
        report.table.push_str(&format!(
            "| {} | {} | {} | {:.1} → {:.1} | {} | {:.1} → {:.1} | {} | {:.1}% → {:.1}% | {} |\n",
            c.scheme,
            c.offered_pps,
            c.service_time_ms,
            b.throughput_pps,
            c.throughput_pps,
            pct(d_tput),
            b.p95_latency_ms,
            c.p95_latency_ms,
            pct(d_p95),
            b.success_ratio * 100.0,
            c.success_ratio * 100.0,
            pct(d_ratio),
        ));
        if d_tput < -MAX_REGRESSION {
            report.fail(format!(
                "{} @ {} pps: delivered throughput regressed {} ({:.2} → {:.2} pps)",
                c.scheme,
                c.offered_pps,
                pct(d_tput),
                b.throughput_pps,
                c.throughput_pps
            ));
        }
        if d_p95 > MAX_REGRESSION {
            report.fail(format!(
                "{} @ {} pps: p95 completion latency regressed {} ({:.1} → {:.1} ms)",
                c.scheme,
                c.offered_pps,
                pct(d_p95),
                b.p95_latency_ms,
                c.p95_latency_ms
            ));
        }
        if d_ratio < -MAX_REGRESSION {
            report.fail(format!(
                "{} @ {} pps: success ratio regressed {} ({:.1}% → {:.1}%)",
                c.scheme,
                c.offered_pps,
                pct(d_ratio),
                b.success_ratio * 100.0,
                c.success_ratio * 100.0
            ));
        }
        let d_eps = rel_change(b.events_per_sec, c.events_per_sec);
        if b.events_per_sec > 0.0 && c.events_per_sec > 0.0 && d_eps < -MAX_REGRESSION {
            report.warn(format!(
                "{} @ {} pps: engine events/sec down {} ({:.0} → {:.0}) — \
                 hot-loop churn suspect; warn-only (CI hardware varies)",
                c.scheme,
                c.offered_pps,
                pct(d_eps),
                b.events_per_sec,
                c.events_per_sec
            ));
        }
    }
    for b in &base {
        if !cand.iter().any(|c| c.key() == b.key()) {
            report.warn(format!(
                "committed record {} @ {} pps (nodes {}, service {}ms) was not regenerated — lost coverage?",
                b.scheme, b.offered_pps, b.nodes, b.service_time_ms
            ));
        }
    }
    if matched == 0 && !base.is_empty() {
        report.fail(
            "no candidate record matches any committed record — \
             schema or configuration drift; regenerate the committed file"
                .into(),
        );
    }
    check_flat_latency(&cand, &mut report);
    report.sort();
    Ok(report)
}

/// The physical-suspicion check: within one (scheme, topology,
/// latency, service) configuration swept across a ≥4× offered-load
/// spread, *identical* p50/p95/p99 completion latencies mean latency
/// is not responding to load — the pre-service-queue engine's exact
/// failure mode.
fn check_flat_latency(records: &[E2eRecord], report: &mut GateReport) {
    let mut groups: Vec<(String, usize, usize, u64, u64)> = Vec::new();
    for r in records {
        if !groups.contains(&r.group()) {
            groups.push(r.group());
        }
    }
    for g in groups {
        let members: Vec<&E2eRecord> = records.iter().filter(|r| r.group() == g).collect();
        if members.len() < 2 {
            continue;
        }
        let min_pps = members
            .iter()
            .map(|r| r.offered_pps)
            .fold(f64::MAX, f64::min);
        let max_pps = members.iter().map(|r| r.offered_pps).fold(0.0, f64::max);
        if min_pps <= 0.0 || max_pps / min_pps < FLAT_LOAD_SPREAD {
            continue;
        }
        let first = members[0];
        let flat = members.iter().all(|r| {
            r.p50_latency_ms == first.p50_latency_ms
                && r.p95_latency_ms == first.p95_latency_ms
                && r.p99_latency_ms == first.p99_latency_ms
        });
        if flat {
            report.fail(format!(
                "physically suspicious: {} (nodes {}, service {}ms) reports identical \
                 p50/p95/p99 completion latency across a {:.0}× offered-load spread \
                 ({} → {} pps) — latency is not responding to load",
                first.scheme,
                first.nodes,
                first.service_time_ms,
                max_pps / min_pps,
                min_pps,
                max_pps
            ));
        }
    }
}

/// Gates a regenerated churn bench (`candidate`) against the committed
/// one (`baseline`), both as JSON text.
///
/// * **Regressions** — success ratio down >[`MAX_REGRESSION`] on a
///   matched (scheme, churn-rate) pair fails; p95 completion latency
///   only warns (latency tails under churn are legitimately sensitive
///   to re-probing behavior).
/// * **Shape** — within each (scheme, load, topology, delay)
///   configuration, the candidate must sweep **at least three** churn
///   rates and the success ratio must *strictly* decrease as the rate
///   rises. A flat or non-monotone curve fails as physically
///   suspicious: either churn events are not reaching the engine, or
///   the sweep no longer stresses it.
/// * **Zero-churn purity** — a `closes_per_sec = 0` record reporting
///   nonzero churn counters fails: the empty schedule must stay
///   bit-exact.
pub fn gate_churn(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    let base: Vec<ChurnRecord> =
        serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let cand: Vec<ChurnRecord> =
        serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let mut report = GateReport::default();
    report.table.push_str(
        "| scheme | closes/s | success | Δ | p95 latency (ms) | Δ | closed | reprobes |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut matched = 0usize;
    for c in &cand {
        let Some(b) = base.iter().find(|b| b.key() == c.key()) else {
            report.warn(format!(
                "no committed baseline for {} @ {} closes/s (nodes {}, {} pps) — new configuration?",
                c.scheme, c.closes_per_sec, c.nodes, c.offered_pps
            ));
            continue;
        };
        matched += 1;
        let d_ratio = rel_change(b.success_ratio, c.success_ratio);
        let d_p95 = rel_change(b.p95_latency_ms, c.p95_latency_ms);
        report.table.push_str(&format!(
            "| {} | {} | {:.1}% → {:.1}% | {} | {:.1} → {:.1} | {} | {} | {} |\n",
            c.scheme,
            c.closes_per_sec,
            b.success_ratio * 100.0,
            c.success_ratio * 100.0,
            pct(d_ratio),
            b.p95_latency_ms,
            c.p95_latency_ms,
            pct(d_p95),
            c.closed_channels,
            c.reprobes_triggered,
        ));
        if d_ratio < -MAX_REGRESSION {
            report.fail(format!(
                "{} @ {} closes/s: success ratio regressed {} ({:.1}% → {:.1}%)",
                c.scheme,
                c.closes_per_sec,
                pct(d_ratio),
                b.success_ratio * 100.0,
                c.success_ratio * 100.0
            ));
        }
        if d_p95 > MAX_REGRESSION {
            report.warn(format!(
                "{} @ {} closes/s: p95 completion latency up {} ({:.1} → {:.1} ms) — \
                 warn-only (churn latency tails are re-probing-sensitive)",
                c.scheme,
                c.closes_per_sec,
                pct(d_p95),
                b.p95_latency_ms,
                c.p95_latency_ms
            ));
        }
    }
    for b in &base {
        if !cand.iter().any(|c| c.key() == b.key()) {
            report.warn(format!(
                "committed record {} @ {} closes/s was not regenerated — lost coverage?",
                b.scheme, b.closes_per_sec
            ));
        }
    }
    if matched == 0 && !base.is_empty() {
        report.fail(
            "no candidate record matches any committed record — \
             schema or configuration drift; regenerate the committed file"
                .into(),
        );
    }
    check_churn_shape(&cand, &mut report);
    report.sort();
    Ok(report)
}

/// The churn physical-suspicion check: each configuration must sweep
/// ≥3 churn rates and success must strictly fall as churn rises.
fn check_churn_shape(records: &[ChurnRecord], report: &mut GateReport) {
    let mut groups: Vec<(String, usize, usize, u64, u64, u64)> = Vec::new();
    for r in records {
        if !groups.contains(&r.group()) {
            groups.push(r.group());
        }
    }
    for g in groups {
        let mut members: Vec<&ChurnRecord> = records.iter().filter(|r| r.group() == g).collect();
        members.sort_by_key(|r| r.closes_per_sec.to_bits());
        if members.len() < 3 {
            report.fail(format!(
                "{} (nodes {}, {} pps): only {} churn rate(s) swept — \
                 the shape check needs at least 3",
                members[0].scheme,
                members[0].nodes,
                members[0].offered_pps,
                members.len()
            ));
            continue;
        }
        for w in members.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi.success_ratio >= lo.success_ratio {
                report.fail(format!(
                    "physically suspicious: {} success ratio does not strictly degrade \
                     with churn ({:.1}% @ {} closes/s vs {:.1}% @ {} closes/s) — \
                     churn is not reaching the engine or the sweep no longer stresses it",
                    hi.scheme,
                    lo.success_ratio * 100.0,
                    lo.closes_per_sec,
                    hi.success_ratio * 100.0,
                    hi.closes_per_sec
                ));
            }
        }
        for r in &members {
            if r.closes_per_sec == 0.0 && (r.closed_channels != 0 || r.stale_probe_failures != 0) {
                report.fail(format!(
                    "{}: zero-churn record reports churn activity \
                     ({} closed, {} stale probe failures) — the empty schedule must be exact",
                    r.scheme, r.closed_channels, r.stale_probe_failures
                ));
            }
        }
    }
}

/// Gates a regenerated testbed bench (`candidate`) against the
/// committed one (`baseline`), both as JSON text.
///
/// * **Regressions** — success ratio down >[`MAX_REGRESSION`] on a
///   matched (scheme, nodes, payments) pair fails; probe+commit
///   message growth beyond [`MAX_REGRESSION`] and wall-derived
///   `events_per_sec` drops only warn.
/// * **Conservation** — each candidate record must report
///   `wire_in == wire_out` (every frame sent was received at
///   quiescence) and `escrow_end == 0` (every commit settled). Either
///   violation fails regardless of how the diff looks.
/// * **Scale** — the candidate must include at least one ≥200-node
///   record: the single-process scale acceptance check must stay in
///   the committed trajectory.
/// * **Liveness** — a record with `success_ratio == 0` fails: a trace
///   that exercises no successes measures nothing.
/// * **Reactor cost** — a candidate record spending more than
///   [`MAX_SOCKET_OPS_PER_FRAME`] socket calls per wire frame fails,
///   and so does a scheme whose ≥200-node record spends more than
///   [`MAX_SOCKET_OPS_SCALE`]× what its smallest record does: moving a
///   frame one hop costs one `write` and one `read`, however many
///   nodes the process hosts. A reactor that scans every socket each
///   pass breaks both (hundreds of calls per frame, doubling from 60
///   to 200 nodes) while every other field stays identical.
pub fn gate_testbed(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    let base: Vec<TestbedRecord> =
        serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let cand: Vec<TestbedRecord> =
        serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let mut report = GateReport::default();
    report.table.push_str(
        "| scheme | nodes | success | Δ | messages | Δ | events/s | Δ |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut matched = 0usize;
    for c in &cand {
        let Some(b) = base.iter().find(|b| b.key() == c.key()) else {
            report.warn(format!(
                "no committed baseline for {} @ {} nodes ({} payments) — new configuration?",
                c.scheme, c.nodes, c.payments
            ));
            continue;
        };
        matched += 1;
        let b_msgs = b.probe_messages + b.commit_messages;
        let c_msgs = c.probe_messages + c.commit_messages;
        let d_ratio = rel_change(b.success_ratio, c.success_ratio);
        let d_msgs = rel_change(b_msgs as f64, c_msgs as f64);
        let d_eps = rel_change(b.events_per_sec, c.events_per_sec);
        report.table.push_str(&format!(
            "| {} | {} | {:.1}% → {:.1}% | {} | {} → {} | {} | {:.0} → {:.0} | {} |\n",
            c.scheme,
            c.nodes,
            b.success_ratio * 100.0,
            c.success_ratio * 100.0,
            pct(d_ratio),
            b_msgs,
            c_msgs,
            pct(d_msgs),
            b.events_per_sec,
            c.events_per_sec,
            pct(d_eps),
        ));
        if d_ratio < -MAX_REGRESSION {
            report.fail(format!(
                "{} @ {} nodes: success ratio regressed {} ({:.1}% → {:.1}%)",
                c.scheme,
                c.nodes,
                pct(d_ratio),
                b.success_ratio * 100.0,
                c.success_ratio * 100.0
            ));
        }
        if d_msgs > MAX_REGRESSION {
            report.warn(format!(
                "{} @ {} nodes: probe+commit messages up {} ({} → {}) — \
                 message-budget drift; check probing changes",
                c.scheme,
                c.nodes,
                pct(d_msgs),
                b_msgs,
                c_msgs
            ));
        }
        if b.events_per_sec > 0.0 && c.events_per_sec > 0.0 && d_eps < -MAX_REGRESSION {
            report.warn(format!(
                "{} @ {} nodes: wire events/sec down {} ({:.0} → {:.0}) — \
                 event-loop throughput suspect; warn-only (CI hardware varies)",
                c.scheme,
                c.nodes,
                pct(d_eps),
                b.events_per_sec,
                c.events_per_sec
            ));
        }
    }
    for b in &base {
        if !cand.iter().any(|c| c.key() == b.key()) {
            report.warn(format!(
                "committed record {} @ {} nodes was not regenerated — lost coverage?",
                b.scheme, b.nodes
            ));
        }
    }
    if matched == 0 && !base.is_empty() {
        report.fail(
            "no candidate record matches any committed record — \
             schema or configuration drift; regenerate the committed file"
                .into(),
        );
    }
    check_testbed_shape(&cand, &mut report);
    report.sort();
    Ok(report)
}

/// Most socket calls the testbed reactor may spend per wire frame
/// (about two when it polls only what it wrote to).
pub const MAX_SOCKET_OPS_PER_FRAME: f64 = 8.0;

/// Most a scheme's socket calls per frame may grow from its smallest
/// record to a ≥200-node one.
pub const MAX_SOCKET_OPS_SCALE: f64 = 1.5;

/// The testbed physical-suspicion checks: per-record wire conservation
/// and settled escrow, the ≥200-node scale record, and a reactor cost
/// per frame that is small and flat in the node count.
fn check_testbed_shape(records: &[TestbedRecord], report: &mut GateReport) {
    for r in records {
        if r.socket_ops_per_frame > MAX_SOCKET_OPS_PER_FRAME {
            report.fail(format!(
                "{} @ {} nodes: {:.1} socket calls per wire frame (limit {}) — \
                 the reactor is polling sockets nothing was written to",
                r.scheme, r.nodes, r.socket_ops_per_frame, MAX_SOCKET_OPS_PER_FRAME
            ));
        }
        if r.nodes >= 200 {
            let smallest = records
                .iter()
                .filter(|o| o.scheme == r.scheme)
                .min_by_key(|o| o.nodes)
                .unwrap_or(r);
            if r.socket_ops_per_frame > MAX_SOCKET_OPS_SCALE * smallest.socket_ops_per_frame {
                report.fail(format!(
                    "{}: {:.2} socket calls per wire frame @ {} nodes against {:.2} @ {} \
                     (limit {}×) — the reactor's cost per frame grows with the cluster",
                    r.scheme,
                    r.socket_ops_per_frame,
                    r.nodes,
                    smallest.socket_ops_per_frame,
                    smallest.nodes,
                    MAX_SOCKET_OPS_SCALE
                ));
            }
        }
        if r.wire_in != r.wire_out {
            report.fail(format!(
                "physically suspicious: {} @ {} nodes sent {} wire frames but received {} — \
                 frames were lost inside a fault-free cluster",
                r.scheme, r.nodes, r.wire_out, r.wire_in
            ));
        }
        if r.escrow_end != 0 {
            report.fail(format!(
                "physically suspicious: {} @ {} nodes ended with {} µ-units still escrowed — \
                 some commit was never confirmed or reversed",
                r.scheme, r.nodes, r.escrow_end
            ));
        }
        if r.success_ratio == 0.0 {
            report.fail(format!(
                "{} @ {} nodes: nothing succeeded — the trace exercises no settlement path",
                r.scheme, r.nodes
            ));
        }
    }
    if !records.is_empty() && !records.iter().any(|r| r.nodes >= 200) {
        report.fail(
            "no ≥200-node record in the candidate — the single-process scale \
             acceptance check is gone from the trajectory"
                .into(),
        );
    }
}

/// Gates a regenerated max-flow bench against the committed one, both
/// as JSON text. Flow values are hard-gated (they are deterministic);
/// wall-clock *deltas* against the baseline only warn. Within-run
/// wall-time ratios hard-fail on shape: the fastest non-oracle kernel
/// must beat the Edmonds–Karp oracle on every topology (by >2× on
/// ≥1000-node lightning-scale topologies), and where a warm-vs-cold
/// pair was recorded, `warm-start` must beat `cold-restart` and carry
/// an identical total flow.
pub fn gate_maxflow(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    let base: Vec<MaxflowRecord> =
        serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let cand: Vec<MaxflowRecord> =
        serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let mut report = GateReport::default();
    report
        .table
        .push_str("| topology | kernel | ns/pair | Δ | total flow |\n|---|---|---|---|---|\n");
    let mut matched = 0usize;
    for c in &cand {
        let Some(b) = base.iter().find(|b| b.key() == c.key()) else {
            report.warn(format!(
                "no committed baseline for {} / {}",
                c.topology, c.kernel
            ));
            continue;
        };
        matched += 1;
        let d_ns = rel_change(b.mean_ns_per_pair as f64, c.mean_ns_per_pair as f64);
        let flow_note = if c.total_flow == b.total_flow {
            format!("{}", c.total_flow)
        } else {
            format!("{} → {} ✗", b.total_flow, c.total_flow)
        };
        report.table.push_str(&format!(
            "| {} | {} | {} → {} | {} | {} |\n",
            c.topology,
            c.kernel,
            b.mean_ns_per_pair,
            c.mean_ns_per_pair,
            pct(d_ns),
            flow_note
        ));
        if c.total_flow != b.total_flow {
            report.fail(format!(
                "{} / {}: total flow drifted {} → {} — kernels are deterministic, \
                 this is a correctness change",
                c.topology, c.kernel, b.total_flow, c.total_flow
            ));
        }
        if d_ns > MAX_REGRESSION {
            report.warn(format!(
                "{} / {}: mean wall time per pair up {} ({} → {} ns) — \
                 warn-only (CI hardware varies)",
                c.topology,
                c.kernel,
                pct(d_ns),
                b.mean_ns_per_pair,
                c.mean_ns_per_pair
            ));
        }
    }
    for b in &base {
        if !cand.iter().any(|c| c.key() == b.key()) {
            report.warn(format!(
                "committed record {} / {} was not regenerated — lost coverage?",
                b.topology, b.kernel
            ));
        }
    }
    if matched == 0 && !base.is_empty() {
        report.fail(
            "no candidate record matches any committed record — \
             schema or configuration drift; regenerate the committed file"
                .into(),
        );
    }

    // Shape checks on the candidate alone (they fail even against
    // itself): the kernels exist to beat the oracle, and warm-start
    // exists to beat a cold restart. Both are wall-time *ratios within
    // one run* on one machine, so unlike the absolute deltas above they
    // are robust to CI hardware variance and can hard-fail.
    let mut topologies: Vec<&str> = Vec::new();
    for c in &cand {
        if !topologies.contains(&c.topology.as_str()) {
            topologies.push(&c.topology);
        }
    }
    for topo in topologies {
        let recs: Vec<&MaxflowRecord> = cand.iter().filter(|c| c.topology == topo).collect();
        let oracle = recs.iter().find(|r| r.kernel == "edmonds-karp");
        let fastest = recs
            .iter()
            .filter(|r| {
                !matches!(
                    r.kernel.as_str(),
                    "edmonds-karp" | "warm-start" | "cold-restart"
                )
            })
            .min_by_key(|r| (r.mean_ns_per_pair, &r.kernel));
        if let (Some(o), Some(f)) = (oracle, fastest) {
            if f.mean_ns_per_pair >= o.mean_ns_per_pair {
                report.fail(format!(
                    "{topo}: fastest kernel {} ({} ns/pair) does not beat the \
                     Edmonds–Karp oracle ({} ns/pair) — the hot path has no \
                     reason to exist; see docs/maxflow.md",
                    f.kernel, f.mean_ns_per_pair, o.mean_ns_per_pair
                ));
            } else if topo.contains("lightning")
                && f.nodes >= 1000
                && f.mean_ns_per_pair.saturating_mul(2) > o.mean_ns_per_pair
            {
                report.fail(format!(
                    "{topo}: fastest kernel {} ({} ns/pair) beats the oracle \
                     ({} ns/pair) by less than 2× at lightning scale — the \
                     ROADMAP win condition regressed",
                    f.kernel, f.mean_ns_per_pair, o.mean_ns_per_pair
                ));
            }
        }
        let warm = recs.iter().find(|r| r.kernel == "warm-start");
        let cold = recs.iter().find(|r| r.kernel == "cold-restart");
        if let (Some(w), Some(c)) = (warm, cold) {
            if w.total_flow != c.total_flow {
                report.fail(format!(
                    "{topo}: warm-start total flow {} != cold-restart total flow {} \
                     — incremental re-solve is computing a different flow",
                    w.total_flow, c.total_flow
                ));
            }
            if w.mean_ns_per_pair >= c.mean_ns_per_pair {
                report.fail(format!(
                    "{topo}: warm-start ({} ns/batch) is not faster than a cold \
                     restart ({} ns/batch) — the incremental path has no reason \
                     to exist",
                    w.mean_ns_per_pair, c.mean_ns_per_pair
                ));
            }
        }
    }
    report.sort();
    Ok(report)
}
