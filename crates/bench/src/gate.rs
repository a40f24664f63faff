//! The bench-regression gate: diffs regenerated bench results against
//! the committed `BENCH_e2e.json` / `BENCH_maxflow.json` /
//! `BENCH_churn.json` / `BENCH_testbed.json` trajectories.
//!
//! One driver, [`gate`], runs every family. What differs per family is
//! a description ([`Family`]): the configuration key records pair up
//! on, the delta table, and a shape function.
//!
//! * **Regression deltas** — a matched pair is compared metric by
//!   metric against the family's [`Delta`] table: which way the metric
//!   gets worse, how much is tolerated, and whether crossing it fails
//!   or only warns. *Virtual* (deterministic) metrics fail beyond
//!   [`MAX_REGRESSION`]; max-flow values must be **identical** (any
//!   drift is a kernel bug); wall-derived metrics (`events_per_sec`,
//!   `mean_ns_per_pair`) only warn — CI runners are too noisy for a
//!   hard wall-time gate.
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
//!   scheme — a flat curve means churn events are not actually
//!   reaching the engine. The testbed bench checks conservation and a
//!   reactor cost per frame that is small and flat in the node count.
//!   The max-flow bench hard-fails on a within-run wall-time *ratio*
//!   (robust to runner speed, unlike absolute deltas): push-relabel
//!   must beat the Edmonds–Karp oracle everywhere, by >2× on the
//!   ≥1000-node lightning-scale topology.
//!
//! This module is pure string-in/report-out so the gate itself is
//! testable — `crates/bench/tests/gate.rs` replays one rejection
//! fixture per shape rule. The `bench_gate` binary wraps it with file
//! IO, a Markdown delta table for `$GITHUB_STEP_SUMMARY`, and a process
//! exit code.

use crate::record::{ChurnRecord, E2eRecord, MaxflowRecord, TestbedRecord};
use serde::Deserialize;

/// Maximum tolerated relative regression on matched virtual metrics
/// (0.25 = 25%).
pub const MAX_REGRESSION: f64 = 0.25;

/// Minimum offered-load spread (max/min pps within one configuration)
/// above which identical latency percentiles are physically suspicious.
pub const FLAT_LOAD_SPREAD: f64 = 4.0;

/// Most socket calls the testbed reactor may spend per wire frame
/// (about two when it polls only what it wrote to).
pub const MAX_SOCKET_OPS_PER_FRAME: f64 = 8.0;

/// Most a scheme's socket calls per frame may grow from its smallest
/// record to a ≥200-node one.
pub const MAX_SOCKET_OPS_SCALE: f64 = 1.5;

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

    fn push(&mut self, severity: Severity, message: String) {
        self.findings.push(Finding { severity, message });
    }

    fn fail(&mut self, message: String) {
        self.push(Severity::Fail, message);
    }
}

/// Which way a gated metric gets worse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worse {
    /// A rise is the regression (latency, message counts, wall time).
    Higher,
    /// A drop is the regression (throughput, success ratio).
    Lower,
    /// Any change is (deterministic values that must reproduce).
    Changed,
}

/// One row of a family's delta table: a metric compared between a
/// committed record and the regenerated record with the same key.
pub struct Delta<R> {
    /// The metric, as findings and the table header spell it.
    pub metric: &'static str,
    /// Reads it off a record.
    pub value: fn(&R) -> f64,
    /// Renders a value, with its unit, for the table and for findings.
    pub show: fn(f64) -> String,
    /// The direction that counts as a regression.
    pub worse: Worse,
    /// Relative change tolerated in that direction.
    pub tolerance: f64,
    /// What crossing the tolerance does. [`Severity::Warn`] rows are the
    /// wall-derived and noise-prone metrics; a zero on either side (a
    /// field older artifacts lack) is not comparable and stays silent.
    pub severity: Severity,
    /// Appended to the finding: what the change means, or why it only
    /// warns. Empty, or starts with ` — `.
    pub note: &'static str,
}

/// A descriptive table column: its heading and how to read the cell off
/// a record.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// What the one driver needs to know about a bench family.
pub trait Family: Sized + 'static + for<'de> Deserialize<'de> {
    /// The full configuration a record was measured under.
    type Key: PartialEq;

    /// Leading table columns, read off the regenerated record.
    const COLUMNS: &'static [Column<Self>];

    /// The gated metrics; each also becomes a `base → new | Δ` column
    /// pair of the table.
    const DELTAS: &'static [Delta<Self>];

    /// Committed and regenerated records pair up when their keys match.
    fn key(&self) -> Self::Key;

    /// How findings name the record: `Flash @ 50 pps`.
    fn label(&self) -> String;

    /// [`Family::label`] plus the rest of the configuration, for the
    /// unmatched-record warnings.
    fn config(&self) -> String {
        self.label()
    }

    /// The physical-suspicion rules, checked on the regenerated records
    /// alone — they fail even against an identical baseline.
    fn check_shape(candidate: &[Self], report: &mut GateReport);
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

/// Gates a regenerated bench (`candidate`) of family `R` against the
/// committed one (`baseline`), both as JSON text. See the module docs
/// for the checks.
pub fn gate<R: Family>(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    let base: Vec<R> = serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let cand: Vec<R> = serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let mut report = GateReport::default();

    let mut header: Vec<&str> = R::COLUMNS.iter().map(|&(name, _)| name).collect();
    for d in R::DELTAS {
        header.extend([d.metric, "Δ"]);
    }
    report.table = format!(
        "| {} |\n|{}\n",
        header.join(" | "),
        "---|".repeat(header.len())
    );

    let mut matched = 0usize;
    for c in &cand {
        let key = c.key();
        let Some(b) = base.iter().find(|b| b.key() == key) else {
            report.push(
                Severity::Warn,
                format!(
                    "no committed baseline for {} — new configuration?",
                    c.config()
                ),
            );
            continue;
        };
        matched += 1;
        let mut cells: Vec<String> = R::COLUMNS.iter().map(|&(_, cell)| cell(c)).collect();
        for d in R::DELTAS {
            let (bv, cv) = ((d.value)(b), (d.value)(c));
            let change = rel_change(bv, cv);
            let shown = format!("{} → {}", (d.show)(bv), (d.show)(cv));
            let comparable = d.severity == Severity::Fail || (bv != 0.0 && cv != 0.0);
            let crossed = match d.worse {
                Worse::Higher => change > d.tolerance,
                Worse::Lower => change < -d.tolerance,
                Worse::Changed => change.abs() > d.tolerance,
            };
            if comparable && crossed {
                let verb = match (d.worse, d.severity) {
                    (Worse::Changed, _) => "drifted",
                    (_, Severity::Fail) => "regressed",
                    (Worse::Higher, Severity::Warn) => "up",
                    (Worse::Lower, Severity::Warn) => "down",
                };
                report.push(
                    d.severity,
                    format!(
                        "{}: {} {verb} {} ({shown}){}",
                        c.label(),
                        d.metric,
                        pct(change),
                        d.note
                    ),
                );
            }
            cells.extend([shown, pct(change)]);
        }
        report
            .table
            .push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    for b in &base {
        if !cand.iter().any(|c| c.key() == b.key()) {
            report.push(
                Severity::Warn,
                format!(
                    "committed record {} was not regenerated — lost coverage?",
                    b.config()
                ),
            );
        }
    }
    if matched == 0 && !base.is_empty() {
        report.fail(
            "no candidate record matches any committed record — \
             schema or configuration drift; regenerate the committed file"
                .into(),
        );
    }
    R::check_shape(&cand, &mut report);
    report
        .findings
        .sort_by_key(|f| if f.severity == Severity::Fail { 0 } else { 1 });
    Ok(report)
}

/// Splits `records` into the groups sharing `group_key`, in first-seen
/// order — one group per configuration a shape rule sweeps within.
fn grouped<R, K: PartialEq>(records: &[R], group_key: impl Fn(&R) -> K) -> Vec<Vec<&R>> {
    let mut groups: Vec<(K, Vec<&R>)> = Vec::new();
    for r in records {
        let k = group_key(r);
        match groups.iter_mut().find(|(gk, _)| *gk == k) {
            Some((_, members)) => members.push(r),
            None => groups.push((k, vec![r])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

fn show_percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn show_ms(x: f64) -> String {
    format!("{x:.1} ms")
}

fn show_count(x: f64) -> String {
    format!("{x:.0}")
}

/// Success ratio down more than [`MAX_REGRESSION`] fails, in every
/// family that reports one.
const fn success_ratio<R>(value: fn(&R) -> f64) -> Delta<R> {
    Delta {
        metric: "success ratio",
        value,
        show: show_percent,
        worse: Worse::Lower,
        tolerance: MAX_REGRESSION,
        severity: Severity::Fail,
        note: "",
    }
}

impl Family for E2eRecord {
    type Key = (String, usize, usize, u64, u64, u64);

    const COLUMNS: &'static [Column<Self>] = &[
        ("scheme", |r| r.scheme.clone()),
        ("pps", |r| r.offered_pps.to_string()),
        ("svc ms", |r| r.service_time_ms.to_string()),
    ];

    const DELTAS: &'static [Delta<Self>] = &[
        Delta {
            metric: "delivered throughput",
            value: |r| r.throughput_pps,
            show: |x| format!("{x:.2} pps"),
            worse: Worse::Lower,
            tolerance: MAX_REGRESSION,
            severity: Severity::Fail,
            note: "",
        },
        Delta {
            metric: "p95 completion latency",
            value: |r| r.p95_latency_ms,
            show: show_ms,
            worse: Worse::Higher,
            tolerance: MAX_REGRESSION,
            severity: Severity::Fail,
            note: "",
        },
        success_ratio(|r| r.success_ratio),
        Delta {
            metric: "engine events/sec",
            value: |r| r.events_per_sec,
            show: show_count,
            worse: Worse::Lower,
            tolerance: MAX_REGRESSION,
            severity: Severity::Warn,
            note: " — hot-loop churn suspect; warn-only (CI hardware varies)",
        },
    ];

    fn key(&self) -> Self::Key {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.offered_pps.to_bits(),
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }

    fn label(&self) -> String {
        format!("{} @ {} pps", self.scheme, self.offered_pps)
    }

    fn config(&self) -> String {
        format!(
            "{} (nodes {}, service {}ms)",
            self.label(),
            self.nodes,
            self.service_time_ms
        )
    }

    /// Within one (scheme, topology, latency, service) configuration
    /// swept across a ≥[`FLAT_LOAD_SPREAD`]× offered-load spread,
    /// *identical* p50/p95/p99 completion latencies mean latency is not
    /// responding to load — the pre-service-queue engine's exact
    /// failure mode.
    fn check_shape(records: &[Self], report: &mut GateReport) {
        let config = |r: &Self| {
            (
                r.scheme.clone(),
                r.nodes,
                r.payments,
                r.hop_latency_ms,
                r.service_time_ms,
            )
        };
        for members in grouped(records, config) {
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
}

impl Family for ChurnRecord {
    type Key = (String, usize, usize, u64, u64, u64, u64);

    const COLUMNS: &'static [Column<Self>] = &[
        ("scheme", |r| r.scheme.clone()),
        ("closes/s", |r| r.closes_per_sec.to_string()),
        ("closed", |r| r.closed_channels.to_string()),
        ("reprobes", |r| r.reprobes_triggered.to_string()),
    ];

    const DELTAS: &'static [Delta<Self>] = &[
        success_ratio(|r| r.success_ratio),
        Delta {
            metric: "p95 completion latency",
            value: |r| r.p95_latency_ms,
            show: show_ms,
            worse: Worse::Higher,
            tolerance: MAX_REGRESSION,
            severity: Severity::Warn,
            note: " — warn-only (churn latency tails are re-probing-sensitive)",
        },
    ];

    fn key(&self) -> Self::Key {
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

    fn label(&self) -> String {
        format!("{} @ {} closes/s", self.scheme, self.closes_per_sec)
    }

    fn config(&self) -> String {
        format!(
            "{} (nodes {}, {} pps)",
            self.label(),
            self.nodes,
            self.offered_pps
        )
    }

    /// Within each (scheme, load, topology, delay) configuration the
    /// candidate must sweep **at least three** churn rates and success
    /// must *strictly* fall as the rate rises — otherwise churn events
    /// are not reaching the engine, or the sweep no longer stresses it.
    /// A zero-rate record reporting churn activity fails too: the empty
    /// schedule must stay bit-exact.
    fn check_shape(records: &[Self], report: &mut GateReport) {
        let config = |r: &Self| {
            (
                r.scheme.clone(),
                r.nodes,
                r.payments,
                r.offered_pps.to_bits(),
                r.hop_latency_ms,
                r.service_time_ms,
            )
        };
        for mut members in grouped(records, config) {
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
                if r.closes_per_sec == 0.0
                    && (r.closed_channels != 0 || r.stale_probe_failures != 0)
                {
                    report.fail(format!(
                        "{}: zero-churn record reports churn activity \
                         ({} closed, {} stale probe failures) — the empty schedule must be exact",
                        r.scheme, r.closed_channels, r.stale_probe_failures
                    ));
                }
            }
        }
    }
}

impl Family for TestbedRecord {
    type Key = (String, usize, usize);

    const COLUMNS: &'static [Column<Self>] = &[
        ("scheme", |r| r.scheme.clone()),
        ("nodes", |r| r.nodes.to_string()),
    ];

    const DELTAS: &'static [Delta<Self>] = &[
        success_ratio(|r| r.success_ratio),
        Delta {
            metric: "probe+commit messages",
            value: |r| (r.probe_messages + r.commit_messages) as f64,
            show: show_count,
            worse: Worse::Higher,
            tolerance: MAX_REGRESSION,
            severity: Severity::Warn,
            note: " — message-budget drift; check probing changes",
        },
        Delta {
            metric: "wire events/sec",
            value: |r| r.events_per_sec,
            show: show_count,
            worse: Worse::Lower,
            tolerance: MAX_REGRESSION,
            severity: Severity::Warn,
            note: " — event-loop throughput suspect; warn-only (CI hardware varies)",
        },
    ];

    fn key(&self) -> Self::Key {
        (self.scheme.clone(), self.nodes, self.payments)
    }

    fn label(&self) -> String {
        format!("{} @ {} nodes", self.scheme, self.nodes)
    }

    fn config(&self) -> String {
        format!("{} ({} payments)", self.label(), self.payments)
    }

    /// Per record: **conservation** (`wire_in == wire_out`, every frame
    /// sent was received at quiescence; `escrow_end == 0`, every commit
    /// settled), **liveness** (something succeeded) and **reactor
    /// cost** — moving a frame one hop costs one `write` and one
    /// `read`, however many nodes the process hosts, so more than
    /// [`MAX_SOCKET_OPS_PER_FRAME`] calls per frame fails, and so does
    /// a ≥200-node record spending more than [`MAX_SOCKET_OPS_SCALE`]×
    /// what its scheme's smallest record does. A reactor that scans
    /// every socket each pass breaks both while every other field stays
    /// identical. Across records: the ≥200-node **scale** point must
    /// stay in the trajectory.
    fn check_shape(records: &[Self], report: &mut GateReport) {
        for r in records {
            if r.socket_ops_per_frame > MAX_SOCKET_OPS_PER_FRAME {
                report.fail(format!(
                    "{}: {:.1} socket calls per wire frame (limit {}) — \
                     the reactor is polling sockets nothing was written to",
                    r.label(),
                    r.socket_ops_per_frame,
                    MAX_SOCKET_OPS_PER_FRAME
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
                    "physically suspicious: {} sent {} wire frames but received {} — \
                     frames were lost inside a fault-free cluster",
                    r.label(),
                    r.wire_out,
                    r.wire_in
                ));
            }
            if r.escrow_end != 0 {
                report.fail(format!(
                    "physically suspicious: {} ended with {} µ-units still escrowed — \
                     some commit was never confirmed or reversed",
                    r.label(),
                    r.escrow_end
                ));
            }
            if r.success_ratio == 0.0 {
                report.fail(format!(
                    "{}: nothing succeeded — the trace exercises no settlement path",
                    r.label()
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
}

/// The kernel name of the differential oracle in `BENCH_maxflow.json`.
const ORACLE_KERNEL: &str = "edmonds-karp";

impl Family for MaxflowRecord {
    type Key = (String, usize, usize, String, usize, usize);

    const COLUMNS: &'static [Column<Self>] = &[
        ("topology", |r| r.topology.clone()),
        ("kernel", |r| r.kernel.clone()),
    ];

    const DELTAS: &'static [Delta<Self>] = &[
        Delta {
            metric: "total flow",
            value: |r| r.total_flow as f64,
            show: show_count,
            worse: Worse::Changed,
            tolerance: 0.0,
            severity: Severity::Fail,
            note: " — kernels are deterministic, this is a correctness change",
        },
        Delta {
            metric: "mean wall time per pair",
            value: |r| r.mean_ns_per_pair as f64,
            show: |x| format!("{x:.0} ns"),
            worse: Worse::Higher,
            tolerance: MAX_REGRESSION,
            severity: Severity::Warn,
            note: " — warn-only (CI hardware varies)",
        },
    ];

    fn key(&self) -> Self::Key {
        (
            self.topology.clone(),
            self.nodes,
            self.directed_edges,
            self.kernel.clone(),
            self.pairs,
            self.iters_per_pair,
        )
    }

    fn label(&self) -> String {
        format!("{} / {}", self.topology, self.kernel)
    }

    /// The kernel exists to beat the oracle: on every topology the
    /// fastest non-oracle kernel must be faster than Edmonds–Karp, and
    /// more than 2× faster on ≥1000-node lightning-scale topologies. A
    /// wall-time *ratio within one run* on one machine, so unlike the
    /// absolute deltas it is robust to CI hardware variance and can
    /// hard-fail.
    fn check_shape(records: &[Self], report: &mut GateReport) {
        for recs in grouped(records, |r| r.topology.clone()) {
            let topo = &recs[0].topology;
            let oracle = recs.iter().find(|r| r.kernel == ORACLE_KERNEL);
            let fastest = recs
                .iter()
                .filter(|r| r.kernel != ORACLE_KERNEL)
                .min_by_key(|r| (r.mean_ns_per_pair, &r.kernel));
            let (Some(o), Some(f)) = (oracle, fastest) else {
                continue;
            };
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
    }
}
