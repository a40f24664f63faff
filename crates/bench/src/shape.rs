//! The physical-suspicion rules: result *shapes* that are numerically
//! valid but physically implausible. Each is a plain function from a
//! family's records to findings (empty = healthy), run by the `bench`
//! binary on what it just produced (at smoke and at full scale) and by
//! `tests/committed.rs` on the regenerated smoke records. A rule reads
//! only the rows that carry its columns.
//!
//! The canonical case, and the regression that motivated the rules:
//! identical completion-latency percentiles across a
//! ≥[`FLAT_LOAD_SPREAD`]× offered-load spread. The pre-service-queue
//! engine committed exactly that — bit-identical p50/p95/p99 at 50 and
//! 400 pps — and nothing comparing the artifact with itself would ever
//! have objected. `crates/bench/tests/gate.rs` replays one rejection
//! fixture per rule.

use crate::record::RunRecord;

/// Minimum offered-load spread (max/min pps within one configuration)
/// above which identical latency percentiles are physically suspicious.
pub const FLAT_LOAD_SPREAD: f64 = 4.0;

/// Most socket calls the testbed reactor may spend per wire frame
/// (about two when it polls only what it wrote to).
pub const MAX_SOCKET_OPS_PER_FRAME: f64 = 8.0;

/// Most a scheme's socket calls per frame may grow from its smallest
/// record to a ≥200-node one.
pub const MAX_SOCKET_OPS_SCALE: f64 = 1.5;

/// Splits `records` into the groups sharing `group_key`, in first-seen
/// order — one group per configuration a shape rule sweeps within.
fn grouped<'a, K: PartialEq>(
    records: impl Iterator<Item = &'a RunRecord>,
    group_key: impl Fn(&RunRecord) -> K,
) -> Vec<Vec<&'a RunRecord>> {
    let mut groups: Vec<(K, Vec<&RunRecord>)> = Vec::new();
    for r in records {
        let k = group_key(r);
        match groups.iter_mut().find(|(gk, _)| *gk == k) {
            Some((_, members)) => members.push(r),
            None => groups.push((k, vec![r])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Within one (scheme, topology, latency, service) configuration swept
/// across a ≥[`FLAT_LOAD_SPREAD`]× offered-load spread, *identical*
/// p50/p95/p99 completion latencies mean latency is not responding to
/// load — the pre-service-queue engine's exact failure mode.
pub fn check_flat_latency(records: &[RunRecord]) -> Vec<String> {
    let mut findings = Vec::new();
    let config = |r: &RunRecord| {
        (
            r.scheme.clone(),
            r.nodes,
            r.payments,
            r.hop_latency_ms,
            r.service_time_ms,
        )
    };
    let loaded = records
        .iter()
        .filter(|r| r.offered_pps.is_some() && r.p50_latency_ms.is_some());
    for members in grouped(loaded, config) {
        if members.len() < 2 {
            continue;
        }
        let pps = || members.iter().filter_map(|r| r.offered_pps);
        let min_pps = pps().fold(f64::MAX, f64::min);
        let max_pps = pps().fold(0.0, f64::max);
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
            findings.push(format!(
                "physically suspicious: {} (nodes {}, service {}ms) reports identical \
                 p50/p95/p99 completion latency across a {:.0}× offered-load spread \
                 ({} → {} pps) — latency is not responding to load",
                first.scheme,
                first.nodes,
                first.service_time_ms.unwrap_or(0),
                max_pps / min_pps,
                min_pps,
                max_pps
            ));
        }
    }
    findings
}

/// Within each (scheme, load, topology, delay) configuration the
/// records must sweep **at least three** churn rates and success must
/// *strictly* fall as the rate rises — otherwise churn events are not
/// reaching the engine, or the sweep no longer stresses it. A zero-rate
/// record reporting churn activity fails too: the empty schedule must
/// stay bit-exact.
pub fn check_churn_degrades(records: &[RunRecord]) -> Vec<String> {
    let mut findings = Vec::new();
    let config = |r: &RunRecord| {
        (
            r.scheme.clone(),
            r.nodes,
            r.payments,
            r.offered_pps,
            r.hop_latency_ms,
            r.service_time_ms,
        )
    };
    let rate = |r: &RunRecord| r.closes_per_sec.unwrap_or(0.0);
    let churned = records.iter().filter(|r| r.closes_per_sec.is_some());
    for mut members in grouped(churned, config) {
        members.sort_by_key(|r| rate(r).to_bits());
        if members.len() < 3 {
            findings.push(format!(
                "{} (nodes {}, {} pps): only {} churn rate(s) swept — \
                 the shape check needs at least 3",
                members[0].scheme,
                members[0].nodes,
                members[0].offered_pps.unwrap_or(0.0),
                members.len()
            ));
            continue;
        }
        for w in members.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi.success_ratio >= lo.success_ratio {
                findings.push(format!(
                    "physically suspicious: {} success ratio does not strictly degrade \
                     with churn ({:.1}% @ {} closes/s vs {:.1}% @ {} closes/s) — \
                     churn is not reaching the engine or the sweep no longer stresses it",
                    hi.scheme,
                    lo.success_ratio * 100.0,
                    rate(lo),
                    hi.success_ratio * 100.0,
                    rate(hi)
                ));
            }
        }
        for r in &members {
            let closed = r.closed_channels.unwrap_or(0);
            let stale = r.stale_probe_failures.unwrap_or(0);
            if rate(r) == 0.0 && (closed != 0 || stale != 0) {
                findings.push(format!(
                    "{}: zero-churn record reports churn activity \
                     ({closed} closed, {stale} stale probe failures) — the empty schedule \
                     must be exact",
                    r.scheme
                ));
            }
        }
    }
    findings
}

/// Per record: **conservation** (`wire_in == wire_out`, every frame
/// sent was received at quiescence; `escrow_end == 0`, every commit
/// settled), **liveness** (something succeeded) and **reactor cost** —
/// moving a frame one hop costs one `write` and one `read`, however
/// many nodes the process hosts, so more than
/// [`MAX_SOCKET_OPS_PER_FRAME`] calls per frame fails, and so does a
/// ≥200-node record spending more than [`MAX_SOCKET_OPS_SCALE`]× what
/// its scheme's smallest record does. A reactor that scans every socket
/// each pass breaks both while every other field stays identical.
/// Across records: the ≥200-node **scale** point must stay in the
/// trajectory.
pub fn check_testbed_conserves(records: &[RunRecord]) -> Vec<String> {
    let mut findings = Vec::new();
    let ops = |r: &RunRecord| r.socket_ops_per_frame.unwrap_or(0.0);
    for r in records {
        if ops(r) > MAX_SOCKET_OPS_PER_FRAME {
            findings.push(format!(
                "{}: {:.1} socket calls per wire frame (limit {}) — \
                 the reactor is polling sockets nothing was written to",
                r.label(),
                ops(r),
                MAX_SOCKET_OPS_PER_FRAME
            ));
        }
        if r.nodes >= 200 {
            let smallest = records
                .iter()
                .filter(|o| o.scheme == r.scheme)
                .min_by_key(|o| o.nodes)
                .unwrap_or(r);
            if ops(r) > MAX_SOCKET_OPS_SCALE * ops(smallest) {
                findings.push(format!(
                    "{}: {:.2} socket calls per wire frame @ {} nodes against {:.2} @ {} \
                     (limit {}×) — the reactor's cost per frame grows with the cluster",
                    r.scheme,
                    ops(r),
                    r.nodes,
                    ops(smallest),
                    smallest.nodes,
                    MAX_SOCKET_OPS_SCALE
                ));
            }
        }
        if let (Some(wire_in), Some(wire_out)) = (r.wire_in, r.wire_out) {
            if wire_in != wire_out {
                findings.push(format!(
                    "physically suspicious: {} sent {wire_out} wire frames but received \
                     {wire_in} — frames were lost inside a fault-free cluster",
                    r.label()
                ));
            }
        }
        if let Some(escrow) = r.escrow_end.filter(|&e| e != 0) {
            findings.push(format!(
                "physically suspicious: {} ended with {escrow} µ-units still escrowed — \
                 some commit was never confirmed or reversed",
                r.label()
            ));
        }
        if r.success_ratio == 0.0 {
            findings.push(format!(
                "{}: nothing succeeded — the trace exercises no settlement path",
                r.label()
            ));
        }
    }
    if !records.is_empty() && !records.iter().any(|r| r.nodes >= 200) {
        findings.push(
            "no ≥200-node record in the candidate — the single-process scale \
             acceptance check is gone from the trajectory"
                .into(),
        );
    }
    findings
}
