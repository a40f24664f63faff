//! The benchmark's vocabulary: workload, end-to-end metric and
//! per-layer metric names with their unit, direction and bound.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`flashbench --emit-benchmark-json`) and a unit test keeps the
//! committed file equal to them, so a name printed by a run is always a
//! name the pipeline knows.

/// Seconds one run measures for when `--seconds` is not given; also
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The command the pipeline runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "flashbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["flashbench"];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is rejected.
    pub bound: Option<f64>,
    /// What it measures (README and `--list`).
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        meaning,
    }
}

use Better::{Higher, Lower};

/// `(name, why)` of every workload, in the order `--workload all` runs
/// them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim-recurrent",
        "Flash on the simulator, Ripple scale, 90% mice on recurring pairs: the mice routing table and Yen do most of the work",
    ),
    (
        "sim-elephant",
        "Flash on the simulator, Lightning scale with fees, every payment an elephant: Algorithm 1, probing and the fee LP; bypasses the mice table and Yen",
    ),
    (
        "des-flash",
        "Flash through the DES engine under Poisson load: in-flight escrow makes cached paths look dead, so table rewrites and Yen refetches weigh as much as first lookups",
    ),
    (
        "des-engine",
        "precomputed-path replay router through the DES engine near saturation: event queue, service calendar and settlement do the work; bypasses the router",
    ),
    (
        "testbed-flash",
        "Flash on the single-process TCP testbed over loopback: reactor, wire codec and quiescence waits do the work; router time is a small share",
    ),
];

/// Metrics a user of the system sees, printed by `--trace 0`. Every one
/// is defined, non-zero and steady on every workload; measures that
/// only some workloads have are per-layer metrics under `quality.*`
/// and `des.virt_*`.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "payments_per_s",
        "1/s",
        Higher,
        0.25,
        "payments routed per second of host time in the timed section; median over the run's passes",
    ),
    e2e(
        "route_p90_us",
        "us",
        Lower,
        0.25,
        "90th percentile of per-payment Router::route host time within a pass (the paper's processing delay); median over passes",
    ),
    e2e(
        "success_ratio",
        "ratio",
        Higher,
        0.05,
        "payments delivered in full / payments attempted, pooled over a run's first eight passes; deterministic for a seed",
    ),
    e2e(
        "success_volume_ratio",
        "ratio",
        Higher,
        0.20,
        "volume delivered / volume attempted, same passes (the paper's headline metric, normalised); deterministic for a seed",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        Lower,
        0.15,
        "VmHWM of the benchmark process at exit",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "topology + fees + trace + threshold + path precompute; median of the set-up repetitions",
    ),
];

/// Metrics of single layers, printed by `--trace 1`. A metric whose
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "workload.topology_ms",
        "ms",
        Lower,
        "topology (and fee) generation, last set-up",
    ),
    layer(
        "workload.trace_ms",
        "ms",
        Lower,
        "generate_trace, last set-up",
    ),
    layer(
        "core.route.mice_n",
        "count",
        Lower,
        "Router::route calls on mice per pass",
    ),
    layer(
        "core.route.mice_ms",
        "ms",
        Lower,
        "host time in those calls per pass",
    ),
    layer(
        "core.route.elephant_n",
        "count",
        Lower,
        "Router::route calls on elephants per pass",
    ),
    layer(
        "core.route.elephant_ms",
        "ms",
        Lower,
        "host time in those calls per pass",
    ),
    layer(
        "core.route.p50_us",
        "us",
        Lower,
        "median Router::route host time (a table hit on the mice workloads)",
    ),
    layer(
        "core.route.self_ms",
        "ms",
        Lower,
        "route spans minus their backend child spans: path search, LP, table",
    ),
    layer(
        "core.route.slow_n",
        "count",
        Lower,
        "route calls of 10 ms or more per pass",
    ),
    layer(
        "core.route.slow_ms",
        "ms",
        Lower,
        "host time in those calls per pass",
    ),
    layer(
        "core.mice.table_miss_n",
        "count",
        Lower,
        "route calls that grew the routing table (first sight of a pair)",
    ),
    layer(
        "core.mice.table_len_end",
        "count",
        Lower,
        "routing-table entries at the end of a pass",
    ),
    layer(
        "graph.yen.k4_us_p50",
        "us",
        Lower,
        "yen::k_shortest_paths_hops(k=4) over the trace's distinct pairs: a table miss",
    ),
    layer("graph.yen.k4_us_p99", "us", Lower, "p99 of the same"),
    layer(
        "graph.yen.k16_us_p50",
        "us",
        Lower,
        "the same with k=16: a refetch after three replacement batches",
    ),
    layer(
        "graph.bfs.shortest_path_us_p50",
        "us",
        Lower,
        "bfs::shortest_path over trace pairs (Algorithm 1 runs one per probe)",
    ),
    layer(
        "graph.maxflow.push_relabel_us_p50",
        "us",
        Lower,
        "PushRelabel.max_flow over elephant pairs (oracle only today)",
    ),
    layer(
        "core.elephant.graph_clone_us_p50",
        "us",
        Lower,
        "DiGraph::clone, the copy find_paths makes per call",
    ),
    layer(
        "core.elephant.find_paths_us_p50",
        "us",
        Lower,
        "elephant::find_paths per elephant on the initial network",
    ),
    layer(
        "core.elephant.find_paths_us_p99",
        "us",
        Lower,
        "p99 of the same",
    ),
    layer(
        "core.elephant.probes_per_call",
        "count",
        Lower,
        "probe operations per find_paths call",
    ),
    layer(
        "core.elephant.paths_per_call",
        "count",
        Lower,
        "candidate paths per find_paths call",
    ),
    layer(
        "core.fees.split_lp_us_p50",
        "us",
        Lower,
        "fees::split_payment with the LP on those plans",
    ),
    layer("core.fees.split_lp_us_p99", "us", Lower, "p99 of the same"),
    layer(
        "core.fees.split_seq_us_p50",
        "us",
        Lower,
        "fees::split_payment filling paths sequentially",
    ),
    layer(
        "lp.share_of_split",
        "ratio",
        Lower,
        "1 - sequential / LP split time: the LP's share of a split",
    ),
    layer(
        "sim.backend.probe_n",
        "count",
        Lower,
        "probe calls into the simulator or DES backend per pass",
    ),
    layer("sim.backend.probe_ms", "ms", Lower, "host time in them"),
    layer(
        "sim.backend.send_part_n",
        "count",
        Lower,
        "parts offered to try_send_part(s) per pass",
    ),
    layer("sim.backend.send_part_ms", "ms", Lower, "host time in them"),
    layer(
        "sim.backend.commit_n",
        "count",
        Lower,
        "session commits per pass",
    ),
    layer("sim.backend.commit_ms", "ms", Lower, "host time in them"),
    layer(
        "sim.backend.abort_n",
        "count",
        Lower,
        "session aborts per pass",
    ),
    layer(
        "sim.backend.send_fail_ratio",
        "ratio",
        Lower,
        "phase-1 calls that failed / phase-1 calls: the wasted work behind probing",
    ),
    layer(
        "des.advance_ms",
        "ms",
        Lower,
        "DesNetwork::advance_to in the recomposed engine loop, per pass",
    ),
    layer(
        "des.route_ms",
        "ms",
        Lower,
        "Router::route in the recomposed engine loop, per pass",
    ),
    layer(
        "des.drain_ms",
        "ms",
        Lower,
        "DesNetwork::drain_all at the end of a pass",
    ),
    layer(
        "des.engine_share",
        "ratio",
        Lower,
        "advance + drain + backend child spans as a share of the pass: time inside pcn_sim::des",
    ),
    layer(
        "des.events_n",
        "count",
        Lower,
        "settlement events delivered per pass (virtual, exact)",
    ),
    layer(
        "des.events_per_payment",
        "count",
        Lower,
        "events per payment",
    ),
    layer(
        "des.events_per_s",
        "1/s",
        Higher,
        "events per second of host time",
    ),
    layer(
        "des.peak_in_flight",
        "count",
        Lower,
        "most payments in flight at once (virtual)",
    ),
    layer(
        "des.peak_backlog",
        "count",
        Lower,
        "deepest single-node service backlog (virtual)",
    ),
    layer(
        "des.max_node_utilization",
        "ratio",
        Lower,
        "busiest node's utilisation (virtual)",
    ),
    layer(
        "des.queue_delay_p95_ms",
        "ms",
        Lower,
        "p95 per-message queueing delay (virtual)",
    ),
    layer(
        "des.virt_latency_p95_ms",
        "ms",
        Lower,
        "DesReport::latency_ms(0.95), first pass (virtual, exact)",
    ),
    layer(
        "des.queue.op_ns",
        "ns",
        Lower,
        "EventQueue schedule + pop_before at the run's depth",
    ),
    layer(
        "des.node.admit_ns",
        "ns",
        Lower,
        "ServiceQueues admit + release_before at the run's utilisation",
    ),
    layer(
        "proto.wire.encode_ns",
        "ns",
        Lower,
        "Message::encode at the run's mean path length",
    ),
    layer(
        "proto.wire.decode_ns",
        "ns",
        Lower,
        "Message::decode of the same frames",
    ),
    layer(
        "proto.wire.bytes_per_msg",
        "count",
        Lower,
        "encoded frame size at that path length",
    ),
    layer(
        "proto.node.handle_ns",
        "ns",
        Lower,
        "NodeState::handle, socket-free, along PROBE, COMMIT and CONFIRM round trips",
    ),
    layer(
        "proto.cluster.launch_ms",
        "ms",
        Lower,
        "Cluster::launch before a pass: one listener bound per node",
    ),
    layer(
        "proto.cluster.probe_n",
        "count",
        Lower,
        "probe calls into the cluster per pass",
    ),
    layer(
        "proto.cluster.probe_us_p50",
        "us",
        Lower,
        "median host time of one",
    ),
    layer("proto.cluster.probe_us_p99", "us", Lower, "p99 of the same"),
    layer(
        "proto.cluster.send_part_n",
        "count",
        Lower,
        "parts offered to try_send_part(s) per pass",
    ),
    layer(
        "proto.cluster.send_part_us_p50",
        "us",
        Lower,
        "median host time of a phase-1 call",
    ),
    layer(
        "proto.cluster.commit_n",
        "count",
        Lower,
        "session commits per pass",
    ),
    layer(
        "proto.cluster.commit_us_p50",
        "us",
        Lower,
        "median host time of one",
    ),
    layer(
        "proto.frames_n",
        "count",
        Lower,
        "wire frames received cluster-wide per pass",
    ),
    layer(
        "proto.frames_per_payment",
        "count",
        Lower,
        "frames per payment",
    ),
    layer(
        "proto.frames_per_s",
        "1/s",
        Higher,
        "frames per second of host time",
    ),
    layer(
        "proto.us_per_frame",
        "us",
        Lower,
        "backend span time / frames",
    ),
    layer(
        "proto.reactor_us_per_frame",
        "us",
        Lower,
        "that minus encode, decode and handle: poll scan, syscalls, quiescence sleeps",
    ),
    layer(
        "proto.queue_high_water",
        "count",
        Lower,
        "deepest outbound frame queue of any node",
    ),
    layer(
        "proto.escrow_end",
        "count",
        Lower,
        "escrow still held when the pass ends; must be 0",
    ),
    layer(
        "proto.dropped_n",
        "count",
        Lower,
        "messages the fault plan dropped; must be 0",
    ),
    layer(
        "host.cpu_user_s",
        "s",
        Lower,
        "user CPU time of the timed section (/proc/self/stat)",
    ),
    layer(
        "host.cpu_sys_s",
        "s",
        Lower,
        "kernel CPU time of the timed section",
    ),
    layer(
        "quality.probe_msgs_per_payment",
        "count",
        Lower,
        "hop-counted probe messages / payments attempted, first pass (Fig. 8)",
    ),
    layer(
        "quality.fee_pct",
        "%",
        Lower,
        "fees paid / volume delivered, first pass (Fig. 9)",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "pass time with spans on vs off, same input: what tracing costs",
    ),
];

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", quoted(PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(*name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `flashbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
