//! End-to-end trace generation and (de)serialization.
//!
//! A trace is an ordered list of [`Payment`]s ("Payments arrive at
//! senders sequentially", §4.1) produced by combining a size model
//! (Figure 3) with the recurrence pair generator (Figure 4), restricted
//! to sender–receiver pairs that are actually connected in the topology
//! ("We ensure there exists at least one path from sender to receiver",
//! §5.2).
//!
//! Connectivity costs two depth-first searches per strongly connected
//! component a sender falls in, not one per sender: the generator keeps
//! one reach set per component. Each draw then costs one pair draw (a
//! few Zipf ranks, see [`crate::recurrence`]) and one array read.

use crate::recurrence::{PairGenerator, RecurrenceConfig};
use crate::size::SizeModel;
use pcn_graph::DiGraph;
use pcn_sim::SimTime;
use pcn_types::{Amount, NodeId, Payment, PcnError, Result, TxId};
use serde::{Deserialize, Serialize};

/// Trace-generation parameters.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of payments to generate.
    pub num_payments: usize,
    /// Payment-size distribution.
    pub size_model: SizeModel,
    /// Pair recurrence model.
    pub recurrence: RecurrenceConfig,
    /// RNG seed (sizes and pairs derive independent streams from it).
    pub seed: u64,
    /// Require a directed path sender → receiver in the topology.
    pub require_connectivity: bool,
}

impl TraceConfig {
    /// A Ripple-style trace of `n` payments.
    pub fn ripple(n: usize, seed: u64) -> Self {
        TraceConfig {
            num_payments: n,
            size_model: SizeModel::RippleUsd,
            recurrence: RecurrenceConfig::default(),
            seed,
            require_connectivity: true,
        }
    }

    /// A Lightning-style trace (Bitcoin sizes, Ripple-like pair
    /// structure, exactly as §4.1 constructs it: "we randomly sample the
    /// Bitcoin trace for transaction volumes, and sample a sender-
    /// receiver pair from the Ripple trace and map it to nodes in the
    /// Lightning topology").
    pub fn lightning(n: usize, seed: u64) -> Self {
        TraceConfig {
            num_payments: n,
            size_model: SizeModel::BitcoinSatoshi,
            recurrence: RecurrenceConfig::default(),
            seed,
            require_connectivity: true,
        }
    }
}

/// Generates a trace against a topology.
pub fn generate_trace(graph: &DiGraph, config: &TraceConfig) -> Vec<Payment> {
    let mut reach = ComponentReach::new(graph.node_count());
    generate_with(graph, config, |s, r| reach.connects(graph, s, r))
}

/// Draws `config`'s payments over `graph`'s nodes, dropping the pairs
/// `connected` rejects when `config.require_connectivity` holds.
fn generate_with(
    graph: &DiGraph,
    config: &TraceConfig,
    mut connected: impl FnMut(NodeId, NodeId) -> bool,
) -> Vec<Payment> {
    let n = graph.node_count();
    let mut pairs = PairGenerator::new(n, config.recurrence.clone(), config.seed);
    let sizes = config
        .size_model
        .sample_many(config.num_payments, config.seed.wrapping_add(1));
    let mut out = Vec::with_capacity(config.num_payments);
    let mut i = 0usize;
    let mut guard = 0usize;
    while out.len() < config.num_payments {
        guard += 1;
        assert!(
            guard < 100 * config.num_payments + 1000,
            "could not find enough connected pairs; topology too fragmented"
        );
        let (s, r) = pairs.next_pair();
        if config.require_connectivity && !connected(s, r) {
            continue;
        }
        out.push(Payment::new(TxId(i as u64), s, r, sizes[out.len()]));
        i += 1;
    }
    out
}

/// Reach sets kept once per strongly connected component, since every
/// node of one component reaches the same set. A sender's first query
/// labels its whole component — the nodes it both reaches and is
/// reached from, two depth-first searches — and stores its forward set
/// for all of them. A topology that is one component costs two
/// searches and one node-sized set, however many nodes send.
struct ComponentReach {
    /// `comp[v]` indexes `sets` once a node of `v`'s component has sent.
    comp: Vec<Option<usize>>,
    sets: Vec<Vec<bool>>,
}

impl ComponentReach {
    fn new(n: usize) -> Self {
        ComponentReach {
            comp: vec![None; n],
            sets: Vec::new(),
        }
    }

    /// Whether `graph` holds a directed path `s → r`.
    fn connects(&mut self, graph: &DiGraph, s: NodeId, r: NodeId) -> bool {
        let c = match self.comp[s.index()] {
            Some(c) => c,
            None => {
                let c = self.sets.len();
                let forward = graph.reachable_from(s);
                for (v, back) in graph.reaching(s).into_iter().enumerate() {
                    if back && forward[v] {
                        self.comp[v] = Some(c);
                    }
                }
                self.sets.push(forward);
                c
            }
        };
        self.sets[c][r.index()]
    }
}

/// One untimed JSON-lines record — the original wire format (sender,
/// receiver, volume), byte-identical to what this crate always wrote.
#[derive(Serialize)]
struct TraceRecord {
    id: u64,
    sender: u32,
    receiver: u32,
    amount_micros: u64,
}

/// One timed JSON-lines record (mirrors the open-sourced trace format
/// of the paper's artifact: sender, receiver, volume, time).
/// `time_micros` is the arrival timestamp in virtual microseconds;
/// parsing accepts untimed records too (the field defaults to absent).
#[derive(Serialize, Deserialize)]
struct TimedTraceRecord {
    id: u64,
    sender: u32,
    receiver: u32,
    amount_micros: u64,
    #[serde(default)]
    time_micros: Option<u64>,
}

impl TimedTraceRecord {
    fn payment(&self) -> Payment {
        Payment::new(
            TxId(self.id),
            NodeId(self.sender),
            NodeId(self.receiver),
            Amount::from_micros(self.amount_micros),
        )
    }
}

fn records_from_jsonl(text: &str) -> Result<Vec<TimedTraceRecord>> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TimedTraceRecord = serde_json::from_str(line)
            .map_err(|e| PcnError::InvalidConfig(format!("trace line {}: {e}", lineno + 1)))?;
        out.push(rec);
    }
    Ok(out)
}

#[expect(
    clippy::expect_used,
    reason = "trace records are plain structs; serialization cannot fail"
)]
fn push_record(out: &mut String, rec: &impl Serialize) {
    out.push_str(&serde_json::to_string(rec).expect("record serializes"));
    out.push('\n');
}

/// Serializes an untimed trace as JSON lines (no `time_micros` field —
/// the pre-DES format, unchanged).
pub fn to_jsonl(trace: &[Payment]) -> String {
    let mut out = String::new();
    for p in trace {
        push_record(
            &mut out,
            &TraceRecord {
                id: p.id.0,
                sender: p.sender.0,
                receiver: p.receiver.0,
                amount_micros: p.amount.micros(),
            },
        );
    }
    out
}

/// Parses a JSON-lines trace (timed or untimed), ignoring any arrival
/// timestamps (use [`from_jsonl_timed`] to consume them).
pub fn from_jsonl(text: &str) -> Result<Vec<Payment>> {
    Ok(records_from_jsonl(text)?
        .iter()
        .map(TimedTraceRecord::payment)
        .collect())
}

/// Serializes a timed workload (the `pcn_sim::des` engine's shape) as
/// JSON lines with `time_micros` stamps.
pub fn to_jsonl_timed(workload: &[(SimTime, Payment)]) -> String {
    let mut out = String::new();
    for (t, p) in workload {
        push_record(
            &mut out,
            &TimedTraceRecord {
                id: p.id.0,
                sender: p.sender.0,
                receiver: p.receiver.0,
                amount_micros: p.amount.micros(),
                time_micros: Some(t.micros()),
            },
        );
    }
    out
}

/// Parses a JSON-lines trace into a timed workload, replaying each
/// record's `time_micros` stamp — the trace-driven arrival process.
/// Records without a stamp arrive at virtual time zero.
pub fn from_jsonl_timed(text: &str) -> Result<Vec<(SimTime, Payment)>> {
    Ok(records_from_jsonl(text)?
        .iter()
        .map(|rec| {
            (
                SimTime::from_micros(rec.time_micros.unwrap_or(0)),
                rec.payment(),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::generators;

    #[test]
    fn generates_requested_count_with_connectivity() {
        let g = generators::watts_strogatz(40, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::ripple(500, 7));
        assert_eq!(trace.len(), 500);
        for p in &trace {
            assert_ne!(p.sender, p.receiver);
            let reach = g.reachable_from(p.sender);
            assert!(reach[p.receiver.index()]);
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let g = generators::watts_strogatz(40, 4, 0.2, 3);
        let a = generate_trace(&g, &TraceConfig::ripple(100, 5));
        let b = generate_trace(&g, &TraceConfig::ripple(100, 5));
        assert_eq!(a, b);
        let c = generate_trace(&g, &TraceConfig::ripple(100, 6));
        assert_ne!(a, c);
    }

    #[test]
    fn sizes_follow_the_model() {
        let g = generators::watts_strogatz(60, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::ripple(4000, 9));
        let mut sizes: Vec<f64> = trace.iter().map(|p| p.amount.as_units_f64()).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sizes[sizes.len() / 2];
        assert!((1.0..25.0).contains(&median), "median {median} ≈ $4.8");
    }

    #[test]
    fn jsonl_round_trip() {
        let g = generators::watts_strogatz(30, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::lightning(50, 11));
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(from_jsonl("not json\n").is_err());
        assert!(from_jsonl("{\"id\":0}\n").is_err());
        assert!(from_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn timed_jsonl_round_trip() {
        let g = generators::watts_strogatz(30, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::ripple(40, 11));
        let times = crate::arrivals::poisson_times(40, 100.0, 5);
        let workload = crate::arrivals::stamp(&trace, &times);
        let text = to_jsonl_timed(&workload);
        assert!(text.contains("time_micros"));
        let back = from_jsonl_timed(&text).unwrap();
        assert_eq!(workload, back);
        // The untimed reader accepts the same file and drops the stamps.
        assert_eq!(from_jsonl(&text).unwrap(), trace);
        // The untimed writer keeps the original format: no time field.
        assert!(!to_jsonl(&trace).contains("time_micros"));
    }

    /// FNV-1a over every payment's id, sender, receiver and micros.
    fn digest(trace: &[Payment]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in trace {
            let words = [
                p.id.0,
                u64::from(p.sender.0),
                u64::from(p.receiver.0),
                p.amount.micros(),
            ];
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// flashbench's `des-engine` and `sim-elephant` traces, recorded from
    /// the generator that drew contacts from a fresh weight list and kept
    /// a reach set per sender.
    #[test]
    fn benchmark_traces_match_recorded_digests() {
        let ripple = crate::ripple_topology(11);
        let mut lightning = crate::lightning_topology(11);
        crate::topology::assign_paper_fees(&mut lightning, 14);
        let cases = [
            (
                "des-engine: ripple_topology(11), TraceConfig::ripple(60_000, 18)",
                &ripple,
                TraceConfig::ripple(60_000, 18),
                0x5aad_2670_9037_c58d_u64,
            ),
            (
                "sim-elephant: lightning_topology(11) with fees, TraceConfig::lightning(600, 18)",
                &lightning,
                TraceConfig::lightning(600, 18),
                0xdb65_d3a6_6b38_681b_u64,
            ),
        ];
        for (name, net, config, want) in cases {
            let got = digest(&generate_trace(net.graph(), &config));
            assert!(
                got == want,
                "{name}: trace digest {got:#018x}, recorded {want:#018x}"
            );
        }
    }

    /// The connectivity check [`ComponentReach`] replaced: one
    /// depth-first search and one node-sized set per distinct sender.
    fn reference_trace(graph: &DiGraph, config: &TraceConfig) -> Vec<Payment> {
        let mut reach: Vec<Option<Vec<bool>>> = vec![None; graph.node_count()];
        generate_with(graph, config, |s, r| {
            reach[s.index()].get_or_insert_with(|| graph.reachable_from(s))[r.index()]
        })
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::prelude::*;

        /// A digraph of one-way edges on shuffled labels: `clusters`
        /// groups, each strongly connected by a cycle when it has two or
        /// more nodes and thickened by random chords, random edges from
        /// earlier groups to later ones, and the nodes left over as sinks
        /// (entered, never left), sources (left, never entered) or
        /// isolated nodes.
        fn asymmetric(n: usize, clusters: usize, seed: u64) -> DiGraph {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut labels: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
            for i in (1..n).rev() {
                labels.swap(i, rng.random_range(0..=i));
            }
            let mut pick = |nodes: &[NodeId]| nodes[rng.random_range(0..nodes.len())];
            let mut g = DiGraph::new(n);
            let loose = (seed as usize) % (n / 3 + 1);
            let (grouped, rest) = labels.split_at(n - loose);
            let groups: Vec<&[NodeId]> = grouped.chunks(grouped.len().div_ceil(clusters)).collect();
            for group in &groups {
                if group.len() > 1 {
                    for (i, &u) in group.iter().enumerate() {
                        g.add_edge(u, group[(i + 1) % group.len()]).ok();
                    }
                }
                for _ in 0..group.len() {
                    g.add_edge(pick(group), pick(group)).ok();
                }
            }
            for i in 0..groups.len() {
                for j in i + 1..groups.len() {
                    g.add_edge(pick(groups[i]), pick(groups[j])).ok();
                }
            }
            for (k, &x) in rest.iter().enumerate() {
                let other = pick(grouped);
                match k % 3 {
                    0 => g.add_edge(other, x).ok(),
                    1 => g.add_edge(x, other).ok(),
                    _ => None,
                };
            }
            g
        }

        proptest! {
            /// On one-way digraphs of several components, sinks, sources
            /// and isolated nodes, where two senders' reach sets differ,
            /// the per-component cache keeps exactly the pairs the
            /// per-sender sets keep. A generator that gives up on a
            /// fragmented graph must give up in both.
            #[test]
            fn component_reach_keeps_the_per_sender_pairs(
                n in 2usize..60,
                clusters in 1usize..=5,
                payments in 1usize..300,
                seed in 0u64..1_000_000,
            ) {
                let g = asymmetric(n, clusters, seed);
                let connected = g
                    .nodes()
                    .any(|s| g.reachable_from(s).iter().filter(|&&r| r).count() > 1);
                prop_assume!(connected);
                let config = TraceConfig::ripple(payments, seed);
                let got = std::panic::catch_unwind(|| generate_trace(&g, &config)).ok();
                let want = std::panic::catch_unwind(|| reference_trace(&g, &config)).ok();
                prop_assert_eq!(
                    got,
                    want,
                    "{} nodes in {} clusters, {} payments",
                    n,
                    clusters,
                    payments
                );
            }
        }
    }

    #[test]
    fn untimed_lines_replay_at_time_zero() {
        let line = "{\"id\":3,\"sender\":0,\"receiver\":1,\"amount_micros\":2000000}\n";
        let timed = from_jsonl_timed(line).unwrap();
        assert_eq!(timed.len(), 1);
        assert_eq!(timed[0].0, SimTime::ZERO);
        assert_eq!(timed[0].1.amount, Amount::from_units(2));
    }
}
