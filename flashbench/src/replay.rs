//! Direct-call replays: after a traced workload ran, each layer it
//! exercised is called alone, through its public functions, on inputs
//! taken from the run — the trace's pairs, its elephants, its event
//! count and path length. They time what the spans around `route`
//! cannot separate (Yen from the table around it, the LP from the
//! split around it, the codec from the reactor around it).
//!
//! Every replay records its calls under a `replay` root span and gets
//! the same share of the replay budget; it cycles over its inputs until
//! that share is spent.

use crate::spans::Tracer;
use crate::stats::percentile_us;
use crate::workload::{Driver, Fixture, RouterKind};
use flash_core::flash::{elephant, fees};
use pcn_graph::maxflow::{MaxFlowSolver, PushRelabel};
use pcn_graph::{bfs, yen};
use pcn_proto::node::{NodeState, Outbox};
use pcn_proto::{wall_now, Message, MsgType};
use pcn_sim::des::{EventQueue, ServiceQueues};
use pcn_sim::{DesReport, ServiceModel, SimTime};
use pcn_types::{NodeId, Payment, PaymentClass};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;

/// Per-layer metric values a replay produced, by catalog name.
pub type Values = BTreeMap<&'static str, f64>;

/// One replay: a name for its span and the function that runs it on
/// the fixture, the first pass's engine report (DES workloads) and its
/// share of the budget.
type Replay = (
    &'static str,
    fn(&Fixture, Option<&DesReport>, &mut Sampler) -> Values,
);

/// Times calls until a budget is spent, recording each as a span.
pub struct Sampler<'a> {
    tracer: &'a mut Tracer,
    budget_s: f64,
}

impl Sampler<'_> {
    /// Calls `call` on the items of `inputs`, cycling, until the budget
    /// is spent (every input at least once when it allows). Returns the
    /// host nanoseconds of each call.
    fn time_each<T>(
        &mut self,
        name: &'static str,
        inputs: &[T],
        mut call: impl FnMut(&T),
    ) -> Vec<u64> {
        let mut ns = Vec::new();
        if inputs.is_empty() {
            return ns;
        }
        let wall_start = wall_now();
        for input in inputs.iter().cycle() {
            let span = self.tracer.open(name, 1);
            call(input);
            ns.push(self.tracer.close(span));
            if wall_start.elapsed().as_secs_f64() >= self.budget_s {
                break;
            }
        }
        ns
    }

    /// Runs `batch` (which performs `ops` operations) repeatedly until
    /// the budget is spent; returns the median nanoseconds per
    /// operation over the batches.
    fn ns_per_op(&mut self, name: &'static str, ops: u64, mut batch: impl FnMut()) -> f64 {
        let per_op: Vec<f64> = self
            .time_each(name, &[()], |_| batch())
            .iter()
            .map(|ns| *ns as f64 / ops.max(1) as f64)
            .collect();
        crate::stats::median(&per_op)
    }

    fn split(&mut self, parts: usize) -> Sampler<'_> {
        Sampler {
            tracer: self.tracer,
            budget_s: self.budget_s / parts.max(1) as f64,
        }
    }
}

/// Distinct `(sender, receiver)` pairs of `payments`, in first-seen
/// order.
fn distinct_pairs<'a>(payments: impl Iterator<Item = &'a Payment>) -> Vec<(NodeId, NodeId)> {
    let mut seen = BTreeSet::new();
    payments
        .map(|p| (p.sender, p.receiver))
        .filter(|pair| seen.insert(*pair))
        .collect()
}

fn elephants(fixture: &Fixture) -> Vec<Payment> {
    fixture
        .trace
        .iter()
        .filter(|p| p.classify(fixture.threshold) == PaymentClass::Elephant)
        .copied()
        .collect()
}

/// Yen at the two sizes the mice table asks for: `k = m = 4` on a miss,
/// `k = 16` once three replacement batches have been consumed.
fn replay_yen(fixture: &Fixture, _: Option<&DesReport>, sampler: &mut Sampler) -> Values {
    let g = fixture.net.graph();
    let pairs = distinct_pairs(fixture.trace.iter());
    let mut k4 = sampler
        .split(2)
        .time_each("graph.yen.k4", &pairs, |&(s, t)| {
            black_box(yen::k_shortest_paths_hops(g, s, t, 4));
        });
    let mut k16 = sampler
        .split(2)
        .time_each("graph.yen.k16", &pairs, |&(s, t)| {
            black_box(yen::k_shortest_paths_hops(g, s, t, 16));
        });
    Values::from([
        ("graph.yen.k4_us_p50", percentile_us(&mut k4, 0.5)),
        ("graph.yen.k4_us_p99", percentile_us(&mut k4, 0.99)),
        ("graph.yen.k16_us_p50", percentile_us(&mut k16, 0.5)),
    ])
}

/// The graph kernels under Algorithm 1: the BFS it runs per probe, the
/// graph copy `find_paths` makes per call, and the max-flow oracle.
fn replay_graph(fixture: &Fixture, _: Option<&DesReport>, sampler: &mut Sampler) -> Values {
    let g = fixture.net.graph();
    let pairs = distinct_pairs(fixture.trace.iter());
    let elephant_pairs = distinct_pairs(elephants(fixture).iter());
    let caps: Vec<u64> = g
        .edges()
        .map(|(e, _, _)| fixture.net.balance(e).micros())
        .collect();
    let mut bfs_ns = sampler
        .split(3)
        .time_each("graph.bfs.shortest_path", &pairs, |&(s, t)| {
            black_box(bfs::shortest_path(g, s, t));
        });
    let mut clone_ns = sampler
        .split(3)
        .time_each("core.elephant.graph_clone", &[()], |_| {
            black_box(g.clone());
        });
    let mut flow_ns =
        sampler
            .split(3)
            .time_each("graph.maxflow.push_relabel", &elephant_pairs, |&(s, t)| {
                black_box(PushRelabel.max_flow(g, s, t, &caps));
            });
    Values::from([
        (
            "graph.bfs.shortest_path_us_p50",
            percentile_us(&mut bfs_ns, 0.5),
        ),
        (
            "core.elephant.graph_clone_us_p50",
            percentile_us(&mut clone_ns, 0.5),
        ),
        (
            "graph.maxflow.push_relabel_us_p50",
            percentile_us(&mut flow_ns, 0.5),
        ),
    ])
}

/// Algorithm 1 and the fee split on every elephant, against a copy of
/// the initial network (probing does not move balances).
fn replay_elephant(fixture: &Fixture, _: Option<&DesReport>, sampler: &mut Sampler) -> Values {
    let payments = elephants(fixture);
    let mut net = fixture.net.clone();
    let k = flash_core::FlashConfig::default().max_elephant_paths;
    let mut plans = Vec::new();
    let mut find_ns = sampler
        .split(2)
        .time_each("core.elephant.find_paths", &payments, |p| {
            let plan = elephant::find_paths(&mut net, p.sender, p.receiver, p.amount, k);
            if plans.len() < payments.len() {
                plans.push((plan, p.amount));
            }
        });
    let calls = plans.len().max(1) as f64;
    let probes = plans.iter().map(|(plan, _)| plan.probes).sum::<usize>() as f64 / calls;
    let paths = plans
        .iter()
        .map(|(plan, _)| plan.paths.len())
        .sum::<usize>() as f64
        / calls;

    // Only plans that can carry their demand reach the split in `route`.
    plans.retain(|(plan, amount)| !plan.paths.is_empty() && plan.max_flow >= *amount);
    let g = fixture.net.graph();
    let mut lp_ns = sampler
        .split(4)
        .time_each("core.fees.split_lp", &plans, |(plan, amount)| {
            black_box(fees::split_payment(g, plan, *amount, true));
        });
    let mut seq_ns = sampler
        .split(4)
        .time_each("core.fees.split_seq", &plans, |(plan, amount)| {
            black_box(fees::split_payment(g, plan, *amount, false));
        });
    let lp_p50 = percentile_us(&mut lp_ns, 0.5);
    let seq_p50 = percentile_us(&mut seq_ns, 0.5);
    Values::from([
        (
            "core.elephant.find_paths_us_p50",
            percentile_us(&mut find_ns, 0.5),
        ),
        (
            "core.elephant.find_paths_us_p99",
            percentile_us(&mut find_ns, 0.99),
        ),
        ("core.elephant.probes_per_call", probes),
        ("core.elephant.paths_per_call", paths),
        ("core.fees.split_lp_us_p50", lp_p50),
        ("core.fees.split_lp_us_p99", percentile_us(&mut lp_ns, 0.99)),
        ("core.fees.split_seq_us_p50", seq_p50),
        (
            "lp.share_of_split",
            if lp_p50 > 0.0 {
                1.0 - seq_p50 / lp_p50
            } else {
                0.0
            },
        ),
    ])
}

/// The event queue and the service calendar at the run's scale: as many
/// operations as the run delivered events, at the depth its in-flight
/// peak implies and the arrival spacing its busiest node saw.
fn replay_des(fixture: &Fixture, report: Option<&DesReport>, sampler: &mut Sampler) -> Values {
    let Some(report) = report else {
        return Values::new();
    };
    let Driver::Des(load) = fixture.spec.driver else {
        return Values::new();
    };
    let events = report.events.max(1);
    // Each in-flight payment keeps about one settlement wave of its
    // path length pending.
    let depth = (report.peak_in_flight * 4).max(16);
    let horizon_us = report.makespan.micros().max(1);
    let step_us = (horizon_us / events).max(1);

    let queue_ns = sampler.split(2).ns_per_op("des.queue.op", 2 * events, || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            queue.schedule(SimTime::from_micros(i * step_us), i);
        }
        for i in 0..events {
            let now = SimTime::from_micros(i * step_us);
            black_box(queue.pop_before(SimTime::MAX));
            queue.schedule(now + SimTime::from_micros(depth * step_us), i);
        }
        black_box(queue.delivered());
    });

    let nodes = fixture.net.graph().node_count();
    let service_us = load.service_ms * 1_000;
    // Messages reach one node `utilization / service` apart on average;
    // spreading them round-robin keeps every calendar at that load.
    let gap_us = (service_us as f64 / report.max_node_utilization.max(0.05)) as u64;
    let admit_ns = sampler.split(2).ns_per_op("des.node.admit", events, || {
        let mut queues = ServiceQueues::new(ServiceModel::constant_us(service_us), nodes);
        for i in 0..events {
            let round = i / nodes as u64;
            let at = SimTime::from_micros(round * gap_us.max(1));
            if i % nodes as u64 == 0 {
                queues.release_before(at);
            }
            black_box(queues.admit(NodeId::from_index((i % nodes as u64) as usize), at));
        }
        black_box(queues.enqueued());
    });
    Values::from([
        ("des.queue.op_ns", queue_ns),
        ("des.node.admit_ns", admit_ns),
    ])
}

/// Mean BFS hop count over the trace's pairs: the path length frames
/// carry on this workload.
fn mean_hops(fixture: &Fixture) -> usize {
    let g = fixture.net.graph();
    let hops: Vec<usize> = distinct_pairs(fixture.trace.iter())
        .iter()
        .filter_map(|&(s, t)| bfs::shortest_path(g, s, t))
        .map(|p| p.hops())
        .collect();
    (hops.iter().sum::<usize>() as f64 / hops.len().max(1) as f64)
        .round()
        .max(1.0) as usize
}

/// Drives `msg` from node `first` along a chain of socket-free node
/// states until it is delivered; returns the `handle` calls it took.
fn run_chain(nodes: &mut [NodeState], first: u32, msg: Message, out: &mut Outbox) -> u64 {
    let mut handled = 0;
    let mut next = Some((first, msg));
    while let Some((id, m)) = next.take() {
        nodes[id as usize].handle(m, out);
        handled += 1;
        out.deliveries.clear();
        next = out.sends.pop();
    }
    handled
}

/// The wire codec and the node state machine without sockets, at the
/// run's mean path length.
fn replay_proto(fixture: &Fixture, _: Option<&DesReport>, sampler: &mut Sampler) -> Values {
    let hops = mean_hops(fixture);
    let path: Vec<u32> = (0..=hops as u32).collect();
    // A PROBE halfway along its path: half the capacity list filled.
    let mut probe = Message::new(7, MsgType::Probe, path.clone());
    probe.pos = (hops / 2) as u16;
    probe.capacities = vec![1_250_000_000; hops / 2];
    let frame = probe.encode();
    let batch = 10_000u64;
    let encode_ns = sampler.split(3).ns_per_op("proto.wire.encode", batch, || {
        for _ in 0..batch {
            black_box(black_box(&probe).encode());
        }
    });
    let decode_ns = sampler.split(3).ns_per_op("proto.wire.decode", batch, || {
        for _ in 0..batch {
            black_box(Message::decode(black_box(&frame).slice(4..)).expect("own frame decodes"));
        }
    });

    let funds = u64::MAX / 4;
    let mut nodes: Vec<NodeState> = (0..=hops as u32)
        .map(|id| {
            let mut balances = HashMap::new();
            if id > 0 {
                balances.insert(id - 1, funds);
            }
            if (id as usize) < hops {
                balances.insert(id + 1, funds);
            }
            NodeState::new(id, balances)
        })
        .collect();
    let mut out = Outbox::default();
    let rounds = 500u64;
    let mut handled_per_batch = 0;
    // One round is the life of a one-part payment: probe, commit, confirm.
    for (i, msg_type) in [MsgType::Probe, MsgType::Commit, MsgType::Confirm]
        .into_iter()
        .enumerate()
    {
        let mut m = Message::new(i as u64, msg_type, path.clone());
        m.commit = 1;
        handled_per_batch += run_chain(&mut nodes, 0, m, &mut out);
    }
    handled_per_batch *= rounds;
    let handle_ns = sampler
        .split(3)
        .ns_per_op("proto.node.handle", handled_per_batch, || {
            for round in 0..rounds {
                for msg_type in [MsgType::Probe, MsgType::Commit, MsgType::Confirm] {
                    let mut m = Message::new(round, msg_type, path.clone());
                    m.commit = 1;
                    black_box(run_chain(&mut nodes, 0, m, &mut out));
                }
            }
        });
    Values::from([
        ("proto.wire.encode_ns", encode_ns),
        ("proto.wire.decode_ns", decode_ns),
        ("proto.wire.bytes_per_msg", frame.len() as f64),
        ("proto.node.handle_ns", handle_ns),
    ])
}

/// The replays a workload's layers call for.
fn replays_for(fixture: &Fixture) -> Vec<Replay> {
    let spec = &fixture.spec;
    let mut out: Vec<Replay> = Vec::new();
    if spec.router == RouterKind::Flash {
        if spec.mice_fraction > 0.0 {
            out.push(("replay.yen", replay_yen));
        }
        out.push(("replay.graph", replay_graph));
        out.push(("replay.elephant", replay_elephant));
    }
    if matches!(spec.driver, Driver::Des(_)) {
        out.push(("replay.des", replay_des));
    }
    if spec.driver == Driver::Testbed {
        out.push(("replay.proto", replay_proto));
    }
    out
}

/// Runs every replay the workload calls for within `budget_s` seconds,
/// recording spans into `tracer` under one `replay` root.
pub fn run_replays(
    fixture: &Fixture,
    des: Option<&DesReport>,
    budget_s: f64,
    tracer: &mut Tracer,
) -> Values {
    let replays = replays_for(fixture);
    let mut values = Values::new();
    let root = tracer.open("replay", replays.len() as u32);
    for (name, replay) in &replays {
        let span = tracer.open(name, 1);
        let mut sampler = Sampler {
            tracer,
            budget_s: budget_s / replays.len() as f64,
        };
        values.extend(replay(fixture, des, &mut sampler));
        tracer.close(span);
    }
    tracer.close(root);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_pass;
    use crate::workload::{setup, Workload};

    #[test]
    fn replays_fill_the_metrics_of_the_layers_a_workload_uses() {
        for workload in Workload::ALL {
            let fixture = setup(workload.spec(true), 11);
            let pass = run_pass(&fixture, 0, false);
            let mut tracer = Tracer::new();
            let values = run_replays(&fixture, pass.quality.des.as_ref(), 0.05, &mut tracer);
            for (name, value) in &values {
                assert!(
                    crate::catalog::PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not in the catalog"
                );
                assert!(
                    value.is_finite() && *value >= 0.0,
                    "{workload:?} {name} = {value}"
                );
            }
            let has = |name: &str| values.get(name).is_some_and(|v| *v > 0.0);
            let flash = fixture.spec.router == RouterKind::Flash;
            assert_eq!(
                has("core.elephant.find_paths_us_p50"),
                flash,
                "{workload:?}"
            );
            assert_eq!(
                has("graph.yen.k4_us_p50"),
                flash && fixture.spec.mice_fraction > 0.0
            );
            assert_eq!(
                has("des.queue.op_ns"),
                matches!(fixture.spec.driver, Driver::Des(_))
            );
            assert_eq!(
                has("proto.node.handle_ns"),
                workload == Workload::TestbedFlash
            );
            assert_eq!(tracer.spans()[0].name, "replay");
        }
    }

    #[test]
    fn chain_round_trips_take_two_handles_per_hop_plus_ends() {
        let mut nodes: Vec<NodeState> = (0..3u32)
            .map(|id| {
                let mut b = HashMap::new();
                if id > 0 {
                    b.insert(id - 1, 100);
                }
                if id < 2 {
                    b.insert(id + 1, 100);
                }
                NodeState::new(id, b)
            })
            .collect();
        let mut out = Outbox::default();
        let probe = Message::new(1, MsgType::Probe, vec![0, 1, 2]);
        // 0, 1, 2 handle the PROBE; 1, 0 handle the PROBE_ACK (the
        // receiver turns the probe around inside its own handler).
        assert_eq!(run_chain(&mut nodes, 0, probe, &mut out), 5);
    }
}
