//! Elephant routing walkthrough: runs Algorithm 1 (modified
//! Edmonds–Karp with lazy probing) on the paper's Figure 5 topology and
//! shows how the fee-minimizing LP splits the payment across paths.
//!
//! ```sh
//! cargo run --example elephant_split
//! ```

use flash_offchain::core::flash::{elephant, fees};
use flash_offchain::graph::DiGraph;
use flash_offchain::sim::{Network, PaymentNetwork, PaymentSession};
use flash_offchain::types::{Amount, FeePolicy, NodeId, Payment, PaymentClass, TxId};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn main() {
    // Figure 5(a) of the paper (nodes renumbered 0-based): two shortest
    // paths 1→6 share the bottleneck 1→2; the third path 1-5-4-6 is
    // longer but independent.
    let mut graph = DiGraph::new(6);
    let mut balances = Vec::new();
    let mut fee_table = Vec::new();
    for (u, v, cap, fee_ppm) in [
        (1u32, 2u32, 30u64, 1_000u64), // cheap
        (1, 5, 30, 2_000),
        (2, 3, 20, 1_000),
        (2, 4, 20, 30_000), // expensive middle hop
        (3, 6, 30, 1_000),
        (4, 6, 30, 1_000),
        (5, 4, 30, 2_000),
    ] {
        graph.add_edge(n(u - 1), n(v - 1)).unwrap();
        balances.push(Amount::from_units(cap));
        fee_table.push(FeePolicy::proportional(fee_ppm));
    }
    let mut net = Network::new(graph, balances, fee_table).unwrap();

    let demand = Amount::from_units(45);
    println!("demand: ${demand} from n0 to n5\n");

    // Phase 1: Algorithm 1 discovers paths, probing lazily.
    let plan = elephant::find_paths(&mut net, n(0), n(5), demand, 4);
    println!(
        "discovered {} candidate paths (max flow ${}):",
        plan.paths.len(),
        plan.max_flow
    );
    for p in &plan.paths {
        println!("  {p}");
    }
    println!("probe messages so far: {}\n", net.metrics().probe_messages);

    // Phase 2: fee-minimizing LP split vs. sequential fill.
    for (optimize, label) in [(true, "LP-optimized"), (false, "sequential")] {
        let parts = fees::split_payment(net.graph(), &plan, demand, optimize)
            .expect("demand within max flow");
        let total_fee = fees::evaluate_fees(net.graph(), &plan, &parts);
        println!("{label} split (total fee ${total_fee}):");
        for (path, amount) in &parts {
            println!("  ${amount:<10} on {path}");
        }
        println!();
    }

    // Execute the optimized split atomically.
    let payment = Payment::new(TxId(1), n(0), n(5), demand);
    let parts = fees::split_payment(net.graph(), &plan, demand, true).unwrap();
    let mut session = net.begin_payment(&payment, PaymentClass::Elephant);
    for (path, amount) in &parts {
        session
            .try_send_part(path, *amount)
            .expect("probed capacity holds");
    }
    let outcome = session.commit();
    println!("executed: {outcome:?}");
}
