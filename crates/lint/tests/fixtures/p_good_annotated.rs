// Known-good fixture: the hot-path shape of `p1_hot_graph_clone.rs`
// with its one allocation carrying a justified annotation — lint finds
// nothing, audit reports exactly that justified suppression.

// pcn-lint: hot — per-event executor for this fixture
pub fn run(net: &mut Net) -> u64 {
    // pcn-lint: allow(hot-alloc) — one order Vec per run, not per event
    let order: Vec<usize> = (0..net.len()).collect();
    settle(net, &order)
}

fn settle(net: &mut Net, order: &[usize]) -> u64 {
    let first = order.first().copied().unwrap_or(0);
    net.balance(first).saturating_sub(net.spent(first)).micros()
}
