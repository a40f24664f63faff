// Known-bad fixture: a `pcn-lint:` allow with no written justification
// suppresses nothing — the P1 finding survives AND the annotation
// itself is flagged as malformed.

// pcn-lint: hot — per-event executor for this fixture
pub fn snapshot(stack: &[u64]) -> Vec<u64> {
    // pcn-lint: allow(hot-alloc)
    stack.to_vec()
}
