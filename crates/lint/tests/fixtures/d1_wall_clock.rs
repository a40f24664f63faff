// Known-bad fixture for D1: wall-clock reads inside a deterministic
// crate. The import, the fully-qualified call, and a stored `Instant`
// reached through a glob import must all be flagged.
use std::time::Instant;

pub fn route_latency() -> std::time::Duration {
    let start = std::time::Instant::now();
    do_route();
    start.elapsed()
}

fn do_route() {}

mod glob_import {
    use std::time::*;

    pub struct Span {
        pub started: Instant,
    }
}
