//! Allocation counts of fixed-seed workloads, pinned by equality.
//!
//! This target installs a global allocator that forwards every call to
//! [`System`] and counts, per thread, each `alloc`, `alloc_zeroed` and
//! `realloc`. Every run below is deterministic, so its count is exact:
//! the same in every run and every process. Each test pins one
//! workload's count, or a few, and fails when the count moves — a
//! `clone()` added below a hot loop, a `Vec` that grows past its
//! capacity on every event, a `format!` per delivery. What no pinned
//! workload runs is not counted.
//!
//! The counts depend on the build profile: the dev profile's oracles
//! (`debug_assert!`s that re-run a search on fresh arrays) allocate.
//! So each pin holds two constants, and `cfg!(debug_assertions)` picks
//! one; `cargo test` checks the dev constants and `cargo test --release`
//! the release ones.

use flash_offchain::core::classify::threshold_for_mice_fraction;
use flash_offchain::core::Scheme;
use flash_offchain::experiments::figures::churn::churn_mix;
use flash_offchain::experiments::figures::latency::{HOP_LATENCY_MS, NODE_SERVICE_MS};
use flash_offchain::experiments::harness::{
    run_scheme, run_scheme_des, run_scheme_testbed, DesLoad, Effort, Topo, DEFAULT_MICE_FRACTION,
};
use flash_offchain::graph::maxflow::{MaxFlowSolver, PushRelabel};
use flash_offchain::sim::{ChurnRate, LatencyModel, Metrics, Network, ServiceModel};
use flash_offchain::types::{Amount, NodeId, Payment};
use flash_offchain::workload::{generate_trace, testbed_topology, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread since it started.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation on the calling thread.
struct Counting;

#[global_allocator]
static COUNTING: Counting = Counting;

fn count_one() {
    // A `const`-initialised `Cell` needs neither lazy initialisation nor
    // a destructor, so this access never allocates and never fails.
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already meets, and
// returns what `System` returns; counting touches only a thread-local
// `Cell`.
#[expect(
    unsafe_code,
    reason = "a global allocator is an `unsafe impl`; this one forwards every call to `System` unchanged and only counts"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// The profile this target was built in, which picks a pin's constant.
const PROFILE: &str = if cfg!(debug_assertions) {
    "dev"
} else {
    "release"
};

/// The command that prints every count of this profile.
const RECORD: &str = if cfg!(debug_assertions) {
    "cargo test -q --test allocations"
} else {
    "cargo test -q --release --test allocations"
};

/// One workload's count against its pin in each profile.
struct Pin {
    workload: String,
    got: u64,
    dev: u64,
    release: u64,
}

/// Checks every pin against this profile's constant and fails with all
/// the mismatches at once, each naming its workload and both counts.
/// `detail` adds per-unit context (per frame, per payment) to the
/// message.
fn check(pins: &[Pin], detail: &str) {
    let failures: Vec<String> = pins
        .iter()
        .filter_map(|pin| {
            let want = if cfg!(debug_assertions) {
                pin.dev
            } else {
                pin.release
            };
            (pin.got != want).then(|| {
                format!(
                    "{}: {} allocations in the {PROFILE} profile, pinned at {want}",
                    pin.workload, pin.got
                )
            })
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{}{detail}\nThe code under test allocates differently: find the change \
         that did it. A toolchain update can legitimately move these counts; \
         then `{RECORD}` prints every new {PROFILE} count, to be copied into its pin.",
        failures.join("\n"),
    );
}

/// The quick Ripple network and a 300-payment trace on it, with the
/// harness's mice threshold.
fn quick_ripple() -> (Network, Vec<Payment>, Amount) {
    let net = Topo::Ripple.build_network(Effort::Quick, 1);
    let trace = Topo::Ripple.build_trace(&net, 300, 2);
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    (net, trace, threshold)
}

/// Flash on the simulator, warm: the first half of the trace fills the
/// router's scratch arrays and mice table, and the second half is
/// counted per class. It reaches Yen's spur search (mice table misses
/// and dead-path replacements), the phase walk (every elephant probe)
/// and the simulator's probe round trip.
#[test]
fn flash_on_the_simulator_by_class() {
    let (mut net, trace, threshold) = quick_ripple();
    let mut router = Scheme::Flash.router::<Network>(threshold, 3);
    let (warm, counted_half) = trace.split_at(trace.len() / 2);
    for p in warm {
        router.route(&mut net, p, p.classify(threshold));
    }
    let (mut mice, mut elephants) = ((0u64, 0u64), (0u64, 0u64));
    for p in counted_half {
        let class = p.classify(threshold);
        let ((), n) = counted(|| {
            router.route(&mut net, p, class);
        });
        let tally = if class.is_mice() {
            &mut mice
        } else {
            &mut elephants
        };
        *tally = (tally.0 + 1, tally.1 + n);
    }
    check(
        &[
            Pin {
                workload: "Flash on the simulator, warm mice".into(),
                got: mice.1,
                dev: 3_949,
                release: 1_345,
            },
            Pin {
                workload: "Flash on the simulator, warm elephants".into(),
                got: elephants.1,
                dev: 2_804,
                release: 1_352,
            },
        ],
        &format!(
            "\n({} mice, {} elephants in the counted half)",
            mice.0, elephants.0
        ),
    );
}

/// Every scheme over the whole quick Ripple trace through
/// `run_scheme`: the network copy and the router's first arrays count
/// too.
#[test]
fn five_schemes_on_the_simulator() {
    let (net, trace, _) = quick_ripple();
    let pins = [
        (Scheme::Flash, 13_019, 5_234),
        (Scheme::Spider, 3_984, 3_984),
        (Scheme::SpeedyMurmurs, 4_142, 4_142),
        (Scheme::SilentWhispers, 7_052, 7_052),
        (Scheme::ShortestPath, 326, 326),
    ]
    .map(|(scheme, dev, release)| {
        let (_, got) = counted(|| run_scheme(&net, scheme, &trace, DEFAULT_MICE_FRACTION, 3));
        Pin {
            workload: format!("{} on the simulator", scheme.label()),
            got,
            dev,
            release,
        }
    });
    check(&pins, "");
}

/// The 60-node §5.2 topology and a 200-payment Ripple trace on it.
fn des_setup() -> (Network, Vec<Payment>) {
    let net = testbed_topology(60, 1000, 1500, 5);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(200, 6));
    (net, trace)
}

/// The latency sweep's delay model at 100 payments per second.
fn des_load(churn: ChurnRate) -> DesLoad {
    DesLoad {
        rate_per_sec: 100.0,
        latency: LatencyModel::constant_ms(HOP_LATENCY_MS),
        service: ServiceModel::constant_ms(NODE_SERVICE_MS),
        churn,
    }
}

/// Every scheme through the DES: the executor, the event queue, each
/// message delivery with its reservation lookup, every probe round
/// trip and every commit and settlement wave.
#[test]
fn five_schemes_through_the_des() {
    let (net, trace) = des_setup();
    let pins = [
        (Scheme::Flash, 11_336, 3_927),
        (Scheme::Spider, 3_178, 3_178),
        (Scheme::SpeedyMurmurs, 3_350, 3_350),
        (Scheme::SilentWhispers, 5_698, 5_698),
        (Scheme::ShortestPath, 418, 418),
    ]
    .map(|(scheme, dev, release)| {
        let (_, got) = counted(|| {
            run_scheme_des(
                &net,
                scheme,
                &trace,
                DEFAULT_MICE_FRACTION,
                7,
                des_load(ChurnRate::zero()),
            )
        });
        Pin {
            workload: format!("{} through the DES", scheme.label()),
            got,
            dev,
            release,
        }
    });
    check(&pins, "");
}

/// Flash through the DES under churn: the only workload that reaches
/// the churn handler.
#[test]
fn flash_through_the_des_under_churn() {
    let (net, trace) = des_setup();
    let (report, got) = counted(|| {
        run_scheme_des(
            &net,
            Scheme::Flash,
            &trace,
            DEFAULT_MICE_FRACTION,
            7,
            des_load(churn_mix(10.0)),
        )
    });
    assert!(report.closed_channels > 0, "no channel closed: {report:?}");
    check(
        &[Pin {
            workload: "Flash through the DES, 10 closes/s".into(),
            got,
            dev: 10_088,
            release: 3_352,
        }],
        "",
    );
}

/// Flash on the TCP testbed: every frame crosses the reactor's pass
/// twice and the wire codec once each way.
#[test]
fn flash_on_the_testbed_reactor() {
    let net = testbed_topology(60, 1000, 1500, 41);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(80, 42));
    let (report, got) =
        counted(|| run_scheme_testbed(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, 1));
    assert!(report.clean_shutdown);
    let frames = report.wire_in();
    check(
        &[Pin {
            workload: "Flash on the testbed reactor".into(),
            got,
            dev: 17_683,
            release: 12_781,
        }],
        &format!(
            "\n({frames} frames, {:.3} allocations per frame)",
            got as f64 / frames as f64
        ),
    );
}

/// `Metrics::default()`, which every backend's set-up runs: both
/// histograms allocate their counters at their first observation, not
/// here.
#[test]
fn default_metrics() {
    let (metrics, got) = counted(Metrics::default);
    assert_eq!(metrics.latency.count() + metrics.queue_delay.count(), 0);
    check(
        &[Pin {
            workload: "Metrics::default()".into(),
            got,
            dev: 0,
            release: 0,
        }],
        "",
    );
}

/// A second push-relabel solve on the same solver: the residual graph,
/// the discharge loop's arena and the result.
#[test]
fn push_relabel_second_solve() {
    let net = Topo::Ripple.build_network(Effort::Quick, 1);
    let g = net.graph();
    let capacity: Vec<u64> = g.edges().map(|(e, _, _)| net.balance(e).micros()).collect();
    let (s, t) = (NodeId(0), NodeId(g.node_count() as u32 - 1));
    let solver = PushRelabel;
    let first = solver.max_flow(g, s, t, &capacity);
    let (second, got) = counted(|| solver.max_flow(g, s, t, &capacity));
    assert!(second.value > 0);
    assert_eq!(
        (second.value, second.edge_flow),
        (first.value, first.edge_flow)
    );
    check(
        &[Pin {
            workload: "push-relabel, second solve".into(),
            got,
            dev: 26,
            release: 26,
        }],
        "",
    );
}
