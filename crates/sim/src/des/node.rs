//! Per-node message service: a deterministic service time and a FIFO
//! queue at every node.
//!
//! The [`LatencyModel`](super::latency) prices *propagation* — how long
//! a message spends on the wire between two nodes. It is a pure
//! function of the message, so a node under heavy load forwards its
//! thousandth concurrent message exactly as fast as its first, and
//! completion latency cannot respond to offered load (the flat
//! `lat_b` curve ROADMAP used to track). This module adds the missing
//! half of the delay model: **service**. Every message delivered to a
//! node (`PROBE`, phase-1 `COMMIT`, and the `CONFIRM`/`REVERSE`
//! settlement waves alike) occupies that node's single server for a
//! deterministic service time, and messages that arrive while the
//! server is busy wait behind the node's backlog before their handler
//! runs and the next hop is scheduled.
//!
//! With Poisson arrivals and a deterministic service time this is the
//! classic **M/D/1** queue per node: mean waiting time
//! `W = ρ·s / (2(1−ρ))` for utilization `ρ = λ·s`, so queueing delay
//! is negligible while a node is mostly idle and diverges as its
//! message rate `λ` approaches the service rate `1/s`. That divergence
//! is exactly the congestion knee the latency-vs-load sweep
//! (`figures::latency`) was missing.
//!
//! # The service calendar
//!
//! The engine runs each payment's decision logic to completion at its
//! admission instant (sender-serialized admission — see the
//! [`network`](super::network) module docs), so messages are
//! *processed* in admission order but *arrive* in arbitrary
//! virtual-time order: payment `i`'s probe may be computed after
//! payment `i−1`'s settlement wave yet arrive at a node long before
//! it. A single "server busy until" scalar would therefore serialize
//! messages by processing order and make early arrivals queue behind
//! far-future work — wildly over-counting contention at idle nodes.
//!
//! Instead each node keeps a **calendar** of non-overlapping service
//! reservations `[start, start + s)`. A message arriving at `a` takes
//! the earliest gap of length `s` at or after `a` (first fit), waiting
//! behind exactly the reservations that actually occupy the server
//! around its arrival. For messages arriving in time order this *is*
//! the FIFO M/D/1 queue; out-of-order processing slots into genuine
//! idle gaps instead of phantom-queueing. The single-server law —
//! **no two service intervals at a node ever overlap** — is the
//! backlog conservation invariant
//! ([`ServiceQueues::assert_backlog_conserved`]) checked at every
//! event boundary under
//! [`DesConfig::check_conservation`](super::network::DesConfig).
//!
//! Beside its calendar each node indexes its **busy runs**: maximal
//! stretches of two or more reservations whose consecutive gaps are
//! each shorter than one service time `s`. Every reservation is exactly
//! `s` long, so such a gap can never hold a message, and it stays dead
//! for good: a reservation placed later only shrinks the gaps around
//! it, and release drops whole reservations from the front. A
//! first-fit walk that enters a busy run therefore always leaves it at
//! the run's end, and one that steps over a *lone* reservation (at
//! least `s` from both neighbours) always fits right after it. So with
//! `F` the first reservation still busy at the arrival `a` (a binary
//! search), the message is served at `a` when there is no `F` or `a + s
//! ≤ F.start`; otherwise at the end of `F`'s busy run (a binary search
//! over the runs), or at `F.end` when `F` is lone. The new slot then
//! joins the reservations less than `s` away on either side, extending,
//! merging or opening a run. Placement costs at most three binary
//! searches however deep the backlog, and lands exactly where the walk
//! over the reservations one at a time would land. Lone reservations stay out of
//! the index: on a lightly loaded node most reservations are lone, and
//! indexing them would double the calendar's own insertion work. The
//! per-reservation calendar stays for the backlog each arrival sees and
//! for the single-server check.
//!
//! # Storage
//!
//! Every reservation is exactly `s` long, so a calendar stores only
//! starts: one contiguous, sorted slice of 8-byte [`SimTime`]s, the
//! reservation at `start` ending at `start + s`. Release consumes the
//! slice from the front by moving a head index, not the entries; once
//! the dropped prefix is as long as the live part, the live part moves
//! to the front of its allocation, a copy paid for by the drops before
//! it. A new slot goes in with one `Vec::insert`, which shifts only the
//! entries after it. The busy runs live in the same kind of slice. The
//! three searches are binary searches over plain slices: each probe is
//! one indexed load and one comparison against `start + s`, with no
//! wrap-around arithmetic.
//!
//! # Release
//!
//! The engine raises a release watermark at each payment admission
//! ([`ServiceQueues::release_before`], O(1)): no later message arrives
//! before it. Each node drops its own reservations ending at or below
//! the watermark, one at a time from the front, when it next admits a
//! message (a busy run left with one reservation leaves the index);
//! nothing is placed below the watermark, so dropping them then changes
//! no placement.
//!
//! # Determinism
//!
//! Calendar state depends only on the engine's (deterministic)
//! processing order and the model's deterministic service times —
//! never on hash order, address order, or a wall clock — so runs
//! remain bit-reproducible with queues in the path.
//!
//! # The zero-service fast path
//!
//! A node with zero service time is an infinitely fast server: the
//! message completes at its arrival instant, occupies no calendar
//! slot, and records no statistics. [`ServiceModel::instant`] (the
//! default) therefore leaves propagation as the only delay, and a run
//! under it reports `peak_backlog == 0` and an empty queue-delay
//! histogram (`tests/des_engine.rs` asserts both for every scheme).

use super::time::SimTime;
use pcn_types::NodeId;

/// How long one node takes to process one delivered message: the same
/// deterministic service time at every node (the paper's homogeneous
/// testbed daemons). With Poisson arrivals a nonzero time makes each
/// node an M/D/1 queue; zero (the default) means nodes are infinitely
/// fast and no queue ever forms.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceModel(SimTime);

impl ServiceModel {
    /// A constant per-node service time in milliseconds.
    pub fn constant_ms(ms: u64) -> Self {
        ServiceModel(SimTime::from_millis(ms))
    }

    /// A constant per-node service time in microseconds.
    pub fn constant_us(us: u64) -> Self {
        ServiceModel(SimTime::from_micros(us))
    }

    /// Zero service everywhere (the default).
    pub fn instant() -> Self {
        ServiceModel::default()
    }

    /// The service time of one message at any node.
    pub fn service_time(&self) -> SimTime {
        self.0
    }
}

/// The outcome of admitting one message to a node's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServicePass {
    /// When the node finishes processing the message (the instant its
    /// handler runs and the next hop may be scheduled).
    pub complete: SimTime,
    /// How long the message waited behind the node's backlog before
    /// service began (zero when the server had a free slot on
    /// arrival).
    pub queued: SimTime,
}

/// The work the calendars have done since they were made: plain
/// counts, summed over every node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarWork {
    /// Messages admitted to a calendar (zero-service messages
    /// excluded: they never occupy a server).
    pub admits: u64,
    /// Calendar and run entries read beyond the few next to the slot
    /// that every admission reads: one per binary-search probe and one
    /// per dropped reservation.
    pub examined: u64,
}

/// A busy run: two or more consecutive reservations of one calendar,
/// each gap between them shorter than one service time (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    /// The start of its first reservation.
    start: SimTime,
    /// The end of its last reservation.
    end: SimTime,
    /// How many reservations it holds.
    count: usize,
}

/// A sequence consumed from the front: the entries live at
/// `items[head..]`, so dropping the first one moves the head index, not
/// the entries, and every search reads one plain slice.
#[derive(Clone, Debug)]
struct FrontVec<T> {
    items: Vec<T>,
    head: usize,
}

impl<T> Default for FrontVec<T> {
    fn default() -> Self {
        FrontVec {
            items: Vec::new(),
            head: 0,
        }
    }
}

impl<T> FrontVec<T> {
    /// The live entries, in order.
    fn live(&self) -> &[T] {
        &self.items[self.head..]
    }

    fn live_mut(&mut self) -> &mut [T] {
        &mut self.items[self.head..]
    }

    /// Drops the first live entry. Once the dropped prefix is as long
    /// as the live part, the live part moves to the front: each move is
    /// paid for by an earlier drop.
    fn pop_front(&mut self) {
        self.head += 1;
        if self.head * 2 >= self.items.len() {
            self.items.drain(..self.head);
            self.head = 0;
        }
    }

    /// Inserts `item` at live index `i`.
    fn insert(&mut self, i: usize, item: T) {
        self.items.insert(self.head + i, item);
    }

    /// Removes the entry at live index `i`.
    fn remove(&mut self, i: usize) {
        self.items.remove(self.head + i);
    }
}

/// Per-node bookkeeping: the service calendar, its busy runs and its
/// busy time.
#[derive(Clone, Debug, Default)]
struct NodeState {
    /// The starts of the non-overlapping service reservations, sorted;
    /// the one starting at `start` ends at `start + s`. Entries ending at
    /// or below the release watermark stay until this node's next
    /// admission.
    starts: FrontVec<SimTime>,
    /// The calendar's busy runs, in order. A reservation at least one
    /// service time away from both neighbours is in none.
    runs: FrontVec<Run>,
    /// Total service time this node has accumulated, in microseconds.
    busy_us: u64,
}

/// The first index in `lo..hi` whose entry fails `pred`, for entries
/// that pass `pred` up to some index and fail it from there on; each
/// entry read adds one to `examined`.
fn partition_point<T>(
    entries: &[T],
    (mut lo, mut hi): (usize, usize),
    examined: &mut u64,
    pred: impl Fn(&T) -> bool,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *examined += 1;
        if pred(&entries[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether the reservations starting at `starts[i]` and `starts[i + 1]`
/// lie less than `service` apart, so that one busy run holds both.
fn tied(starts: &[SimTime], i: usize, service: SimTime) -> bool {
    match (starts.get(i), starts.get(i + 1)) {
        (Some(&a), Some(&b)) => b < a + service + service,
        _ => false,
    }
}

/// All nodes' service queues plus the aggregate statistics the
/// [`DesReport`](super::engine::DesReport) exposes.
///
/// Owned by [`DesNetwork`](super::network::DesNetwork); every message
/// delivery goes through [`ServiceQueues::admit`].
#[derive(Clone, Debug)]
pub struct ServiceQueues {
    model: ServiceModel,
    nodes: Vec<NodeState>,
    /// Admissions and calendar entries read; `work.admits` is the
    /// number of messages admitted to any calendar.
    work: CalendarWork,
    /// Reservations dropped from a calendar once the watermark passed
    /// their end.
    completed: u64,
    /// Highest number of messages simultaneously occupying one node
    /// (waiting + in service) observed by any single arrival.
    peak_backlog: u64,
    /// The release watermark: the latest instant passed to
    /// [`ServiceQueues::release_before`]. No arrival may lie below it
    /// (the engine releases at each admission time, which is
    /// non-decreasing), and [`ServiceQueues::admit`] drops its node's
    /// reservations ending at or before it.
    released_to: SimTime,
}

impl ServiceQueues {
    /// Queues for `node_count` nodes under `model`, all idle.
    pub fn new(model: ServiceModel, node_count: usize) -> Self {
        ServiceQueues {
            model,
            nodes: vec![NodeState::default(); node_count],
            work: CalendarWork::default(),
            completed: 0,
            peak_backlog: 0,
            released_to: SimTime::ZERO,
        }
    }

    /// The model in force.
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// Admits a message arriving at `node` at `arrival`: it takes the
    /// earliest service slot of the model's length at or after
    /// `arrival` in the node's calendar (FIFO for in-order arrivals)
    /// and completes when that slot ends. Returns the completion
    /// instant and the queueing delay.
    ///
    /// Zero-service messages complete at their arrival instant without
    /// touching the calendar (see the module docs). `arrival` must not
    /// lie below the release watermark.
    pub fn admit(&mut self, node: NodeId, arrival: SimTime) -> ServicePass {
        debug_assert!(
            arrival >= self.released_to,
            "arrival {arrival} below the release watermark {}",
            self.released_to
        );
        let service = self.model.service_time();
        if service == SimTime::ZERO {
            return ServicePass {
                complete: arrival,
                queued: SimTime::ZERO,
            };
        }
        let state = &mut self.nodes[node.0 as usize];
        let examined = &mut self.work.examined;
        // Drop this node's reservations the watermark has passed: no
        // message from here on can wait behind them.
        while let Some(&first) = state.starts.live().first() {
            if first + service > self.released_to {
                break;
            }
            let opens_a_run = tied(state.starts.live(), 0, service);
            state.starts.pop_front();
            *examined += 1;
            self.completed += 1;
            if opens_a_run {
                // The run keeps the next reservation, which exists.
                let run = &mut state.runs.live_mut()[0];
                run.count -= 1;
                if run.count > 1 {
                    run.start = state.starts.live()[0];
                } else {
                    state.runs.pop_front();
                }
            }
        }
        let (starts, runs) = (state.starts.live(), state.runs.live());
        let len = starts.len();
        // Reservations already over by `arrival` are no backlog for
        // this message.
        let from = partition_point(starts, (0, len), examined, |&s| s + service <= arrival);
        // The slot, where it goes in the calendar and, once searched,
        // how many busy runs end at or before it.
        let (start, at, ended) = match starts.get(from) {
            Some(&first) if arrival + service > first => {
                let in_run = |i| tied(starts, i, service);
                if from.checked_sub(1).is_some_and(in_run) || in_run(from) {
                    // The reservation in the way lies in a busy run: no
                    // gap in the run holds a message, so serve at its end.
                    let b = partition_point(runs, (0, runs.len()), examined, |r| r.end <= arrival);
                    let run = runs[b];
                    let within = (from + 1, len.min(from + run.count));
                    let at = partition_point(starts, within, examined, |&s| s < run.end);
                    (run.end, at, Some(b + 1))
                } else {
                    // A lone reservation: the gap after it holds one.
                    (first + service, from + 1, None)
                }
            }
            _ => (arrival, from, None),
        };
        // Join the slot to the reservations less than one service time
        // away on either side, and those to their busy runs.
        let end = start + service;
        let prev = at
            .checked_sub(1)
            .map(|i| starts[i])
            .filter(|&p| start < p + service + service);
        let next = starts.get(at).copied().filter(|&n| n < end + service);
        if prev.is_some() || next.is_some() {
            let q = ended.unwrap_or_else(|| {
                partition_point(runs, (0, runs.len()), examined, |r| r.end <= start)
            });
            let prev_run = q
                .checked_sub(1)
                .filter(|&i| prev.is_some_and(|p| runs[i].end == p + service));
            let next_run = runs
                .get(q)
                .is_some_and(|run| next.is_some_and(|n| run.start == n));
            let lone = |start: SimTime| Run {
                start,
                end: start + service,
                count: 1,
            };
            let mut joined = lone(start);
            if let Some(p) = prev {
                let left = prev_run.map_or(lone(p), |i| runs[i]);
                joined.start = left.start;
                joined.count += left.count;
            }
            if let Some(n) = next {
                let right = if next_run { runs[q] } else { lone(n) };
                joined.end = right.end;
                joined.count += right.count;
            }
            let runs = &mut state.runs;
            match (prev_run, next_run) {
                (Some(i), true) => {
                    runs.live_mut()[i] = joined;
                    runs.remove(q);
                }
                (Some(i), false) => runs.live_mut()[i] = joined,
                (None, true) => runs.live_mut()[q] = joined,
                (None, false) => runs.insert(q, joined),
            }
        }
        state.starts.insert(at, start);
        state.busy_us += service.micros();
        self.work.admits += 1;
        // Everything it waited behind, plus itself.
        let backlog = (at - from + 1) as u64;
        self.peak_backlog = self.peak_backlog.max(backlog);
        ServicePass {
            complete: end,
            queued: start.saturating_sub(arrival),
        }
    }

    /// Declares that no message will arrive before `t` — the engine
    /// calls this with each payment's admission time, which is
    /// non-decreasing. Raises the release watermark (a `t` below it is
    /// a no-op); each node drops its finished reservations at its next
    /// [`ServiceQueues::admit`].
    pub fn release_before(&mut self, t: SimTime) {
        self.released_to = self.released_to.max(t);
    }

    /// Messages admitted to a calendar so far.
    pub fn enqueued(&self) -> u64 {
        self.work.admits
    }

    /// The work done so far: admissions, and the calendar and run
    /// entries they read.
    pub fn work(&self) -> CalendarWork {
        self.work
    }

    /// Reservations the calendars still hold, across all nodes: the
    /// live ones plus the finished ones a node has not yet dropped
    /// because it has admitted nothing since the watermark passed them.
    pub fn backlog(&self) -> u64 {
        self.nodes
            .iter()
            .map(|s| s.starts.live().len() as u64)
            .sum()
    }

    /// The highest per-node backlog (messages waiting + in service,
    /// as seen by one arrival) observed at any single node.
    pub fn peak_backlog(&self) -> u64 {
        self.peak_backlog
    }

    /// The busiest node's utilization over a run of length `makespan`:
    /// its accumulated service time divided by the makespan, in
    /// `[0, 1]` (a saturated node serves back-to-back and approaches
    /// 1). Zero for an empty or instant run.
    pub fn max_utilization(&self, makespan: SimTime) -> f64 {
        if makespan == SimTime::ZERO {
            return 0.0;
        }
        let busiest = self.nodes.iter().map(|s| s.busy_us).max().unwrap_or(0);
        (busiest as f64 / makespan.micros() as f64).min(1.0)
    }

    /// Asserts the backlog-conservation invariant: every admitted
    /// message is either dropped or still held on a calendar (`enqueued
    /// == completed + backlog`), and each node's calendar is sorted and
    /// **non-overlapping** — the single-server law: a node never
    /// serves two messages at once. Also asserts that each node's busy
    /// runs are exactly its calendar's maximal stretches of two or more
    /// reservations whose gaps are each shorter than one service time,
    /// in order. Called at every event boundary under
    /// [`DesConfig::check_conservation`](super::network::DesConfig).
    ///
    /// # Panics
    /// Panics if any part of the invariant is violated.
    pub fn assert_backlog_conserved(&self) {
        let pending: u64 = self.backlog();
        assert_eq!(
            self.work.admits,
            self.completed + pending,
            "service backlog leaked: {} enqueued != {} completed + {} pending",
            self.work.admits,
            self.completed,
            pending
        );
        let service = self.model.service_time();
        for (i, state) in self.nodes.iter().enumerate() {
            let calendar = state
                .starts
                .live()
                .iter()
                .map(|&start| (start, start + service));
            for ((start, end), (next_start, _)) in calendar.clone().zip(calendar.clone().skip(1)) {
                assert!(start <= next_start, "node {i}: calendar out of order");
                assert!(
                    end <= next_start,
                    "node {i}: overlapping service reservations \
                     [{start}, {end}) and [{next_start}, ..) — two \
                     messages served at once"
                );
            }
            for (start, end) in calendar.clone() {
                assert!(start < end, "node {i}: empty or inverted reservation");
            }
            // Rebuild the busy runs from the calendar and compare; a
            // sentinel past the end closes the last one.
            let mut runs = state.runs.live().iter();
            let mut open: Option<Run> = None;
            for (start, end) in calendar.chain([(SimTime::MAX, SimTime::MAX)]) {
                match open.as_mut() {
                    Some(run) if start < run.end + service => {
                        run.end = end;
                        run.count += 1;
                    }
                    _ => {
                        let closed = open.replace(Run {
                            start,
                            end,
                            count: 1,
                        });
                        if let Some(closed) = closed.filter(|run| run.count > 1) {
                            assert_eq!(runs.next(), Some(&closed), "node {i}: busy runs");
                        }
                    }
                }
            }
            assert_eq!(runs.next(), None, "node {i}: busy runs past the calendar");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 2);
        let pass = q.admit(n(0), t(50));
        assert_eq!(pass.complete, t(150));
        assert_eq!(pass.queued, SimTime::ZERO);
        assert_eq!(q.peak_backlog(), 1);
        q.assert_backlog_conserved();
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 1);
        let a = q.admit(n(0), t(0));
        let b = q.admit(n(0), t(10));
        let c = q.admit(n(0), t(20));
        assert_eq!(a.complete, t(100));
        assert_eq!(b.complete, t(200));
        assert_eq!(b.queued, t(90));
        assert_eq!(c.complete, t(300));
        assert_eq!(c.queued, t(180));
        assert_eq!(q.peak_backlog(), 3);
        q.assert_backlog_conserved();
    }

    #[test]
    fn arrivals_after_the_backlog_drains_see_an_idle_server() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 1);
        q.admit(n(0), t(0));
        q.admit(n(0), t(10));
        // Releasing only raises the watermark: both finished
        // reservations stay held until the node admits again.
        q.release_before(t(10_000));
        assert_eq!(q.backlog(), 2);
        q.assert_backlog_conserved();
        // Arrives long after both completions: no wait, and its
        // admission drops the two finished reservations.
        let late = q.admit(n(0), t(10_000));
        assert_eq!(late.queued, SimTime::ZERO);
        assert_eq!(late.complete, t(10_100));
        assert_eq!(q.backlog(), 1);
        assert_eq!(q.enqueued(), 3);
        assert_eq!(q.peak_backlog(), 2);
        q.assert_backlog_conserved();
    }

    #[test]
    fn nodes_queue_independently() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 3);
        q.admit(n(0), t(0));
        let other = q.admit(n(2), t(0));
        assert_eq!(other.queued, SimTime::ZERO, "nodes share no server");
        assert_eq!(q.peak_backlog(), 1, "no arrival saw another node's message");
    }

    #[test]
    fn out_of_order_arrival_takes_an_idle_gap() {
        // Processed later but arriving earlier: the server is genuinely
        // idle at t=100, so the message is served there — it does NOT
        // phantom-queue behind the far-future reservation.
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 1);
        q.admit(n(0), t(500));
        let early = q.admit(n(0), t(100));
        assert_eq!(early.complete, t(200));
        assert_eq!(early.queued, SimTime::ZERO);
        q.assert_backlog_conserved();
    }

    #[test]
    fn out_of_order_arrival_with_no_gap_waits_its_turn() {
        // The gap before the existing reservation is too short: the
        // single-server law forces the late-processed message to the
        // far side of it.
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 1);
        q.admit(n(0), t(50));
        let early = q.admit(n(0), t(0));
        assert_eq!(early.queued, t(150));
        assert_eq!(early.complete, t(250));
        assert_eq!(q.peak_backlog(), 2);
        q.assert_backlog_conserved();
    }

    #[test]
    fn first_fit_fills_interior_gaps() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 1);
        q.admit(n(0), t(0)); // [0, 100)
        q.admit(n(0), t(300)); // [300, 400)
                               // Fits exactly between the two.
        let mid = q.admit(n(0), t(150));
        assert_eq!(mid.complete, t(250));
        assert_eq!(mid.queued, SimTime::ZERO);
        // Does not fit before [300, 400) anymore; lands after it.
        let squeezed = q.admit(n(0), t(220));
        assert_eq!(squeezed.complete, t(500));
        assert_eq!(squeezed.queued, t(180));
        q.assert_backlog_conserved();
    }

    #[test]
    fn zero_service_is_transparent() {
        let mut q = ServiceQueues::new(ServiceModel::instant(), 2);
        for i in 0..10 {
            let pass = q.admit(n(0), t(i * 7));
            assert_eq!(pass.complete, t(i * 7));
            assert_eq!(pass.queued, SimTime::ZERO);
        }
        assert_eq!(q.enqueued(), 0);
        assert_eq!(q.peak_backlog(), 0);
        assert_eq!(q.max_utilization(t(1000)), 0.0);
        q.assert_backlog_conserved();
    }

    #[test]
    fn utilization_tracks_the_busiest_node() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 2);
        for i in 0..5 {
            q.admit(n(0), t(i * 1000));
        }
        q.admit(n(1), t(0));
        // Node 0 accrued 500us of service over a 2000us run; node 1's
        // 100us do not add to it.
        assert!((q.max_utilization(t(2000)) - 0.25).abs() < 1e-12);
        // Six more on node 1 make it the busiest: 700us of 2000us.
        for i in 0..6 {
            q.admit(n(1), t(1000 + i * 100));
        }
        assert!((q.max_utilization(t(2000)) - 0.35).abs() < 1e-12);
        // Utilization clamps at 1 even if makespan undercounts.
        assert_eq!(q.max_utilization(t(10)), 1.0);
        assert_eq!(q.max_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn release_is_monotone_and_conserves() {
        let mut q = ServiceQueues::new(ServiceModel::constant_us(100), 2);
        for i in 0..4 {
            q.admit(n(0), t(i * 1000));
        }
        q.release_before(t(2_500));
        // Going backwards is a no-op: the watermark stays at 2_500.
        q.release_before(t(100));
        // Another node's admission drops nothing of node 0's.
        q.admit(n(1), t(2_500));
        assert_eq!(q.backlog(), 5);
        q.assert_backlog_conserved();
        // Node 0's own admission drops its three reservations ending
        // at or before 2_500; [3000, 3100) and the new one stay.
        q.admit(n(0), t(2_600));
        assert_eq!(q.backlog(), 3);
        q.assert_backlog_conserved();
    }

    proptest! {
        /// Lazy release changes no placement: a queue that raises the
        /// watermark before every admission serves exactly like one
        /// that never releases, an admitting node keeps no reservation
        /// the watermark has passed, and no two services at a node
        /// overlap over the whole run (dropped reservations included).
        #[test]
        fn release_changes_no_placement(
            steps in proptest::collection::vec((0u32..4, 0u64..150, 0u64..600), 1..200),
        ) {
            let model = ServiceModel::constant_us(100);
            let mut released = ServiceQueues::new(model, 4);
            let mut kept = ServiceQueues::new(model, 4);
            let mut served = vec![Vec::new(); 4];
            let mut watermark = 0;
            for (node, advance, offset) in steps {
                watermark += advance;
                let arrival = t(watermark + offset);
                released.release_before(t(watermark));
                let pass = released.admit(n(node), arrival);
                prop_assert_eq!(pass, kept.admit(n(node), arrival));
                prop_assert_eq!(released.peak_backlog(), kept.peak_backlog());
                let starts = released.nodes[node as usize].starts.live();
                prop_assert!(starts.iter().all(|&start| start + model.service_time() > t(watermark)));
                released.assert_backlog_conserved();
                let (start, end) = (arrival + pass.queued, pass.complete);
                let others: &mut Vec<(SimTime, SimTime)> = &mut served[node as usize];
                prop_assert!(others.iter().all(|&(s, e)| e <= start || end <= s));
                others.push((start, end));
            }
            kept.assert_backlog_conserved();
            let span = t(watermark + 1_000);
            prop_assert_eq!(released.max_utilization(span), kept.max_utilization(span));
        }
    }

    /// The first-fit walk the run index replaced: from the first
    /// reservation still busy at `arrival`, step over one reservation at
    /// a time until the gap before the next one holds a message.
    /// Returns the slot's start, where the walk began and where the slot
    /// goes in the calendar.
    fn first_fit_walk(
        calendar: &VecDeque<(SimTime, SimTime)>,
        arrival: SimTime,
        service: SimTime,
    ) -> (SimTime, usize, usize) {
        let from = calendar.partition_point(|&(_, end)| end <= arrival);
        let mut start = arrival;
        let mut at = from;
        while let Some(&(res_start, res_end)) = calendar.get(at) {
            if start + service <= res_start {
                break; // the gap before this reservation fits
            }
            start = start.max(res_end);
            at += 1;
        }
        (start, from, at)
    }

    /// Every node's calendar and the queue statistics, kept by
    /// [`first_fit_walk`].
    struct WalkedQueues {
        service: SimTime,
        calendars: Vec<VecDeque<(SimTime, SimTime)>>,
        enqueued: u64,
        completed: u64,
        peak_backlog: u64,
    }

    impl WalkedQueues {
        fn new(service: SimTime, node_count: usize) -> Self {
            WalkedQueues {
                service,
                calendars: vec![VecDeque::new(); node_count],
                enqueued: 0,
                completed: 0,
                peak_backlog: 0,
            }
        }

        fn admit(&mut self, node: usize, arrival: SimTime, released_to: SimTime) -> ServicePass {
            let calendar = &mut self.calendars[node];
            let done = calendar.partition_point(|&(_, end)| end <= released_to);
            calendar.drain(..done);
            self.completed += done as u64;
            let (start, from, at) = first_fit_walk(calendar, arrival, self.service);
            calendar.insert(at, (start, start + self.service));
            self.enqueued += 1;
            self.peak_backlog = self.peak_backlog.max((at - from + 1) as u64);
            ServicePass {
                complete: start + self.service,
                queued: start.saturating_sub(arrival),
            }
        }
    }

    proptest! {
        /// The run index places every message where the linear walk
        /// does, on random multi-node sequences under any service time
        /// from 1 to 200us: saturated and idle paces, a rising
        /// watermark, and out-of-order arrivals far past it. After each
        /// admission the pass, the peak backlog, the node's calendar
        /// and both message counts agree, and every node's busy runs
        /// still match its calendar.
        #[test]
        fn runs_place_like_the_linear_walk(
            service_us in 1u64..=200,
            pace in 1u64..24,
            steps in proptest::collection::vec((0usize..4, 0u64..64, 0u64..64, 0u8..10), 1..300),
        ) {
            let service = t(service_us);
            let mut q = ServiceQueues::new(ServiceModel::constant_us(service_us), 4);
            let mut walked = WalkedQueues::new(service, 4);
            let mut watermark = 0;
            for (node, advance, offset, far) in steps {
                // Eighths of a service time, so gaps of exactly one
                // service time, and one microsecond either side, occur.
                watermark += (advance % pace) * service_us / 8;
                let mut ahead = offset * service_us / 8;
                if far == 0 {
                    ahead += 1_000 * service_us;
                }
                let arrival = t(watermark + ahead);
                q.release_before(t(watermark));
                let pass = q.admit(n(node as u32), arrival);
                prop_assert_eq!(pass, walked.admit(node, arrival, t(watermark)));
                prop_assert_eq!(q.peak_backlog(), walked.peak_backlog);
                let calendar: Vec<(SimTime, SimTime)> =
                    q.nodes[node].starts.live().iter().map(|&start| (start, start + service)).collect();
                let walked_calendar: Vec<(SimTime, SimTime)> = walked.calendars[node].iter().copied().collect();
                prop_assert_eq!(&calendar, &walked_calendar);
                prop_assert_eq!(q.enqueued(), walked.enqueued);
                prop_assert_eq!(q.completed, walked.completed);
                q.assert_backlog_conserved();
            }
        }
    }

    #[test]
    fn waiting_appears_past_the_capacity_knee() {
        // Fixed-gap arrivals: below capacity (gap > service) the server
        // is always idle on arrival and nothing waits; past the knee
        // (gap < service) the backlog — and with it the wait — grows
        // without bound. This is the deterministic skeleton of the
        // M/D/1 behavior the engine-level monotonicity test exercises
        // under Poisson arrivals.
        let wait = |gap_us: u64| {
            let mut q = ServiceQueues::new(ServiceModel::constant_us(90), 1);
            let mut total = 0u64;
            for i in 0..200 {
                total += q.admit(n(0), t(i * gap_us)).queued.micros();
            }
            total as f64 / 200.0
        };
        assert_eq!(wait(180), 0.0, "rho 0.5: no queueing below the knee");
        assert_eq!(wait(100), 0.0, "rho 0.9: still below the knee");
        let saturated = wait(80); // rho > 1: every arrival waits longer
        assert!(saturated > 100.0, "rho 1.125 must queue: {saturated}");
    }
}
