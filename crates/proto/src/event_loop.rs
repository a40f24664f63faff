//! The reactor hosting every node actor in one thread.
//!
//! A single-threaded event loop over non-blocking loopback sockets — no
//! threads per node, no external async runtime, no `epoll`:
//!
//! * one non-blocking [`TcpListener`] per node (bound before any
//!   traffic flows, so the address book is complete),
//! * outbound connections with explicit write buffers flushed as the
//!   kernel accepts bytes,
//! * inbound connections feeding a [`FrameDecoder`] each,
//! * a [`NodeState`] per node executing the protocol state machine,
//! * a request table correlating client-injected messages with their
//!   terminal replies by `trans_id`.
//!
//! # What is polled, and why that is enough
//!
//! The loop is the only process that knows the listeners' addresses, so
//! every inbound connection is the far end of an outbound connection
//! this same loop opened. That makes readiness something the loop can
//! *account for* instead of asking the kernel about every socket:
//!
//! * a connect is remembered, by the connector's local address, on the
//!   listener it targets; when that listener accepts, the accepted
//!   socket's peer address names its connector and the two ends are
//!   **paired** — pairing is total, and an accepted socket nobody here
//!   connected is dropped and counted as a transport error;
//! * every byte written into an outbound socket is added to that pair's
//!   in-flight count, every byte read from the inbound end is taken off.
//!
//! Three *ready sets* follow: listeners with connects they have not
//! accepted, outbound connections with buffered bytes, inbound
//! connections whose pair has bytes in flight. [`EventLoop::poll_once`]
//! makes one pass — accept, read + dispatch, flush — over those sets
//! only: a frame moving one hop costs one `write` and one `read`
//! whatever the cluster size, and a read stops when the in-flight count
//! reaches zero rather than at `WouldBlock`.
//!
//! # Quiescence
//!
//! Nothing is in flight exactly when all three ready sets and the
//! dispatch queue are empty. [`EventLoop::drain`] pumps until that
//! holds; [`EventLoop::run_requests`] also returns on it, because a
//! request still unanswered then (its frames were dropped on the lossy
//! wire, or swallowed by a crashed node) can never be answered. A pass
//! that moved nothing while bytes are still in flight — the kernel has
//! not delivered them to the other end yet — yields the thread and
//! polls the same sockets again; the caller's wall deadline only guards
//! against a kernel that never delivers.
//!
//! A connection that fails (read or write error, EOF, malformed frame)
//! is closed at both ends and its buffered frames and in-flight bytes
//! are written off, so a dead socket cannot hold quiescence hostage;
//! the next send on that `(from, to)` reconnects.
//!
//! # Threading contract
//!
//! One owner drives the loop: every operation that moves a frame takes
//! `&mut self`, and [`Cluster`](crate::Cluster) owns its loop outright.
//!
//! # Determinism
//!
//! Each pass visits its ready sets in the order a scan of every socket
//! would: listeners, then inbound connections, then outbound buffers,
//! each in ascending creation index; a listener's backlog is accepted
//! in connect order, which numbers the inbound connections; dispatch is
//! FIFO per pass. Wall time enters only through [`crate::wall_now`]
//! (lint rule D1) and is used exclusively for the stall guard — never
//! for ordering decisions.

use crate::node::{NodeState, Outbox, MSG_TYPES};
use crate::transport::FrameDecoder;
use crate::wall::WallInstant;
use crate::wire::Message;
use pcn_sim::FaultConfig;
use pcn_types::{PcnError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// An accepted inbound connection, owned by the listening node.
struct InConn {
    /// The node whose listener accepted this connection.
    owner: u32,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Index of the [`OutConn`] at the other end of this socket.
    peer: usize,
    open: bool,
}

/// A persistent outbound connection with an explicit write buffer.
struct OutConn {
    /// Sending node (its counters track the queue depth).
    from: u32,
    stream: TcpStream,
    /// Encoded frames awaiting the kernel.
    buf: Vec<u8>,
    /// How much of `buf` has been written.
    cursor: usize,
    /// End offset of each queued frame, for queue-depth accounting.
    frame_ends: VecDeque<usize>,
    /// Index of the [`InConn`] at the other end, once its listener has
    /// accepted it.
    peer: Option<usize>,
    /// Bytes written into the socket that `peer` has not read yet.
    in_flight: usize,
    open: bool,
}

/// What [`EventLoop::shutdown`] found while winding down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Frames still queued on outbound buffers after the final drain.
    pub unflushed_frames: u64,
    /// Bytes of partial frames stuck in inbound decoders.
    pub undecoded_bytes: u64,
    /// Requests begun but never answered (timed out or abandoned).
    pub unanswered_requests: u64,
    /// Sockets that failed mid-run (connect/read/write errors).
    pub transport_errors: u64,
}

impl ShutdownReport {
    /// Whether the loop wound down with nothing left behind.
    pub fn is_clean(&self) -> bool {
        self.unflushed_frames == 0 && self.undecoded_bytes == 0 && self.transport_errors == 0
    }
}

/// The single-threaded reactor. See the module docs for the contract.
pub struct EventLoop {
    nodes: Vec<NodeState>,
    listeners: Vec<TcpListener>,
    addrs: HashMap<u32, SocketAddr>,
    in_conns: Vec<InConn>,
    out_conns: Vec<OutConn>,
    /// `(from, to)` → index into `out_conns`.
    out_index: HashMap<(u32, u32), usize>,
    /// Per listener: the connects it has not accepted yet, as
    /// `(connector's local address, out_conns index)`.
    connecting: Vec<Vec<(SocketAddr, usize)>>,
    /// Ready set: listeners with a non-empty `connecting` entry.
    accept_ready: Vec<usize>,
    /// Ready set: inbound connections whose pair has bytes in flight.
    read_ready: Vec<usize>,
    /// Ready set: outbound connections with unflushed bytes.
    write_ready: Vec<usize>,
    /// Open request slots: `None` until the terminal reply arrives.
    pending: HashMap<u64, Option<Message>>,
    /// Messages decoded this pass, awaiting dispatch (FIFO).
    scratch: VecDeque<(u32, Message)>,
    /// The one outbox every dispatch fills and empties.
    outbox: Outbox,
    /// Probability of dropping an outbound frame, in parts per million
    /// (0 = a lossless wire, 1_000_000 = drop everything).
    drop_ppm: u64,
    /// The drop rolls, seeded from the fault configuration.
    drop_rng: StdRng,
    /// Frames dropped so far.
    dropped: u64,
    transport_errors: u64,
    /// `accept`/`read`/`write` calls issued so far.
    socket_ops: u64,
    shut: bool,
}

impl EventLoop {
    /// Binds one non-blocking listener per node and installs the
    /// initial outgoing balances. `balances[i]` maps neighbor id →
    /// micro-units for node `i`. No traffic flows until the first
    /// [`EventLoop::poll_once`].
    ///
    /// `faults` is the simulator's fault surface: each outbound frame is
    /// dropped with probability `probe_drop_prob` (clamped to [0, 1]),
    /// rolled on a stream seeded with `seed`. Probe noise has no wire
    /// equivalent — frames carry real balances — so `probe_noise_ppm`
    /// is ignored.
    pub fn new(balances: Vec<HashMap<u32, u64>>, faults: &FaultConfig) -> Result<Self> {
        let mut nodes = Vec::with_capacity(balances.len());
        let mut listeners = Vec::with_capacity(balances.len());
        let mut addrs = HashMap::new();
        for (id, bal) in balances.into_iter().enumerate() {
            let id = id as u32;
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            addrs.insert(id, listener.local_addr()?);
            listeners.push(listener);
            nodes.push(NodeState::new(id, bal));
        }
        Ok(EventLoop {
            connecting: vec![Vec::new(); nodes.len()],
            nodes,
            listeners,
            addrs,
            in_conns: Vec::new(),
            out_conns: Vec::new(),
            out_index: HashMap::new(),
            accept_ready: Vec::new(),
            read_ready: Vec::new(),
            write_ready: Vec::new(),
            pending: HashMap::new(),
            scratch: VecDeque::new(),
            outbox: Outbox::default(),
            drop_ppm: (faults.probe_drop_prob.clamp(0.0, 1.0) * 1_000_000.0) as u64,
            drop_rng: StdRng::seed_from_u64(faults.seed),
            dropped: 0,
            transport_errors: 0,
            socket_ops: 0,
            shut: false,
        })
    }

    /// Number of hosted nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (balances, counters).
    pub fn node(&self, id: u32) -> &NodeState {
        &self.nodes[id as usize]
    }

    /// Telemetry snapshot for every node.
    pub fn counters(&self) -> Vec<crate::node::NodeCounters> {
        self.nodes.iter().map(|n| n.counters().clone()).collect()
    }

    /// Sum of all outgoing balances across the cluster (conservation
    /// checks; meaningful at quiescence, when nothing is escrowed).
    pub fn total_funds(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_outgoing()).sum()
    }

    /// Frames the lossy wire dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `accept`, `read` and `write` calls issued so far, including the
    /// ones that returned `WouldBlock`. Divided by the wire frames
    /// moved, this is the reactor's cost per frame in system calls —
    /// about two when only ready sockets are polled.
    pub fn socket_ops(&self) -> u64 {
        self.socket_ops
    }

    // ----- churn ---------------------------------------------------

    /// Crashes or revives a node (see [`NodeState::set_down`]).
    pub fn set_node_down(&mut self, node: u32, down: bool) {
        self.nodes[node as usize].set_down(down);
    }

    /// Freezes or reopens one channel direction `u → v`.
    pub fn set_channel_closed(&mut self, u: u32, v: u32, closed: bool) {
        self.nodes[u as usize].set_closed_to(v, closed);
    }

    /// Drains up to `amount` from `u → v`; when `credit_reverse`, the
    /// moved funds land on `v → u` (conserving totals), otherwise they
    /// leave the channel system. Returns the amount moved.
    pub fn drain_channel(&mut self, u: u32, v: u32, amount: u64, credit_reverse: bool) -> u64 {
        let moved = self.nodes[u as usize].drain_to(v, amount);
        if credit_reverse {
            self.nodes[v as usize].credit_to(u, moved);
        }
        moved
    }

    // ----- requests ------------------------------------------------

    /// Opens a reply slot for `msg.trans_id` and dispatches `msg` at
    /// its originating node (`path[pos]`). The terminal reply — or a
    /// timeout — is later retrieved with [`EventLoop::take_reply`].
    pub fn begin_request(&mut self, msg: Message) -> Result<u64> {
        let origin = msg
            .current()
            .ok_or_else(|| PcnError::Transport("message with empty path".into()))?;
        if origin as usize >= self.nodes.len() {
            return Err(PcnError::Transport(format!("no node {origin}")));
        }
        let id = msg.trans_id;
        self.pending.insert(id, None);
        self.dispatch(origin, msg);
        Ok(id)
    }

    /// Pumps the loop until every listed request has a reply, or
    /// nothing is in flight anywhere (an unanswered request can then
    /// never be answered — its frames were dropped or swallowed), or a
    /// stalled kernel outlasts `timeout`. Requests not in `ids` are
    /// serviced too — the loop is global — but only the listed ones
    /// gate completion.
    pub fn run_requests(&mut self, ids: &[u64], timeout: Duration) {
        let wall_deadline = crate::wall_now() + timeout;
        while ids
            .iter()
            .any(|id| matches!(self.pending.get(id), Some(None)))
            && self.step(wall_deadline)
        {}
    }

    /// Removes and returns the reply for a finished request. `None`
    /// means the request went unanswered (a late reply arriving after
    /// this call is dropped on the floor, like the old channel-based
    /// correlation).
    pub fn take_reply(&mut self, trans_id: u64) -> Option<Message> {
        self.pending.remove(&trans_id).flatten()
    }

    // ----- the reactor ---------------------------------------------

    /// One pass over the ready sets: accept pending connects, read +
    /// dispatch every frame in flight, flush outbound buffers. Returns
    /// a progress count (0 ⇒ the pass moved nothing).
    // pcn-lint: hot — every wire frame crosses this pass twice; ready lists, dispatch queue and outbox are loop-owned buffers
    pub fn poll_once(&mut self) -> usize {
        let mut progress = 0;
        progress += self.accept_new();
        progress += self.poll_reads();
        progress += self.flush_writes();
        progress
    }

    /// Whether nothing is in flight: no connect waiting to be accepted,
    /// no byte buffered or unread, no message awaiting dispatch.
    fn is_quiescent(&self) -> bool {
        self.accept_ready.is_empty()
            && self.read_ready.is_empty()
            && self.write_ready.is_empty()
            && self.scratch.is_empty()
    }

    /// One pass toward quiescence. Returns false when there is nothing
    /// left to do, or when a pass moved nothing and `wall_deadline` has
    /// passed; a pass that moved nothing before the deadline yields the
    /// thread, so the kernel can deliver what is in flight.
    fn step(&mut self, wall_deadline: WallInstant) -> bool {
        if self.is_quiescent() {
            return false;
        }
        if self.poll_once() == 0 {
            if crate::wall_now() >= wall_deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Pumps until quiescent or stalled past the wall deadline. Returns
    /// true when quiescence was reached.
    pub fn drain(&mut self, wall_deadline: WallInstant) -> bool {
        while self.step(wall_deadline) {}
        self.is_quiescent()
    }

    fn accept_new(&mut self) -> usize {
        let mut accepted = 0;
        let mut ready = std::mem::take(&mut self.accept_ready);
        ready.sort_unstable();
        ready.retain(|&owner| self.accept_on(owner, &mut accepted));
        self.accept_ready = ready;
        accepted
    }

    /// Accepts the connects waiting on listener `owner`, pairing each
    /// accepted socket with its connector. Returns whether connects are
    /// still waiting (the kernel has not queued them yet).
    fn accept_on(&mut self, owner: usize, accepted: &mut usize) -> bool {
        while !self.connecting[owner].is_empty() {
            self.socket_ops += 1;
            match self.listeners[owner].accept() {
                Ok((stream, peer_addr)) => {
                    let waiting = &mut self.connecting[owner];
                    let Some(at) = waiting.iter().position(|&(addr, _)| addr == peer_addr) else {
                        // Nobody here connected from that address.
                        self.transport_errors += 1;
                        continue;
                    };
                    let (_, out) = waiting.swap_remove(at);
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.transport_errors += 1;
                        self.close_pair(out);
                        continue;
                    }
                    let conn = &mut self.out_conns[out];
                    conn.peer = Some(self.in_conns.len());
                    if conn.in_flight > 0 {
                        self.read_ready.push(self.in_conns.len());
                    }
                    self.in_conns.push(InConn {
                        owner: owner as u32,
                        stream,
                        decoder: FrameDecoder::new(),
                        peer: out,
                        open: conn.open,
                    });
                    *accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // The listener is broken: none of its connects will
                    // ever be accepted.
                    self.transport_errors += 1;
                    while let Some((_, out)) = self.connecting[owner].pop() {
                        self.close_pair(out);
                    }
                }
            }
        }
        !self.connecting[owner].is_empty()
    }

    fn poll_reads(&mut self) -> usize {
        // Phase 1: move the bytes in flight into their decoders and
        // collect complete frames. Counting msgs_in happens here, at
        // the wire boundary.
        let mut ready = std::mem::take(&mut self.read_ready);
        ready.sort_unstable();
        ready.retain(|&conn| self.read_conn(conn));
        self.read_ready = ready;
        // Phase 2: run the state machines. Handlers may emit new sends,
        // which queue_send buffers for the flush phase.
        let mut dispatched = 0;
        while let Some((node, msg)) = self.scratch.pop_front() {
            self.dispatch(node, msg);
            dispatched += 1;
        }
        dispatched
    }

    /// Reads what is in flight toward inbound connection `idx` and
    /// queues its complete frames for dispatch. Returns whether bytes
    /// are still in flight (written, but not delivered by the kernel).
    fn read_conn(&mut self, idx: usize) -> bool {
        let conn = &mut self.in_conns[idx];
        if !conn.open {
            return false;
        }
        let in_flight = &mut self.out_conns[conn.peer].in_flight;
        let mut read_buf = [0u8; 4096];
        let mut failed = false;
        while !failed && *in_flight > 0 {
            self.socket_ops += 1;
            match conn.stream.read(&mut read_buf) {
                // EOF with bytes owed, or bytes nobody accounted for.
                Ok(n) if n == 0 || n > *in_flight => failed = true,
                Ok(n) => {
                    *in_flight -= n;
                    conn.decoder.feed(&read_buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => failed = true,
            }
        }
        while !failed {
            match conn.decoder.next_message() {
                Ok(Some(msg)) => {
                    let c = &mut self.nodes[conn.owner as usize].counters;
                    c.msgs_in[msg.msg_type as usize] += 1;
                    self.scratch.push_back((conn.owner, msg));
                }
                Ok(None) => break,
                // A malformed frame poisons the connection.
                Err(_) => failed = true,
            }
        }
        if failed {
            let out = conn.peer;
            self.transport_errors += 1;
            self.close_pair(out);
            return false;
        }
        *in_flight > 0
    }

    /// Runs one message through its node's state machine and executes
    /// the outbox: terminal replies fill their request slot, sends are
    /// queued on outbound connections.
    fn dispatch(&mut self, node: u32, msg: Message) {
        let mut out = std::mem::take(&mut self.outbox);
        self.nodes[node as usize].handle(msg, &mut out);
        for reply in out.deliveries.drain(..) {
            if let Some(slot) = self.pending.get_mut(&reply.trans_id) {
                *slot = Some(reply);
            }
            // No slot: a late reply after timeout — dropped, as before.
        }
        for (to, m) in out.sends.drain(..) {
            self.queue_send(node, to, m);
        }
        self.outbox = out;
    }

    /// Buffers one frame on the `from → to` connection, connecting on
    /// first use (and again after the connection died). On a lossy wire
    /// the frame may be dropped before it is counted or queued,
    /// invisibly to the sender.
    fn queue_send(&mut self, from: u32, to: u32, msg: Message) {
        if self.should_drop() {
            return;
        }
        let idx = match self.out_index.get(&(from, to)) {
            Some(&i) if self.out_conns[i].open => i,
            _ => {
                let Some(i) = self.connect(from, to) else {
                    self.transport_errors += 1;
                    return;
                };
                i
            }
        };
        let counters = &mut self.nodes[from as usize].counters;
        counters.msgs_out[msg.msg_type as usize] += 1;
        counters.queue_depth += 1;
        counters.queue_high_water = counters.queue_high_water.max(counters.queue_depth);
        let conn = &mut self.out_conns[idx];
        if conn.buf.is_empty() {
            self.write_ready.push(idx);
        }
        msg.encode_into(&mut conn.buf);
        conn.frame_ends.push_back(conn.buf.len());
    }

    /// Rolls the fault dice for one outbound frame.
    fn should_drop(&mut self) -> bool {
        if self.drop_ppm == 0 {
            return false;
        }
        let roll: u64 = self.drop_rng.random_range(0..1_000_000);
        if roll >= self.drop_ppm {
            return false;
        }
        self.dropped += 1;
        true
    }

    /// Opens the `from → to` connection and leaves it waiting on `to`'s
    /// listener. `None` when `to` is unknown or the socket fails.
    fn connect(&mut self, from: u32, to: u32) -> Option<usize> {
        let addr = *self.addrs.get(&to)?;
        // Loopback connect completes immediately (the listener's
        // backlog accepts it); switch to non-blocking after.
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        let local = stream.local_addr().ok()?;
        let idx = self.out_conns.len();
        self.out_conns.push(OutConn {
            from,
            stream,
            // pcn-lint: allow(hot-alloc) — per connection, not per frame: the write buffer lives as long as the socket
            buf: Vec::new(),
            cursor: 0,
            // pcn-lint: allow(hot-alloc) — per connection, like `buf`
            frame_ends: VecDeque::new(),
            peer: None,
            in_flight: 0,
            open: true,
        });
        self.out_index.insert((from, to), idx);
        let waiting = &mut self.connecting[to as usize];
        if waiting.is_empty() {
            self.accept_ready.push(to as usize);
        }
        waiting.push((local, idx));
        Some(idx)
    }

    fn flush_writes(&mut self) -> usize {
        let mut progressed = 0;
        let mut ready = std::mem::take(&mut self.write_ready);
        ready.sort_unstable();
        ready.retain(|&conn| self.flush_conn(conn, &mut progressed));
        self.write_ready = ready;
        progressed
    }

    /// Writes as much of outbound connection `idx`'s buffer as the
    /// kernel takes. Returns whether bytes are still buffered.
    fn flush_conn(&mut self, idx: usize, progressed: &mut usize) -> bool {
        let conn = &mut self.out_conns[idx];
        if !conn.open {
            return false;
        }
        let mut wrote = 0;
        let mut failed = false;
        while !failed && conn.cursor < conn.buf.len() {
            self.socket_ops += 1;
            match conn.stream.write(&conn.buf[conn.cursor..]) {
                Ok(0) => failed = true,
                Ok(n) => {
                    conn.cursor += n;
                    wrote += n;
                    *progressed += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => failed = true,
            }
        }
        if failed {
            self.transport_errors += 1;
            self.close_pair(idx);
            return false;
        }
        if wrote > 0 && conn.in_flight == 0 {
            if let Some(peer) = conn.peer {
                self.read_ready.push(peer);
            }
        }
        conn.in_flight += wrote;
        // Retire fully written frames from the owner's queue depth.
        let counters = &mut self.nodes[conn.from as usize].counters;
        while conn
            .frame_ends
            .front()
            .is_some_and(|&end| end <= conn.cursor)
        {
            conn.frame_ends.pop_front();
            counters.queue_depth = counters.queue_depth.saturating_sub(1);
        }
        if conn.cursor == conn.buf.len() {
            conn.buf.clear();
            conn.cursor = 0;
        }
        !conn.buf.is_empty()
    }

    /// Closes both ends of a dead connection (the caller counts the
    /// transport error). Frames still buffered will never flush and
    /// bytes still in flight will never be read: both are written off,
    /// so the pair drops out of the ready sets and the next send on
    /// this `(from, to)` reconnects.
    fn close_pair(&mut self, out: usize) {
        let conn = &mut self.out_conns[out];
        conn.open = false;
        let counters = &mut self.nodes[conn.from as usize].counters;
        counters.queue_depth = counters
            .queue_depth
            .saturating_sub(conn.frame_ends.len() as u64);
        conn.frame_ends.clear();
        conn.buf.clear();
        conn.cursor = 0;
        conn.in_flight = 0;
        if let Some(peer) = conn.peer {
            self.in_conns[peer].open = false;
        }
    }

    // ----- teardown ------------------------------------------------

    /// Winds the loop down deterministically: drains until quiescent
    /// (bounded by a 2-second wall deadline), then closes every socket
    /// by dropping it and reports anything left behind. Safe to call
    /// twice; the second call is a no-op returning a clean report.
    pub fn shutdown(&mut self) -> ShutdownReport {
        if self.shut {
            return ShutdownReport::default();
        }
        let wall_deadline = crate::wall_now() + Duration::from_secs(2);
        self.drain(wall_deadline);
        let report = ShutdownReport {
            unflushed_frames: self
                .out_conns
                .iter()
                .map(|c| c.frame_ends.len() as u64)
                .sum(),
            undecoded_bytes: self
                .in_conns
                .iter()
                .map(|c| c.decoder.pending_bytes() as u64)
                .sum(),
            unanswered_requests: self.pending.values().filter(|v| v.is_none()).count() as u64,
            transport_errors: self.transport_errors,
        };
        // Deterministic FD close: every socket dies here, in order.
        self.out_conns.clear();
        self.in_conns.clear();
        self.out_index.clear();
        self.listeners.clear();
        self.pending.clear();
        self.shut = true;
        report
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if self.shut {
            return;
        }
        let report = self.shutdown();
        // Lossy runs legitimately strand requests and half-frames; a
        // loop that drops nothing must wind down clean — be loud
        // otherwise.
        if self.drop_ppm == 0 && !report.is_clean() {
            eprintln!("EventLoop dropped unclean: {report:?}");
            // A second panic while a failing test unwinds would abort
            // the process and bury the first one.
            debug_assert!(
                std::thread::panicking(),
                "EventLoop dropped unclean: {report:?}"
            );
        }
    }
}

#[cfg(test)]
impl EventLoop {
    /// Test set-up for a dead socket: puts a length prefix no frame may
    /// carry straight into the open `from → to` connection's write
    /// buffer, with a frame queued behind it. Returns the connection's
    /// index; the next drain trips over the prefix.
    pub(crate) fn poison_connection(&mut self, from: u32, to: u32) -> usize {
        let dead = self.out_index[&(from, to)];
        self.out_conns[dead]
            .buf
            .extend_from_slice(&0u32.to_be_bytes());
        self.write_ready.push(dead);
        let behind = Message::new(31, crate::wire::MsgType::ProbeAck, vec![from, to]);
        self.queue_send(from, to, behind);
        dead
    }
}

/// Re-exported so reports can size per-type arrays without reaching
/// into [`crate::node`].
pub const WIRE_MSG_TYPES: usize = MSG_TYPES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MsgType;

    /// 0 ↔ 1 ↔ 2 line with 10 units per direction.
    fn line3() -> EventLoop {
        let u = 10_000_000u64;
        EventLoop::new(
            vec![
                HashMap::from([(1, u)]),
                HashMap::from([(0, u), (2, u)]),
                HashMap::from([(1, u)]),
            ],
            &FaultConfig::none(),
        )
        .unwrap()
    }

    fn request(ev: &mut EventLoop, msg: Message) -> Option<Message> {
        let id = ev.begin_request(msg).unwrap();
        ev.run_requests(&[id], Duration::from_secs(5));
        ev.take_reply(id)
    }

    #[test]
    fn probe_round_trip_over_the_loop() {
        let mut ev = line3();
        let got = request(&mut ev, Message::new(1, MsgType::Probe, vec![0, 1, 2])).unwrap();
        assert_eq!(got.msg_type, MsgType::ProbeAck);
        assert_eq!(got.capacities, vec![10_000_000, 10_000_000]);
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn full_payment_settles_and_conserves() {
        let mut ev = line3();
        let before = ev.total_funds();
        let mut commit = Message::new(2, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 4_000_000;
        assert_eq!(
            request(&mut ev, commit).unwrap().msg_type,
            MsgType::CommitAck
        );
        let mut confirm = Message::new(3, MsgType::Confirm, vec![0, 1, 2]);
        confirm.commit = 4_000_000;
        assert_eq!(
            request(&mut ev, confirm).unwrap().msg_type,
            MsgType::ConfirmAck
        );
        assert_eq!(ev.total_funds(), before, "settlement conserves funds");
        assert_eq!(ev.node(0).balance_to(1), 6_000_000);
        assert_eq!(ev.node(2).balance_to(1), 14_000_000);
        // Quiescent and fault-free: every wire frame sent was received.
        let counters = ev.counters();
        let sent: u64 = counters.iter().map(|c| c.wire_out()).sum();
        let received: u64 = counters.iter().map(|c| c.wire_in()).sum();
        assert_eq!(sent, received);
        assert!(sent > 0);
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn dropped_probe_times_out() {
        let u = 10_000_000u64;
        let mut ev = EventLoop::new(
            vec![
                HashMap::from([(1, u)]),
                HashMap::from([(0, u), (2, u)]),
                HashMap::from([(1, u)]),
            ],
            &FaultConfig {
                probe_drop_prob: 1.0,
                seed: 7,
                ..FaultConfig::none()
            },
        )
        .unwrap();
        let id = ev
            .begin_request(Message::new(9, MsgType::Probe, vec![0, 1, 2]))
            .unwrap();
        let timeout = Duration::from_secs(5);
        let wall_start = crate::wall_now();
        ev.run_requests(&[id], timeout);
        assert!(ev.take_reply(id).is_none(), "dropped probe goes unanswered");
        assert!(ev.dropped() > 0);
        // Nothing was ever in flight, so the loop does not sit out the
        // stall guard to find that out.
        assert!(wall_start.elapsed() < timeout / 2);
    }

    #[test]
    fn confirm_wave_ends_quiescent() {
        let mut ev = line3();
        let mut commit = Message::new(20, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 1_000_000;
        request(&mut ev, commit).unwrap();
        let mut confirm = Message::new(21, MsgType::Confirm, vec![0, 1, 2]);
        confirm.commit = 1_000_000;
        assert_eq!(
            request(&mut ev, confirm).unwrap().msg_type,
            MsgType::ConfirmAck
        );
        // The last reply is the last frame: nothing is left to wait for.
        assert!(
            ev.drain(crate::wall_now()),
            "an expired deadline is not needed"
        );
        assert!(ev.accept_ready.is_empty() && ev.read_ready.is_empty());
        assert!(ev.write_ready.is_empty() && ev.scratch.is_empty());
        assert!(ev.out_conns.iter().all(|c| c.in_flight == 0));
        for c in ev.counters() {
            assert_eq!(c.queue_depth, 0);
        }
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn poisoned_connection_closes_both_ends_and_the_next_send_reconnects() {
        let mut ev = line3();
        request(&mut ev, Message::new(30, MsgType::Probe, vec![0, 1])).unwrap();
        let dead = ev.poison_connection(0, 1);
        assert!(ev.drain(crate::wall_now() + Duration::from_secs(5)));
        assert!(!ev.out_conns[dead].open, "the sending end is closed too");
        assert_eq!(
            ev.out_conns[dead].in_flight, 0,
            "in-flight bytes written off"
        );
        assert_eq!(ev.transport_errors, 1);
        assert_eq!(ev.counters()[0].queue_depth, 0);

        let got = request(&mut ev, Message::new(32, MsgType::Probe, vec![0, 1])).unwrap();
        assert_eq!(got.msg_type, MsgType::ProbeAck);
        assert_ne!(ev.out_index[&(0, 1)], dead, "a fresh connection carried it");
        let counters = ev.counters();
        assert_eq!(counters[1].msgs_in[MsgType::Probe as usize], 2);
        assert_eq!(
            counters[0].wire_out(),
            counters[1].wire_in() + 1,
            "only the frame behind the bad prefix was lost"
        );
        let report = ev.shutdown();
        assert!(!report.is_clean(), "{report:?}");
        assert_eq!(report.transport_errors, 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_everything() {
        let mut ev = line3();
        request(&mut ev, Message::new(4, MsgType::Probe, vec![0, 1, 2])).unwrap();
        let first = ev.shutdown();
        assert!(first.is_clean(), "{first:?}");
        let second = ev.shutdown();
        assert_eq!(second, ShutdownReport::default());
        assert!(ev.in_conns.is_empty() && ev.out_conns.is_empty() && ev.listeners.is_empty());
    }

    /// A loop hosting no nodes that drops each frame with probability
    /// `probe_drop_prob`: enough to roll the fault dice.
    fn lossy(probe_drop_prob: f64, seed: u64) -> EventLoop {
        let faults = FaultConfig {
            probe_drop_prob,
            seed,
            ..FaultConfig::none()
        };
        EventLoop::new(Vec::new(), &faults).unwrap()
    }

    #[test]
    fn none_never_drops() {
        let mut ev = EventLoop::new(Vec::new(), &FaultConfig::none()).unwrap();
        for _ in 0..100 {
            assert!(!ev.should_drop());
        }
        assert_eq!(ev.dropped(), 0);
    }

    #[test]
    fn always_drop() {
        let mut ev = lossy(1.0, 3);
        for _ in 0..10 {
            assert!(ev.should_drop());
        }
        assert_eq!(ev.dropped(), 10);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let mut ev = lossy(0.3, 7);
        let drops = (0..10_000).filter(|_| ev.should_drop()).count();
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn shares_the_sim_fault_surface() {
        // Noise has no wire equivalent: a noise-only config is lossless.
        let noisy = FaultConfig {
            probe_noise_ppm: 100_000,
            seed: 11,
            ..FaultConfig::none()
        };
        assert!(noisy.enabled());
        assert_eq!(EventLoop::new(Vec::new(), &noisy).unwrap().drop_ppm, 0);
        let mut ev = lossy(1.0, 11);
        assert_eq!(ev.drop_ppm, 1_000_000);
        assert!(ev.should_drop());
    }

    #[test]
    fn clamps_out_of_range() {
        assert_eq!(lossy(-1.0, 0).drop_ppm, 0);
        assert!(lossy(2.0, 0).should_drop());
    }

    #[test]
    fn queue_depth_returns_to_zero_at_quiescence() {
        let mut ev = line3();
        for id in 10..20 {
            request(&mut ev, Message::new(id, MsgType::Probe, vec![0, 1, 2])).unwrap();
        }
        for c in ev.counters() {
            assert_eq!(c.queue_depth, 0);
        }
        assert!(ev.counters().iter().any(|c| c.queue_high_water > 0));
        assert!(ev.shutdown().is_clean());
    }
}
