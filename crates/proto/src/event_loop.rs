//! The reactor hosting every node actor in one thread.
//!
//! A single-threaded event loop over non-blocking loopback sockets — no
//! threads per node, no external async runtime, no `epoll`:
//!
//! * one non-blocking [`TcpListener`] per node (bound before any
//!   traffic flows, so the address book is complete),
//! * one TCP connection per channel, carrying both directions; each of
//!   its two ends has an explicit write buffer, flushed as the kernel
//!   accepts bytes, and a [`FrameDecoder`] for what the other end sends,
//! * a [`NodeState`] per node executing the protocol state machine,
//! * a request table, ordered by `trans_id`, correlating
//!   client-injected messages with their terminal replies.
//!
//! # One connection per channel
//!
//! Two nodes that share a channel share one socket pair, as a Lightning
//! peer keeps one link per neighbour. The first send in either direction
//! opens it — lazily, never at launch, so a channel that carries no
//! frame costs no handshake. The sender connects to the other node's
//! listener, and the loop accepts right away: the loopback connect has
//! already queued the connection, so the accepting end exists before its
//! first reply is due. Each node finds its end through its own row of
//! channel peers (see [`NodeState`]). A node sends only to the nodes it
//! shares a channel with; a frame addressed to any other node has no
//! connection to ride, and is counted as a transport error.
//!
//! # What is polled, and why that is enough
//!
//! The loop is the only process that knows the listeners' addresses, so
//! every accepted socket is the far end of a connect this same loop
//! made. That makes readiness something the loop can *account for*
//! instead of asking the kernel about every socket:
//!
//! * a connect is remembered, by the connector's local address, on the
//!   listener it targets; when that listener accepts — at once, or on a
//!   later pass in the rare case the kernel has not queued the
//!   connection yet — the accepted socket's peer address names its
//!   connector and the two ends are **paired**. Pairing is total: an
//!   accepted socket nobody here connected is dropped and counted as a
//!   transport error;
//! * every byte written into one end is added to that end's in-flight
//!   count, and every byte the other end reads is taken off.
//!
//! Three *ready sets* follow: listeners with connects they have not
//! accepted, ends with buffered bytes, and ends toward which the other
//! end has bytes in flight. [`EventLoop::poll_once`] makes one pass —
//! accept, read + dispatch, flush — over those sets only: a frame moving
//! one hop costs one `write` and one `read` whatever the cluster size,
//! and a read stops when the in-flight count reaches zero rather than at
//! `WouldBlock`.
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
//! is closed at both ends, and with it both directions of its channel:
//! the frames either end still buffers and the bytes in flight either
//! way are written off, so a dead socket cannot hold quiescence hostage.
//! Every frame sent on it and never read is counted as written off, so
//! frames sent always equal frames received plus frames written off.
//! The next send in either direction reconnects.
//!
//! # Threading contract
//!
//! One owner drives the loop: every operation that moves a frame takes
//! `&mut self`, and [`Cluster`](crate::Cluster) owns its loop outright.
//!
//! # Determinism
//!
//! Each pass visits its ready sets in a fixed order: listeners in
//! ascending node id; reading ends in the order their direction first
//! carried a frame — by the pass that sent it, then by receiving node,
//! then by send order; flushing ends in creation order. Dispatch is FIFO
//! per pass. Wall time enters only through [`crate::wall_now`]
//! (`clippy.toml` bans `Instant::now` everywhere else) and is used
//! exclusively for the stall guard — never for ordering decisions.

use crate::node::{NodeState, Outbox};
use crate::transport::FrameDecoder;
use crate::wall::WallInstant;
use crate::wire::Message;
use pcn_sim::FaultConfig;
use pcn_types::{PcnError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// One end of a channel's connection: the socket node `owner` holds
/// toward its channel peer. A connection's two ends sit side by side in
/// [`EventLoop`]'s end table — the connecting end at an even index, the
/// accepting end right after it — so the far end of `e` is `e ^ 1`.
struct End {
    /// The node holding this end (its counters track the queue depth).
    owner: u32,
    /// `None` while an accepting end's listener has not accepted yet.
    stream: Option<TcpStream>,
    /// Encoded frames awaiting the kernel.
    buf: Vec<u8>,
    /// How much of `buf` has been written.
    cursor: usize,
    /// End offset of each queued frame, for queue-depth accounting.
    frame_ends: VecDeque<usize>,
    /// Bytes written into this end that the far end has not read yet.
    in_flight: usize,
    /// Reassembles the frames the far end sends.
    decoder: FrameDecoder,
    /// Frames queued on this end, and frames decoded from it: what a
    /// closed connection writes off is the difference, both ways.
    sent: u64,
    received: u64,
    /// Where this end's reads fall in a pass: `(pass, owner, order)` of
    /// the first frame sent toward it.
    read_key: Option<(u64, u32, u64)>,
    open: bool,
}

impl End {
    fn new(owner: u32, stream: Option<TcpStream>) -> End {
        End {
            owner,
            stream,
            buf: Vec::new(),
            cursor: 0,
            frame_ends: VecDeque::new(),
            in_flight: 0,
            decoder: FrameDecoder::default(),
            sent: 0,
            received: 0,
            read_key: None,
            open: true,
        }
    }
}

/// End `e` and its far end.
fn pair_mut(ends: &mut [End], e: usize) -> (&mut End, &mut End) {
    let (lo, hi) = ends.split_at_mut(e | 1);
    if e & 1 == 0 {
        (&mut lo[e], &mut hi[0])
    } else {
        (&mut hi[0], &mut lo[e ^ 1])
    }
}

/// What [`EventLoop::shutdown`] found while winding down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Frames still queued on connection ends after the final drain.
    pub unflushed_frames: u64,
    /// Bytes of partial frames stuck in the ends' decoders.
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
    /// Listener address, by node id.
    addrs: Vec<SocketAddr>,
    /// Where each node's row starts in `peer_ends`: node `u`'s `i`-th
    /// channel peer is at `peer_rows[u] + i`.
    peer_rows: Vec<usize>,
    /// Per neighbour-table slot: the node's end of its connection to
    /// that peer, once one was opened.
    peer_ends: Vec<Option<usize>>,
    /// Every connection end opened so far, in pairs (see [`End`]).
    ends: Vec<End>,
    /// Per listener: the connects it has not accepted yet, as
    /// `(connector's local address, accepting end)`.
    connecting: Vec<Vec<(SocketAddr, usize)>>,
    /// Ready set: listeners with a non-empty `connecting` entry.
    accept_ready: Vec<usize>,
    /// Ready set: ends toward which the far end has bytes in flight.
    read_ready: Vec<usize>,
    /// Ready set: accepted ends with unflushed bytes.
    write_ready: Vec<usize>,
    /// Open request slots: `None` until the terminal reply arrives.
    pending: BTreeMap<u64, Option<Message>>,
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
    /// Connects that succeeded so far.
    connects: u64,
    /// Requests begun so far.
    requests: u64,
    /// Frames sent on connections that closed before they were read.
    written_off: u64,
    /// Passes started so far (the first field of a read key).
    passes: u64,
    /// Read keys handed out so far (the last field of a read key).
    read_keys: u64,
    shut: bool,
}

impl EventLoop {
    /// Binds one non-blocking listener per node and hosts `nodes`, node
    /// `i` at index `i`. A channel joins two nodes whose rows list each
    /// other; a reply toward a node whose row does not list its sender
    /// has no connection to ride. No traffic flows, and no connection is
    /// opened, until the first send.
    ///
    /// `faults` is the simulator's fault surface: each outbound frame is
    /// dropped with probability `probe_drop_prob` (clamped to [0, 1]),
    /// rolled on a stream seeded with `seed`. Probe noise has no wire
    /// equivalent — frames carry real balances — so `probe_noise_ppm`
    /// is ignored.
    pub fn new(nodes: Vec<NodeState>, faults: &FaultConfig) -> Result<Self> {
        let n = nodes.len();
        let mut peer_rows = Vec::with_capacity(n + 1);
        peer_rows.push(0);
        for (u, node) in nodes.iter().enumerate() {
            peer_rows.push(peer_rows[u] + node.peers().len());
        }
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        Ok(EventLoop {
            connecting: vec![Vec::new(); n],
            nodes,
            listeners,
            addrs,
            peer_ends: vec![None; peer_rows[n]],
            peer_rows,
            ends: Vec::new(),
            accept_ready: Vec::new(),
            read_ready: Vec::new(),
            write_ready: Vec::new(),
            pending: BTreeMap::new(),
            scratch: VecDeque::new(),
            outbox: Outbox::default(),
            drop_ppm: (faults.probe_drop_prob.clamp(0.0, 1.0) * 1_000_000.0) as u64,
            drop_rng: StdRng::seed_from_u64(faults.seed),
            dropped: 0,
            transport_errors: 0,
            socket_ops: 0,
            connects: 0,
            requests: 0,
            written_off: 0,
            passes: 0,
            read_keys: 0,
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

    /// Mutable access to a node: churn crashes it, freezes its channel
    /// directions and drains their balances.
    pub fn node_mut(&mut self, id: u32) -> &mut NodeState {
        &mut self.nodes[id as usize]
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

    /// Connects that succeeded so far: one per channel that carried a
    /// frame, plus one per reconnect after a connection failed.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Requests begun so far ([`EventLoop::begin_request`] calls that
    /// opened a reply slot): one wire round trip each.
    pub fn requests(&self) -> u64 {
        self.requests
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
        self.requests += 1;
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
    pub fn poll_once(&mut self) -> usize {
        self.passes += 1;
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
                    let (_, e) = waiting.swap_remove(at);
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.transport_errors += 1;
                        self.close_pair(e);
                        continue;
                    }
                    // A connection closed before it was accepted has
                    // nothing buffered or in flight, so it joins no
                    // ready set.
                    if self.ends[e ^ 1].in_flight > 0 {
                        self.read_ready.push(e);
                    }
                    let end = &mut self.ends[e];
                    if !end.buf.is_empty() {
                        self.write_ready.push(e);
                    }
                    end.stream = Some(stream);
                    *accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // The listener is broken: none of its connects will
                    // ever be accepted.
                    self.transport_errors += 1;
                    while let Some((_, e)) = self.connecting[owner].pop() {
                        self.close_pair(e);
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
        ready.sort_unstable_by_key(|&e| self.ends[e].read_key);
        ready.retain(|&e| self.read_end(e));
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

    /// Reads what the far end has in flight toward end `e` and queues
    /// its complete frames for dispatch. Returns whether bytes are still
    /// in flight (written, but not delivered by the kernel).
    fn read_end(&mut self, e: usize) -> bool {
        let (end, far) = pair_mut(&mut self.ends, e);
        if !end.open {
            return false;
        }
        let Some(stream) = end.stream.as_mut() else {
            return false;
        };
        let mut read_buf = [0u8; 4096];
        let mut failed = false;
        while !failed && far.in_flight > 0 {
            self.socket_ops += 1;
            match stream.read(&mut read_buf) {
                // EOF with bytes owed, or bytes nobody accounted for.
                Ok(n) if n == 0 || n > far.in_flight => failed = true,
                Ok(n) => {
                    far.in_flight -= n;
                    end.decoder.feed(&read_buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => failed = true,
            }
        }
        while !failed {
            match end.decoder.next_message() {
                Ok(Some(msg)) => {
                    end.received += 1;
                    let c = &mut self.nodes[end.owner as usize].counters;
                    c.msgs_in[msg.msg_type as usize] += 1;
                    self.scratch.push_back((end.owner, msg));
                }
                Ok(None) => break,
                // A malformed frame poisons the connection.
                Err(_) => failed = true,
            }
        }
        if failed {
            self.transport_errors += 1;
            self.close_pair(e);
            return false;
        }
        far.in_flight > 0
    }

    /// Runs one message through its node's state machine and executes
    /// the outbox: terminal replies fill their request slot, sends are
    /// queued on connection ends.
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

    /// The neighbour-table slot of `peer` in `node`'s row, if the two
    /// share a channel.
    fn peer_slot(&self, node: u32, peer: u32) -> Option<usize> {
        let i = self.nodes.get(node as usize)?.peer_index(peer)?;
        Some(self.peer_rows[node as usize] + i)
    }

    /// Buffers one frame on `from`'s end of the connection it shares
    /// with `to`, connecting on the first send either way (and again
    /// after the connection died). On a lossy wire the frame may be
    /// dropped before it is counted or queued, invisibly to the sender.
    fn queue_send(&mut self, from: u32, to: u32, msg: Message) {
        if self.should_drop() {
            return;
        }
        let Some(slot) = self.peer_slot(from, to) else {
            // No channel joins the two: no connection can carry it.
            self.transport_errors += 1;
            return;
        };
        let e = match self.peer_ends[slot] {
            Some(e) if self.ends[e].open => e,
            _ => match self.connect(from, to) {
                Some(e) if self.ends[e].open => e,
                // Already counted: its accept failed and closed the pair.
                Some(_) => return,
                None => {
                    self.transport_errors += 1;
                    return;
                }
            },
        };
        let counters = &mut self.nodes[from as usize].counters;
        counters.msgs_out[msg.msg_type as usize] += 1;
        counters.queue_depth += 1;
        counters.queue_high_water = counters.queue_high_water.max(counters.queue_depth);
        let (end, far) = pair_mut(&mut self.ends, e);
        if far.read_key.is_none() {
            far.read_key = Some((self.passes, far.owner, self.read_keys));
            self.read_keys += 1;
        }
        if end.buf.is_empty() && end.stream.is_some() {
            self.write_ready.push(e);
        }
        msg.encode_into(&mut end.buf);
        end.frame_ends.push_back(end.buf.len());
        end.sent += 1;
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

    /// Opens the connection between `from` and `to` and accepts it on
    /// `to`'s listener at once, so the accepting end exists before its
    /// first reply; a connect the kernel has not queued yet stays
    /// waiting for a later pass. Returns `from`'s end; `None` when `to`
    /// is unknown or the socket fails.
    fn connect(&mut self, from: u32, to: u32) -> Option<usize> {
        let e = self.open(from, to)?;
        self.accept_new();
        Some(e)
    }

    /// Opens the connection between `from` and `to` and leaves it
    /// waiting on `to`'s listener. Returns `from`'s end.
    fn open(&mut self, from: u32, to: u32) -> Option<usize> {
        let addr = *self.addrs.get(to as usize)?;
        // Loopback connect completes immediately (the listener's
        // backlog accepts it); switch to non-blocking after.
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        let local = stream.local_addr().ok()?;
        self.connects += 1;
        let e = self.ends.len();
        self.ends.push(End::new(from, Some(stream)));
        self.ends.push(End::new(to, None));
        for (node, peer, end) in [(from, to, e), (to, from, e + 1)] {
            if let Some(slot) = self.peer_slot(node, peer) {
                self.peer_ends[slot] = Some(end);
            }
        }
        let waiting = &mut self.connecting[to as usize];
        if waiting.is_empty() {
            self.accept_ready.push(to as usize);
        }
        waiting.push((local, e + 1));
        Some(e)
    }

    fn flush_writes(&mut self) -> usize {
        let mut progressed = 0;
        let mut ready = std::mem::take(&mut self.write_ready);
        ready.sort_unstable();
        ready.retain(|&e| self.flush_end(e, &mut progressed));
        self.write_ready = ready;
        progressed
    }

    /// Writes as much of end `e`'s buffer as the kernel takes. Returns
    /// whether bytes are still buffered.
    fn flush_end(&mut self, e: usize, progressed: &mut usize) -> bool {
        let (end, far) = pair_mut(&mut self.ends, e);
        if !end.open {
            return false;
        }
        let Some(stream) = end.stream.as_mut() else {
            return false;
        };
        let mut wrote = 0;
        let mut failed = false;
        while !failed && end.cursor < end.buf.len() {
            self.socket_ops += 1;
            match stream.write(&end.buf[end.cursor..]) {
                Ok(0) => failed = true,
                Ok(n) => {
                    end.cursor += n;
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
            self.close_pair(e);
            return false;
        }
        if wrote > 0 && end.in_flight == 0 && far.stream.is_some() {
            self.read_ready.push(e ^ 1);
        }
        end.in_flight += wrote;
        // Retire fully written frames from the owner's queue depth.
        let counters = &mut self.nodes[end.owner as usize].counters;
        while end.frame_ends.front().is_some_and(|&at| at <= end.cursor) {
            end.frame_ends.pop_front();
            counters.queue_depth = counters.queue_depth.saturating_sub(1);
        }
        if end.cursor == end.buf.len() {
            end.buf.clear();
            end.cursor = 0;
        }
        !end.buf.is_empty()
    }

    /// Closes both ends of the connection holding end `e` (the caller
    /// counts the transport error). Frames still buffered will never
    /// flush and bytes still in flight will never be read, either way:
    /// both are written off, so the pair drops out of the ready sets and
    /// the next send in either direction reconnects.
    fn close_pair(&mut self, e: usize) {
        let (a, b) = pair_mut(&mut self.ends, e);
        if !a.open {
            return;
        }
        self.written_off += (a.sent - b.received) + (b.sent - a.received);
        for end in [a, b] {
            end.open = false;
            let counters = &mut self.nodes[end.owner as usize].counters;
            counters.queue_depth = counters
                .queue_depth
                .saturating_sub(end.frame_ends.len() as u64);
            end.frame_ends.clear();
            end.buf.clear();
            end.cursor = 0;
            end.in_flight = 0;
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
            unflushed_frames: self.ends.iter().map(|c| c.frame_ends.len() as u64).sum(),
            undecoded_bytes: self
                .ends
                .iter()
                .map(|c| c.decoder.pending_bytes() as u64)
                .sum(),
            unanswered_requests: self.pending.values().filter(|v| v.is_none()).count() as u64,
            transport_errors: self.transport_errors,
        };
        // Deterministic FD close: every socket dies here, in order.
        self.ends.clear();
        self.peer_ends.fill(None);
        self.connecting.iter_mut().for_each(Vec::clear);
        self.accept_ready.clear();
        self.read_ready.clear();
        self.write_ready.clear();
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
    /// carry straight into `from`'s end of the open connection it shares
    /// with `to`, with a frame queued behind it. Returns that end; the
    /// next drain trips over the prefix.
    pub(crate) fn poison_connection(&mut self, from: u32, to: u32) -> usize {
        let slot = self.peer_slot(from, to).expect("the two share a channel");
        let dead = self.peer_ends[slot].expect("a connection was opened");
        let end = &mut self.ends[dead];
        if end.buf.is_empty() && end.stream.is_some() {
            self.write_ready.push(dead);
        }
        end.buf.extend_from_slice(&0u32.to_be_bytes());
        let behind = Message::new(31, crate::wire::MsgType::ProbeAck, vec![from, to]);
        self.queue_send(from, to, behind);
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MsgType;
    use proptest::prelude::*;

    /// The nodes of a 0 ↔ 1 ↔ 2 line with 10 units per direction.
    fn line3_nodes() -> Vec<NodeState> {
        let u = 10_000_000u64;
        vec![
            NodeState::new(0, [(1, u)]),
            NodeState::new(1, [(0, u), (2, u)]),
            NodeState::new(2, [(1, u)]),
        ]
    }

    fn line3() -> EventLoop {
        EventLoop::new(line3_nodes(), &FaultConfig::none()).unwrap()
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
    fn each_channel_carries_both_directions_on_one_connection() {
        let mut ev = line3();
        assert_eq!(ev.connects(), 0, "nothing is opened at launch");
        request(&mut ev, Message::new(1, MsgType::Probe, vec![0, 1])).unwrap();
        assert_eq!(ev.connects(), 1, "the reply rides the probe's connection");
        request(&mut ev, Message::new(2, MsgType::Probe, vec![2, 1, 0])).unwrap();
        request(&mut ev, Message::new(3, MsgType::Probe, vec![0, 1, 2])).unwrap();
        assert_eq!(
            ev.connects(),
            2,
            "one connection per channel, whoever sent first"
        );
        assert_eq!(ev.ends.len(), 4);
        assert!(ev.shutdown().is_clean());
    }

    #[test]
    fn a_send_to_a_node_without_a_channel_is_a_transport_error() {
        let mut ev = line3();
        assert!(request(&mut ev, Message::new(1, MsgType::Probe, vec![0, 2])).is_none());
        assert_eq!(ev.connects(), 0);
        let report = ev.shutdown();
        assert_eq!(report.transport_errors, 1, "{report:?}");
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
        let mut ev = EventLoop::new(
            line3_nodes(),
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
        assert!(ev.ends.iter().all(|c| c.in_flight == 0));
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
        assert!(!ev.ends[dead].open && !ev.ends[dead ^ 1].open);
        assert_eq!(ev.ends[dead].in_flight, 0, "in-flight bytes written off");
        assert_eq!(ev.transport_errors, 1);
        assert_eq!(ev.counters()[0].queue_depth, 0);
        assert_eq!(ev.written_off, 1, "the frame behind the bad prefix");

        let got = request(&mut ev, Message::new(32, MsgType::Probe, vec![0, 1])).unwrap();
        assert_eq!(got.msg_type, MsgType::ProbeAck);
        let slot = ev.peer_slot(0, 1).unwrap();
        assert_ne!(
            ev.peer_ends[slot],
            Some(dead),
            "a fresh connection carried it"
        );
        assert_eq!(ev.connects(), 2);
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
    fn a_connect_accepted_on_a_later_pass_carries_both_directions() {
        // The state a connect the kernel had not queued yet leaves
        // behind: both ends exist, the accepting one without a socket.
        let mut ev = line3();
        let e = ev.open(0, 1).unwrap();
        assert!(ev.ends[e ^ 1].stream.is_none());
        // Both directions queue frames before the accept.
        let ids = [
            ev.begin_request(Message::new(1, MsgType::Probe, vec![0, 1]))
                .unwrap(),
            ev.begin_request(Message::new(2, MsgType::Probe, vec![1, 0]))
                .unwrap(),
        ];
        assert_eq!(ev.write_ready, vec![e], "the accepting end waits");
        ev.run_requests(&ids, Duration::from_secs(5));
        for id in ids {
            assert_eq!(ev.take_reply(id).unwrap().msg_type, MsgType::ProbeAck);
        }
        assert_eq!(ev.connects(), 1);
        assert!(ev.shutdown().is_clean());
    }

    /// Six nodes on a ring with two chords, 10 units per direction.
    fn ring6() -> EventLoop {
        let u = 10_000_000u64;
        let mut balances = vec![Vec::new(); 6];
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 3),
            (1, 4),
        ] {
            balances[a as usize].push((b, u));
            balances[b as usize].push((a, u));
        }
        let nodes = (0..).zip(balances).map(|(id, row)| NodeState::new(id, row));
        EventLoop::new(nodes.collect(), &FaultConfig::none()).unwrap()
    }

    /// A simple path of up to `hops` hops from a random node, walked
    /// over the neighbour table without revisiting a node.
    fn random_path(ev: &EventLoop, rng: &mut StdRng, hops: usize) -> Vec<u32> {
        let mut path = vec![rng.random_range(0..ev.node_count() as u32)];
        for _ in 0..hops {
            let at = *path.last().unwrap() as usize;
            let fresh: Vec<u32> = ev.nodes[at].peers().filter(|v| !path.contains(v)).collect();
            if fresh.is_empty() {
                break;
            }
            path.push(fresh[rng.random_range(0..fresh.len())]);
        }
        path
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A connection poisoned at a random end, after a random number
        /// of passes into a wave of probes and commits: the loop still
        /// drains, loses exactly the frames the dead connection wrote
        /// off, settles every request one way or the other, and reopens
        /// the channel with one connect for both directions.
        #[test]
        fn a_poisoned_connection_writes_off_what_it_carried(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ev = ring6();
            let requests = rng.random_range(4..12u64);
            let mut ids = Vec::new();
            for id in 1_000..1_000 + requests {
                let hops = rng.random_range(1..5);
                let path = random_path(&ev, &mut rng, hops);
                let kind = if rng.random_range(0..2) == 0 { MsgType::Probe } else { MsgType::Commit };
                let mut msg = Message::new(id, kind, path);
                msg.commit = rng.random_range(1..4_000_000);
                ids.push(ev.begin_request(msg).unwrap());
            }
            for _ in 0..rng.random_range(0..6) {
                ev.poll_once();
            }
            let live: Vec<usize> = (0..ev.ends.len())
                .filter(|&e| ev.ends[e].open && ev.ends[e].stream.is_some())
                .collect();
            prop_assume!(!live.is_empty());
            let e = live[rng.random_range(0..live.len())];
            let (u, v) = (ev.ends[e].owner, ev.ends[e ^ 1].owner);
            ev.poison_connection(u, v);

            assert!(ev.drain(crate::wall_now() + Duration::from_secs(5)), "seed {seed}: drain terminates");
            assert_eq!(ev.transport_errors, 1, "seed {seed}");
            assert!(ev.written_off >= 1, "seed {seed}: the frame behind the bad prefix");
            let counters = ev.counters();
            let sent: u64 = counters.iter().map(|c| c.wire_out()).sum();
            let received: u64 = counters.iter().map(|c| c.wire_in()).sum();
            assert_eq!(sent - received, ev.written_off, "seed {seed}");
            assert!(counters.iter().all(|c| c.queue_depth == 0), "seed {seed}");
            let answered = ids
                .iter()
                .filter(|id| matches!(ev.pending.get(*id), Some(Some(_))))
                .count() as u64;

            // The wave may already have reopened the channel; either
            // way, both directions ride one fresh connection.
            let (first, second) = if rng.random_range(0..2) == 0 { (u, v) } else { (v, u) };
            for (id, (a, b)) in [(2_000, (first, second)), (2_001, (second, first))] {
                let got = request(&mut ev, Message::new(id, MsgType::Probe, vec![a, b]));
                assert_eq!(got.map(|m| m.msg_type), Some(MsgType::ProbeAck), "seed {seed}");
            }
            let mut channels: Vec<(u32, u32)> = (0..ev.ends.len())
                .step_by(2)
                .map(|e| {
                    let (a, b) = (ev.ends[e].owner, ev.ends[e + 1].owner);
                    (a.min(b), a.max(b))
                })
                .collect();
            let poisoned = (u.min(v), u.max(v));
            assert_eq!(channels.iter().filter(|&&c| c == poisoned).count(), 2, "seed {seed}");
            channels.sort_unstable();
            channels.dedup();
            assert_eq!(ev.connects(), channels.len() as u64 + 1, "seed {seed}: one reconnect");
            let report = ev.shutdown();
            assert_eq!(report.unanswered_requests, requests - answered, "seed {seed}");
            assert_eq!(report.transport_errors, 1, "seed {seed}");
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_everything() {
        let mut ev = line3();
        request(&mut ev, Message::new(4, MsgType::Probe, vec![0, 1, 2])).unwrap();
        let first = ev.shutdown();
        assert!(first.is_clean(), "{first:?}");
        let second = ev.shutdown();
        assert_eq!(second, ShutdownReport::default());
        assert!(ev.ends.is_empty() && ev.listeners.is_empty());
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
