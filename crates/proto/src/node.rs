//! The per-participant protocol state machine.
//!
//! Each node owns the balances of its **outgoing** channel directions
//! (node `u` owns `balance[u → v]`) in one row, a slot per channel peer
//! sorted by peer id (a peer with no edge back holds zero until a
//! `CONFIRM_ACK` credits it; the reactor's neighbour table is these
//! rows), and executes the protocol state machine of §5.1:
//!
//! * `PROBE` — append own next-hop balance to `Capacity`, forward;
//!   the receiver reverses the path into a `PROBE_ACK`.
//! * `COMMIT` — escrow (decrement) the next-hop balance and forward;
//!   on shortfall, emit `COMMIT_NACK` back along the reversed prefix,
//!   **rolling back** the escrow at every hop it passes.
//! * `CONFIRM` / `CONFIRM_ACK` — the ACK credits each node's
//!   reverse-direction balance ("adding the committed funds of this
//!   sub-payment to the channel in the reverse direction").
//! * `REVERSE` / `REVERSE_ACK` — restores each node's forward-direction
//!   escrow for sub-payments abandoned in phase 2.
//!
//! A [`NodeState`] is **passive**: it never touches a socket, a thread,
//! or a clock. [`NodeState::handle`] consumes one message and emits its
//! effects into an [`Outbox`] — wire sends and client deliveries — which
//! the [`EventLoop`](crate::event_loop::EventLoop) executes.
//!
//! The one deviation from the paper's prose: the paper sends `REVERSE`
//! for *failed* sub-payments too, but hops beyond the NACKing node never
//! escrowed anything, so a full-path `REVERSE` would over-credit. Here
//! the `COMMIT_NACK` itself rolls back exactly the hops that escrowed,
//! and phase-2 `REVERSE` is only used for sub-payments that fully
//! `COMMIT_ACK`ed. Funds conservation is asserted in the tests.
//!
//! # Churn semantics
//!
//! Mirroring `pcn_sim::des::churn`, a node carries live fault state:
//!
//! * A **closed** outgoing direction freezes its balance: probes report
//!   capacity 0 and a `COMMIT` arriving at the closed hop NACKs back
//!   (releasing upstream escrow). Phase-2 settlement waves still land on
//!   frozen balances, so in-flight payments `CONFIRM`/`REVERSE` cleanly.
//! * A **down** node drops probes (the sender times out) and NACKs
//!   commits. Phase-2 messages are still relayed — without HTLC-style
//!   timelocks (out of scope for the paper and this reproduction), a
//!   crashed relay that also swallowed settlement would strand escrow
//!   forever, so the testbed models crash-recovery replay instead.

use crate::wire::{Message, MsgType};

/// Number of wire message types (the per-type counter arrays' length).
pub const MSG_TYPES: usize = 9;

/// Per-node telemetry, maintained by the state machine and the event
/// loop and snapshotted into testbed reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Wire frames received, by [`MsgType`] discriminant.
    pub msgs_in: [u64; MSG_TYPES],
    /// Wire frames sent (queued post-fault-roll), by [`MsgType`]
    /// discriminant.
    pub msgs_out: [u64; MSG_TYPES],
    /// `PROBE` messages serviced here, locally injected ones included.
    pub probe_messages: u64,
    /// `COMMIT` messages serviced here (same accounting as probes).
    pub commit_messages: u64,
    /// `COMMIT`s this node refused (insufficient balance, closed
    /// channel, or node down) — each one originated a `COMMIT_NACK`.
    pub commits_nacked: u64,
    /// Funds currently escrowed by this node (committed but neither
    /// confirmed nor reversed), micro-units.
    pub escrow_held: u64,
    /// High-water mark of [`NodeCounters::escrow_held`].
    pub escrow_high_water: u64,
    /// Wire frames queued on this node's outbound connections but not
    /// yet flushed (maintained by the event loop).
    pub queue_depth: u64,
    /// High-water mark of [`NodeCounters::queue_depth`].
    pub queue_high_water: u64,
    /// All messages serviced by the state machine (wire + local).
    pub total_messages: u64,
}

impl NodeCounters {
    /// Total wire frames received, all types.
    pub fn wire_in(&self) -> u64 {
        self.msgs_in.iter().sum()
    }

    /// Total wire frames sent, all types.
    pub fn wire_out(&self) -> u64 {
        self.msgs_out.iter().sum()
    }

    fn escrow_add(&mut self, amount: u64) {
        self.escrow_held = self.escrow_held.saturating_add(amount);
        self.escrow_high_water = self.escrow_high_water.max(self.escrow_held);
    }

    fn escrow_release(&mut self, amount: u64) {
        self.escrow_held = self.escrow_held.saturating_sub(amount);
    }
}

/// The effects of one state-machine transition: wire sends (`(next hop,
/// message)`, with `pos` already advanced) and terminal messages to
/// deliver to the waiting client.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Messages to put on the wire, in emission order.
    pub sends: Vec<(u32, Message)>,
    /// Terminal messages for the cluster-side request table.
    pub deliveries: Vec<Message>,
}

/// One channel peer's slot: the balance toward `peer` (micro-units) and
/// whether churn froze that direction (`ChannelClose`).
#[derive(Clone, Copy, Debug)]
struct Slot {
    peer: u32,
    balance: u64,
    closed: bool,
}

/// A participant node: balances + fault state + the protocol state
/// machine. Passive — driven entirely by the event loop.
pub struct NodeState {
    id: u32,
    /// One slot per channel peer, ascending by peer id.
    row: Vec<Slot>,
    /// Whether the node is crashed (`NodeDown`).
    down: bool,
    /// Telemetry (also updated by the event loop for wire/queue counts).
    pub(crate) counters: NodeCounters,
}

impl NodeState {
    /// Creates the node with its channel peers, each listed once with
    /// the initial balance toward it, in any order.
    pub fn new(id: u32, balances: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut row: Vec<Slot> = balances
            .into_iter()
            .map(|(peer, balance)| Slot {
                peer,
                balance,
                closed: false,
            })
            .collect();
        row.sort_unstable_by_key(|s| s.peer);
        NodeState {
            id,
            row,
            down: false,
            counters: NodeCounters::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The node's channel peers, ascending.
    pub(crate) fn peers(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.row.iter().map(|s| s.peer)
    }

    /// Where `peer` sits in the row, if the two share a channel.
    pub(crate) fn peer_index(&self, peer: u32) -> Option<usize> {
        self.row.binary_search_by_key(&peer, |s| s.peer).ok()
    }

    fn slot_mut(&mut self, peer: u32) -> Option<&mut Slot> {
        let i = self.peer_index(peer)?;
        self.row.get_mut(i)
    }

    /// Current outgoing balance toward `neighbor` (micro-units).
    pub fn balance_to(&self, neighbor: u32) -> u64 {
        self.peer_index(neighbor).map_or(0, |i| self.row[i].balance)
    }

    /// Sum of all outgoing balances (conservation checks).
    pub fn total_outgoing(&self) -> u64 {
        self.row.iter().map(|s| s.balance).sum()
    }

    /// Telemetry snapshot.
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// Crashes or revives the node.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Freezes or reopens the outgoing direction toward `neighbor`.
    pub fn set_closed_to(&mut self, neighbor: u32, closed: bool) {
        if let Some(slot) = self.slot_mut(neighbor) {
            slot.closed = closed;
        }
    }

    /// Moves up to `amount` out of the direction toward `neighbor`,
    /// returning what was actually moved (the churn `BalanceDrain`).
    pub fn drain_to(&mut self, neighbor: u32, amount: u64) -> u64 {
        self.slot_mut(neighbor).map_or(0, |slot| {
            let moved = amount.min(slot.balance);
            slot.balance -= moved;
            moved
        })
    }

    /// Credits the direction toward `neighbor` (the receiving half of a
    /// `BalanceDrain`, the settlement waves, and test setup).
    pub fn credit_to(&mut self, neighbor: u32, amount: u64) {
        if let Some(slot) = self.slot_mut(neighbor) {
            slot.balance += amount;
        }
    }

    /// Forwards `msg` to `path[pos + 1]`, incrementing `pos`, or
    /// delivers it to the waiting client at the end of its path.
    fn relay(&self, mut msg: Message, out: &mut Outbox) {
        match msg.next_hop() {
            Some(next) => {
                msg.pos += 1;
                out.sends.push((next, msg));
            }
            None => out.deliveries.push(msg),
        }
    }

    /// Reverses `msg` into an ACK of type `ack_type` and routes it —
    /// back over the wire, or straight to the client on a degenerate
    /// 1-node path.
    fn ack_back(&self, mut ack: Message, ack_type: MsgType, out: &mut Outbox) {
        ack.msg_type = ack_type;
        ack.path.reverse();
        ack.pos = 0;
        self.relay(ack, out);
    }

    /// The protocol state machine. Called for every wire-received
    /// message and for client-injected ones.
    pub fn handle(&mut self, msg: Message, out: &mut Outbox) {
        self.counters.total_messages += 1;
        match msg.msg_type {
            MsgType::Probe => self.on_probe(msg, out),
            MsgType::Commit => self.on_commit(msg, out),
            MsgType::CommitNack => self.on_commit_nack(msg, out),
            MsgType::Confirm => self.on_confirm(msg, out),
            MsgType::ConfirmAck => self.on_confirm_ack(msg, out),
            MsgType::Reverse => self.on_reverse(msg, out),
            // Pure relays: ProbeAck, CommitAck, ReverseAck.
            MsgType::ProbeAck | MsgType::CommitAck | MsgType::ReverseAck => self.relay(msg, out),
        }
    }

    fn on_probe(&mut self, mut msg: Message, out: &mut Outbox) {
        self.counters.probe_messages += 1;
        if self.down {
            // A crashed node services nothing; the probe times out at
            // the sender, exactly like the DES's NACKed probe.
            return;
        }
        match msg.next_hop() {
            // Receiver: reverse the path into a PROBE_ACK (§5.1: "the
            // receiver modifies the message type to PROBE_ACK, replaces
            // the Path field with the reversed version of the forward
            // path, and sends it back").
            None => self.ack_back(msg, MsgType::ProbeAck, out),
            // Intermediate (or sender): append own balance toward next
            // hop. A closed direction reports capacity 0 — frozen funds
            // are not probeable, so routers steer around the channel.
            Some(next) => {
                let open = self.peer_index(next).map(|i| self.row[i]);
                let open = open.filter(|s| !s.closed);
                msg.capacities.push(open.map_or(0, |s| s.balance));
                self.relay(msg, out);
            }
        }
    }

    /// Originates a `COMMIT_NACK` back along the reversed prefix of a
    /// refused `COMMIT`. Nodes before us escrowed and roll back as the
    /// NACK passes.
    fn nack_commit(&mut self, mut nack: Message, out: &mut Outbox) {
        self.counters.commits_nacked += 1;
        nack.msg_type = MsgType::CommitNack;
        nack.path.truncate(nack.pos as usize + 1);
        nack.path.reverse();
        nack.pos = 0;
        nack.capacities.clear();
        // Delivered at once when the sender itself refused.
        self.relay(nack, out);
    }

    fn on_commit(&mut self, msg: Message, out: &mut Outbox) {
        self.counters.commit_messages += 1;
        if self.down {
            // Crashed nodes NACK everything they would service.
            self.nack_commit(msg, out);
            return;
        }
        match msg.next_hop() {
            // Receiver: all hops escrowed; acknowledge.
            None => self.ack_back(msg, MsgType::CommitAck, out),
            // Escrow toward the next hop, or refuse — a frozen channel,
            // a short balance, no channel at all — releasing upstream
            // escrow.
            Some(next) => match self.slot_mut(next) {
                Some(slot) if !slot.closed && slot.balance >= msg.commit => {
                    slot.balance -= msg.commit;
                    self.counters.escrow_add(msg.commit);
                    self.relay(msg, out);
                }
                _ => self.nack_commit(msg, out),
            },
        }
    }

    fn on_commit_nack(&mut self, msg: Message, out: &mut Outbox) {
        // Every node the NACK *arrives at* (pos ≥ 1 on the reversed
        // prefix) escrowed toward the node the NACK came from — restore.
        if msg.pos > 0 {
            let from = msg.path[msg.pos as usize - 1];
            self.credit_to(from, msg.commit);
            self.counters.escrow_release(msg.commit);
        }
        self.relay(msg, out);
    }

    fn on_confirm(&mut self, msg: Message, out: &mut Outbox) {
        if msg.at_end() {
            // Receiver: start the CONFIRM_ACK wave that credits reverse
            // directions on its way back to the sender.
            let mut ack = msg;
            ack.msg_type = MsgType::ConfirmAck;
            ack.path.reverse();
            ack.pos = 0;
            self.on_confirm_ack(ack, out);
            return;
        }
        self.relay(msg, out);
    }

    fn on_confirm_ack(&mut self, msg: Message, out: &mut Outbox) {
        // A CONFIRM_ACK *arriving* here (pos ≥ 1) finalizes the forward
        // escrow this node placed in phase 1. At pos 0 the ack was just
        // constructed by the receiver, which never escrowed.
        if msg.pos > 0 {
            self.counters.escrow_release(msg.commit);
        }
        // Credit the reverse direction: on the reversed path, my next
        // hop is my predecessor on the forward path.
        if let Some(next) = msg.next_hop() {
            self.credit_to(next, msg.commit);
        }
        self.relay(msg, out);
    }

    fn on_reverse(&mut self, msg: Message, out: &mut Outbox) {
        match msg.next_hop() {
            None => self.ack_back(msg, MsgType::ReverseAck, out),
            // Restore the escrowed forward balance (even on a frozen
            // channel — settlement waves land harmlessly on frozen
            // funds).
            Some(next) => {
                self.credit_to(next, msg.commit);
                self.counters.escrow_release(msg.commit);
                self.relay(msg, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a message through a chain of nodes synchronously, with no
    /// sockets: the minimal in-memory harness for the state machine.
    fn run_chain(nodes: &mut [NodeState], first: u32, msg: Message) -> Vec<Message> {
        let mut delivered = Vec::new();
        let mut queue = vec![(first, msg)];
        while let Some((id, m)) = queue.pop() {
            let mut out = Outbox::default();
            nodes[id as usize].handle(m, &mut out);
            delivered.extend(out.deliveries);
            for (to, m) in out.sends {
                queue.push((to, m));
            }
        }
        delivered
    }

    fn line3() -> Vec<NodeState> {
        // 0 → 1 → 2 with 10 units each way.
        let u = 10_000_000u64;
        vec![
            NodeState::new(0, [(1, u)]),
            NodeState::new(1, [(0, u), (2, u)]),
            NodeState::new(2, [(1, u)]),
        ]
    }

    #[test]
    fn probe_appends_balances_and_acks_back() {
        let mut nodes = line3();
        let got = run_chain(
            &mut nodes,
            0,
            Message::new(1, MsgType::Probe, vec![0, 1, 2]),
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].msg_type, MsgType::ProbeAck);
        assert_eq!(got[0].capacities, vec![10_000_000, 10_000_000]);
        assert_eq!(nodes[1].counters().probe_messages, 1);
    }

    #[test]
    fn commit_escrows_and_nack_rolls_back() {
        let mut nodes = line3();
        let mut commit = Message::new(2, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 4_000_000;
        let got = run_chain(&mut nodes, 0, commit);
        assert_eq!(got[0].msg_type, MsgType::CommitAck);
        assert_eq!(nodes[0].balance_to(1), 6_000_000);
        assert_eq!(nodes[0].counters().escrow_held, 4_000_000);
        assert_eq!(nodes[1].counters().escrow_held, 4_000_000);

        // A second commit that does not fit NACKs and restores.
        let mut over = Message::new(3, MsgType::Commit, vec![0, 1, 2]);
        over.commit = 8_000_000;
        let got = run_chain(&mut nodes, 0, over);
        assert_eq!(got[0].msg_type, MsgType::CommitNack);
        assert_eq!(nodes[0].balance_to(1), 6_000_000, "hop 0 never escrowed");
        assert_eq!(
            nodes[0].counters().commits_nacked,
            1,
            "sender's own hop refused"
        );
        assert_eq!(nodes[0].counters().escrow_held, 4_000_000);

        // A commit that fits hop 0 (6M ≥ 5M) but not hop 1 (6M ≥ 5M too —
        // use 6M exactly, draining hop 0, so hop 1's 6M also fits; instead
        // refuse at hop 1 by exceeding its balance alone is impossible on
        // this symmetric line, so verify the mid-path NACK with a drained
        // middle hop).
        nodes[1].drain_to(2, 6_000_000);
        let mut mid = Message::new(4, MsgType::Commit, vec![0, 1, 2]);
        mid.commit = 5_000_000;
        let got = run_chain(&mut nodes, 0, mid);
        assert_eq!(got[0].msg_type, MsgType::CommitNack);
        assert_eq!(nodes[1].counters().commits_nacked, 1, "hop 1 refused");
        assert_eq!(nodes[0].balance_to(1), 6_000_000, "NACK rolled hop 0 back");
        assert_eq!(nodes[0].counters().escrow_held, 4_000_000);
    }

    #[test]
    fn confirm_ack_credits_reverse_and_releases_escrow() {
        let mut nodes = line3();
        let mut commit = Message::new(4, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 3_000_000;
        run_chain(&mut nodes, 0, commit);
        let mut confirm = Message::new(4, MsgType::Confirm, vec![0, 1, 2]);
        confirm.commit = 3_000_000;
        let got = run_chain(&mut nodes, 0, confirm);
        assert_eq!(got[0].msg_type, MsgType::ConfirmAck);
        assert_eq!(nodes[2].balance_to(1), 13_000_000);
        assert_eq!(nodes[1].balance_to(0), 13_000_000);
        assert_eq!(nodes[0].counters().escrow_held, 0);
        assert_eq!(nodes[1].counters().escrow_held, 0);
        assert_eq!(nodes[0].counters().escrow_high_water, 3_000_000);
    }

    #[test]
    fn closed_channel_probes_zero_and_nacks_commits() {
        let mut nodes = line3();
        nodes[1].set_closed_to(2, true);
        let got = run_chain(
            &mut nodes,
            0,
            Message::new(5, MsgType::Probe, vec![0, 1, 2]),
        );
        assert_eq!(got[0].capacities, vec![10_000_000, 0]);
        let mut commit = Message::new(6, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 1_000_000;
        let got = run_chain(&mut nodes, 0, commit);
        assert_eq!(got[0].msg_type, MsgType::CommitNack);
        assert_eq!(
            nodes[0].balance_to(1),
            10_000_000,
            "upstream escrow restored"
        );
        // Reopening restores service.
        nodes[1].set_closed_to(2, false);
        let mut commit = Message::new(7, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 1_000_000;
        let got = run_chain(&mut nodes, 0, commit);
        assert_eq!(got[0].msg_type, MsgType::CommitAck);
    }

    #[test]
    fn down_node_drops_probes_and_nacks_commits() {
        let mut nodes = line3();
        nodes[1].set_down(true);
        let got = run_chain(
            &mut nodes,
            0,
            Message::new(8, MsgType::Probe, vec![0, 1, 2]),
        );
        assert!(got.is_empty(), "a crashed relay swallows the probe");
        let mut commit = Message::new(9, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 1_000_000;
        let got = run_chain(&mut nodes, 0, commit);
        assert_eq!(got[0].msg_type, MsgType::CommitNack);
        assert_eq!(nodes[0].balance_to(1), 10_000_000);
    }

    #[test]
    fn reverse_restores_escrow_through_frozen_channels() {
        let mut nodes = line3();
        let mut commit = Message::new(10, MsgType::Commit, vec![0, 1, 2]);
        commit.commit = 5_000_000;
        run_chain(&mut nodes, 0, commit);
        // Channel freezes while the payment is in flight.
        nodes[1].set_closed_to(2, true);
        nodes[2].set_closed_to(1, true);
        let mut reverse = Message::new(10, MsgType::Reverse, vec![0, 1, 2]);
        reverse.commit = 5_000_000;
        let got = run_chain(&mut nodes, 0, reverse);
        assert_eq!(got[0].msg_type, MsgType::ReverseAck);
        assert_eq!(nodes[0].balance_to(1), 10_000_000);
        assert_eq!(nodes[1].balance_to(2), 10_000_000);
        assert_eq!(nodes[0].counters().escrow_held, 0);
        assert_eq!(nodes[1].counters().escrow_held, 0);
    }

    #[test]
    fn drain_moves_at_most_the_balance() {
        let mut nodes = line3();
        assert_eq!(nodes[0].drain_to(1, u64::MAX), 10_000_000);
        assert_eq!(nodes[0].balance_to(1), 0);
        nodes[1].credit_to(0, 10_000_000);
        assert_eq!(nodes[1].balance_to(0), 20_000_000);
    }
}
