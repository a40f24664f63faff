//! Identifiers for nodes, channels, and transactions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node (participant) in the offchain network.
///
/// Nodes are dense indices into the topology's node table, which lets the
/// graph and simulator use flat `Vec` storage instead of hash maps on the
/// hot path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `NodeId` from a dense index.
    ///
    /// # Panics
    /// Panics if `index` exceeds `u32::MAX` (no real PCN topology comes
    /// close; the paper's largest is 93,502 nodes before pruning).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented contract: NodeId is u32 by design"
    )]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A *directed* payment channel endpoint: the ability of `from` to send
/// funds to `to`.
///
/// A bidirectional channel between `u` and `v` is represented by the two
/// directed ids `(u → v)` and `(v → u)`, each with its own balance, exactly
/// as the paper treats "channel balances on different directions".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId {
    /// Sending endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
}

impl ChannelId {
    /// Creates the directed channel id `from → to`.
    #[inline]
    pub const fn new(from: NodeId, to: NodeId) -> Self {
        ChannelId { from, to }
    }

    /// The channel in the opposite direction (`to → from`).
    #[inline]
    pub const fn reversed(self) -> Self {
        ChannelId {
            from: self.to,
            to: self.from,
        }
    }

    /// Canonical undirected key: the same for both directions.
    #[inline]
    pub fn undirected(self) -> (NodeId, NodeId) {
        if self.from <= self.to {
            (self.from, self.to)
        } else {
            (self.to, self.from)
        }
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.from, self.to)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.from, self.to)
    }
}

/// A unique transaction (payment) identifier, matching the `TransID`
/// field of the prototype's wire format (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TxId(pub u64);

impl TxId {
    /// Derives the id for the `part`-th partial payment of this
    /// transaction, for multi-path (AMP-style) sends.
    ///
    /// The low 16 bits are reserved for the part number, which caps a
    /// payment at 65,536 partial payments — far above the `k ≤ 30` paths
    /// Flash ever uses.
    #[inline]
    pub const fn part(self, part: u16) -> TxId {
        TxId((self.0 << 16) | part as u64)
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_index_round_trip() {
        let n = NodeId::from_index(1869);
        assert_eq!(n.index(), 1869);
        assert_eq!(n, NodeId(1869));
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn node_index_overflow_panics() {
        NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn channel_reversal_is_involutive() {
        let c = ChannelId::new(NodeId(3), NodeId(7));
        assert_eq!(c.reversed().reversed(), c);
        assert_ne!(c.reversed(), c);
    }

    #[test]
    fn undirected_key_is_direction_independent() {
        let c = ChannelId::new(NodeId(9), NodeId(2));
        assert_eq!(c.undirected(), c.reversed().undirected());
        assert_eq!(c.undirected(), (NodeId(2), NodeId(9)));
    }

    #[test]
    fn tx_part_ids_are_distinct() {
        let t = TxId(5);
        assert_ne!(t.part(0), t.part(1));
        assert_ne!(t.part(0), TxId(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(ChannelId::new(NodeId(1), NodeId(2)).to_string(), "n1→n2");
        assert_eq!(TxId(9).to_string(), "tx9");
    }
}
