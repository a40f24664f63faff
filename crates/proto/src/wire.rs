//! The wire format of Table 1.
//!
//! | Field    | Description                                     |
//! |----------|-------------------------------------------------|
//! | TransID  | A unique ID of a (partial) payment              |
//! | Type     | Message type                                    |
//! | Path     | Path of this message                            |
//! | Capacity | Probed channel capacity                         |
//! | Commit   | Committed amount of funds for this payment      |
//!
//! Encoding (all integers big-endian):
//!
//! ```text
//! u64  trans_id
//! u8   msg_type
//! u8   reserved (must be 0)
//! u16  pos            — index of the current node within path
//! u16  path_len       — number of node ids
//! u32 × path_len      — node ids, sender → receiver order
//! u16  cap_len        — number of probed capacities
//! u64 × cap_len       — capacities in micro-units
//! u64  commit         — committed amount in micro-units
//! ```
//!
//! Frames on the wire are `u32 length || payload`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pcn_types::{PcnError, Result};

/// Maximum accepted path length (far above any PCN diameter).
pub const MAX_PATH_LEN: usize = 1024;
/// Maximum accepted capacity-list length.
pub const MAX_CAP_LEN: usize = 2048;
/// Maximum accepted frame size in bytes.
pub const MAX_FRAME: usize = 64 * 1024;

/// The error for bytes that are not a valid frame.
pub(crate) fn malformed(what: std::fmt::Arguments<'_>) -> PcnError {
    PcnError::Codec(what.to_string())
}

/// Message types of the prototype protocol (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Balance probe, travels sender → receiver collecting capacities.
    Probe = 0,
    /// Probe response, travels the reversed path back to the sender.
    ProbeAck = 1,
    /// Phase-1 commit: escrow `commit` at every hop.
    Commit = 2,
    /// All hops escrowed; receiver acknowledges.
    CommitAck = 3,
    /// Some hop had insufficient balance; rolls back as it travels.
    CommitNack = 4,
    /// Phase-2: finalize a fully-committed sub-payment.
    Confirm = 5,
    /// Finalization acknowledgement; credits reverse directions.
    ConfirmAck = 6,
    /// Phase-2 failure path: restore escrowed funds.
    Reverse = 7,
    /// Restoration acknowledgement.
    ReverseAck = 8,
}

impl MsgType {
    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Result<MsgType> {
        Ok(match b {
            0 => MsgType::Probe,
            1 => MsgType::ProbeAck,
            2 => MsgType::Commit,
            3 => MsgType::CommitAck,
            4 => MsgType::CommitNack,
            5 => MsgType::Confirm,
            6 => MsgType::ConfirmAck,
            7 => MsgType::Reverse,
            8 => MsgType::ReverseAck,
            other => return Err(malformed(format_args!("unknown message type {other}"))),
        })
    }
}

/// A protocol message (one frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Unique id of the (partial) payment this message belongs to.
    pub trans_id: u64,
    /// Message type.
    pub msg_type: MsgType,
    /// Index of the node currently holding the message within `path`.
    pub pos: u16,
    /// Source route: node ids in travel order. ACK-class messages carry
    /// the reversed forward path, exactly as §5.1 describes.
    pub path: Vec<u32>,
    /// Probed capacities (micro-units), appended hop by hop by `PROBE`.
    pub capacities: Vec<u64>,
    /// Committed amount (micro-units) for commit-phase messages.
    pub commit: u64,
}

impl Message {
    /// Creates a message with empty capacity list and zero commit.
    pub fn new(trans_id: u64, msg_type: MsgType, path: Vec<u32>) -> Self {
        Message {
            trans_id,
            msg_type,
            pos: 0,
            path,
            capacities: Vec::new(),
            commit: 0,
        }
    }

    /// The node id at the current position.
    pub fn current(&self) -> Option<u32> {
        self.path.get(self.pos as usize).copied()
    }

    /// The next hop, if any.
    pub fn next_hop(&self) -> Option<u32> {
        self.path.get(self.pos as usize + 1).copied()
    }

    /// Whether the message has reached the end of its path.
    pub fn at_end(&self) -> bool {
        self.pos as usize + 1 >= self.path.len()
    }

    /// Serializes into a length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.payload_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    fn payload_len(&self) -> usize {
        8 + 1 + 1 + 2 + 2 + 4 * self.path.len() + 2 + 8 * self.capacities.len() + 8
    }

    /// Appends the length-prefixed frame to `buf` — what the reactor
    /// uses to fill a connection's write buffer without a frame-sized
    /// allocation in between.
    pub(crate) fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.payload_len() as u32);
        buf.put_u64(self.trans_id);
        buf.put_u8(self.msg_type as u8);
        buf.put_u8(0);
        buf.put_u16(self.pos);
        buf.put_u16(self.path.len() as u16);
        for &n in &self.path {
            buf.put_u32(n);
        }
        buf.put_u16(self.capacities.len() as u16);
        for &c in &self.capacities {
            buf.put_u64(c);
        }
        buf.put_u64(self.commit);
    }

    /// Deserializes a frame payload (without the length prefix).
    pub fn decode(buf: Bytes) -> Result<Message> {
        Self::decode_from(buf)
    }

    /// [`Message::decode`] over any byte source; the frame decoder
    /// passes a slice of its read buffer, so no payload copy is made.
    pub(crate) fn decode_from<B: Buf>(mut buf: B) -> Result<Message> {
        let need = |buf: &B, n: usize, what: &str| -> Result<()> {
            if buf.remaining() < n {
                Err(malformed(format_args!("truncated frame reading {what}")))
            } else {
                Ok(())
            }
        };
        need(&buf, 8 + 1 + 1 + 2 + 2, "header")?;
        let trans_id = buf.get_u64();
        let msg_type = MsgType::from_u8(buf.get_u8())?;
        let reserved = buf.get_u8();
        if reserved != 0 {
            return Err(malformed(format_args!(
                "reserved byte must be 0, got {reserved}"
            )));
        }
        let pos = buf.get_u16();
        let path_len = buf.get_u16() as usize;
        if path_len > MAX_PATH_LEN {
            return Err(malformed(format_args!("path too long: {path_len}")));
        }
        need(&buf, 4 * path_len + 2, "path")?;
        let path: Vec<u32> = (0..path_len).map(|_| buf.get_u32()).collect();
        let cap_len = buf.get_u16() as usize;
        if cap_len > MAX_CAP_LEN {
            return Err(malformed(format_args!("capacity list too long: {cap_len}")));
        }
        need(&buf, 8 * cap_len + 8, "capacities")?;
        let capacities: Vec<u64> = (0..cap_len).map(|_| buf.get_u64()).collect();
        let commit = buf.get_u64();
        if buf.has_remaining() {
            return Err(malformed(format_args!(
                "{} trailing bytes after message",
                buf.remaining()
            )));
        }
        if pos as usize >= path_len.max(1) {
            return Err(malformed(format_args!(
                "pos {pos} outside path of length {path_len}"
            )));
        }
        Ok(Message {
            trans_id,
            msg_type,
            pos,
            path,
            capacities,
            commit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Message {
        Message {
            trans_id: 0xDEAD_BEEF_0001,
            msg_type: MsgType::Probe,
            pos: 1,
            path: vec![3, 1, 4, 1 + 4, 9],
            capacities: vec![1_000_000, 2_500_000],
            commit: 42,
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let frame = m.encode();
        // Strip the 4-byte length prefix.
        let payload = frame.slice(4..);
        let back = Message::decode(payload).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn length_prefix_matches_payload() {
        let m = sample();
        let frame = m.encode();
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
    }

    #[test]
    fn rejects_unknown_type() {
        let mut raw = sample().encode().slice(4..).to_vec();
        raw[8] = 99; // msg_type byte
        assert!(matches!(
            Message::decode(Bytes::from(raw)),
            Err(PcnError::Codec(_))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let raw = sample().encode().slice(4..).to_vec();
        for cut in 0..raw.len() {
            let r = Message::decode(Bytes::from(raw[..cut].to_vec()));
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut raw = sample().encode().slice(4..).to_vec();
        raw.push(0);
        assert!(Message::decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_nonzero_reserved() {
        let mut raw = sample().encode().slice(4..).to_vec();
        raw[9] = 1;
        assert!(Message::decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_pos_out_of_path() {
        let mut m = sample();
        m.pos = 5;
        let raw = m.encode().slice(4..);
        assert!(Message::decode(raw).is_err());
    }

    #[test]
    fn navigation_helpers() {
        let mut m = sample();
        assert_eq!(m.current(), Some(1));
        assert_eq!(m.next_hop(), Some(4));
        assert!(!m.at_end());
        m.pos = 4;
        assert!(m.at_end());
        assert_eq!(m.next_hop(), None);
    }

    proptest! {
        #[test]
        fn arbitrary_round_trip(
            trans_id: u64,
            ty in 0u8..9,
            path in proptest::collection::vec(any::<u32>(), 1..20),
            caps in proptest::collection::vec(any::<u64>(), 0..20),
            commit: u64,
            pos_seed: u16,
        ) {
            let m = Message {
                trans_id,
                msg_type: MsgType::from_u8(ty).unwrap(),
                pos: pos_seed % path.len() as u16,
                path,
                capacities: caps,
                commit,
            };
            let back = Message::decode(m.encode().slice(4..)).unwrap();
            prop_assert_eq!(m, back);
        }
    }
}
