//! Framed TCP transport: the incremental frame decoder.
//!
//! Every message travels as a `u32 length || payload` frame (see
//! [`crate::wire`]). The poll-based
//! [`EventLoop`](crate::event_loop::EventLoop) feeds whatever bytes a
//! non-blocking read returned into a [`FrameDecoder`], which buffers
//! partial frames across reads and yields complete messages as they
//! materialize, enforcing the [`MAX_FRAME`] bound before any payload
//! accumulates.

use crate::wire::{malformed, Message, MAX_FRAME};
use pcn_types::Result;

/// Incremental frame decoder for non-blocking reads.
///
/// Feed it byte chunks in arrival order with [`FrameDecoder::feed`];
/// pop complete messages with [`FrameDecoder::next_message`]. Partial
/// frames — a length prefix split across TCP segments, a payload
/// arriving in pieces — are buffered until complete. The frame-length
/// bound is checked as soon as the prefix is readable, before any
/// payload accumulates.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away once
    /// the cursor passes half the buffer.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends newly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (partial-frame check).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete message, if one is buffered. Returns
    /// `Ok(None)` when more bytes are needed.
    pub fn next_message(&mut self) -> Result<Option<Message>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(malformed(format_args!("invalid frame length {len}")));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        // Decode straight out of the read buffer, then consume the frame
        // whether or not it parsed.
        let decoded = Message::decode_from(&avail[4..4 + len]);
        self.start += 4 + len;
        if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(decoded?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MsgType;

    fn msg(id: u64) -> Message {
        Message::new(id, MsgType::Probe, vec![0, 1])
    }

    #[test]
    fn decoder_handles_split_frames() {
        let frames: Vec<u8> = [msg(1).encode(), msg(2).encode(), msg(3).encode()]
            .iter()
            .flat_map(|b| b.iter().copied())
            .collect();
        // Feed one byte at a time: every split point is exercised.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &frames {
            dec.feed(&[*b]);
            while let Some(m) = dec.next_message().unwrap() {
                got.push(m.trans_id);
            }
        }
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn decoder_rejects_bad_length_immediately() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(dec.next_message().is_err());
        let mut dec = FrameDecoder::new();
        dec.feed(&0u32.to_be_bytes());
        assert!(dec.next_message().is_err());
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = FrameDecoder::new();
        for id in 0..100 {
            dec.feed(&msg(id).encode());
            let m = dec.next_message().unwrap().unwrap();
            assert_eq!(m.trans_id, id);
        }
        assert_eq!(dec.pending_bytes(), 0);
        assert!(dec.buf.len() < 64, "buffer must not grow unboundedly");
    }
}
