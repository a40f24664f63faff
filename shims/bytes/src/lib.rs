//! Minimal stand-in for the `bytes` crate.
//!
//! Vendors the subset the wire codec uses: [`Bytes`] (a cheaply cloneable,
//! sliceable byte view that consumes from the front via [`Buf`]) and
//! [`BytesMut`] (a growable buffer with big-endian [`BufMut`] writers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view of a byte buffer.
///
/// Reading through [`Buf`] advances the view's start; [`Bytes::slice`]
/// creates sub-views without copying.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of readable bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no readable bytes remain.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of the readable bytes.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the readable bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "buffer underflow");
        let s = &self.data[self.start..self.start + n];
        self.start += n;
        s
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:02x?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

/// Sequential big-endian reads that consume from the front of a buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Whether any bytes are left to read.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8;

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16;

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32;

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64;

    /// Reads exactly `dst.len()` bytes into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        self.take(n);
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        dst.copy_from_slice(self.take(n));
    }
}

/// A byte slice reads like a [`Bytes`] view: each read advances the
/// slice's start, without the shared allocation a `Bytes` carries.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(self.len() >= n, "buffer underflow");
        *self = &self[n..];
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// A growable byte buffer with big-endian writers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of written bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends `src` to the buffer.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Sequential big-endian writes to the end of a buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);

    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// A plain `Vec<u8>` takes the same writers, appending in place.
impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_and_vecs_read_and_write_like_the_owned_buffers() {
        let mut w: Vec<u8> = vec![9];
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_u32(0x0304_0506);
        w.put_u64(0x0708_090A_0B0C_0D0E);
        w.put_slice(&[1, 2]);
        let mut r: &[u8] = &w[1..];
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0x0304_0506);
        assert_eq!(r.get_u64(), 0x0708_090A_0B0C_0D0E);
        r.advance(1);
        assert_eq!(r, &[2]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_u32(0x0304_0506);
        w.put_u64(0x0708_090A_0B0C_0D0E);
        w.put_slice(&[1, 2, 3]);
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0x0304_0506);
        assert_eq!(r.get_u64(), 0x0708_090A_0B0C_0D0E);
        let mut rest = [0u8; 3];
        r.copy_to_slice(&mut rest);
        assert_eq!(rest, [1, 2, 3]);
        assert!(!r.has_remaining());
    }

    #[test]
    fn slice_is_a_view() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(1..), Bytes::from(vec![3, 4, 5][..2].to_vec()));
        assert_eq!(b.len(), 6);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn reading_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u16();
    }
}
