//! API-compatible subset of the `bytes` crate.
//!
//! Vendored because the build environment has no crates.io access (see
//! `crates/compat-*`). Covers what the workspace uses: cheaply-clonable
//! [`Bytes`] whose `slice()` shares the parent allocation (the net
//! crate's zero-copy parser test checks pointer provenance), a growable
//! [`BytesMut`] builder, and the little-endian [`BufMut`] writers.
//!
//! Cost model, matching the real crate where the serving path cares:
//! [`Bytes::new`] and [`Bytes::from_static`] never allocate;
//! `From<Vec<u8>>` and [`BytesMut::freeze`] move the buffer without
//! copying it (one small refcount-box allocation); `clone` and
//! [`Bytes::slice`] bump that refcount and copy nothing.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
///
/// A `(ptr, len)` view plus an optional shared owner: static and empty
/// views have no owner at all, heap views keep the moved-in `Vec` alive
/// through an `Arc`. `clone` and [`Bytes::slice`] never copy the
/// payload, they bump the refcount and narrow the window.
pub struct Bytes {
    ptr: *const u8,
    len: usize,
    /// Keeps the heap buffer `ptr` points into alive; `None` for
    /// `'static` data. The `Vec` is never mutated or reallocated while
    /// shared, so `ptr` stays valid for as long as the owner lives.
    owner: Option<Arc<Vec<u8>>>,
}

// SAFETY: a `Bytes` is an immutable view into either `'static` memory or
// a buffer owned by an `Arc<Vec<u8>>` (itself `Send + Sync`); no `&mut`
// access to the viewed bytes exists anywhere.
unsafe impl Send for Bytes {}
// SAFETY: see `Send` — shared references only ever read.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// Create an empty `Bytes`. Does not allocate.
    #[inline]
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Create `Bytes` viewing a static slice. Does not allocate.
    #[inline]
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
            owner: None,
        }
    }

    /// Create `Bytes` by copying `data` into a fresh allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Return a sub-view of `self` sharing the same allocation.
    ///
    /// Panics if the range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "range out of bounds: {begin}..{end} of {len}"
        );
        Bytes {
            // SAFETY: `begin <= len`, so the offset stays inside (or one
            // past the end of) the viewed region.
            ptr: unsafe { self.ptr.add(begin) },
            len: end - begin,
            owner: self.owner.clone(),
        }
    }

    /// Copy the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Bytes {
        Bytes {
            ptr: self.ptr,
            len: self.len,
            owner: self.owner.clone(),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr..ptr+len` lies inside `'static` data or the buffer
        // `owner` keeps alive (or is an empty view of either).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self[..].escape_ascii())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl Eq for Bytes {}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<String> for Bytes {
    fn eq(&self, other: &String) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take ownership of `v` without copying its bytes (an empty `v` is
    /// dropped and becomes the allocation-free empty view).
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let owner = Arc::new(v);
        Bytes {
            ptr: owner.as_ptr(),
            len: owner.len(),
            owner: Some(owner),
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Create an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// Create an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserve room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Drop all contents, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Capacity of the backing allocation.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Resize to `new_len` bytes, zero-filling any growth.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Shorten to `len` bytes, keeping capacity; a no-op when the
    /// buffer is already `len` or shorter (matching the real crate).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Split off the first `at` bytes into a new buffer, leaving the
    /// tail in `self`.
    ///
    /// The real crate shares the allocation between the halves; this
    /// shim moves the backing `Vec` into the returned front half (no
    /// copy when `at == len()`, the common freeze-a-whole-frame case)
    /// and re-buffers the tail.
    ///
    /// # Panics
    /// Panics if `at > len()`, matching the real crate.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.buf.len(), "split_to out of bounds: {at} > {}", self.buf.len());
        let tail = self.buf.split_off(at);
        BytesMut {
            buf: std::mem::replace(&mut self.buf, tail),
        }
    }

    /// Convert into an immutable [`Bytes`], moving the buffer (no copy:
    /// the frozen view points at the same bytes).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.buf.escape_ascii())
    }
}

/// Little-endian / raw writers over a growable buffer (`bytes::BufMut`
/// subset — only the `put_*` methods the workspace uses).
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, n: u8);
    /// Append a `u16`, little-endian.
    fn put_u16_le(&mut self, n: u16);
    /// Append a `u32`, little-endian.
    fn put_u32_le(&mut self, n: u32);
    /// Append a `u64`, little-endian.
    fn put_u64_le(&mut self, n: u64);
    /// Append a slice verbatim.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, n: u8) {
        self.buf.push(n);
    }
    fn put_u16_le(&mut self, n: u16) {
        self.buf.extend_from_slice(&n.to_le_bytes());
    }
    fn put_u32_le(&mut self, n: u32) {
        self.buf.extend_from_slice(&n.to_le_bytes());
    }
    fn put_u64_le(&mut self, n: u64) {
        self.buf.extend_from_slice(&n.to_le_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, n: u8) {
        self.push(n);
    }
    fn put_u16_le(&mut self, n: u16) {
        self.extend_from_slice(&n.to_le_bytes());
    }
    fn put_u32_le(&mut self, n: u32) {
        self.extend_from_slice(&n.to_le_bytes());
    }
    fn put_u64_le(&mut self, n: u64) {
        self.extend_from_slice(&n.to_le_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let parent = b.as_ref().as_ptr() as usize;
        let child = s.as_ref().as_ptr() as usize;
        assert!(child >= parent && child < parent + b.len());
    }

    #[test]
    fn slice_of_slice() {
        let b = Bytes::from_static(b"hello world");
        let s = b.slice(6..);
        assert_eq!(&s[..], b"world");
        assert_eq!(&s.slice(1..3)[..], b"or");
    }

    #[test]
    fn builder_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u16_le(0xBEEF);
        m.put_u8(7);
        m.put_u32_le(42);
        m.put_slice(b"xy");
        m[0..2].copy_from_slice(&0xCAFEu16.to_le_bytes());
        let b = m.freeze();
        assert_eq!(&b[..2], &0xCAFEu16.to_le_bytes());
        assert_eq!(b[2], 7);
        assert_eq!(&b[3..7], &42u32.to_le_bytes());
        assert_eq!(&b[7..], b"xy");
    }

    #[test]
    fn split_to_moves_front_and_keeps_tail() {
        let mut m = BytesMut::with_capacity(8);
        m.put_slice(b"frontback");
        let front = m.split_to(5);
        assert_eq!(&front[..], b"front");
        assert_eq!(&m[..], b"back");
        // Splitting the whole buffer transfers the allocation wholesale.
        let mut whole = BytesMut::new();
        whole.put_slice(b"abc");
        let ptr = whole.as_ref().as_ptr() as usize;
        let taken = whole.split_to(3);
        assert_eq!(taken.as_ref().as_ptr() as usize, ptr);
        assert!(whole.is_empty());
        assert_eq!(&taken.freeze()[..], b"abc");
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_to_past_end_panics() {
        let mut m = BytesMut::new();
        m.put_u8(1);
        let _ = m.split_to(2);
    }

    #[test]
    fn resize_zero_fills() {
        let mut m = BytesMut::new();
        m.put_slice(b"xy");
        m.resize(4, 0);
        assert_eq!(&m[..], &[b'x', b'y', 0, 0]);
        m.resize(1, 0);
        assert_eq!(&m[..], b"x");
        assert!(m.capacity() >= 4);
    }

    #[test]
    fn equality_family() {
        let b = Bytes::from(String::from("abc"));
        assert_eq!(b, "abc");
        assert_eq!(b, String::from("abc"));
        assert_eq!(b, *b"abc");
        assert_eq!(b, vec![b'a', b'b', b'c']);
        assert_eq!(b, Bytes::from_static(b"abc"));
        assert_ne!(b, Bytes::new());
    }
}
