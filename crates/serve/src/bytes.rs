//! Shared, immutable payload bytes.
//!
//! A [`Bytes`] is a range over one reference-counted buffer. The lane
//! hands a replay's buffer to the client as a `Bytes` without copying it:
//! cloning a completion bumps a count, and every member of a merged read
//! is a range of the one span buffer the replay filled. The buffer is
//! freed (or, for the camera lane's capture buffer, recycled) when the
//! last range over it is dropped.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable byte range over a shared `Arc<Vec<u8>>`.
///
/// Dereferences to `[u8]`, prints as a slice, and compares equal to any
/// `Bytes`, `[u8]` or `Vec<u8>` holding the same bytes.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Bytes {
    /// The sub-range `range` of these bytes, sharing the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not within `0..self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {} bytes",
            self.len()
        );
        let start = self.range.start;
        Bytes { buf: Arc::clone(&self.buf), range: start + range.start..start + range.end }
    }
}

/// Take ownership of a filled buffer without copying it.
impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Self {
        Bytes::from(Arc::new(buf))
    }
}

/// Share an already reference-counted buffer (the whole of it).
impl From<Arc<Vec<u8>>> for Bytes {
    fn from(buf: Arc<Vec<u8>>) -> Self {
        let range = 0..buf.len();
        Bytes { buf, range }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_a_vec_keeps_its_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "no copy on wrap");
        assert_eq!(b.clone().as_ptr(), ptr, "no copy on clone");
    }

    #[test]
    fn slices_share_the_buffer_and_nest() {
        let b = Bytes::from((0u8..16).collect::<Vec<_>>());
        let mid = b.slice(4..12);
        assert_eq!(mid, [4u8, 5, 6, 7, 8, 9, 10, 11][..]);
        assert_eq!(mid.as_ptr(), b[4..].as_ptr());
        let inner = mid.slice(2..4);
        assert_eq!(inner, vec![6u8, 7]);
        assert!(mid.slice(8..8).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slicing_past_the_end_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    fn equality_and_debug_follow_the_bytes() {
        let b = Bytes::from(vec![7u8, 8, 9]);
        let v = vec![7u8, 8, 9];
        assert_eq!(b, v);
        assert_eq!(v, b);
        assert_eq!(b, v[..]);
        assert_eq!(v[..], b);
        assert_eq!(b, Bytes::from(vec![0u8, 7, 8, 9]).slice(1..4));
        assert_ne!(b, vec![7u8, 8]);
        assert_eq!(format!("{b:?}"), format!("{v:?}"));
    }
}
