//! Offline shim for the `bytes` API surface this workspace uses:
//! [`Buf`] over `&[u8]`, [`BufMut`] over [`BytesMut`], and the
//! [`BytesMut::freeze`] → [`Bytes`] handoff. Little-endian accessors only,
//! each in the panicking form and the fallible `try_get_*` form upstream
//! has had since 1.10 (returning [`TryGetError`]) — the binary formats
//! decode through the fallible ones.

use std::fmt;
use std::ops::Deref;

/// A fallible read asked for more bytes than remain (mirrors
/// `bytes::TryGetError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryGetError {
    /// Bytes the read needed.
    pub requested: usize,
    /// Bytes that were left.
    pub available: usize,
}

impl fmt::Display for TryGetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not enough bytes remaining in buffer to read value (requested {} but only {} available)",
            self.requested, self.available
        )
    }
}

impl std::error::Error for TryGetError {}

macro_rules! getters {
    ($($get:ident, $try_get:ident, $ty:ty, $doc:literal;)*) => {
        $(
            #[doc = concat!("Read ", $doc, ".")]
            ///
            /// # Panics
            /// Panics if too few bytes remain.
            fn $get(&mut self) -> $ty {
                match self.$try_get() {
                    Ok(v) => v,
                    Err(e) => panic!("buffer underflow: {e}"),
                }
            }

            #[doc = concat!("Read ", $doc, ", or fail without advancing if too few bytes remain.")]
            fn $try_get(&mut self) -> Result<$ty, TryGetError> {
                let mut b = [0u8; std::mem::size_of::<$ty>()];
                self.try_copy_to_slice(&mut b)?;
                Ok(<$ty>::from_le_bytes(b))
            }
        )*
    };
}

/// Read cursor over a byte source (mirrors `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Copy `dst.len()` bytes out, advancing the cursor; fails without
    /// advancing if fewer remain.
    fn try_copy_to_slice(&mut self, dst: &mut [u8]) -> Result<(), TryGetError>;

    /// Copy `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        if let Err(e) = self.try_copy_to_slice(dst) {
            panic!("buffer underflow: {e}");
        }
    }

    getters! {
        get_u8, try_get_u8, u8, "one byte";
        get_u16_le, try_get_u16_le, u16, "a little-endian `u16`";
        get_u32_le, try_get_u32_le, u32, "a little-endian `u32`";
        get_u64_le, try_get_u64_le, u64, "a little-endian `u64`";
        get_f32_le, try_get_f32_le, f32, "a little-endian `f32`";
        get_f64_le, try_get_f64_le, f64, "a little-endian `f64`";
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn try_copy_to_slice(&mut self, dst: &mut [u8]) -> Result<(), TryGetError> {
        let (head, tail) = self.split_at_checked(dst.len()).ok_or(TryGetError {
            requested: dst.len(),
            available: self.len(),
        })?;
        dst.copy_from_slice(head);
        *self = tail;
        Ok(())
    }
}

/// Write sink (mirrors `bytes::BufMut`).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Growable byte buffer (mirrors `bytes::BytesMut`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drop the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Read access to the written bytes (trailing-checksum codecs hash
    /// the body before appending the trailer).
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Immutable byte container (mirrors `bytes::Bytes`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16_le(300);
        w.put_u32_le(70_000);
        w.put_u64_le(1 << 40);
        w.put_f32_le(1.5);
        w.put_f64_le(-2.25e300);
        w.put_slice(b"xyz");
        let frozen = w.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.remaining(), frozen.len());
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 300);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_u64_le(), 1 << 40);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -2.25e300);
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fallible_reads_fail_without_advancing() {
        let mut r: &[u8] = &[1, 2, 3];
        assert_eq!(
            r.try_get_u32_le(),
            Err(TryGetError {
                requested: 4,
                available: 3
            })
        );
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.try_get_u16_le(), Ok(0x0201));
        assert_eq!(r.try_get_u8(), Ok(3));
        assert!(r.try_get_u8().is_err());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut r: &[u8] = &[1, 2];
        let mut out = [0u8; 3];
        r.copy_to_slice(&mut out);
    }
}
