//! Offline shim for the `bytes` API surface this workspace uses:
//! [`Buf`] over `&[u8]`, [`BufMut`] over [`BytesMut`], and the
//! [`BytesMut::freeze`] → [`Bytes`] handoff. Little-endian accessors only —
//! exactly what the `EPOP`/`EPCK` binary formats need.

use std::ops::Deref;

/// Read cursor over a byte source (mirrors `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Copy `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
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
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut r: &[u8] = &[1, 2];
        let mut out = [0u8; 3];
        r.copy_to_slice(&mut out);
    }
}
