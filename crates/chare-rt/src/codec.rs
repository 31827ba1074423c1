//! What every binary format in the workspace shares — the one place the
//! format decisions live, as Charm++'s PUP framework is for messages,
//! checkpoints and migrated chares (paper §II-C).
//!
//! The formats themselves (the net wire, `SimMsg`, the EPRC recovery
//! shard — every checkpoint is one — with the person shard and the meta
//! record inside it, the episerve payloads) write their own fields with
//! [`bytes::BufMut`] and read them with the shim's fallible `try_get_*`
//! getters, so a short buffer is an error at the read that hits it. This
//! module supplies the rest:
//!
//! * [`crc32`] and the CRC trailer: [`seal`] appends it, [`decode_sealed`]
//!   parses the body first and verifies the trailer last, so a strict
//!   prefix is [`CodecError::Truncated`], not a CRC mismatch;
//! * the `magic | version u32` header ([`put_header`] / [`get_header`]);
//! * `u32` counts checked against the bytes present before anything is
//!   allocated ([`get_count`], [`get_blob`]);
//! * the rejection of trailing bytes ([`decode_exact`]);
//! * one error enum, [`CodecError`], for all of the above.
//!
//! This file is in simlint R3 scope: no panicking getter, no literal
//! index, no unwrap.

use bytes::{Buf, BufMut, Bytes, BytesMut, TryGetError};
use std::fmt;

/// Why bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// The buffer ended before the format did (or a count promised more
    /// items than the bytes present).
    Truncated,
    /// CRC trailer mismatch: the body was corrupted (bit rot, torn write).
    BadCrc {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// Unknown variant, kind or enum tag.
    BadTag(u8),
    /// Bytes left over after a complete value.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "wrong magic bytes"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::BadCrc { stored, computed } => write!(
                f,
                "CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<TryGetError> for CodecError {
    fn from(_: TryGetError) -> Self {
        CodecError::Truncated
    }
}

/// CRC-32 (IEEE 802.3, reflected). Bitwise — the framed payloads are tens
/// of kilobytes at most, so a lookup table would be tuning noise.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Write the `magic | version u32` header.
pub fn put_header(out: &mut BytesMut, magic: &[u8; 4], version: u32) {
    out.put_slice(magic);
    out.put_u32_le(version);
}

/// Read and check the `magic | version u32` header.
pub fn get_header(buf: &mut &[u8], magic: &[u8; 4], version: u32) -> Result<(), CodecError> {
    let mut found = [0u8; 4];
    buf.try_copy_to_slice(&mut found)?;
    if &found != magic {
        return Err(CodecError::BadMagic);
    }
    match buf.try_get_u32_le()? {
        v if v == version => Ok(()),
        v => Err(CodecError::BadVersion(v)),
    }
}

/// Append the CRC-32 of everything written so far, and freeze.
pub fn seal(mut out: BytesMut) -> Bytes {
    let crc = crc32(out.as_slice());
    out.put_u32_le(crc);
    out.freeze()
}

/// Read a `u32` count of items at least `item_bytes` wide each, and check
/// that the bytes for them are present before the caller allocates.
pub fn get_count(buf: &mut &[u8], item_bytes: usize) -> Result<usize, CodecError> {
    let n = buf.try_get_u32_le()? as usize;
    match n.checked_mul(item_bytes) {
        Some(need) if need <= buf.remaining() => Ok(n),
        _ => Err(CodecError::Truncated),
    }
}

/// Write a `u32`-length-prefixed byte string.
pub fn put_blob(out: &mut BytesMut, bytes: &[u8]) {
    out.put_u32_le(bytes.len() as u32);
    out.put_slice(bytes);
}

/// Read a `u32`-length-prefixed byte string, borrowed from the buffer.
pub fn get_blob<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let n = get_count(buf, 1)?;
    let (blob, rest) = buf.split_at_checked(n).ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(blob)
}

/// Run `parse` over `data` and reject any bytes it leaves unread.
pub fn decode_exact<'a, T, E: From<CodecError>>(
    data: &'a [u8],
    parse: impl FnOnce(&mut &'a [u8]) -> Result<T, E>,
) -> Result<T, E> {
    let mut buf = data;
    let value = parse(&mut buf)?;
    match buf.remaining() {
        0 => Ok(value),
        n => Err(CodecError::Trailing(n).into()),
    }
}

/// Decode a [`seal`]ed buffer: `parse` must consume the whole body, and
/// only then is the CRC trailer checked. Parsing first keeps the typed
/// errors (a strict prefix is `Truncated`, a corrupt header `BadMagic` or
/// `BadVersion`); the CRC catches whatever corruption still parses.
pub fn decode_sealed<'a, T, E: From<CodecError>>(
    data: &'a [u8],
    parse: impl FnOnce(&mut &'a [u8]) -> Result<T, E>,
) -> Result<T, E> {
    let body_len = data.len().checked_sub(4).ok_or(CodecError::Truncated)?;
    let (body, mut trailer) = data.split_at(body_len);
    let value = decode_exact(body, parse)?;
    let stored = trailer.try_get_u32_le().map_err(CodecError::from)?;
    let computed = crc32(body);
    if stored != computed {
        return Err(CodecError::BadCrc { stored, computed }.into());
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A count whose `count × item size` overflows `usize` or exceeds the
    /// bytes present is rejected before any allocation.
    #[test]
    fn lying_counts_are_truncated() {
        let mut header: &[u8] = &u32::MAX.to_le_bytes();
        assert_eq!(
            get_count(&mut header, usize::MAX),
            Err(CodecError::Truncated)
        );
        let mut short: &[u8] = &[2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(get_count(&mut short, 4), Err(CodecError::Truncated));
        let mut fits: &[u8] = &[2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(get_count(&mut fits, 4), Ok(2));
    }
}
