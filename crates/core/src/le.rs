//! Little-endian fixed-width integer framing, shared by the on-disk
//! formats that checksum with [`crate::crc32`]: the PDZS container
//! (`pardict-stream`) and the WAL / snapshot records (`pardict-store`).
//! The service wire protocol is big-endian and keeps its own helpers.

/// Append `v` as four little-endian bytes.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as eight little-endian bytes.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32` from the first four bytes of `b`.
///
/// # Panics
/// When `b` holds fewer than four bytes — callers bounds-check first.
#[inline]
#[must_use]
pub fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("u32 slice"))
}

/// Read a little-endian `u64` from the first eight bytes of `b`.
///
/// # Panics
/// When `b` holds fewer than eight bytes — callers bounds-check first.
#[inline]
#[must_use]
pub fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("u64 slice"))
}
