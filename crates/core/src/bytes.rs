//! The one byte cursor under the length-prefixed codecs: the service wire
//! protocol (big-endian) and the WAL / snapshot records (little-endian,
//! checksummed with [`crate::crc32`]). This module is the only place an
//! untrusted length or element count is interpreted: [`Reader::take`]
//! bounds every length with `checked_add`, and [`Reader::seq`] — the one
//! `Vec::with_capacity` fed by a decoded count — rejects a count the
//! remaining bytes cannot hold before it allocates.
//!
//! The fixed-offset layouts of the PDZS container (`pardict-stream`) slice
//! at constant offsets and use only the free little-endian getters below.

use std::fmt;

/// Little-endian `u32` at the start of `b`.
///
/// # Panics
/// When `b` holds fewer than four bytes — callers bounds-check first.
#[inline]
#[must_use]
pub fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("u32 slice"))
}

/// Little-endian `u64` at the start of `b`.
///
/// # Panics
/// When `b` holds fewer than eight bytes — callers bounds-check first.
#[inline]
#[must_use]
pub fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("u64 slice"))
}

/// Byte order of the integers a [`Reader`] or [`Writer`] handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endian {
    /// The wire protocol.
    Big,
    /// The on-disk formats.
    Little,
}

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BytesError {
    /// A field runs past the end of the input.
    Truncated,
    /// A claimed element count needs more bytes than remain.
    CountExceedsInput,
    /// A string field is not UTF-8.
    InvalidUtf8,
    /// Input continues after the last field.
    TrailingBytes,
}

impl fmt::Display for BytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BytesError::Truncated => "truncated field",
            BytesError::CountExceedsInput => "element count exceeds remaining bytes",
            BytesError::InvalidUtf8 => "invalid UTF-8",
            BytesError::TrailingBytes => "trailing bytes",
        })
    }
}

impl std::error::Error for BytesError {}

impl From<BytesError> for std::io::Error {
    fn from(e: BytesError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

impl From<BytesError> for String {
    fn from(e: BytesError) -> Self {
        e.to_string()
    }
}

/// A bounds-checked reader over untrusted bytes: every getter returns
/// [`BytesError::Truncated`] past the end instead of panicking, so decoding
/// through it is total over arbitrary input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    order: Endian,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8], order: Endian) -> Self {
        Reader { buf, pos: 0, order }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BytesError> {
        let end = self.pos.checked_add(n).ok_or(BytesError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(BytesError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, BytesError> {
        Ok(self.take(1)?[0])
    }

    /// A four-byte integer.
    pub fn u32(&mut self) -> Result<u32, BytesError> {
        let b = self.take(4)?.try_into().expect("took 4 bytes");
        Ok(match self.order {
            Endian::Big => u32::from_be_bytes(b),
            Endian::Little => u32::from_le_bytes(b),
        })
    }

    /// An eight-byte integer.
    pub fn u64(&mut self) -> Result<u64, BytesError> {
        let b = self.take(8)?.try_into().expect("took 8 bytes");
        Ok(match self.order {
            Endian::Big => u64::from_be_bytes(b),
            Endian::Little => u64::from_le_bytes(b),
        })
    }

    /// A `u32` element count, bounded by the bytes actually left: a
    /// well-formed input carries at least `min_entry` bytes per element,
    /// so a claim above `remaining / min_entry` is hostile and rejected.
    pub fn count(&mut self, min_entry: usize) -> Result<usize, BytesError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_entry {
            return Err(BytesError::CountExceedsInput);
        }
        Ok(n)
    }

    /// A counted sequence of elements of at least `min_entry` bytes each,
    /// every one read by `item`. The pre-allocation is capped at
    /// `remaining / min_entry` elements by [`Reader::count`].
    pub fn seq<T>(
        &mut self,
        min_entry: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, BytesError>,
    ) -> Result<Vec<T>, BytesError> {
        let n = self.count(min_entry)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, BytesError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, BytesError> {
        String::from_utf8(self.bytes()?).map_err(|_| BytesError::InvalidUtf8)
    }

    /// A counted list of length-prefixed byte strings (a pattern list);
    /// each costs at least its four-byte length prefix.
    pub fn list(&mut self) -> Result<Vec<Vec<u8>>, BytesError> {
        self.seq(4, Self::bytes)
    }

    /// Require that every byte was consumed.
    pub fn finish(&self) -> Result<(), BytesError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(BytesError::TrailingBytes)
        }
    }
}

/// The encoder mirroring [`Reader`]: same byte order, same framing.
#[derive(Debug)]
pub struct Writer {
    out: Vec<u8>,
    order: Endian,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new(order: Endian) -> Self {
        let out = Vec::new();
        Writer { out, order }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Append a four-byte integer.
    pub fn u32(&mut self, v: u32) {
        self.raw(&match self.order {
            Endian::Big => v.to_be_bytes(),
            Endian::Little => v.to_le_bytes(),
        });
    }

    /// Append an eight-byte integer.
    pub fn u64(&mut self, v: u64) {
        self.raw(&match self.order {
            Endian::Big => v.to_be_bytes(),
            Endian::Little => v.to_le_bytes(),
        });
    }

    /// Append bytes with no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// Append a counted sequence, each element written by `put`.
    pub fn seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            put(self, item);
        }
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }

    /// Append a counted list of length-prefixed byte strings.
    pub fn put_list(&mut self, items: &[Vec<u8>]) {
        self.seq(items, |w, b| w.put_bytes(b));
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_byte_orders_round_trip_and_differ() {
        let list = vec![b"ab".to_vec(), Vec::new(), b"cde".to_vec()];
        for (order, first) in [(Endian::Big, 1), (Endian::Little, 4)] {
            let mut w = Writer::new(order);
            w.u8(7);
            w.u32(0x0102_0304);
            w.u64(0x1112_1314_1516_1718);
            w.put_bytes(b"name");
            w.put_list(&list);
            let buf = w.into_vec();
            assert_eq!(buf[1], first, "{order:?} u32 starts with its own end");
            let mut r = Reader::new(&buf, order);
            assert_eq!((r.u8(), r.u32()), (Ok(7), Ok(0x0102_0304)));
            assert_eq!(r.u64(), Ok(0x1112_1314_1516_1718));
            assert_eq!(r.string().as_deref(), Ok("name"));
            assert_eq!(r.list().as_ref(), Ok(&list));
            assert_eq!(r.finish(), Ok(()));
        }
        let le = [4, 3, 2, 1, 8, 7, 6, 5];
        assert_eq!(get_u32(&le), 0x0102_0304);
        assert_eq!(get_u64(&le), 0x0506_0708_0102_0304);
    }

    #[test]
    fn every_truncation_of_a_valid_list_errors() {
        let mut w = Writer::new(Endian::Little);
        w.put_list(&[b"abc".to_vec(), b"d".to_vec()]);
        let full = w.into_vec();
        assert!(Reader::new(&full, Endian::Little).list().is_ok());
        for cut in 0..full.len() {
            let got = Reader::new(&full[..cut], Endian::Little).list();
            assert!(got.is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        // u32::MAX entries claimed with 8 bytes behind the count: were the
        // claim trusted, `with_capacity` would ask for ~96 GiB.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0];
        let hostile = Err(BytesError::CountExceedsInput);
        assert_eq!(Reader::new(&buf, Endian::Big).count(4), hostile);
        assert_eq!(Reader::new(&buf, Endian::Big).list().err(), hostile.err());
        // The largest honest claim is accepted.
        let buf = [0, 0, 0, 2, 9, 9, 9, 9, 9, 9, 9, 9];
        assert_eq!(Reader::new(&buf, Endian::Big).count(4), Ok(2));
        assert_eq!(Reader::new(&buf, Endian::Big).count(5), hostile);
    }

    #[test]
    fn take_cannot_overflow_and_trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[1, 2, 3], Endian::Little);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.take(usize::MAX), Err(BytesError::Truncated));
        assert_eq!(r.remaining(), 2, "a refused take consumes nothing");
        assert_eq!(r.finish(), Err(BytesError::TrailingBytes));
        assert_eq!(r.take(2), Ok(&[2u8, 3][..]));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(BytesError::Truncated));
        let not_utf8 = [0, 0, 0, 2, 0xFF, 0xFE];
        let got = Reader::new(&not_utf8, Endian::Big).string();
        assert_eq!(got, Err(BytesError::InvalidUtf8));
    }
}
