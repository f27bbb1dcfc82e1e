//! Read-side primitives for the binary codec.
//!
//! The framed container's decoder reads the `DDTL` wire encoding
//! through [`SliceReader`], a zero-copy cursor over a borrowed slice
//! (typically a memory-mapped file) whose accessors are small enough
//! to inline into the record decoders in [`crate::codec`].
//!
//! The contract every `take_*` call relies on: the caller has already
//! established, via [`need`] (or a varint read, which checks per byte),
//! that enough bytes remain. The decoders uphold this before every
//! fixed-width read — `codec`'s truncation test walks every prefix of
//! each encoded record, and `framed`'s every prefix of a container, to
//! prove it.

use crate::error::SchemaError;

/// Zero-copy cursor over a borrowed byte slice, reading the wire
/// encoding in network byte order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    #[inline]
    pub(crate) fn new(buf: &'a [u8]) -> SliceReader<'a> {
        SliceReader { buf, pos: 0 }
    }

    /// Bytes consumed so far (offset of the cursor into the slice).
    #[inline]
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to consume.
    #[inline]
    pub(crate) fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> [u8; N] {
        let a: [u8; N] = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("length checked by the slice index");
        self.pos += N;
        a
    }

    /// Reads one byte.
    #[inline]
    pub(crate) fn take_u8(&mut self) -> u8 {
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub(crate) fn take_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.array())
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub(crate) fn take_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.array())
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub(crate) fn take_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.array())
    }

    /// Reads a big-endian `i64`.
    #[inline]
    pub(crate) fn take_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.array())
    }

    /// Reads a big-endian IEEE-754 `f64`.
    #[inline]
    pub(crate) fn take_f64(&mut self) -> f64 {
        f64::from_bits(self.take_u64())
    }

    /// Reads `dst.len()` bytes.
    #[inline]
    pub(crate) fn take_into(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.buf[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

/// Errors (without consuming) unless `n` bytes remain for `what`.
pub(crate) fn need(buf: &SliceReader<'_>, n: usize, what: &str) -> Result<(), SchemaError> {
    if buf.left() < n {
        Err(SchemaError::Codec(format!(
            "truncated input: need {n} bytes for {what}, have {}",
            buf.left()
        )))
    } else {
        Ok(())
    }
}

/// Reads a LEB128 varint, checking availability byte by byte.
pub(crate) fn get_varint(buf: &mut SliceReader<'_>) -> Result<u64, SchemaError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.left() == 0 {
            return Err(SchemaError::Codec("truncated varint".into()));
        }
        let byte = buf.take_u8();
        if shift >= 64 {
            return Err(SchemaError::Codec("varint overflow".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Buf, BufMut, BytesMut};

    /// `SliceReader` reads exactly what the `bytes` crate's own `Buf`
    /// cursor reads from the stream its `BufMut` wrote.
    #[test]
    fn both_cursors_read_the_same_stream() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(42);
        w.put_i64(-5);
        w.put_f64(1.5);
        w.put_slice(b"xy");
        let mut bytes = w.freeze();
        let encoded = bytes.to_vec();

        let mut r = SliceReader::new(&encoded);
        assert_eq!(r.take_u8(), bytes.get_u8());
        assert_eq!(r.take_u16(), bytes.get_u16());
        assert_eq!(r.take_u32(), bytes.get_u32());
        assert_eq!(r.take_u64(), bytes.get_u64());
        assert_eq!(r.take_i64(), bytes.get_i64());
        assert_eq!(r.take_f64().to_bits(), bytes.get_f64().to_bits());
        let (mut tail, mut want) = ([0u8; 2], [0u8; 2]);
        r.take_into(&mut tail);
        bytes.copy_to_slice(&mut want);
        assert_eq!(tail, want);
        assert_eq!((r.left(), bytes.remaining()), (0, 0));
        assert_eq!(r.pos(), encoded.len());
    }

    #[test]
    fn need_reports_shortfall() {
        let r = SliceReader::new(&[1, 2, 3]);
        assert!(need(&r, 3, "x").is_ok());
        let err = need(&r, 4, "header").unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn varint_truncation_and_overflow_error() {
        let mut r = SliceReader::new(&[0x80]);
        assert!(get_varint(&mut r).is_err());
        let mut r = SliceReader::new(&[0xFF; 11]);
        assert!(get_varint(&mut r).is_err());
    }
}
