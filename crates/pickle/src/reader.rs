//! Bounds-checked binary reader, the mirror image of [`crate::Writer`].

use crate::error::PickleError;

/// Cursor over a byte slice with checked decoding primitives.
///
/// Every accessor verifies that enough bytes remain and returns
/// [`PickleError::UnexpectedEof`] otherwise, so a truncated BLOB can never
/// cause a panic or an out-of-bounds read.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current byte offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PickleError> {
        if self.remaining() < n {
            return Err(PickleError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PickleError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any nonzero byte is `true`.
    pub fn get_bool(&mut self) -> Result<bool, PickleError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, PickleError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PickleError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PickleError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i8`.
    pub fn get_i8(&mut self) -> Result<i8, PickleError> {
        Ok(self.get_u8()? as i8)
    }

    /// Reads a little-endian `i16`.
    pub fn get_i16(&mut self) -> Result<i16, PickleError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, PickleError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, PickleError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian IEEE-754 `f32`.
    pub fn get_f32(&mut self) -> Result<f32, PickleError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, PickleError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, PickleError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(PickleError::VarintOverflow);
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(PickleError::VarintOverflow);
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn get_varint_signed(&mut self) -> Result<i64, PickleError> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Decodes a varint length prefix, rejecting lengths that exceed the
    /// bytes remaining (protection against allocation bombs).
    pub fn get_len(&mut self) -> Result<usize, PickleError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(PickleError::ImplausibleLength {
                length: len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Decodes a varint element count where each element needs at least
    /// `min_elem_bytes` bytes, rejecting counts the buffer cannot hold.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, PickleError> {
        let n = self.get_varint()?;
        let need = n.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(PickleError::ImplausibleLength { length: n, remaining: self.remaining() });
        }
        Ok(n as usize)
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], PickleError> {
        self.take(n)
    }

    /// Reads a varint-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], PickleError> {
        let len = self.get_len()?;
        self.take(len)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, PickleError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| PickleError::InvalidUtf8)
    }

    /// Reads a `f64` slice written by [`crate::Writer::put_f64_slice`].
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, PickleError> {
        let n = self.get_count(8)?;
        self.get_f64_array(n)
    }

    /// The next `n` elements of `width` bytes each, rejecting counts the
    /// buffer cannot hold before anything is allocated.
    fn take_array(&mut self, n: usize, width: usize) -> Result<&'a [u8], PickleError> {
        match n.checked_mul(width) {
            Some(len) if len <= self.remaining() => self.take(len),
            _ => Err(PickleError::ImplausibleLength {
                length: n as u64,
                remaining: self.remaining(),
            }),
        }
    }

    /// Reads `n` raw little-endian `u32`s written by
    /// [`crate::Writer::put_u32_array`].
    pub fn get_u32_array(&mut self, n: usize) -> Result<Vec<u32>, PickleError> {
        let bytes = self.take_array(n, 4)?;
        Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
    }

    /// Reads `n` raw little-endian `f64`s written by
    /// [`crate::Writer::put_f64_array`].
    pub fn get_f64_array(&mut self, n: usize) -> Result<Vec<f64>, PickleError> {
        let bytes = self.take_array(n, 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// Reads an `i64` slice written by [`crate::Writer::put_i64_slice`].
    pub fn get_i64_vec(&mut self) -> Result<Vec<i64>, PickleError> {
        let n = self.get_count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_varint_signed()?);
        }
        Ok(out)
    }

    /// Reads a `u32` slice written by [`crate::Writer::put_u32_slice`].
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, PickleError> {
        let n = self.get_count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = self.get_varint()?;
            if v > u32::MAX as u64 {
                return Err(PickleError::Invalid(format!("u32 slice element {v} out of range")));
            }
            out.push(v as u32);
        }
        Ok(out)
    }

    /// Errors with [`PickleError::TrailingBytes`] unless the buffer is fully
    /// consumed. Call at the end of `unpickle_body` for strict decoding.
    pub fn expect_exhausted(&self) -> Result<(), PickleError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(PickleError::TrailingBytes { count: self.remaining() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::Writer;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_i32(-12345);
        w.put_f64(2.5);
        w.put_bool(true);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_i32().unwrap(), -12345);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert!(r.is_exhausted());
    }

    #[test]
    fn eof_is_reported_not_panicked() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(err, PickleError::UnexpectedEof { needed: 4, remaining: 2 });
    }

    #[test]
    fn varint_round_trip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).get_varint().unwrap(), v);
        }
    }

    #[test]
    fn signed_varint_round_trip_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -1_000_000] {
            let mut w = Writer::new();
            w.put_varint_signed(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).get_varint_signed().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bytes = [0xFFu8; 11];
        assert_eq!(Reader::new(&bytes).get_varint().unwrap_err(), PickleError::VarintOverflow);
    }

    #[test]
    fn length_bomb_rejected() {
        // Claims a 2^40-byte string in a 3-byte buffer.
        let mut w = Writer::new();
        w.put_varint(1 << 40);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_len().unwrap_err();
        assert!(matches!(err, PickleError::ImplausibleLength { .. }));
    }

    #[test]
    fn count_bomb_rejected() {
        let mut w = Writer::new();
        w.put_varint(1 << 40); // claims 2^40 f64s
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_f64_vec().unwrap_err();
        assert!(matches!(err, PickleError::ImplausibleLength { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_str().unwrap_err(), PickleError::InvalidUtf8);
    }

    #[test]
    fn slices_round_trip() {
        let mut w = Writer::new();
        w.put_f64_slice(&[1.0, -2.5, f64::INFINITY]);
        w.put_i64_slice(&[i64::MIN, 0, i64::MAX]);
        w.put_u32_slice(&[0, 42, u32::MAX]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.0, -2.5, f64::INFINITY]);
        assert_eq!(r.get_i64_vec().unwrap(), vec![i64::MIN, 0, i64::MAX]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![0, 42, u32::MAX]);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn arrays_round_trip_and_reject_overlong_counts() {
        let mut w = Writer::new();
        w.put_u32_array(&[0, 7, u32::MAX]);
        w.put_f64_array(&[-0.0, f64::NAN, 1.5]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 3 * 4 + 3 * 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u32_array(3).unwrap(), vec![0, 7, u32::MAX]);
        let f = r.get_f64_array(3).unwrap();
        assert_eq!(f[0].to_bits(), (-0.0f64).to_bits());
        assert!(f[1].is_nan() && f[2] == 1.5);
        r.expect_exhausted().unwrap();
        for n in [1, usize::MAX / 4 + 1, usize::MAX] {
            let err = Reader::new(&[]).get_u32_array(n).unwrap_err();
            assert!(matches!(err, PickleError::ImplausibleLength { .. }), "{n}: {err:?}");
        }
        assert!(Reader::new(&[0; 15]).get_f64_array(2).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.expect_exhausted().unwrap_err(), PickleError::TrailingBytes { count: 3 });
    }
}
