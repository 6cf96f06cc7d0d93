//! Append-only binary writer.
//!
//! All multi-byte scalars are little-endian. Collection sizes and string
//! lengths use unsigned LEB128 varints so that small collections — the common
//! case in model metadata — cost one byte instead of eight.

/// Growable binary output buffer.
///
/// Writing is infallible; the buffer grows as needed. Call
/// [`Writer::into_bytes`] to take ownership of the encoded bytes.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes preallocated. Use when the encoded
    /// size is roughly known (e.g. pickling a forest of known node count)
    /// to avoid reallocation in the hot path.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i8`.
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian `i16`.
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian IEEE-754 `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a signed varint using zigzag encoding.
    pub fn put_varint_signed(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes raw bytes with **no** length prefix. The reader must know the
    /// exact length from elsewhere.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a varint length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a UTF-8 string with a varint length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a slice of `f64` as a varint count followed by the raw
    /// little-endian values. This is the bulk path used for model weights.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_varint(values.len() as u64);
        self.put_f64_array(values);
    }

    /// Writes `values` as raw little-endian `u32`s with **no** count
    /// prefix: the bulk path for arrays whose length is stored once for
    /// several of them. Read back with [`crate::Reader::get_u32_array`].
    pub fn put_u32_array(&mut self, values: &[u32]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 4, 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(4).zip(values) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes `values` as raw little-endian `f64`s with **no** count
    /// prefix. Read back with [`crate::Reader::get_f64_array`].
    pub fn put_f64_array(&mut self, values: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 8, 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(values) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a slice of `i64` as a varint count followed by zigzag varints.
    pub fn put_i64_slice(&mut self, values: &[i64]) {
        self.put_varint(values.len() as u64);
        for &v in values {
            self.put_varint_signed(v);
        }
    }

    /// Writes a slice of `u32` as a varint count followed by varints.
    pub fn put_u32_slice(&mut self, values: &[u32]) {
        self.put_varint(values.len() as u64);
        for &v in values {
            self.put_varint(v as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_to_expected_bytes() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0x0102);
        w.put_u32(0xDEAD_BEEF);
        assert_eq!(w.as_bytes(), &[0xAB, 0x02, 0x01, 0xEF, 0xBE, 0xAD, 0xDE]);
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!(w.len(), 1, "value {v}");
        }
    }

    #[test]
    fn varint_boundaries() {
        let mut w = Writer::new();
        w.put_varint(127);
        assert_eq!(w.len(), 1);
        let mut w = Writer::new();
        w.put_varint(128);
        assert_eq!(w.as_bytes(), &[0x80, 0x01]);
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn zigzag_keeps_small_negatives_small() {
        let mut w = Writer::new();
        w.put_varint_signed(-1);
        assert_eq!(w.len(), 1);
        let mut w = Writer::new();
        w.put_varint_signed(-64);
        assert_eq!(w.len(), 1);
        let mut w = Writer::new();
        w.put_varint_signed(-65);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut w = Writer::new();
        w.put_str("abc");
        assert_eq!(w.as_bytes(), &[3, b'a', b'b', b'c']);
    }

    #[test]
    fn with_capacity_does_not_change_contents() {
        let mut a = Writer::new();
        let mut b = Writer::with_capacity(1024);
        for w in [&mut a, &mut b] {
            w.put_f64(3.25);
            w.put_str("x");
        }
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}
