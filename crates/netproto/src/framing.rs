//! Wire framing shared by the server and both socket clients.
//!
//! Every message is one frame: a 1-byte kind, a 4-byte little-endian
//! payload length, then the payload. Result sets stream as a schema frame,
//! row frames (batched), and a done frame.

use mlcs_columnar::{DataType, DbError, DbResult};
use std::io::{Read, Write};

/// Frame kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: SQL text; payload starts with the encoding byte.
    Query = 1,
    /// Server → client: result schema.
    Schema = 2,
    /// Server → client: a batch of rows (text encoding).
    RowsText = 3,
    /// Server → client: a batch of rows (binary encoding).
    RowsBinary = 4,
    /// Server → client: end of result; payload = row count (u64).
    Done = 5,
    /// Server → client: error message.
    Error = 6,
}

impl FrameKind {
    pub(crate) fn from_byte(b: u8) -> DbResult<FrameKind> {
        Ok(match b {
            1 => FrameKind::Query,
            2 => FrameKind::Schema,
            3 => FrameKind::RowsText,
            4 => FrameKind::RowsBinary,
            5 => FrameKind::Done,
            6 => FrameKind::Error,
            other => return Err(DbError::Corrupt(format!("unknown frame kind {other:#04x}"))),
        })
    }
}

/// Hard cap on a single frame's payload (64 MiB) so a corrupted length
/// prefix cannot trigger an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of a frame header: the kind, then the payload length.
pub(crate) const HEADER: usize = 5;

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> DbResult<()> {
    let mut header = [0u8; 5];
    header[0] = kind as u8;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header).map_err(|e| io_to_db("net.write", e))?;
    w.write_all(payload).map_err(|e| io_to_db("net.write", e))?;
    mlcs_columnar::metrics::counter("netproto.frames_sent").incr();
    mlcs_columnar::metrics::counter("netproto.bytes_sent")
        .add((header.len() + payload.len()) as u64);
    Ok(())
}

/// Starts a frame of `kind` at the end of `out`, for a payload encoded in
/// place after it; returns where the frame starts, for [`end_frame`].
pub(crate) fn begin_frame(out: &mut Vec<u8>, kind: FrameKind) -> usize {
    let at = out.len();
    out.push(kind as u8);
    out.extend_from_slice(&[0; 4]);
    at
}

/// Completes the frame [`begin_frame`] started at `at`: everything after
/// its header is the payload.
pub(crate) fn end_frame(out: &mut [u8], at: usize) {
    let len = out.len() - at - HEADER;
    out[at + 1..at + HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    mlcs_columnar::metrics::counter("netproto.frames_sent").incr();
    mlcs_columnar::metrics::counter("netproto.bytes_sent").add((HEADER + len) as u64);
}

/// Maps a transport error observed at `point` (`net.read` / `net.write`)
/// to a typed [`DbError`]: socket deadline expiries become
/// [`DbError::Timeout`], everything else [`DbError::Io`].
pub fn io_to_db(point: &str, e: std::io::Error) -> DbError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            DbError::Timeout { path: point.to_owned() }
        }
        _ => DbError::Io(e.to_string()),
    }
}

/// Reads one frame.
///
/// Error taxonomy: a clean EOF before any header byte is
/// `DbError::Io("connection closed")` (the peer simply hung up between
/// frames); an EOF after at least one byte of the header or payload is
/// `DbError::Corrupt` naming the truncated part; a socket deadline expiry
/// is `DbError::Timeout`.
pub fn read_frame(r: &mut impl Read) -> DbResult<(FrameKind, Vec<u8>)> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, &mut payload)?;
    Ok((kind, payload))
}

/// Reads one frame into `payload`, replacing its contents and reusing its
/// allocation: how a client reads a result's frames into one buffer.
/// Errors as [`read_frame`]. The buffer grows with the bytes that arrive,
/// so a length prefix that lies costs no allocation.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> DbResult<FrameKind> {
    let mut header = [0u8; HEADER];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(DbError::Io("connection closed".into())),
            Ok(0) => return Err(DbError::Corrupt("truncated frame header".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_to_db("net.read", e)),
        }
    }
    let kind = FrameKind::from_byte(header[0])?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME {
        return Err(DbError::Corrupt(format!("frame of {len} bytes exceeds the cap")));
    }
    payload.clear();
    match r.take(len as u64).read_to_end(payload) {
        Ok(n) if n == len => {}
        Ok(_) => return Err(DbError::Corrupt("truncated frame payload".into())),
        Err(e) => return Err(io_to_db("net.read", e)),
    }
    mlcs_columnar::metrics::counter("netproto.frames_received").incr();
    mlcs_columnar::metrics::counter("netproto.bytes_received").add((HEADER + len) as u64);
    Ok(kind)
}

/// A bounds-checked reader over a byte slice: each read is `None` when
/// fewer bytes are left than it needs, and nothing is consumed then.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// True when every byte has been read.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The next `n` bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub(crate) fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// A little-endian u16.
    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A u32 length prefix, then that many bytes.
    #[inline]
    pub(crate) fn prefixed(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_le_bytes(self.array()?) as usize;
        self.take(len)
    }
}

/// The result-set encoding a client requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Tab-separated text rows.
    Text = 0,
    /// Length/width-prefixed binary rows.
    Binary = 1,
}

/// Encodes a query request payload.
pub fn encode_query(encoding: Encoding, sql: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + sql.len());
    out.push(encoding as u8);
    out.extend_from_slice(sql.as_bytes());
    out
}

/// Decodes a query request payload into `(encoding, sql)`.
pub fn decode_query(payload: &[u8]) -> DbResult<(Encoding, String)> {
    if payload.is_empty() {
        return Err(DbError::Corrupt("empty query frame".into()));
    }
    let encoding = match payload[0] {
        0 => Encoding::Text,
        1 => Encoding::Binary,
        other => return Err(DbError::Corrupt(format!("unknown encoding byte {other}"))),
    };
    let sql = std::str::from_utf8(&payload[1..])
        .map_err(|_| DbError::Corrupt("query is not valid UTF-8".into()))?
        .to_owned();
    Ok((encoding, sql))
}

/// Encodes a result schema: column count, then per column a name and a
/// type tag.
pub fn encode_schema(fields: &[(String, DataType)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(fields.len() as u16).to_le_bytes());
    for (name, dtype) in fields {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.push(dtype.tag());
    }
    out
}

/// Decodes a schema frame.
pub fn decode_schema(payload: &[u8]) -> DbResult<Vec<(String, DataType)>> {
    let mut buf = Reader::new(payload);
    let corrupt = || DbError::Corrupt("truncated schema frame".into());
    let n = buf.u16().ok_or_else(corrupt)? as usize;
    let mut out = Vec::with_capacity(n.min(payload.len() / 3));
    for _ in 0..n {
        let name_len = buf.u16().ok_or_else(corrupt)? as usize;
        let name = buf.take(name_len).ok_or_else(corrupt)?;
        let name = std::str::from_utf8(name)
            .map_err(|_| DbError::Corrupt("schema name is not UTF-8".into()))?
            .to_owned();
        let tag = buf.array::<1>().ok_or_else(corrupt)?[0];
        let dtype = DataType::from_tag(tag)
            .ok_or_else(|| DbError::Corrupt("unknown type tag in schema".into()))?;
        out.push((name, dtype));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Done, &42u64.to_le_bytes()).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::Done);
        assert_eq!(payload, 42u64.to_le_bytes());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.push(FrameKind::Query as u8);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let buf = [99u8, 0, 0, 0, 0];
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn query_round_trip() {
        let payload = encode_query(Encoding::Binary, "SELECT 1");
        let (enc, sql) = decode_query(&payload).unwrap();
        assert_eq!(enc, Encoding::Binary);
        assert_eq!(sql, "SELECT 1");
        assert!(decode_query(&[]).is_err());
        assert!(decode_query(&[9, b'x']).is_err());
    }

    #[test]
    fn schema_round_trip() {
        let fields =
            vec![("id".to_owned(), DataType::Int32), ("name".to_owned(), DataType::Varchar)];
        let enc = encode_schema(&fields);
        assert_eq!(decode_schema(&enc).unwrap(), fields);
        assert!(decode_schema(&enc[..3]).is_err());
    }
}
