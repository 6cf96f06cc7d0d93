//! The two row encodings of a result's `Rows*` frames, as typed codecs.
//!
//! A result crosses the wire row-major, the way the PostgreSQL and MySQL
//! protocols ship it: [`binary`] (a NULL marker per cell, then the
//! fixed-width little-endian value or a length-prefixed byte string) and
//! [`text`] (tab-separated, newline-terminated fields). The client then
//! transposes the rows back into columns. Those are the costs Figure 1's
//! socket baselines are meant to pay; this module pays no others:
//!
//! * **Encode** resolves each column once per frame to its physical payload
//!   and the frame's physical rows ([`Column::physical_rows`]): a plain
//!   slice, a dictionary's values plus the frame's codes, or the runs of an
//!   RLE column. Cells are then written from the typed payload through
//!   one typed writer per payload type, with no [`mlcs_columnar::Value`] and
//!   no allocation per cell.
//! * **Decode** reads each frame from a bounds-checked byte cursor straight
//!   into the typed appends of the client's
//!   [`mlcs_columnar::ColumnBuilder`]s, as each frame arrives.
//!
//! A frame ends at [`ROWS_PER_FRAME`] rows or before the row that would take
//! it past [`FRAME_BYTES`], whichever comes first, and always holds at least
//! one row. A row that alone exceeds [`crate::framing::MAX_FRAME`] cannot be
//! sent: its encoder returns an error, which the server reports in an
//! `Error` frame.

use crate::framing::MAX_FRAME;
use mlcs_columnar::{Batch, BlobColumn, Column, DbError, DbResult, StringColumn};

pub mod binary;
#[cfg(test)]
mod oracle;
pub mod text;

/// Most rows per `Rows*` frame.
pub const ROWS_PER_FRAME: usize = 1024;

/// Byte budget of one `Rows*` frame: rows are added while the payload stays
/// within it (a frame's first row may exceed it, up to
/// [`crate::framing::MAX_FRAME`]).
pub const FRAME_BYTES: usize = 8 << 20;

/// A row encoder: appends the payload of the frame that starts at a row
/// and returns how many rows it holds.
pub(crate) type EncodeRows = fn(&Batch, usize, &mut Vec<u8>) -> DbResult<usize>;

/// One physical payload type as the row encoders read it: value `p` of a
/// column's [`mlcs_columnar::ColumnData`].
pub(crate) trait Cells {
    /// The binary width of every value, for fixed-width types.
    const WIDTH: Option<usize>;
    /// The binary length of value `p` after its marker.
    #[inline]
    fn binary_len(&self, _p: usize) -> usize {
        Self::WIDTH.unwrap_or(0)
    }
    /// Writes value `p`'s binary form into `dst`, which is exactly
    /// [`Cells::binary_len`] bytes long.
    fn put_binary(&self, p: usize, dst: &mut [u8]);
    /// Appends value `p`'s text form, escaped.
    fn put_text(&self, p: usize, out: &mut Vec<u8>);
}

macro_rules! fixed {
    ($t:ty, |$v:ident, $out:ident| $text:expr) => {
        impl Cells for [$t] {
            const WIDTH: Option<usize> = Some(std::mem::size_of::<$t>());
            #[inline]
            fn put_binary(&self, p: usize, dst: &mut [u8]) {
                dst.copy_from_slice(&self[p].to_le_bytes());
            }
            #[inline]
            fn put_text(&self, p: usize, $out: &mut Vec<u8>) {
                let $v = self[p];
                $text
            }
        }
    };
}

fixed!(i8, |v, out| put_int(i64::from(v), out));
fixed!(i16, |v, out| put_int(i64::from(v), out));
fixed!(i32, |v, out| put_int(i64::from(v), out));
fixed!(i64, |v, out| put_int(v, out));
fixed!(f32, |v, out| put_float(f64::from(v), out));
fixed!(f64, |v, out| put_float(v, out));

impl Cells for [bool] {
    const WIDTH: Option<usize> = Some(1);
    #[inline]
    fn put_binary(&self, p: usize, dst: &mut [u8]) {
        dst[0] = u8::from(self[p]);
    }
    #[inline]
    fn put_text(&self, p: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(if self[p] { b"true" } else { b"false" });
    }
}

/// Value `p` of an offsets-plus-bytes payload.
#[inline]
fn slot<'a>((offsets, bytes): (&[u64], &'a [u8]), p: usize) -> &'a [u8] {
    &bytes[offsets[p] as usize..offsets[p + 1] as usize]
}

/// A u32 length prefix, then the bytes.
#[inline]
fn put_prefixed(b: &[u8], dst: &mut [u8]) {
    dst[..4].copy_from_slice(&(b.len() as u32).to_le_bytes());
    dst[4..].copy_from_slice(b);
}

impl Cells for StringColumn {
    const WIDTH: Option<usize> = None;
    #[inline]
    fn binary_len(&self, p: usize) -> usize {
        4 + slot(self.raw_parts(), p).len()
    }
    #[inline]
    fn put_binary(&self, p: usize, dst: &mut [u8]) {
        put_prefixed(slot(self.raw_parts(), p), dst);
    }
    fn put_text(&self, p: usize, out: &mut Vec<u8>) {
        let s = slot(self.raw_parts(), p);
        if !s.iter().any(|&b| matches!(b, b'\\' | b'\t' | b'\n')) {
            out.extend_from_slice(s);
            return;
        }
        for &b in s {
            match b {
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b'\n' => out.extend_from_slice(b"\\n"),
                other => out.push(other),
            }
        }
    }
}

impl Cells for BlobColumn {
    const WIDTH: Option<usize> = None;
    #[inline]
    fn binary_len(&self, p: usize) -> usize {
        4 + slot(self.raw_parts(), p).len()
    }
    #[inline]
    fn put_binary(&self, p: usize, dst: &mut [u8]) {
        put_prefixed(slot(self.raw_parts(), p), dst);
    }
    /// `\x` and lowercase hex (`Value::render`'s form), its backslash
    /// escaped.
    fn put_text(&self, p: usize, out: &mut Vec<u8>) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let b = slot(self.raw_parts(), p);
        out.reserve(3 + 2 * b.len());
        out.extend_from_slice(b"\\\\x");
        for &byte in b {
            out.push(HEX[usize::from(byte >> 4)]);
            out.push(HEX[usize::from(byte & 15)]);
        }
    }
}

/// Appends an integer's decimal digits (`i64`'s `Display`, without a
/// `String`).
fn put_int(v: i64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a float as `Value::render` writes it.
fn put_float(v: f64, out: &mut Vec<u8>) {
    use std::io::Write;
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{}", mlcs_columnar::types::format_float(v));
}

/// Calls `$f(values, args…)` with `$data`'s typed payload (a slice or a
/// byte-string column), which implements [`Cells`]: the shape of the
/// engine's own `typed!`.
macro_rules! with_cells {
    ($data:expr, $f:path, $($arg:expr),*) => {
        match $data {
            mlcs_columnar::ColumnData::Boolean(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Int8(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Int16(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Int32(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Int64(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Float32(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Float64(v) => $f(&v[..], $($arg),*),
            mlcs_columnar::ColumnData::Varchar(v) => $f(v, $($arg),*),
            mlcs_columnar::ColumnData::Blob(v) => $f(v, $($arg),*),
        }
    };
}
pub(crate) use with_cells;

/// One column as a frame reads it: the physical payload, where the
/// frame's rows live in it, and which are NULL. `r` counts the frame's
/// rows from its first, row `start`.
pub(crate) struct View<'a> {
    column: &'a Column,
    start: usize,
    /// `None` for a plain column; else frame row `r`'s physical index.
    rows: Option<&'a [u32]>,
}

impl<'a> View<'a> {
    /// Resolves `column` for rows `start..start + n`; `scratch` holds an
    /// RLE column's expanded runs.
    pub(crate) fn new(
        column: &'a Column,
        start: usize,
        n: usize,
        scratch: &'a mut Vec<u32>,
    ) -> Self {
        View { column, start, rows: column.physical_rows(start, start + n, scratch) }
    }

    /// True when no row of the column is NULL.
    #[inline]
    pub(crate) fn all_valid(&self) -> bool {
        self.column.validity().is_none()
    }

    /// True when frame row `r` is NULL.
    #[inline]
    pub(crate) fn is_null(&self, r: usize) -> bool {
        self.column.is_null(self.start + r)
    }

    /// Calls `f(r, p)` for the frame's first `n` rows, `p` being frame row
    /// `r`'s physical index.
    #[inline(always)]
    pub(crate) fn each(&self, n: usize, mut f: impl FnMut(usize, usize)) {
        match self.rows {
            None => (0..n).for_each(|r| f(r, self.start + r)),
            Some(rows) => rows[..n].iter().enumerate().for_each(|(r, &p)| f(r, p as usize)),
        }
    }

    /// Frame row `r`'s physical index.
    #[inline]
    pub(crate) fn physical(&self, r: usize) -> usize {
        self.rows.map_or(self.start + r, |rows| rows[r] as usize)
    }
}

/// The error for a row that no frame can hold.
pub(crate) fn row_too_long(row: usize, bytes: usize) -> DbError {
    DbError::Unsupported(format!(
        "result row {row} encodes to {bytes} bytes, above the {MAX_FRAME}-byte frame cap"
    ))
}
