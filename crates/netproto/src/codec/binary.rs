//! The binary row encoding (MySQL-binary cost profile).
//!
//! Per cell a marker byte (0 for NULL, else 1), then for a non-NULL cell
//! the fixed-width little-endian value (a BOOLEAN is one byte) or a u32
//! length prefix and the bytes of a VARCHAR or BLOB.
//!
//! The encoder works column at a time. Pass 1 sums each row's length over
//! the columns, which also decides where the frame ends. Pass 2 scatters
//! each column's cells into the frame at each row's cursor. Neither pass
//! matches on a cell's type: the column's is resolved once per frame.

use super::{row_too_long, with_cells, Cells, View, FRAME_BYTES, ROWS_PER_FRAME};
use crate::framing::{Reader, MAX_FRAME};
use mlcs_columnar::{Batch, ColumnBuilder, DataType, DbError, DbResult};

/// Appends the binary payload of one `RowsBinary` frame holding rows of
/// `batch` from `start` (see the [module docs](super) for where a frame
/// ends) and returns how many rows it holds. A first row longer than
/// [`MAX_FRAME`] is an error, and `out` is left as it was.
pub fn encode_rows(batch: &Batch, start: usize, out: &mut Vec<u8>) -> DbResult<usize> {
    let n = ROWS_PER_FRAME.min(batch.rows().saturating_sub(start));
    let mut scratch = Vec::new();
    let mut lens = vec![0usize; n];
    for column in batch.columns() {
        let view = View::new(column, start, n, &mut scratch);
        with_cells!(column.data(), add_lens, &view, &mut lens);
    }
    let rows = frame_rows(&lens, start)?;
    let mut cursors = Vec::with_capacity(rows);
    let mut end = out.len();
    for &len in &lens[..rows] {
        cursors.push(end);
        end += len;
    }
    // Zero-filled: a NULL cell's marker is already in place.
    out.resize(end, 0);
    for column in batch.columns() {
        let view = View::new(column, start, rows, &mut scratch);
        with_cells!(column.data(), scatter, &view, &mut cursors, out);
    }
    Ok(rows)
}

/// Pass 1: adds each row's cell length for one column.
fn add_lens<V: Cells + ?Sized>(v: &V, view: &View<'_>, lens: &mut [usize]) {
    match V::WIDTH {
        Some(w) if view.all_valid() => lens.iter_mut().for_each(|len| *len += 1 + w),
        _ => view.each(lens.len(), |r, p| {
            lens[r] += if view.is_null(r) { 1 } else { 1 + v.binary_len(p) };
        }),
    }
}

/// How many of the rows with these lengths fit one frame.
fn frame_rows(lens: &[usize], start: usize) -> DbResult<usize> {
    let mut total = 0;
    for (r, &len) in lens.iter().enumerate() {
        if r == 0 && len > MAX_FRAME {
            return Err(row_too_long(start, len));
        }
        if r > 0 && total + len > FRAME_BYTES {
            return Ok(r);
        }
        total += len;
    }
    Ok(lens.len())
}

/// Pass 2: writes one column's cells at each row's cursor and advances it.
fn scatter<V: Cells + ?Sized>(v: &V, view: &View<'_>, cursors: &mut [usize], out: &mut [u8]) {
    let n = cursors.len();
    // Writes row `r`'s cell: value `p` of `len` bytes, or NULL.
    let mut put = |r: usize, p: usize, len: Option<usize>| {
        let at = cursors[r];
        cursors[r] = match len {
            None => at + 1,
            Some(len) => {
                out[at] = 1;
                v.put_binary(p, &mut out[at + 1..at + 1 + len]);
                at + 1 + len
            }
        };
    };
    match V::WIDTH {
        // The common case as its own loop: every cell the same width.
        Some(w) if view.all_valid() => view.each(n, |r, p| put(r, p, Some(w))),
        _ => view.each(n, |r, p| put(r, p, (!view.is_null(r)).then(|| v.binary_len(p)))),
    }
}

/// Decodes one `RowsBinary` payload into `builders`, one per result
/// column, with typed appends. Every read is bounds-checked against the
/// payload, and nothing is allocated ahead of the bytes that back it: a
/// truncated row, a length prefix past the end, invalid UTF-8 in a VARCHAR
/// or row bytes for a result without columns are [`DbError::Corrupt`].
pub fn decode_rows(payload: &[u8], builders: &mut [ColumnBuilder]) -> DbResult<()> {
    if builders.is_empty() && !payload.is_empty() {
        return Err(DbError::Corrupt("binary row bytes for a result with no columns".into()));
    }
    let mut cur = Reader::new(payload);
    while !cur.is_empty() {
        for b in builders.iter_mut() {
            decode_cell(&mut cur, b)
                .ok_or_else(|| DbError::Corrupt("truncated binary row".into()))??;
        }
    }
    Ok(())
}

/// Decodes one cell: `None` when the payload ends inside it.
#[inline]
fn decode_cell(cur: &mut Reader<'_>, b: &mut ColumnBuilder) -> Option<DbResult<()>> {
    if cur.array::<1>()?[0] == 0 {
        b.push_null();
        return Some(Ok(()));
    }
    Some(match b.data_type() {
        DataType::Boolean => b.push(cur.array::<1>()?[0] != 0),
        DataType::Int8 => b.push(i8::from_le_bytes(cur.array()?)),
        DataType::Int16 => b.push(i16::from_le_bytes(cur.array()?)),
        DataType::Int32 => b.push(i32::from_le_bytes(cur.array()?)),
        DataType::Int64 => b.push(i64::from_le_bytes(cur.array()?)),
        DataType::Float32 => b.push(f32::from_le_bytes(cur.array()?)),
        DataType::Float64 => b.push(f64::from_le_bytes(cur.array()?)),
        DataType::Varchar => match std::str::from_utf8(cur.prefixed()?) {
            Ok(s) => b.push_str(s),
            Err(_) => Err(DbError::Corrupt("non-UTF-8 string on wire".into())),
        },
        DataType::Blob => b.push_bytes(cur.prefixed()?),
    })
}
