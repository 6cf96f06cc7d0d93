//! The text row encoding (PostgreSQL-classic cost profile).
//!
//! Rows end with `\n` and fields are separated by `\t`, the COPY-ish
//! format: NULL is `\N`; a value is [`mlcs_columnar::Value::render`]'s text
//! (a BLOB as `\x` and lowercase hex), with `\`, tab and newline escaped as
//! `\\`, `\t` and `\n`. So a raw tab or newline is always a separator.
//!
//! The encoder writes row by row, each cell straight from its column's
//! typed payload, and checks the frame's size after each row. The decoder
//! parses each field from the payload's bytes into a typed append; only a
//! field containing `\` is unescaped, into one reused buffer.

use super::{row_too_long, with_cells, Cells, View, FRAME_BYTES, ROWS_PER_FRAME};
use crate::framing::MAX_FRAME;
use mlcs_columnar::{Batch, ColumnBuilder, DataType, DbError, DbResult};
use std::str::FromStr;

/// Appends the text payload of one `RowsText` frame holding rows of
/// `batch` from `start` (see the [module docs](super) for where a frame
/// ends) and returns how many rows it holds. A first row longer than
/// [`MAX_FRAME`] is an error, and `out` is left as it was.
pub fn encode_rows(batch: &Batch, start: usize, out: &mut Vec<u8>) -> DbResult<usize> {
    let n = ROWS_PER_FRAME.min(batch.rows().saturating_sub(start));
    let mut scratch = vec![Vec::new(); batch.width()];
    let views: Vec<View<'_>> = batch
        .columns()
        .iter()
        .zip(scratch.iter_mut())
        .map(|(column, scratch)| View::new(column, start, n, scratch))
        .collect();
    let base = out.len();
    for r in 0..n {
        let row_start = out.len();
        for (c, view) in views.iter().enumerate() {
            if c > 0 {
                out.push(b'\t');
            }
            if view.is_null(r) {
                out.extend_from_slice(b"\\N");
                continue;
            }
            let p = view.physical(r);
            with_cells!(batch.column(c).data(), Cells::put_text, p, out);
        }
        out.push(b'\n');
        let frame = out.len() - base;
        if r == 0 && frame > MAX_FRAME {
            out.truncate(base);
            return Err(row_too_long(start, frame));
        }
        if r > 0 && frame > FRAME_BYTES {
            // The row goes first in the next frame.
            out.truncate(row_start);
            return Ok(r);
        }
    }
    Ok(n)
}

/// Decodes one `RowsText` payload into `builders`, one per result column,
/// with typed appends. A field that does not parse as its column's type,
/// a bad escape or invalid UTF-8 in a VARCHAR is [`DbError::Corrupt`]; a
/// row with the wrong number of fields is [`DbError::Shape`].
pub fn decode_rows(payload: &[u8], builders: &mut [ColumnBuilder]) -> DbResult<()> {
    if payload.is_empty() {
        return Ok(());
    }
    let body = payload.strip_suffix(b"\n").unwrap_or(payload);
    let mut unescaped = Vec::new();
    for line in body.split(|&b| b == b'\n') {
        let mut fields = line.split(|&b| b == b'\t');
        for b in builders.iter_mut() {
            let Some(raw) = fields.next() else {
                return Err(DbError::Shape(format!(
                    "text row has fewer than {} fields",
                    builders.len()
                )));
            };
            decode_field(raw, b, &mut unescaped)?;
        }
        if fields.next().is_some() {
            return Err(DbError::Shape(format!(
                "text row has more than {} fields",
                builders.len()
            )));
        }
    }
    Ok(())
}

/// Decodes one raw field (still escaped) into its builder.
fn decode_field(raw: &[u8], b: &mut ColumnBuilder, unescaped: &mut Vec<u8>) -> DbResult<()> {
    if raw == b"\\N" {
        b.push_null();
        return Ok(());
    }
    if b.data_type() == DataType::Blob {
        // `\\x` then hex: the only escape a BLOB field holds is its prefix.
        if let Some(hex) = raw.strip_prefix(b"\\\\x") {
            unhex(hex, unescaped).ok_or_else(|| cannot_parse(raw, DataType::Blob))?;
            return b.push_bytes(unescaped);
        }
    }
    let field = if raw.contains(&b'\\') {
        unescape(raw, unescaped)?;
        &unescaped[..]
    } else {
        raw
    };
    let bad = || cannot_parse(field, b.data_type());
    match b.data_type() {
        DataType::Boolean => match field {
            b"true" => b.push(true),
            b"false" => b.push(false),
            _ => Err(bad()),
        },
        DataType::Int8 => b.push(parse::<i8>(field).ok_or_else(bad)?),
        DataType::Int16 => b.push(parse::<i16>(field).ok_or_else(bad)?),
        DataType::Int32 => b.push(parse::<i32>(field).ok_or_else(bad)?),
        DataType::Int64 => b.push(parse::<i64>(field).ok_or_else(bad)?),
        DataType::Float32 => b.push(parse::<f32>(field).ok_or_else(bad)?),
        DataType::Float64 => b.push(parse::<f64>(field).ok_or_else(bad)?),
        DataType::Varchar => match std::str::from_utf8(field) {
            Ok(s) => b.push_str(s),
            Err(_) => Err(DbError::Corrupt("non-UTF-8 string in text row".into())),
        },
        DataType::Blob => Err(bad()),
    }
}

fn cannot_parse(field: &[u8], dtype: DataType) -> DbError {
    DbError::Corrupt(format!("cannot parse '{}' as {dtype}", String::from_utf8_lossy(field)))
}

fn parse<T: FromStr>(field: &[u8]) -> Option<T> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Undoes the `\\`, `\t` and `\n` escapes of `raw` into `out`.
fn unescape(raw: &[u8], out: &mut Vec<u8>) -> DbResult<()> {
    out.clear();
    let mut bytes = raw.iter();
    while let Some(&b) = bytes.next() {
        if b != b'\\' {
            out.push(b);
            continue;
        }
        match bytes.next() {
            Some(b't') => out.push(b'\t'),
            Some(b'n') => out.push(b'\n'),
            Some(b'\\') => out.push(b'\\'),
            other => {
                return Err(DbError::Corrupt(format!(
                    "bad escape '\\{}' in text row",
                    other.map(|&b| char::from(b).to_string()).unwrap_or_default()
                )))
            }
        }
    }
    Ok(())
}

/// Decodes a hex string into `out`; `None` when it is not one.
fn unhex(hex: &[u8], out: &mut Vec<u8>) -> Option<()> {
    fn nibble(c: u8) -> Option<u8> {
        char::from(c).to_digit(16).map(|d| d as u8)
    }
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    out.clear();
    for pair in hex.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(())
}
