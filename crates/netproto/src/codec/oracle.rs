//! The row codecs the typed ones replaced, kept as their oracle: every
//! cell read as a [`Value`] (`Column::value`) and written from it, every
//! decoded field pushed back as a [`Value`] (`ColumnBuilder::push_value`).
//!
//! The property below holds the typed codecs to them: frame payloads
//! byte-identical for every type, over plain, dictionary and RLE columns,
//! at NULL densities 0, ½ and 1, with row counts that are not multiples
//! of a frame; and decoded columns equal.

use super::{binary, text, ROWS_PER_FRAME};
use mlcs_columnar::{Batch, ColumnBuilder, DataType, DbError, DbResult, Value};

/// Text rows `[start, end)` of `batch`, value by value.
fn encode_rows_text(batch: &Batch, start: usize, end: usize, out: &mut Vec<u8>) {
    for r in start..end {
        for (c, col) in batch.columns().iter().enumerate() {
            if c > 0 {
                out.push(b'\t');
            }
            let v = col.value(r);
            if v.is_null() {
                out.extend_from_slice(b"\\N");
            } else {
                let text = v.render();
                for b in text.bytes() {
                    match b {
                        b'\\' => out.extend_from_slice(b"\\\\"),
                        b'\t' => out.extend_from_slice(b"\\t"),
                        b'\n' => out.extend_from_slice(b"\\n"),
                        other => out.push(other),
                    }
                }
            }
        }
        out.push(b'\n');
    }
}

/// Binary rows `[start, end)` of `batch`, value by value.
fn encode_rows_binary(batch: &Batch, start: usize, end: usize, out: &mut Vec<u8>) {
    for r in start..end {
        for col in batch.columns() {
            match col.value(r) {
                Value::Null => out.push(0),
                other => {
                    out.push(1);
                    match other {
                        Value::Boolean(b) => out.push(b as u8),
                        Value::Int8(x) => out.extend_from_slice(&x.to_le_bytes()),
                        Value::Int16(x) => out.extend_from_slice(&x.to_le_bytes()),
                        Value::Int32(x) => out.extend_from_slice(&x.to_le_bytes()),
                        Value::Int64(x) => out.extend_from_slice(&x.to_le_bytes()),
                        Value::Float32(x) => out.extend_from_slice(&x.to_le_bytes()),
                        Value::Float64(x) => out.extend_from_slice(&x.to_le_bytes()),
                        Value::Varchar(s) => {
                            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                            out.extend_from_slice(s.as_bytes());
                        }
                        Value::Blob(b) => {
                            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                            out.extend_from_slice(&b);
                        }
                        Value::Null => unreachable!(),
                    }
                }
            }
        }
    }
}

/// A binary rows payload, value by value (at least one column).
fn parse_binary_rows(payload: &[u8], builders: &mut [ColumnBuilder]) -> DbResult<()> {
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> DbResult<&'a [u8]> {
        if buf.len() < n {
            return Err(DbError::Corrupt("truncated binary row".into()));
        }
        let (head, rest) = buf.split_at(n);
        *buf = rest;
        Ok(head)
    }
    fn array<const N: usize>(buf: &mut &[u8]) -> DbResult<[u8; N]> {
        take(buf, N)?.try_into().map_err(|_| DbError::internal("take(N) is N bytes"))
    }
    let mut buf = payload;
    while !buf.is_empty() {
        for b in builders.iter_mut() {
            if take(&mut buf, 1)?[0] == 0 {
                b.push_null();
                continue;
            }
            let v = match b.data_type() {
                DataType::Boolean => Value::Boolean(take(&mut buf, 1)?[0] != 0),
                DataType::Int8 => Value::Int8(i8::from_le_bytes(array(&mut buf)?)),
                DataType::Int16 => Value::Int16(i16::from_le_bytes(array(&mut buf)?)),
                DataType::Int32 => Value::Int32(i32::from_le_bytes(array(&mut buf)?)),
                DataType::Int64 => Value::Int64(i64::from_le_bytes(array(&mut buf)?)),
                DataType::Float32 => Value::Float32(f32::from_le_bytes(array(&mut buf)?)),
                DataType::Float64 => Value::Float64(f64::from_le_bytes(array(&mut buf)?)),
                DataType::Varchar => {
                    let len = u32::from_le_bytes(array(&mut buf)?) as usize;
                    let s = std::str::from_utf8(take(&mut buf, len)?)
                        .map_err(|_| DbError::Corrupt("non-UTF-8 string on wire".into()))?;
                    Value::Varchar(s.to_owned())
                }
                DataType::Blob => {
                    let len = u32::from_le_bytes(array(&mut buf)?) as usize;
                    Value::Blob(take(&mut buf, len)?.to_vec())
                }
            };
            b.push_value(&v)?;
        }
    }
    Ok(())
}

/// A text rows payload, value by value.
fn parse_text_rows(payload: &[u8], builders: &mut [ColumnBuilder]) -> DbResult<()> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| DbError::Corrupt("rows frame is not UTF-8".into()))?;
    let mut field = String::new();
    for line in text.split_terminator('\n') {
        let mut col = 0usize;
        for raw in line.split('\t') {
            if col >= builders.len() {
                return Err(DbError::Shape("text row has too many fields".into()));
            }
            if raw == "\\N" {
                builders[col].push_null();
                col += 1;
                continue;
            }
            field.clear();
            let mut chars = raw.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('t') => field.push('\t'),
                        Some('n') => field.push('\n'),
                        Some('\\') => field.push('\\'),
                        _ => return Err(DbError::Corrupt("bad escape in text row".into())),
                    }
                } else {
                    field.push(c);
                }
            }
            push_text_value(&mut builders[col], &field)?;
            col += 1;
        }
        if col != builders.len() {
            return Err(DbError::Shape("text row has too few fields".into()));
        }
    }
    Ok(())
}

fn push_text_value(b: &mut ColumnBuilder, text: &str) -> DbResult<()> {
    let bad = || DbError::Corrupt(format!("cannot parse '{text}'"));
    let v = match b.data_type() {
        DataType::Boolean => match text {
            "true" => Value::Boolean(true),
            "false" => Value::Boolean(false),
            _ => return Err(bad()),
        },
        DataType::Int8 => Value::Int8(text.parse().map_err(|_| bad())?),
        DataType::Int16 => Value::Int16(text.parse().map_err(|_| bad())?),
        DataType::Int32 => Value::Int32(text.parse().map_err(|_| bad())?),
        DataType::Int64 => Value::Int64(text.parse().map_err(|_| bad())?),
        DataType::Float32 => Value::Float32(text.parse().map_err(|_| bad())?),
        DataType::Float64 => Value::Float64(text.parse().map_err(|_| bad())?),
        DataType::Varchar => Value::Varchar(text.to_owned()),
        DataType::Blob => {
            let hex = text.strip_prefix("\\x").ok_or_else(bad)?;
            if hex.len() % 2 != 0 {
                return Err(bad());
            }
            let mut bytes = Vec::with_capacity(hex.len() / 2);
            for pair in hex.as_bytes().chunks(2) {
                let s = std::str::from_utf8(pair).map_err(|_| bad())?;
                bytes.push(u8::from_str_radix(s, 16).map_err(|_| bad())?);
            }
            Value::Blob(bytes)
        }
    };
    b.push_value(&v)
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use mlcs_columnar::{Column, Encoding, Field, Schema};
    use std::sync::Arc;

    const ALL_TYPES: [DataType; 9] = [
        DataType::Boolean,
        DataType::Int8,
        DataType::Int16,
        DataType::Int32,
        DataType::Int64,
        DataType::Float32,
        DataType::Float64,
        DataType::Varchar,
        DataType::Blob,
    ];

    /// A 64-bit LCG; the high bits are the output.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// Value `k` of a small domain of `dtype` (so dictionaries and runs form)
    /// holding each type's awkward cases: extremes, NaN, infinities, `-0.0`,
    /// integral floats past 1e15, empty strings and BLOBs, and strings with
    /// the bytes the text encoding escapes.
    fn value_of(dtype: DataType, k: usize) -> Value {
        const F64: [f64; 8] = [0.5, -0.0, f64::NAN, f64::INFINITY, 1e16, -3.0, 1.0 / 3.0, f64::MIN];
        const STR: [&str; 8] =
            ["", "plain", "tab\there", "new\nline", "back\\slash", "ünï", "\\N", "x"];
        match dtype {
            DataType::Boolean => Value::Boolean(k.is_multiple_of(2)),
            DataType::Int8 => Value::Int8([i8::MIN, -1, 0, 7, i8::MAX][k % 5]),
            DataType::Int16 => Value::Int16([i16::MIN, -300, 0, 12, i16::MAX][k % 5]),
            DataType::Int32 => Value::Int32([i32::MIN, -70_000, 0, 5, i32::MAX][k % 5]),
            DataType::Int64 => Value::Int64([i64::MIN, -1, 0, 1 << 53, i64::MAX][k % 5]),
            DataType::Float32 => Value::Float32(F64[k % 8] as f32),
            DataType::Float64 => Value::Float64(F64[k % 8]),
            DataType::Varchar => Value::Varchar(STR[k % 8].to_owned()),
            DataType::Blob => Value::Blob(vec![k as u8; k % 4]),
        }
    }

    /// A batch of `rows` rows: column `c` has type `types[c]`, encoding
    /// `encodings[c]` and NULL density `densities[c]` halves (0, ½ or 1).
    fn batch(g: &mut Lcg, rows: usize, cols: &[(DataType, Encoding, usize)]) -> Batch {
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        for (c, &(dtype, encoding, halves)) in cols.iter().enumerate() {
            let domain = 1 + g.below(12);
            let mut k = g.below(domain);
            let mut b = ColumnBuilder::new(dtype);
            for _ in 0..rows {
                if g.below(4) == 0 {
                    k = g.below(domain); // runs of about four rows
                }
                let null = match halves {
                    0 => false,
                    1 => g.below(2) == 0,
                    _ => true,
                };
                if null {
                    b.push_null();
                } else {
                    b.push_value(&value_of(dtype, k)).unwrap();
                }
            }
            fields.push(Field::new(format!("c{c}"), dtype));
            columns.push(Arc::new(b.finish().encode(encoding)));
        }
        Batch::new(Arc::new(Schema::new_unchecked(fields)), columns).unwrap()
    }

    /// Encodes every frame of `batch` with the typed encoder, checking each
    /// payload against the oracle's for the same rows.
    fn frames(
        batch: &Batch,
        typed: crate::codec::EncodeRows,
        oracle: fn(&Batch, usize, usize, &mut Vec<u8>),
    ) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < batch.rows() {
            let mut got = Vec::new();
            let rows = typed(batch, start, &mut got).unwrap();
            assert_eq!(rows, ROWS_PER_FRAME.min(batch.rows() - start), "small rows fill a frame");
            let mut want = Vec::new();
            oracle(batch, start, start + rows, &mut want);
            assert_eq!(got, want, "frame at row {start}");
            out.push(got);
            start += rows;
        }
        out
    }

    /// Decodes `frames` with `decode` into columns of `batch`'s types.
    fn decode(
        batch: &Batch,
        frames: &[Vec<u8>],
        decode: fn(&[u8], &mut [ColumnBuilder]) -> DbResult<()>,
    ) -> Vec<Column> {
        let mut builders: Vec<ColumnBuilder> =
            batch.schema().fields().iter().map(|f| ColumnBuilder::new(f.dtype)).collect();
        for frame in frames {
            decode(frame, &mut builders).unwrap();
        }
        builders.into_iter().map(ColumnBuilder::finish).collect()
    }

    /// Columns equal cell for cell, floats by their bits (NaN included): the
    /// same NULL rows, and the same bytes under the oracle's binary encoder.
    fn assert_same(a: &[Column], b: &[Column]) {
        let as_batch = |cols: &[Column]| {
            let fields = cols.iter().map(|c| Field::new("c", c.data_type())).collect();
            let cols = cols.iter().map(|c| Arc::new(c.clone())).collect();
            Batch::new(Arc::new(Schema::new_unchecked(fields)), cols).unwrap()
        };
        let (a, b) = (as_batch(a), as_batch(b));
        assert_eq!(a.rows(), b.rows());
        for (x, y) in a.columns().iter().zip(b.columns()) {
            assert_eq!(x.data_type(), y.data_type());
            assert!((0..x.len()).all(|i| x.is_null(i) == y.is_null(i)), "NULL rows differ");
        }
        let (mut x, mut y) = (Vec::new(), Vec::new());
        encode_rows_binary(&a, 0, a.rows(), &mut x);
        encode_rows_binary(&b, 0, b.rows(), &mut y);
        assert!(x == y, "decoded values differ");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The typed codecs are the oracle's, byte for byte and column for
        /// column, and the binary round trip gives back the source values.
        #[test]
        fn typed_codecs_match_the_value_oracle(
            seed in proptest::prelude::any::<u64>(),
            rows in 0usize..2200,
            width in 1usize..5,
        ) {
            let mut g = Lcg(seed);
            let cols: Vec<(DataType, Encoding, usize)> = (0..width)
                .map(|_| {
                    let enc = [Encoding::Plain, Encoding::Dict, Encoding::Rle][g.below(3)];
                    (ALL_TYPES[g.below(9)], enc, g.below(3))
                })
                .collect();
            let batch = batch(&mut g, rows, &cols);
            let bin = frames(&batch, binary::encode_rows, encode_rows_binary);
            let typed = decode(&batch, &bin, binary::decode_rows);
            assert_same(&typed, &decode(&batch, &bin, parse_binary_rows));
            let source: Vec<Column> = batch.columns().iter().map(|c| c.decode()).collect();
            assert_same(&typed, &source);
            let txt = frames(&batch, text::encode_rows, encode_rows_text);
            assert_same(&decode(&batch, &txt, text::decode_rows), &decode(&batch, &txt, parse_text_rows));
        }
    }

    /// Every type at every encoding and NULL density, over a row count that
    /// is not a multiple of a frame — the exhaustive corner of the property.
    #[test]
    fn every_type_encoding_and_density() {
        let mut g = Lcg(42);
        for dtype in ALL_TYPES {
            for enc in [Encoding::Plain, Encoding::Dict, Encoding::Rle] {
                for halves in 0..3 {
                    let batch =
                        batch(&mut g, 1500, &[(dtype, enc, halves), (DataType::Int32, enc, 1)]);
                    let bin = frames(&batch, binary::encode_rows, encode_rows_binary);
                    assert_same(
                        &decode(&batch, &bin, binary::decode_rows),
                        &decode(&batch, &bin, parse_binary_rows),
                    );
                    let txt = frames(&batch, text::encode_rows, encode_rows_text);
                    assert_same(
                        &decode(&batch, &txt, text::decode_rows),
                        &decode(&batch, &txt, parse_text_rows),
                    );
                }
            }
        }
    }
}
