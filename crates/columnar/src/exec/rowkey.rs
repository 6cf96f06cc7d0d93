//! Row-key encoding for hash-based operators.
//!
//! Group-by, join and DISTINCT keys are encoded into compact byte strings
//! so that one hash table (`exec::hashtable`, which keeps them in a byte
//! arena) handles arbitrary key arity and types.
//! The encoding normalizes numeric widths (all integers encode as `i64`,
//! all floats as canonical `f64` bits) so an `INT32` key matches an `INT64`
//! key with equal value, matching SQL equality semantics.
//!
//! A fast path for the very common single-integer-key case avoids byte
//! encoding entirely; see [`int_key`].

use crate::column::{Column, ColumnData};

/// Appends the encoded form of `col[row]` to `out`.
///
/// Layout per value: a 1-byte null marker (0 = NULL, 1 = valid), then for
/// valid values the normalized payload.
pub fn encode_value(col: &Column, row: usize, out: &mut Vec<u8>) {
    if col.is_null(row) {
        out.push(0);
        return;
    }
    out.push(1);
    // Encoded columns store one physical value per distinct value (dict)
    // or per run (RLE); resolve the logical row to its physical slot.
    let row = col.physical_index(row);
    match col.data() {
        ColumnData::Boolean(v) => out.push(v[row] as u8),
        ColumnData::Int8(v) => out.extend_from_slice(&(v[row] as i64).to_le_bytes()),
        ColumnData::Int16(v) => out.extend_from_slice(&(v[row] as i64).to_le_bytes()),
        ColumnData::Int32(v) => out.extend_from_slice(&(v[row] as i64).to_le_bytes()),
        ColumnData::Int64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
        ColumnData::Float32(v) => out.extend_from_slice(&canonical_f64(v[row] as f64)),
        ColumnData::Float64(v) => out.extend_from_slice(&canonical_f64(v[row])),
        ColumnData::Varchar(v) => {
            let s = v.get_bytes(row);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s);
        }
        ColumnData::Blob(v) => {
            let b = v.get(row);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
}

/// Encodes one row's key across `cols` into `out` (cleared first).
pub fn encode_key(cols: &[&Column], row: usize, out: &mut Vec<u8>) {
    out.clear();
    for col in cols {
        encode_value(col, row, out);
    }
}

/// Canonical f64 bits: `-0.0` folds to `0.0`, every NaN folds to one
/// pattern, so grouping on floats behaves like SQL equality.
pub(crate) fn canonical_f64(v: f64) -> [u8; 8] {
    let v = if v == 0.0 {
        0.0
    } else if v.is_nan() {
        f64::NAN
    } else {
        v
    };
    v.to_bits().to_le_bytes()
}

/// Fast path: if `cols` is a single integer/boolean column, returns the
/// key of `row` as `Some(i64)` (`None` for a NULL key or non-integer type).
/// Callers that get `Some` for the column type can use an `i64`-keyed map.
#[inline]
pub fn int_key(col: &Column, row: usize) -> Option<i64> {
    col.i64_at(row)
}

/// True when the single-integer-key fast path applies to these columns.
pub fn int_fast_path(cols: &[&Column]) -> bool {
    cols.len() == 1
        && (cols[0].data_type().is_integer()
            || cols[0].data_type() == crate::types::DataType::Boolean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_normalize() {
        let a = Column::from_i32s(vec![42]);
        let b = Column::from_i64s(vec![42]);
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        encode_key(&[&a], 0, &mut ka);
        encode_key(&[&b], 0, &mut kb);
        assert_eq!(ka, kb);
    }

    #[test]
    fn nulls_distinct_from_zero() {
        let a = Column::from_opt_i32s(vec![Some(0), None]);
        let mut k0 = Vec::new();
        let mut k1 = Vec::new();
        encode_key(&[&a], 0, &mut k0);
        encode_key(&[&a], 1, &mut k1);
        assert_ne!(k0, k1);
    }

    #[test]
    fn negative_zero_and_nan_canonicalize() {
        let a = Column::from_f64s(vec![0.0, -0.0, f64::NAN, f64::from_bits(0x7FF8_0000_0000_0001)]);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..4 {
            let mut k = Vec::new();
            encode_key(&[&a], i, &mut k);
            keys.push(k);
        }
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[2], keys[3]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn strings_length_prefixed_no_ambiguity() {
        // ("ab","c") must differ from ("a","bc").
        let a = Column::from_strings(["ab", "a"]);
        let b = Column::from_strings(["c", "bc"]);
        let mut k0 = Vec::new();
        let mut k1 = Vec::new();
        encode_key(&[&a, &b], 0, &mut k0);
        encode_key(&[&a, &b], 1, &mut k1);
        assert_ne!(k0, k1);
    }

    #[test]
    fn fast_path_detection() {
        let i = Column::from_i32s(vec![1]);
        let f = Column::from_f64s(vec![1.0]);
        assert!(int_fast_path(&[&i]));
        assert!(!int_fast_path(&[&f]));
        assert!(!int_fast_path(&[&i, &i]));
    }
}
