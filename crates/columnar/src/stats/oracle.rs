//! The statistics sweep the typed build replaced: one `Value` per row, in
//! row order, each hashed into the sketch. Kept as the test oracle the
//! build must equal field for field.

use super::{clamp_ndv, ColumnStats};
use crate::column::Column;
use crate::types::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Hashes a non-null [`Value`] for NDV sketching. Integer-family values
/// hash by their widened `i64` so the estimate is stable across integer
/// widths; floats hash by bit pattern.
fn hash_value(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match v {
        Value::Null => (0u8).hash(&mut h),
        Value::Boolean(b) => (1u8, b).hash(&mut h),
        Value::Int8(_) | Value::Int16(_) | Value::Int32(_) | Value::Int64(_) => {
            (2u8, v.as_i64()).hash(&mut h)
        }
        Value::Float32(f) => (3u8, (f64::from(*f)).to_bits()).hash(&mut h),
        Value::Float64(f) => (3u8, f.to_bits()).hash(&mut h),
        Value::Varchar(s) => (4u8, s.as_bytes()).hash(&mut h),
        Value::Blob(b) => (5u8, b.as_slice()).hash(&mut h),
    }
    h.finish()
}

/// Computes stats for a column with one full sweep (in row order, so
/// min/max tie-breaking matches the executor's serial aggregate).
pub(crate) fn compute(col: &Column) -> ColumnStats {
    let mut s = ColumnStats {
        rows: col.len() as u64,
        nulls: col.null_count() as u64,
        ..ColumnStats::default()
    };
    for i in 0..col.len() {
        if col.is_null(i) {
            continue;
        }
        let v = col.value(i);
        observe_min_max(&mut s, &v);
        s.sketch.insert_hash(hash_value(&v));
    }
    let non_null = s.rows - s.nulls;
    if let Some((codes, dict)) = col.dict_parts() {
        // Exact NDV: count distinct live dictionary codes among
        // non-null rows (robust even if the dictionary holds unused
        // or placeholder slots).
        let mut seen = vec![false; dict.len()];
        for (i, &code) in codes.iter().enumerate() {
            if col.is_null(i) {
                continue;
            }
            if let Some(slot) = seen.get_mut(code as usize) {
                *slot = true;
            }
        }
        s.ndv = seen.iter().filter(|&&b| b).count() as u64;
        s.ndv_exact = true;
    } else {
        s.ndv = clamp_ndv(s.sketch.estimate(), non_null);
        s.ndv_exact = false;
    }
    s
}

fn observe_min_max(s: &mut ColumnStats, v: &Value) {
    if !s.comparable {
        return;
    }
    let (cmp_min, cmp_max) = match (s.min.as_ref(), s.max.as_ref()) {
        (Some(mn), Some(mx)) => (v.sql_cmp(mn), v.sql_cmp(mx)),
        _ => {
            s.min = Some(v.clone());
            s.max = Some(v.clone());
            return;
        }
    };
    match (cmp_min, cmp_max) {
        (None, _) | (_, None) => s.poison(),
        (Some(Ordering::Less), _) => s.min = Some(v.clone()),
        (_, Some(Ordering::Greater)) => s.max = Some(v.clone()),
        _ => {}
    }
}

/// Whether two stats' sketches hold the same registers.
pub(crate) fn same_sketch(a: &ColumnStats, b: &ColumnStats) -> bool {
    a.sketch == b.sketch
}
