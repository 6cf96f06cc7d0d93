//! Bridging database columns and ML matrices.
//!
//! The paper's key efficiency argument is that vectorized UDFs hand the
//! model code whole columns without per-value conversion. Our equivalent:
//! `Float64` columns are memcpy'd straight into the row-major [`Matrix`];
//! other numeric types are widened in one vectorized pass. NULLs become
//! NaN and are rejected by model fitting with a clear error, pushing
//! cleaning into SQL where the paper does it.

use mlcs_columnar::{Column, ColumnData, DbError, DbResult};
use mlcs_ml::Matrix;

/// Builds a feature matrix from equally-long numeric columns.
pub fn matrix_from_columns(cols: &[&Column]) -> DbResult<Matrix> {
    if cols.is_empty() {
        return Err(DbError::Shape("at least one feature column required".into()));
    }
    let rows = cols[0].len();
    for (i, c) in cols.iter().enumerate() {
        if c.len() != rows {
            return Err(DbError::Shape(format!(
                "feature column {i} has {} rows, expected {rows}",
                c.len()
            )));
        }
    }
    let ncols = cols.len();
    let mut data = vec![0.0f64; rows * ncols];
    for (j, col) in cols.iter().enumerate() {
        // NULL-free Float64 columns scatter straight from the borrowed
        // buffer; other types (or NULL-bearing columns) widen once into a
        // scratch vector first. Either way each cell is written exactly
        // once — the old path copied every column twice.
        let widened;
        let src: &[f64] = match col.f64s() {
            Some(s) if col.null_count() == 0 => s,
            _ => {
                widened = col.to_f64_vec()?;
                &widened
            }
        };
        for (r, &v) in src.iter().enumerate() {
            data[r * ncols + j] = v;
        }
    }
    Matrix::new(data, rows, ncols)
        .map_err(|e| DbError::Shape(format!("building feature matrix: {e}")))
}

/// Extracts integer class labels from a column. NULL labels are an error
/// (the paper's pipeline generates labels before training).
pub fn labels_from_column(col: &Column) -> DbResult<Vec<i64>> {
    let not_integer =
        || DbError::Type(format!("class labels must be integers, got {}", col.data_type()));
    if !col.data_type().is_integer() && col.data_type() != mlcs_columnar::DataType::Boolean {
        return Err(not_integer());
    }
    if col.null_count() > 0 {
        let i = (0..col.len()).find(|&i| col.is_null(i)).unwrap_or_default();
        return Err(DbError::Bind(format!("NULL label at row {i}; clean labels before training")));
    }
    // One typed loop over the payload, through the codes or runs of an
    // encoded column, rather than a dispatch per row.
    fn widen<T: Copy>(values: &[T], at: Option<&[u32]>, wide: impl Fn(T) -> i64) -> Vec<i64> {
        match at {
            None => values.iter().map(|&v| wide(v)).collect(),
            Some(at) => at.iter().map(|&p| wide(values[p as usize])).collect(),
        }
    }
    let mut scratch = Vec::new();
    let at = col.physical_rows(0, col.len(), &mut scratch);
    Ok(match col.data() {
        ColumnData::Boolean(v) => widen(v, at, i64::from),
        ColumnData::Int8(v) => widen(v, at, i64::from),
        ColumnData::Int16(v) => widen(v, at, i64::from),
        ColumnData::Int32(v) => widen(v, at, i64::from),
        ColumnData::Int64(v) => widen(v, at, |v| v),
        _ => return Err(not_integer()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcs_columnar::Encoding;

    #[test]
    fn matrix_conversion_widens_types() {
        let a = Column::from_i32s(vec![1, 2]);
        let b = Column::from_f64s(vec![0.5, 1.5]);
        let m = matrix_from_columns(&[&a, &b]).unwrap();
        assert_eq!(m.row(0), &[1.0, 0.5]);
        assert_eq!(m.row(1), &[2.0, 1.5]);
    }

    #[test]
    fn nulls_become_nan() {
        let a = Column::from_opt_i32s(vec![Some(1), None]);
        let m = matrix_from_columns(&[&a]).unwrap();
        assert!(m.get(1, 0).is_nan());
    }

    #[test]
    fn shape_and_type_errors() {
        let a = Column::from_i32s(vec![1, 2]);
        let short = Column::from_i32s(vec![1]);
        assert!(matrix_from_columns(&[&a, &short]).is_err());
        assert!(matrix_from_columns(&[]).is_err());
        let s = Column::from_strings(["x", "y"]);
        assert!(matrix_from_columns(&[&s]).is_err());
    }

    #[test]
    fn labels_extracted_and_validated() {
        let l = Column::from_i32s(vec![5, 7]);
        assert_eq!(labels_from_column(&l).unwrap(), vec![5, 7]);
        let n = Column::from_opt_i32s(vec![Some(1), None]);
        assert!(labels_from_column(&n).is_err());
        let f = Column::from_f64s(vec![1.0]);
        assert!(labels_from_column(&f).is_err());
        let b = Column::from_bools(vec![true, false]);
        assert_eq!(labels_from_column(&b).unwrap(), vec![1, 0]);
    }

    #[test]
    fn encoded_labels_read_like_plain_ones() {
        let plain = Column::from_i64s((0..100).map(|i| [2, 1, 1, 7][i / 9 % 4]).collect());
        let want = labels_from_column(&plain).unwrap();
        assert_eq!(want, (0..100).map(|i| plain.i64_at(i).unwrap()).collect::<Vec<_>>());
        for enc in [Encoding::Dict, Encoding::Rle] {
            let col = plain.encode(enc);
            assert_eq!(col.encoding(), enc);
            assert_eq!(labels_from_column(&col).unwrap(), want, "{enc:?}");
        }
        let nulls = Column::from_opt_i32s(vec![Some(1), Some(2), None, None]);
        let err = labels_from_column(&nulls).unwrap_err();
        assert!(err.to_string().contains("NULL label at row 2"), "{err}");
    }
}
