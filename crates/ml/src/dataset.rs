//! Dense row-major matrices and label utilities.

use crate::error::{MlError, MlResult};
use mlcs_pickle::{Pickle, PickleError, Reader, Writer};

/// A dense row-major `f64` matrix: the feature container for all models.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Builds from a flat row-major buffer.
    pub fn new(data: Vec<f64>, rows: usize, cols: usize) -> MlResult<Matrix> {
        if data.len() != rows * cols {
            return Err(MlError::Shape(format!(
                "buffer of {} values cannot be a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { data, rows, cols })
    }

    /// A rows × cols matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Builds from fixed-size array rows (convenient in tests/examples).
    pub fn from_rows<const C: usize>(rows: &[[f64; C]]) -> MlResult<Matrix> {
        let mut data = Vec::with_capacity(rows.len() * C);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix::new(data, rows.len(), C)
    }

    /// Builds from equal-length column slices (the layout a column store
    /// hands to a UDF — this is the zero-conversion entry point from the
    /// database side).
    pub fn from_columns(cols: &[&[f64]]) -> MlResult<Matrix> {
        let ncols = cols.len();
        if ncols == 0 {
            return Err(MlError::Shape("matrix needs at least one column".into()));
        }
        let nrows = cols[0].len();
        for (i, c) in cols.iter().enumerate() {
            if c.len() != nrows {
                return Err(MlError::Shape(format!(
                    "column {i} has {} rows, expected {nrows}",
                    c.len()
                )));
            }
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in 0..nrows {
            for c in cols {
                data.push(c[r]);
            }
        }
        Ok(Matrix { data, rows: nrows, cols: ncols })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column (feature) count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Sets value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Gathers the given row indices into a new matrix.
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { data, rows: indices.len(), cols: self.cols }
    }

    /// True if any value is NaN (columns from the database mark NULL as
    /// NaN; models reject such rows rather than silently learning from
    /// them).
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|v| v.is_nan())
    }

    /// Per-column means.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for r in 0..self.rows {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.get(r, c);
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }
}

impl Pickle for Matrix {
    const CLASS_NAME: &'static str = "Matrix";
    fn pickle_body(&self, w: &mut Writer) {
        w.put_varint(self.rows as u64);
        w.put_varint(self.cols as u64);
        w.put_f64_slice(&self.data);
    }
    fn unpickle_body(r: &mut Reader) -> Result<Self, PickleError> {
        let rows = r.get_varint()? as usize;
        let cols = r.get_varint()? as usize;
        let data = r.get_f64_vec()?;
        if data.len() != rows.saturating_mul(cols) {
            return Err(PickleError::Invalid(format!(
                "matrix buffer {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { data, rows, cols })
    }
    fn size_hint(&self) -> usize {
        16 + self.data.len() * 8
    }
}

/// Maps raw integer labels (e.g. party ids 1/2) to dense class indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassMap {
    labels: Vec<i64>,
}

impl ClassMap {
    /// Builds the map from observed labels (sorted, deduplicated).
    ///
    /// Labels are classes: many rows, few values. So the distinct ones are
    /// collected into a small sorted vector, skipping runs of the last one
    /// seen, and only past `SMALL` distinct values is a copy sorted.
    pub fn fit(labels: &[i64]) -> ClassMap {
        const SMALL: usize = 64;
        let mut distinct: Vec<i64> = Vec::new();
        let mut last = None;
        for &l in labels {
            if last == Some(l) {
                continue;
            }
            last = Some(l);
            if let Err(at) = distinct.binary_search(&l) {
                if distinct.len() == SMALL {
                    let mut sorted = labels.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    return ClassMap { labels: sorted };
                }
                distinct.insert(at, l);
            }
        }
        ClassMap { labels: distinct }
    }

    /// Number of distinct classes.
    pub fn n_classes(&self) -> usize {
        self.labels.len()
    }

    /// The raw label for class index `i`.
    pub fn label(&self, i: u32) -> Option<i64> {
        self.labels.get(i as usize).copied()
    }

    /// The class index of a raw label.
    pub fn index(&self, label: i64) -> Option<u32> {
        self.labels.binary_search(&label).ok().map(|i| i as u32)
    }

    /// Encodes raw labels into class indices; unseen labels error.
    pub fn encode(&self, labels: &[i64]) -> MlResult<Vec<u32>> {
        labels
            .iter()
            .map(|&l| {
                self.index(l).ok_or_else(|| {
                    MlError::BadData(format!("label {l} was not seen during fitting"))
                })
            })
            .collect()
    }

    /// Decodes class indices back to raw labels.
    pub fn decode(&self, indices: &[u32]) -> MlResult<Vec<i64>> {
        indices
            .iter()
            .map(|&i| {
                self.label(i).ok_or(MlError::BadLabel { label: i, n_classes: self.n_classes() })
            })
            .collect()
    }
}

impl Pickle for ClassMap {
    const CLASS_NAME: &'static str = "ClassMap";
    fn pickle_body(&self, w: &mut Writer) {
        w.put_i64_slice(&self.labels);
    }
    fn unpickle_body(r: &mut Reader) -> Result<Self, PickleError> {
        let labels = r.get_i64_vec()?;
        if labels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PickleError::Invalid("class map labels not strictly sorted".into()));
        }
        Ok(ClassMap { labels })
    }
}

/// Validates a (features, labels, n_classes) triple before fitting.
pub fn validate_fit_inputs(x: &Matrix, y: &[u32], n_classes: usize) -> MlResult<()> {
    if x.rows() == 0 {
        return Err(MlError::BadData("cannot fit on zero rows".into()));
    }
    if x.rows() != y.len() {
        return Err(MlError::Shape(format!("{} feature rows but {} labels", x.rows(), y.len())));
    }
    if n_classes < 2 {
        return Err(MlError::InvalidParam {
            param: "n_classes",
            message: format!("need at least 2 classes, got {n_classes}"),
        });
    }
    if let Some(&bad) = y.iter().find(|&&l| l as usize >= n_classes) {
        return Err(MlError::BadLabel { label: bad, n_classes });
    }
    if x.has_nan() {
        return Err(MlError::BadData(
            "features contain NaN (NULLs must be cleaned before training)".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert!(Matrix::new(vec![0.0; 5], 2, 2).is_err());
    }

    #[test]
    fn from_columns_transposes() {
        let m = Matrix::from_columns(&[&[1.0, 2.0], &[10.0, 20.0]]).unwrap();
        assert_eq!(m.row(0), &[1.0, 10.0]);
        assert_eq!(m.row(1), &[2.0, 20.0]);
        assert!(Matrix::from_columns(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_columns(&[]).is_err());
    }

    #[test]
    fn take_rows_gathers() {
        let m = Matrix::from_rows(&[[1.0], [2.0], [3.0]]).unwrap();
        let t = m.take_rows(&[2, 0, 2]);
        assert_eq!(t.as_slice(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn nan_detection_and_means() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 6.0]]).unwrap();
        assert!(!m.has_nan());
        assert_eq!(m.column_means(), vec![2.0, 4.0]);
        let m = Matrix::from_rows(&[[f64::NAN]]).unwrap();
        assert!(m.has_nan());
    }

    #[test]
    fn matrix_pickles() {
        let m = Matrix::from_rows(&[[1.5, -2.5]]).unwrap();
        let blob = mlcs_pickle::pickle(&m);
        let back: Matrix = mlcs_pickle::unpickle(&blob).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn class_map_round_trip() {
        let cm = ClassMap::fit(&[5, 1, 5, 9, 1]);
        assert_eq!(cm.n_classes(), 3);
        assert_eq!(cm.index(5), Some(1));
        assert_eq!(cm.label(2), Some(9));
        assert_eq!(cm.encode(&[1, 9, 5]).unwrap(), vec![0, 2, 1]);
        assert_eq!(cm.decode(&[2, 0]).unwrap(), vec![9, 1]);
        assert!(cm.encode(&[42]).is_err());
        assert!(cm.decode(&[3]).is_err());
        let blob = mlcs_pickle::pickle(&cm);
        assert_eq!(mlcs_pickle::unpickle::<ClassMap>(&blob).unwrap(), cm);
    }

    #[test]
    fn fit_input_validation() {
        let x = Matrix::from_rows(&[[1.0], [2.0]]).unwrap();
        assert!(validate_fit_inputs(&x, &[0, 1], 2).is_ok());
        assert!(validate_fit_inputs(&x, &[0], 2).is_err());
        assert!(validate_fit_inputs(&x, &[0, 2], 2).is_err());
        assert!(validate_fit_inputs(&x, &[0, 1], 1).is_err());
        let empty = Matrix::zeros(0, 1);
        assert!(validate_fit_inputs(&empty, &[], 2).is_err());
        let nan = Matrix::from_rows(&[[f64::NAN], [1.0]]).unwrap();
        assert!(validate_fit_inputs(&nan, &[0, 1], 2).is_err());
    }
}
