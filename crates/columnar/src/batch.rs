//! [`Batch`]: the execution currency — a schema plus equal-length columns.
//!
//! Every operator consumes and produces batches. Columns are `Arc`-shared,
//! so projections and pass-through operators are zero-copy: they clone the
//! `Arc`, not the data.

use crate::column::{Column, ColumnBuilder};
use crate::error::{DbError, DbResult};
use crate::schema::{Field, Schema};
use crate::types::Value;
use std::sync::Arc;

/// A set of equal-length columns with a schema. Immutable once built.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Batch {
    /// Builds a batch, validating column count, types, and lengths.
    pub fn new(schema: Arc<Schema>, columns: Vec<Arc<Column>>) -> DbResult<Batch> {
        if schema.len() != columns.len() {
            return Err(DbError::Shape(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.data_type() != f.dtype {
                return Err(DbError::Type(format!(
                    "column '{}' declared {} but holds {}",
                    f.name,
                    f.dtype,
                    c.data_type()
                )));
            }
            if c.len() != rows {
                return Err(DbError::Shape(format!(
                    "column '{}' has {} rows, expected {}",
                    f.name,
                    c.len(),
                    rows
                )));
            }
        }
        Ok(Batch { schema, columns, rows })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Batch {
        let columns = schema.fields().iter().map(|f| Arc::new(Column::empty(f.dtype))).collect();
        let rows = 0;
        Batch { schema, columns, rows }
    }

    /// Builds a batch from `(name, column)` pairs, inferring the schema
    /// from the columns (all nullable). Convenient in tests and UDFs.
    pub fn from_columns(pairs: Vec<(&str, Column)>) -> DbResult<Batch> {
        let fields = pairs.iter().map(|(n, c)| Field::new(*n, c.data_type())).collect::<Vec<_>>();
        let schema = Arc::new(Schema::new(fields)?);
        let columns = pairs.into_iter().map(|(_, c)| Arc::new(c)).collect();
        Batch::new(schema, columns)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// True when the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column by name (case-insensitive).
    pub fn column_by_name(&self, name: &str) -> DbResult<&Arc<Column>> {
        let (i, _) = self.schema.field_by_name(name)?;
        Ok(&self.columns[i])
    }

    /// Extracts row `i` as scalar values (slow path).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Gathers rows by index into a new batch.
    pub fn take(&self, indices: &[u32]) -> Batch {
        let columns = self.columns.iter().map(|c| Arc::new(c.take(indices))).collect();
        Batch { schema: self.schema.clone(), columns, rows: indices.len() }
    }

    /// Copies rows `offset..offset+len` into a new batch. The full range
    /// shares the columns instead (batches are immutable), which is what
    /// makes an operator's single-morsel run copy-free.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        if offset == 0 && len == self.rows {
            return self.clone();
        }
        let columns = self.columns.iter().map(|c| Arc::new(c.slice(offset, len))).collect();
        Batch { schema: self.schema.clone(), columns, rows: len }
    }

    /// Zero-copy projection: keeps columns at `indices`, renaming per the
    /// projected schema.
    pub fn project(&self, indices: &[usize]) -> DbResult<Batch> {
        let fields = indices.iter().map(|&i| self.schema.field(i).clone()).collect();
        let schema = Arc::new(Schema::new_unchecked(fields));
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Batch::new(schema, columns)
    }

    /// Concatenates batches with identical schemas (column names/types).
    /// A single batch is returned as is, sharing its columns.
    pub fn concat(batches: &[Batch]) -> DbResult<Batch> {
        let first = batches.first().ok_or_else(|| DbError::internal("concat of zero batches"))?;
        if batches.len() == 1 {
            return Ok(first.clone());
        }
        let schema = first.schema.clone();
        let mut builders: Vec<Column> = first.columns.iter().map(|c| c.as_ref().clone()).collect();
        for b in &batches[1..] {
            if b.schema.len() != schema.len() {
                return Err(DbError::Shape("concat: schema width mismatch".into()));
            }
            for (dst, src) in builders.iter_mut().zip(&b.columns) {
                dst.extend(src)?;
            }
        }
        let rows = builders.first().map_or(0, |c| c.len());
        Ok(Batch { schema, columns: builders.into_iter().map(Arc::new).collect(), rows })
    }

    /// Builds a batch row-by-row from scalar values, casting to the schema.
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Value>]) -> DbResult<Batch> {
        let mut builders: Vec<ColumnBuilder> =
            schema.fields().iter().map(|f| ColumnBuilder::new(f.dtype)).collect();
        for (ri, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(DbError::Shape(format!(
                    "row {ri} has {} values, expected {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push_value(v)?;
            }
        }
        let columns = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Batch::new(schema, columns)
    }

    /// Renders the batch as an aligned text table (for shells and tests).
    pub fn pretty(&self) -> String {
        let names: Vec<String> = self.schema.fields().iter().map(|f| f.name.clone()).collect();
        let mut widths: Vec<usize> = names.iter().map(String::len).collect();
        let limit = self.rows.min(40);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(limit);
        for r in 0..limit {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| {
                    let v = c.value(r);
                    if v.is_null() {
                        "NULL".to_owned()
                    } else {
                        let s = v.render();
                        if s.len() > 32 {
                            format!("{}…", &s[..31])
                        } else {
                            s
                        }
                    }
                })
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        if self.rows > limit {
            out.push_str(&format!("({} rows, {} shown)\n", self.rows, limit));
        } else {
            out.push_str(&format!("({} rows)\n", self.rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn sample() -> Batch {
        Batch::from_columns(vec![
            ("id", Column::from_i32s(vec![1, 2, 3])),
            ("name", Column::from_strings(["a", "b", "c"])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int32)]).unwrap());
        // Wrong type.
        let err = Batch::new(schema.clone(), vec![Arc::new(Column::from_f64s(vec![1.0]))]);
        assert!(err.is_err());
        // Wrong width.
        let err = Batch::new(schema.clone(), vec![]);
        assert!(err.is_err());
        // Length mismatch across columns.
        let schema2 = Arc::new(
            Schema::new(vec![Field::new("x", DataType::Int32), Field::new("y", DataType::Int32)])
                .unwrap(),
        );
        let err = Batch::new(
            schema2,
            vec![Arc::new(Column::from_i32s(vec![1])), Arc::new(Column::from_i32s(vec![1, 2]))],
        );
        assert!(err.is_err());
    }

    #[test]
    fn row_extraction() {
        let b = sample();
        assert_eq!(b.row(1), vec![Value::Int32(2), Value::Varchar("b".into())]);
    }

    #[test]
    fn take_slice_project() {
        let b = sample();
        let t = b.take(&[2, 0]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.row(0), vec![Value::Int32(3), Value::Varchar("c".into())]);
        let s = b.slice(1, 1);
        assert_eq!(s.row(0)[0], Value::Int32(2));
        let p = b.project(&[1]).unwrap();
        assert_eq!(p.width(), 1);
        assert_eq!(p.schema().field(0).name, "name");
    }

    #[test]
    fn projection_is_zero_copy() {
        let b = sample();
        let p = b.project(&[0]).unwrap();
        assert!(Arc::ptr_eq(b.column(0), p.column(0)));
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let all = Batch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(all.rows(), 6);
        assert_eq!(all.row(5)[1], Value::Varchar("c".into()));
        assert!(Batch::concat(&[]).is_err());
    }

    #[test]
    fn from_rows_casts() {
        let schema = Arc::new(
            Schema::new(vec![Field::new("a", DataType::Int64), Field::new("b", DataType::Varchar)])
                .unwrap(),
        );
        let b = Batch::from_rows(
            schema.clone(),
            &[
                vec![Value::Int32(1), Value::Varchar("x".into())],
                vec![Value::Null, Value::Int32(9)],
            ],
        )
        .unwrap();
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(0)[0], Value::Int64(1));
        assert_eq!(b.row(1)[1], Value::Varchar("9".into()));
        // Arity mismatch rejected.
        let err = Batch::from_rows(schema, &[vec![Value::Int32(1)]]);
        assert!(err.is_err());
    }

    #[test]
    fn pretty_prints() {
        let b = sample();
        let s = b.pretty();
        assert!(s.contains("id"));
        assert!(s.contains("(3 rows)"));
    }

    #[test]
    fn column_by_name_case_insensitive() {
        let b = sample();
        assert_eq!(b.column_by_name("NAME").unwrap().len(), 3);
        assert!(b.column_by_name("zzz").is_err());
    }
}
