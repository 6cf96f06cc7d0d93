//! Mutable, named tables: append-oriented columnar storage.
//!
//! A [`Table`] owns one contiguous [`Column`] per field — the MonetDB model,
//! where each column is a single BAT. Scans hand the executor an immutable
//! [`Batch`] snapshot; appends use copy-on-write (`Arc::make_mut`), so open
//! snapshots are never invalidated by concurrent loads.

use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder, Encoding};
use crate::encoding::{build, Thresholds};
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::stats::{ColumnStats, TableStats};
use crate::types::Value;
use std::sync::Arc;

/// A named table with appendable columnar storage.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
    /// Row count at the last auto-encoding sweep. Appends re-run the sweep
    /// only once the table has doubled since, so the O(n) encode/decode
    /// work is amortized over growth instead of paid per insert.
    encoded_at_rows: usize,
    /// Live per-column statistics, maintained on every mutation path:
    /// appends merge exact per-batch stats, the encoding sweep (and any
    /// delete/update) rebuilds them. See [`crate::stats`].
    stats: TableStats,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Table {
        let columns: Vec<Arc<Column>> =
            schema.fields().iter().map(|f| Arc::new(Column::empty(f.dtype))).collect();
        let stats = TableStats::new(0, column_stats(&columns));
        Table { name: name.into(), schema, columns, rows: 0, encoded_at_rows: 0, stats }
    }

    /// Wraps an existing batch as a table (used by `CREATE TABLE AS` and
    /// the persistence loader). Columns are auto-encoded immediately: bulk
    /// arrival is the cheapest moment to scan for low NDV / long runs.
    pub fn from_batch(name: impl Into<String>, batch: Batch) -> Table {
        let rows = batch.rows();
        let mut t = Table {
            name: name.into(),
            schema: batch.schema().clone(),
            columns: batch.columns().to_vec(),
            rows,
            encoded_at_rows: 0,
            stats: TableStats::default(),
        };
        t.rebuild(true);
        t
    }

    /// Rebuilds every column in one typed pass each ([`build`]): with
    /// `encode`, plain columns are re-encoded by the heuristic and the row
    /// count recorded so the next sweep waits for the table to double.
    /// The stats are replaced and `sql.stats.built` ticks once. Appends
    /// between sweeps merge per-batch stats instead (see
    /// [`Self::append_batch`]).
    fn rebuild(&mut self, encode: bool) {
        let auto = encode.then(Thresholds::current);
        let mut stats = Vec::with_capacity(self.columns.len());
        for col in &mut self.columns {
            let (encoded, s) = build(col, auto);
            if let Some(e) = encoded {
                *col = Arc::new(e);
            }
            stats.push(s);
        }
        if encode {
            self.encoded_at_rows = self.rows;
        }
        self.stats = TableStats::new(self.rows, stats);
        crate::metrics::counter("sql.stats.built").incr();
    }

    /// Live statistics for the current contents (see [`crate::stats`]
    /// for the exactness contract).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Forces a specific encoding on column `col_idx`, bypassing the
    /// heuristic (e.g. dictionary-encode a key column the planner knows is
    /// low-cardinality). Later appends may re-encode as the table grows.
    pub fn set_column_encoding(&mut self, col_idx: usize, enc: Encoding) -> DbResult<()> {
        if col_idx >= self.columns.len() {
            return Err(DbError::internal(format!(
                "set_column_encoding: column {col_idx} out of range"
            )));
        }
        let encoded = self.columns[col_idx].encode(enc);
        encoded.check_encoding()?;
        self.columns[col_idx] = Arc::new(encoded);
        self.rebuild(false);
        Ok(())
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// An immutable snapshot of the current contents. Zero-copy: the batch
    /// shares the table's column `Arc`s.
    pub fn scan(&self) -> Batch {
        Batch::new(self.schema.clone(), self.columns.clone())
            .expect("table invariants guarantee a valid batch")
    }

    /// Appends all rows of `batch`, whose columns must match the table's
    /// types positionally. NOT NULL constraints are enforced.
    pub fn append_batch(&mut self, batch: &Batch) -> DbResult<()> {
        if batch.width() != self.schema.len() {
            return Err(DbError::Shape(format!(
                "table '{}' has {} columns, insert provides {}",
                self.name,
                self.schema.len(),
                batch.width()
            )));
        }
        // First pass: cast to declared types and validate NOT NULL, so a
        // failing insert never partially applies.
        let mut prepared: Vec<Arc<Column>> = Vec::with_capacity(batch.width());
        for (f, c) in self.schema.fields().iter().zip(batch.columns()) {
            let col = if c.data_type() == f.dtype { c.clone() } else { Arc::new(c.cast(f.dtype)?) };
            if !f.nullable && col.null_count() > 0 {
                return Err(DbError::Bind(format!(
                    "NULL value in NOT NULL column '{}' of table '{}'",
                    f.name, self.name
                )));
            }
            prepared.push(col);
        }
        if self.rows == 0 {
            // Nothing to extend: adopt the prepared columns, sharing their
            // `Arc`s, so populating a fresh table (`CREATE TABLE AS`, a
            // bulk load, replay of either) copies no column data.
            self.columns.clone_from(&prepared);
        } else {
            for (dst, src) in self.columns.iter_mut().zip(&prepared) {
                Arc::make_mut(dst).extend(src)?;
            }
        }
        self.rows += batch.rows();
        // `extend` decodes encoded destinations; re-encode once the table
        // has doubled since the last sweep (always on the first append).
        if self.rows >= self.encoded_at_rows.saturating_mul(2) {
            self.rebuild(true);
        } else {
            // Between sweeps, fold exact per-batch stats in O(batch).
            self.stats.merge_append(&TableStats::new(batch.rows(), column_stats(&prepared)));
        }
        Ok(())
    }

    /// Appends scalar rows (the `INSERT INTO ... VALUES` path).
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> DbResult<()> {
        let batch = Batch::from_rows(self.schema.clone(), rows)?;
        self.append_batch(&batch)
    }

    /// Keeps only the rows at `indices` (used by `DELETE`: the executor
    /// computes the surviving rows and rebuilds).
    pub fn retain_indices(&mut self, indices: &[u32]) {
        for col in &mut self.columns {
            let taken = col.take(indices);
            *col = Arc::new(taken);
        }
        self.rows = indices.len();
        self.rebuild(false);
    }

    /// Replaces the full contents of column `col_idx` (used by `UPDATE`).
    /// The new column must match the declared type and row count.
    pub fn replace_column(&mut self, col_idx: usize, column: Arc<Column>) -> DbResult<()> {
        let f = self.schema.field(col_idx);
        if column.data_type() != f.dtype {
            return Err(DbError::Type(format!(
                "UPDATE would change column '{}' from {} to {}",
                f.name,
                f.dtype,
                column.data_type()
            )));
        }
        if column.len() != self.rows {
            return Err(DbError::Shape(format!(
                "replacement column has {} rows, table has {}",
                column.len(),
                self.rows
            )));
        }
        if !f.nullable && column.null_count() > 0 {
            return Err(DbError::Bind(format!(
                "NULL value in NOT NULL column '{}' of table '{}'",
                f.name, self.name
            )));
        }
        self.columns[col_idx] = column;
        self.rebuild(false);
        Ok(())
    }

    /// Builder for bulk-loading a table column-by-column with a known
    /// row count; used by the CSV / binary-file loaders.
    pub fn loader(&mut self) -> TableLoader<'_> {
        TableLoader {
            builders: self.schema.fields().iter().map(|f| ColumnBuilder::new(f.dtype)).collect(),
            table: self,
        }
    }
}

/// The statistics of `columns` as they are, without encoding them.
fn column_stats(columns: &[Arc<Column>]) -> Vec<ColumnStats> {
    columns.iter().map(|c| build(c, None).1).collect()
}

/// Row-streaming bulk loader for a table.
pub struct TableLoader<'a> {
    table: &'a mut Table,
    builders: Vec<ColumnBuilder>,
}

impl TableLoader<'_> {
    /// Appends one row of values (must match the schema arity).
    pub fn push_row(&mut self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.builders.len() {
            return Err(DbError::Shape(format!(
                "row has {} values, expected {}",
                row.len(),
                self.builders.len()
            )));
        }
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push_value(v)?;
        }
        Ok(())
    }

    /// Finalizes the load, appending everything to the table at once.
    pub fn finish(self) -> DbResult<usize> {
        let columns: Vec<Arc<Column>> =
            self.builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        let schema = self.table.schema.clone();
        let batch = Batch::new(schema, columns)?;
        let n = batch.rows();
        self.table.append_batch(&batch)?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Field::not_null("id", DataType::Int32),
                Field::new("score", DataType::Float64),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn append_and_scan() {
        let mut t = Table::new("t", schema());
        t.append_rows(&[
            vec![Value::Int32(1), Value::Float64(0.5)],
            vec![Value::Int32(2), Value::Null],
        ])
        .unwrap();
        assert_eq!(t.rows(), 2);
        let b = t.scan();
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(0), vec![Value::Int32(1), Value::Float64(0.5)]);
        assert!(b.row(1)[1].is_null());
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new("t", schema());
        let err = t.append_rows(&[vec![Value::Null, Value::Float64(1.0)]]);
        assert!(matches!(err, Err(DbError::Bind(_))));
        assert_eq!(t.rows(), 0, "failed insert must not partially apply");
    }

    #[test]
    fn snapshot_isolated_from_appends() {
        let mut t = Table::new("t", schema());
        t.append_rows(&[vec![Value::Int32(1), Value::Null]]).unwrap();
        let snap = t.scan();
        t.append_rows(&[vec![Value::Int32(2), Value::Null]]).unwrap();
        assert_eq!(snap.rows(), 1, "old snapshot must not see the new row");
        assert_eq!(t.scan().rows(), 2);
    }

    #[test]
    fn insert_casts_to_declared_types() {
        let mut t = Table::new("t", schema());
        t.append_rows(&[vec![Value::Int64(7), Value::Int32(3)]]).unwrap();
        let b = t.scan();
        assert_eq!(b.row(0), vec![Value::Int32(7), Value::Float64(3.0)]);
    }

    #[test]
    fn retain_indices_deletes() {
        let mut t = Table::new("t", schema());
        for i in 0..5 {
            t.append_rows(&[vec![Value::Int32(i), Value::Null]]).unwrap();
        }
        t.retain_indices(&[0, 2, 4]);
        assert_eq!(t.rows(), 3);
        let b = t.scan();
        assert_eq!(b.row(1)[0], Value::Int32(2));
    }

    #[test]
    fn replace_column_updates() {
        let mut t = Table::new("t", schema());
        t.append_rows(&[vec![Value::Int32(1), Value::Float64(0.0)]]).unwrap();
        t.replace_column(1, Column::from_f64s(vec![9.0]).into()).unwrap();
        assert_eq!(t.scan().row(0)[1], Value::Float64(9.0));
        // Wrong length rejected.
        assert!(t.replace_column(1, Column::from_f64s(vec![1.0, 2.0]).into()).is_err());
        // Wrong type rejected.
        assert!(t.replace_column(1, Column::from_i32s(vec![1]).into()).is_err());
        // NOT NULL violation rejected.
        assert!(t.replace_column(0, Column::from_opt_i32s(vec![None]).into()).is_err());
    }

    #[test]
    fn loader_bulk_loads() {
        let mut t = Table::new("t", schema());
        let mut l = t.loader();
        for i in 0..100 {
            l.push_row(&[Value::Int32(i), Value::Float64(i as f64)]).unwrap();
        }
        assert_eq!(l.finish().unwrap(), 100);
        assert_eq!(t.rows(), 100);
    }
}
