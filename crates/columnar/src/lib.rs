//! # mlcs-columnar — an in-memory column-store engine
//!
//! The database substrate of the mlcs workspace: the role MonetDB plays in
//! *Deep Integration of Machine Learning Into Column Stores* (Raasveldt et
//! al., EDBT 2018). The engine provides:
//!
//! * **Columnar storage** — contiguous typed columns with validity bitmaps
//!   ([`column::Column`]), including `VARCHAR` and `BLOB` columns (the
//!   latter store pickled ML models).
//! * **Operator-at-a-time vectorized execution** — filters, projections,
//!   hash joins, hash aggregation, sorting ([`exec`]), all working on whole
//!   columns per call, MonetDB-style.
//! * **A SQL subset** — `CREATE TABLE` / `INSERT` / `SELECT` with joins,
//!   grouping, ordering, subqueries in `FROM`, scalar subqueries, `DELETE`,
//!   `UPDATE`, `CREATE TABLE AS` ([`sql`]).
//! * **Vectorized UDF hooks** — scalar and table-valued functions receive
//!   whole columns, zero-copy ([`udf`]); the ML integration in `mlcs-core`
//!   registers its `train`/`predict` functions through these.
//! * **Morsel parallelism** — a persistent worker pool and `parallel_map`
//!   primitive ([`parallel`]) driving parallel variants of every relational
//!   operator; the planner picks them when the input is large enough and
//!   every expression involved is parallel-safe.
//! * **Persistence** — a simple binary on-disk format for saving/loading a
//!   database directory ([`persist`]).
//! * **Observability** — a process-wide metrics registry ([`metrics`]) that
//!   every substrate reports into, and `EXPLAIN ANALYZE` annotating each
//!   plan operator with rows, wall time, and whether the parallel path ran.
//!
//! ## Quick start
//!
//! ```
//! use mlcs_columnar::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE t (x INTEGER, y DOUBLE)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)").unwrap();
//! let result = db.execute("SELECT x, y * 2 AS y2 FROM t WHERE x >= 2").unwrap();
//! assert_eq!(result.batch().rows(), 2);
//! ```

pub mod batch;
pub mod bitmap;
pub mod catalog;
pub mod column;
pub mod database;
pub mod encoding;
pub mod error;
pub mod exec;
pub mod expr;
pub mod faults;
pub mod metrics;
pub mod page;
pub mod parallel;
pub mod persist;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod strings;
pub mod table;
pub mod types;
pub mod udf;
pub mod verify;
pub mod wal;

pub use batch::Batch;
pub use bitmap::Bitmap;
pub use catalog::Catalog;
pub use column::{Column, ColumnBuilder, ColumnData, Encoding, Native};
pub use database::{Database, QueryResult, StatementKind};
pub use error::{DbError, DbResult};
pub use schema::{Field, Schema};
pub use strings::{BlobColumn, StringColumn};
pub use table::Table;
pub use types::{DataType, Value};
pub use udf::{ClosureScalarUdf, FunctionRegistry, ScalarUdf, TableUdf};
pub use verify::{verify_plan, verify_statement};
