//! The database handle: what it holds, its settings, and the entry points
//! that run SQL.

use super::commit::Durability;
use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::parallel::locks::RwLock;
use crate::schema::Schema;
use crate::sql::binder::bind;
use crate::sql::execute::{ExecOptions, DEFAULT_PARALLEL_THRESHOLD};
use crate::sql::parser::parse_many;
use crate::sql::plan_cache::{CacheStamp, PlanCache};
use crate::types::Value;
use crate::udf::{FunctionRegistry, ScalarUdf, TableUdf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What kind of statement produced a [`QueryResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// A query with a result set.
    Query,
    /// Data definition (CREATE/DROP).
    Ddl,
    /// Data manipulation (INSERT/DELETE/UPDATE).
    Dml,
}

/// The outcome of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    batch: Batch,
    rows_affected: usize,
    pub(super) elapsed: Duration,
    kind: StatementKind,
}

impl QueryResult {
    /// The result of a query: its rows. `elapsed` is stamped by the caller.
    pub(super) fn rows(batch: Batch) -> QueryResult {
        QueryResult {
            rows_affected: batch.rows(),
            batch,
            elapsed: Duration::ZERO,
            kind: StatementKind::Query,
        }
    }

    /// The result of a DDL/DML statement: no rows, an affected count.
    pub(super) fn no_rows(kind: StatementKind, rows_affected: usize) -> QueryResult {
        QueryResult {
            batch: Batch::empty(Schema::empty()),
            rows_affected,
            elapsed: Duration::ZERO,
            kind,
        }
    }

    /// The result rows (empty batch for DDL/DML).
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Consumes the result, returning the batch.
    pub fn into_batch(self) -> Batch {
        self.batch
    }

    /// Rows inserted/deleted/updated by a DML statement.
    pub fn rows_affected(&self) -> usize {
        self.rows_affected
    }

    /// Wall-clock execution time (parse + bind + execute).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The statement kind.
    pub fn kind(&self) -> StatementKind {
        self.kind
    }
}

/// An embedded analytical database: in-memory column store, SQL, and
/// vectorized UDFs.
///
/// `Database` is cheap to clone (`Arc` internals) and safe to share across
/// threads; the catalog and registry use interior locking.
#[derive(Clone)]
pub struct Database {
    pub(super) catalog: Arc<Catalog>,
    pub(super) functions: Arc<FunctionRegistry>,
    /// Worker count for parallel operators; `0` = hardware threads (or the
    /// `MLCS_THREADS` env override). Shared across clones.
    pub(super) threads: Arc<AtomicUsize>,
    /// Minimum operator input rows before the parallel path engages;
    /// `0` = [`DEFAULT_PARALLEL_THRESHOLD`]. Shared across clones.
    pub(super) parallel_threshold: Arc<AtomicUsize>,
    /// Optimized plans keyed on SQL text; repeat statements skip
    /// parse→bind→optimize. Invalidated by catalog / registry generation
    /// stamps. Shared across clones.
    pub(super) plan_cache: Arc<PlanCache>,
    /// Whether cost-based optimization on live column statistics is
    /// active; on by default. Shared across clones.
    pub(super) stats_enabled: Arc<AtomicBool>,
    /// `Some` once [`Self::open_durable`] attached a write-ahead log:
    /// every mutation is then logged and fsynced before acknowledging.
    /// Shared across clones.
    pub(super) durability: Arc<RwLock<Option<Arc<Durability>>>>,
}

impl Default for Database {
    fn default() -> Database {
        Database {
            catalog: Arc::default(),
            functions: Arc::default(),
            threads: Arc::default(),
            parallel_threshold: Arc::default(),
            plan_cache: Arc::default(),
            stats_enabled: Arc::new(AtomicBool::new(true)),
            durability: Arc::default(),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The UDF registry.
    pub fn functions(&self) -> &Arc<FunctionRegistry> {
        &self.functions
    }

    /// The prepared-statement / plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The current invalidation stamp: catalog + registry generations.
    pub(super) fn cache_stamp(&self) -> CacheStamp {
        (self.catalog.generation(), self.functions.generation())
    }

    /// Sets the worker count for parallel query execution. `0` restores
    /// the default (hardware threads, or the `MLCS_THREADS` override);
    /// `1` forces serial execution.
    pub fn set_threads(&self, n: usize) {
        self.threads.store(n, Ordering::Relaxed);
    }

    /// The configured worker count (`0` = hardware default).
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Sets the minimum operator input rows before the parallel path
    /// engages. `0` restores [`DEFAULT_PARALLEL_THRESHOLD`].
    pub fn set_parallel_threshold(&self, rows: usize) {
        self.parallel_threshold.store(rows, Ordering::Relaxed);
    }

    /// Enables or disables cost-based optimization on live column
    /// statistics (build-side selection, join reordering, conjunct
    /// ordering, stats-answered aggregates).
    pub fn set_stats_enabled(&self, on: bool) {
        self.stats_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether cost-based optimization is active.
    pub fn stats_enabled(&self) -> bool {
        self.stats_enabled.load(Ordering::Relaxed)
    }

    /// The execution options derived from this database's settings.
    pub(super) fn exec_options(&self) -> ExecOptions {
        let threshold = match self.parallel_threshold.load(Ordering::Relaxed) {
            0 => DEFAULT_PARALLEL_THRESHOLD,
            n => n,
        };
        ExecOptions {
            threads: self.threads.load(Ordering::Relaxed),
            parallel_threshold: threshold,
            ..ExecOptions::default()
        }
    }

    /// Registers a vectorized scalar UDF (usable in any expression).
    pub fn register_scalar_udf(&self, udf: Arc<dyn ScalarUdf>) {
        self.functions.register_scalar(udf);
    }

    /// Registers a table-valued UDF (usable in `FROM`).
    pub fn register_table_udf(&self, udf: Arc<dyn TableUdf>) {
        self.functions.register_table(udf);
    }

    /// Parses, binds, and executes a single SQL statement.
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        self.execute_with(sql, &self.exec_options())
    }

    /// [`Self::execute`] with a wall-clock deadline: the statement aborts
    /// with [`DbError::Timeout`] (naming the operator that observed the
    /// expiry) once `timeout` has elapsed. Checked at operator and morsel
    /// boundaries, so cancellation happens within one morsel of the
    /// deadline.
    pub fn execute_with_timeout(&self, sql: &str, timeout: Duration) -> DbResult<QueryResult> {
        self.execute_with(sql, &self.exec_options().with_timeout(timeout))
    }

    /// Executes a `;`-separated script, returning the last result.
    pub fn execute_script(&self, sql: &str) -> DbResult<QueryResult> {
        let start = Instant::now();
        let stmts = parse_many(sql)?;
        if stmts.is_empty() {
            return Err(DbError::Parse { message: "empty script".into(), position: 0 });
        }
        let mut last = None;
        for stmt in stmts {
            let bound = bind(stmt, &self.catalog, &self.functions)?;
            last = Some(self.run_bound_probe(bound, &self.exec_options(), None)?);
        }
        let mut result = last.expect("nonempty");
        result.elapsed = start.elapsed();
        Ok(result)
    }

    /// Convenience: executes a query and returns its batch.
    pub fn query(&self, sql: &str) -> DbResult<Batch> {
        Ok(self.execute(sql)?.into_batch())
    }

    /// Convenience: executes a query expected to return exactly one value.
    pub fn query_value(&self, sql: &str) -> DbResult<Value> {
        let batch = self.query(sql)?;
        if batch.rows() != 1 || batch.width() != 1 {
            return Err(DbError::Shape(format!(
                "expected a 1x1 result, got {}x{}",
                batch.rows(),
                batch.width()
            )));
        }
        Ok(batch.column(0).value(0))
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("tables", &self.catalog.table_names()).finish()
    }
}
