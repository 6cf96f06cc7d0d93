//! The [`Database`] facade: catalog + function registry + SQL entry point.

use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::expr::{eval, eval_predicate, EvalContext, Expr};
use crate::schema::{Field, Schema};
use crate::sql::binder::bind;
use crate::sql::estimate;
use crate::sql::execute::{Exec, ExecOptions, PlanTrace, DEFAULT_PARALLEL_THRESHOLD};
use crate::sql::optimizer::{explain_annotation, optimize_with_stats, CostOutcome};
use crate::sql::parser::{parse, parse_many};
use crate::sql::plan::{BoundStatement, LogicalPlan};
use crate::sql::plan_cache::{CacheStamp, CachedQuery, PlanCache};
use crate::table::Table;
use crate::types::{DataType, Value};
use crate::udf::{FunctionRegistry, ScalarUdf, TableUdf};
use crate::wal::{self, Wal, WalOp};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
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
    elapsed: Duration,
    kind: StatementKind,
}

impl QueryResult {
    /// The result of a query: its rows. `elapsed` is stamped by the caller.
    fn rows(batch: Batch) -> QueryResult {
        QueryResult {
            rows_affected: batch.rows(),
            batch,
            elapsed: Duration::ZERO,
            kind: StatementKind::Query,
        }
    }

    /// The result of a DDL/DML statement: no rows, an affected count.
    fn no_rows(kind: StatementKind, rows_affected: usize) -> QueryResult {
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

/// The durable half of an opened-on-disk database: the write-ahead log,
/// the directory it lives in, and the commit fence.
///
/// The fence is what makes checkpoints consistent: every durable mutation
/// holds it shared across "apply in memory + append to log" (DDL takes it
/// exclusive, serializing catalog changes against each other), and
/// [`Database::checkpoint`] takes it exclusive, so the snapshot it cuts is
/// at a statement boundary and the checkpoint LSN cleanly partitions
/// folded-in from to-be-replayed records. Lock order: fence → table
/// guard → log mutex.
struct Durability {
    wal: Wal,
    dir: PathBuf,
    fence: parking_lot::RwLock<()>,
    /// Set when a commit's WAL append failed *after* the statement was
    /// applied in memory: the in-memory tables and the log now disagree,
    /// so physical redo records computed against memory (DELETE's
    /// keep-indices, UPDATE's replacement columns) would replay against
    /// the wrong row positions. Until the database is reopened (which
    /// rebuilds memory from the log), every further durable mutation and
    /// checkpoint is refused; reads still work.
    poisoned: AtomicBool,
}

impl Durability {
    /// Refuses poisoned handles with a typed error.
    fn ensure_usable(&self) -> DbResult<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(DbError::Io(
                "a durable commit failed after applying in memory; the write-ahead \
                 log no longer matches the in-memory tables — reopen the database \
                 (Database::open_durable) to recover to the last acknowledged state"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Appends one statement's record, poisoning the handle on failure:
    /// the caller has already applied the statement in memory, so a
    /// failed append means memory and log have diverged and further
    /// physical redo records can no longer be trusted.
    fn log(&self, ops: &[WalOp]) -> DbResult<u64> {
        self.wal.append(ops).inspect_err(|_| {
            self.poisoned.store(true, Ordering::Relaxed);
        })
    }
}

/// An embedded analytical database: in-memory column store, SQL, and
/// vectorized UDFs.
///
/// `Database` is cheap to clone (`Arc` internals) and safe to share across
/// threads; the catalog and registry use interior locking.
#[derive(Clone)]
pub struct Database {
    catalog: Arc<Catalog>,
    functions: Arc<FunctionRegistry>,
    /// Worker count for parallel operators; `0` = hardware threads (or the
    /// `MLCS_THREADS` env override). Shared across clones.
    threads: Arc<AtomicUsize>,
    /// Minimum operator input rows before the parallel path engages;
    /// `0` = [`DEFAULT_PARALLEL_THRESHOLD`]. Shared across clones.
    parallel_threshold: Arc<AtomicUsize>,
    /// Optimized plans keyed on SQL text; repeat statements skip
    /// parse→bind→optimize. Invalidated by catalog / registry generation
    /// stamps. Shared across clones.
    plan_cache: Arc<PlanCache>,
    /// Whether cost-based optimization on live column statistics is
    /// active. Defaults to on unless `MLCS_DISABLE_STATS` is set; the
    /// env kill-switch always wins over [`Self::set_stats_enabled`].
    /// Shared across clones.
    stats_enabled: Arc<AtomicBool>,
    /// `Some` once [`Self::open_durable`] attached a write-ahead log:
    /// every mutation is then logged and fsynced before acknowledging.
    /// Shared across clones.
    durability: Arc<parking_lot::RwLock<Option<Arc<Durability>>>>,
}

impl Default for Database {
    fn default() -> Database {
        Database {
            catalog: Arc::default(),
            functions: Arc::default(),
            threads: Arc::default(),
            parallel_threshold: Arc::default(),
            plan_cache: Arc::default(),
            stats_enabled: Arc::new(AtomicBool::new(crate::stats::env_enabled())),
            durability: Arc::default(),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Opens a durable database rooted at `dir` (created if missing).
    ///
    /// Existing state is recovered first — the checkpointed page base is
    /// loaded, then the write-ahead log is replayed past the checkpoint
    /// watermark, with any torn tail truncated — and the returned
    /// [`crate::persist::RecoveryReport`] says exactly what happened. From then on every
    /// mutation (INSERT/DELETE/UPDATE/CREATE/DROP) is appended to the log
    /// and fsynced *before* the statement is acknowledged, so anything
    /// this database confirmed survives a crash; `CHECKPOINT` (or
    /// [`Self::checkpoint`]) folds the log into checksummed pages.
    pub fn open_durable(dir: &Path) -> DbResult<(Database, crate::persist::RecoveryReport)> {
        let db = Database::new();
        std::fs::create_dir_all(dir)?;
        let has_state = dir.join("catalog.mlcsdb").exists() || dir.join(wal::WAL_FILE).exists();
        let report = if has_state {
            crate::persist::load_database_with(&db, dir, crate::persist::RecoveryMode::Recover)?
        } else {
            crate::persist::RecoveryReport::default()
        };
        // Recovery above truncated any damaged tail, so the log opens
        // clean and the writer resumes after the last intact record.
        let wal = Wal::open(dir)?;
        *db.durability.write() = Some(Arc::new(Durability {
            wal,
            dir: dir.canonicalize()?,
            fence: parking_lot::RwLock::new(()),
            poisoned: AtomicBool::new(false),
        }));
        Ok((db, report))
    }

    /// Whether this database was opened with [`Self::open_durable`].
    pub fn is_durable(&self) -> bool {
        self.durability.read().is_some()
    }

    /// Whether `dir` is the directory this database was opened durable
    /// at — where its snapshot is the checkpoint, and whose log it owns.
    pub(crate) fn is_durable_at(&self, dir: &Path) -> bool {
        self.durable().is_some_and(|d| dir.canonicalize().is_ok_and(|dir| dir == d.dir))
    }

    /// The current durability handle, if any.
    fn durable(&self) -> Option<Arc<Durability>> {
        self.durability.read().clone()
    }

    /// The one mutation path: every statement that changes the catalog or
    /// a table commits through here, durable or not.
    ///
    /// Takes the commit fence (DML shared — statements on different
    /// tables proceed concurrently — DDL exclusive, so catalog changes
    /// and their log records serialize), refuses a poisoned handle, takes
    /// the write guard of the table the statement names if it exists,
    /// lets `derive` turn that table's current state into the statement's
    /// [`WalOp`]s and affected-row count, applies the ops with
    /// [`wal::apply`] — the function replay uses, so live and recovered
    /// state agree by construction — and only then logs them as one
    /// record (apply-then-log; one record = one statement, replayed
    /// atomically). The guard is held through the append so same-table
    /// log order matches apply order. No ops (an `IF [NOT] EXISTS` that
    /// found nothing to do) means nothing is applied or logged.
    fn commit(
        &self,
        kind: StatementKind,
        table: &str,
        derive: impl FnOnce(Option<&Table>) -> DbResult<(Vec<WalOp>, usize)>,
    ) -> DbResult<QueryResult> {
        Ok(self.commit_then(kind, table, derive, |_| ())?.0)
    }

    /// [`Self::commit`], then `observe` reads the table the statement
    /// holds (`None` when it named none that existed) before letting go.
    fn commit_then<T>(
        &self,
        kind: StatementKind,
        table: &str,
        derive: impl FnOnce(Option<&Table>) -> DbResult<(Vec<WalOp>, usize)>,
        observe: impl FnOnce(Option<&Table>) -> T,
    ) -> DbResult<(QueryResult, T)> {
        let durable = self.durable();
        let fence = durable.as_ref().map(|d| &d.fence);
        let _shared = fence.filter(|_| kind == StatementKind::Dml).map(|f| f.read());
        let _exclusive = fence.filter(|_| kind == StatementKind::Ddl).map(|f| f.write());
        if let Some(d) = &durable {
            d.ensure_usable()?;
        }
        let handle = self.catalog.table(table).ok();
        let mut guard = handle.as_ref().map(|h| h.write());
        let (ops, affected) = derive(guard.as_deref())?;
        // A multi-op statement lands whole or not at all: keep the table
        // as it was (columns are shared, so the clone is shallow) to put
        // back if a later op is refused after an earlier one applied.
        let before = guard.as_deref().filter(|_| ops.len() > 1).cloned();
        for op in &ops {
            // DDL ops resolve their own tables: `CREATE TABLE AS` appends
            // to the table its first op creates.
            let held = guard.as_deref_mut().filter(|_| kind == StatementKind::Dml);
            if let Err(e) = wal::apply(&self.catalog, held, op) {
                if let (Some(table), Some(before)) = (guard.as_deref_mut(), before) {
                    *table = before;
                }
                return Err(e);
            }
        }
        if let Some(d) = durable.as_ref().filter(|_| !ops.is_empty()) {
            d.log(&ops)?;
        }
        let seen = observe(guard.as_deref());
        Ok((QueryResult::no_rows(kind, affected), seen))
    }

    /// Folds the write-ahead log into the checksummed page base and
    /// truncates it (SQL: `CHECKPOINT`). Commits are fenced for the
    /// duration, so the snapshot is cut at a statement boundary. Errors
    /// with [`DbError::Unsupported`] on a non-durable database.
    pub fn checkpoint(&self) -> DbResult<()> {
        let d = self.durable().ok_or_else(|| {
            DbError::Unsupported(
                "CHECKPOINT requires a durable database (Database::open_durable)".into(),
            )
        })?;
        let _fence = d.fence.write();
        // A poisoned handle must not checkpoint: folding the divergent
        // in-memory tables into the page base would durably commit a
        // statement the client was told failed.
        d.ensure_usable()?;
        wal::checkpoint(self, &d.dir, &d.wal)
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
    fn cache_stamp(&self) -> CacheStamp {
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
    /// ordering, stats-answered aggregates). The `MLCS_DISABLE_STATS`
    /// environment kill-switch overrides this toggle.
    pub fn set_stats_enabled(&self, on: bool) {
        self.stats_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether cost-based optimization is active (toggle AND env switch).
    pub fn stats_enabled(&self) -> bool {
        self.stats_enabled.load(Ordering::Relaxed) && crate::stats::env_enabled()
    }

    /// Whether any recorded table row count has drifted far enough —
    /// 2× growth, 2× shrink, or first rows into a table optimized empty —
    /// that a cost-based plan choice (join order, build side) made at
    /// those counts should be revisited. Missing tables do not count as
    /// drift: the generation stamp already invalidates on DDL.
    fn stats_drifted(&self, recorded: &[(String, u64)]) -> bool {
        recorded.iter().any(|(name, rows0)| {
            let Ok(handle) = self.catalog.table(name) else {
                return false;
            };
            let cur = handle.read().rows() as u64;
            if *rows0 == 0 {
                cur > 0
            } else {
                cur >= rows0.saturating_mul(2) || cur <= *rows0 / 2
            }
        })
    }

    /// Current row counts of the tables a plan scans, recorded into the
    /// plan cache so later lookups can detect drift.
    fn recorded_rows(&self, plan: &LogicalPlan) -> Vec<(String, u64)> {
        let mut names = Vec::new();
        estimate::scan_tables(plan, &mut names);
        names.sort();
        names.dedup();
        names
            .into_iter()
            .filter_map(|n| {
                let rows = self.catalog.table(&n).ok().map(|t| t.read().rows() as u64)?;
                Some((n, rows))
            })
            .collect()
    }

    /// The execution options derived from this database's settings.
    fn exec_options(&self) -> ExecOptions {
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

    /// [`Self::execute`] with explicit execution options (parallelism and
    /// deadline).
    pub fn execute_with(&self, sql: &str, opts: &ExecOptions) -> DbResult<QueryResult> {
        let start = Instant::now();
        let stamp = self.cache_stamp();
        let valid = |q: &CachedQuery| {
            if self.stats_drifted(&q.table_rows) {
                // The plan's cost-based choices were made at row counts
                // that no longer hold; drop it and re-optimize below.
                crate::metrics::counter("sql.cost.reoptimized").incr();
                false
            } else {
                true
            }
        };
        if let Some(cached) = self.plan_cache.lookup(sql, stamp, valid) {
            // Hit: parse, bind, and optimize are all skipped.
            let batch = self.run_plan(&cached.plan, &cached.scalar_subs, opts, None)?;
            let mut result = QueryResult::rows(batch);
            result.elapsed = start.elapsed();
            return Ok(result);
        }
        let stmt = parse(sql)?;
        let bound = bind(stmt, &self.catalog, &self.functions)?;
        let probe = self.analyze_probe(sql, &bound, stamp);
        let mut result = match bound {
            BoundStatement::Query { plan, scalar_subs } => {
                self.run_query_fresh(sql, plan, scalar_subs, stamp, opts)?
            }
            other => self.run_bound_probe(other, opts, probe)?,
        };
        result.elapsed = start.elapsed();
        Ok(result)
    }

    /// Optimizes a statement's plan, scalar-subquery placeholders and all,
    /// and verifies it with its subquery plans: the one check the plan gets,
    /// however often it then runs.
    fn prepare(&self, plan: LogicalPlan, subs: &[LogicalPlan]) -> DbResult<CostOutcome> {
        let outcome = optimize_with_stats(plan, &self.catalog, self.stats_enabled())?;
        crate::verify::verify_query(Some(&outcome.plan), subs, &self.functions)?;
        Ok(outcome)
    }

    /// Runs a prepared plan: evaluates its scalar subqueries fresh (their
    /// values depend on current data) and executes the plan with them as
    /// parameters. The plan is only read, so a cached one runs where it
    /// stands.
    fn run_plan(
        &self,
        plan: &LogicalPlan,
        subs: &[LogicalPlan],
        opts: &ExecOptions,
        trace: Option<&PlanTrace>,
    ) -> DbResult<Batch> {
        let exec = self.exec(opts, trace);
        let params = exec.evaluate_scalar_subqueries(subs)?;
        Exec { params: &params, ..exec }.run(plan)
    }

    /// An execution on this database, before its parameters are evaluated.
    fn exec<'a>(&'a self, opts: &'a ExecOptions, trace: Option<&'a PlanTrace>) -> Exec<'a> {
        Exec { catalog: &self.catalog, functions: &self.functions, opts, params: &[], trace }
    }

    /// Executes a plain `SELECT` after a cache miss: prepares the plan
    /// exactly once, caches it, then runs it. Only `Query` statements are
    /// cachable (DDL/DML must re-run their side effects; EXPLAIN is a
    /// diagnostic), and only they tick `sql.plan_cache.misses`, so
    /// hits+misses counts SELECT traffic. Plans answered entirely from
    /// statistics are **not** cached: their literals bake in the table
    /// contents at optimize time, which the next INSERT would silently
    /// stale.
    fn run_query_fresh(
        &self,
        sql: &str,
        plan: LogicalPlan,
        scalar_subs: Vec<LogicalPlan>,
        stamp: CacheStamp,
        opts: &ExecOptions,
    ) -> DbResult<QueryResult> {
        crate::metrics::counter("sql.plan_cache.misses").incr();
        let outcome = self.prepare(plan, &scalar_subs)?;
        let cachable = !outcome.from_stats;
        let table_rows = if cachable && self.stats_enabled() {
            self.recorded_rows(&outcome.plan)
        } else {
            Vec::new()
        };
        let query = Arc::new(CachedQuery { plan: outcome.plan, scalar_subs, table_rows });
        if cachable {
            self.plan_cache.insert(sql, Arc::clone(&query), stamp);
        }
        let batch = self.run_plan(&query.plan, &query.scalar_subs, opts, None)?;
        Ok(QueryResult::rows(batch))
    }

    /// For `EXPLAIN ANALYZE <stmt>`, probes (without counter ticks or LRU
    /// promotion) whether `<stmt>` would currently hit the plan cache, so
    /// the report can show cache behavior without perturbing it.
    fn analyze_probe(
        &self,
        sql: &str,
        bound: &BoundStatement,
        stamp: CacheStamp,
    ) -> Option<Arc<CachedQuery>> {
        match bound {
            BoundStatement::Explain { analyze: true, .. } => {
                let inner = strip_keyword(sql.trim_start(), "EXPLAIN")?;
                let inner = strip_keyword(inner.trim_start(), "ANALYZE")?;
                // Same drift check as a real lookup, but tick-free and
                // non-destructive: EXPLAIN must not perturb the cache.
                self.plan_cache.probe(inner, stamp, |q| !self.stats_drifted(&q.table_rows))
            }
            _ => None,
        }
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

    /// Runs a `CREATE TABLE … AS` or `INSERT … SELECT`: optimizes and
    /// executes its query (traced when `trace` is given), then commits the
    /// result, which builds or appends to the table.
    fn run_build(
        &self,
        bound: BoundStatement,
        opts: &ExecOptions,
        trace: Option<&PlanTrace>,
    ) -> DbResult<Built> {
        let catalog = &self.catalog;
        let execute = |plan: LogicalPlan, subs: &[LogicalPlan]| {
            // Boxed, so the trace's per-node annotations (keyed by node
            // address) still find the root once the plan is returned.
            let plan = Box::new(self.prepare(plan, subs)?.plan);
            if let Some(trace) = trace.filter(|_| self.stats_enabled()) {
                trace.set_estimates(estimate::estimate_map(&plan, catalog));
            }
            let batch = self.run_plan(&plan, subs, opts, trace)?;
            Ok::<_, DbError>((plan, batch))
        };
        // The table's width and encoded columns once the statement
        // committed.
        let shape = |t: &Table| {
            (t.schema().len(), t.scan().columns().iter().filter(|c| !c.is_plain()).count())
        };
        let mut skipped = false;
        let (plan, subs, table, build_start, (result, shape)) = match bound {
            BoundStatement::CreateTableAs { name, plan, scalar_subs, if_not_exists } => {
                let (plan, batch) = execute(plan, &scalar_subs)?;
                let rows = batch.rows();
                let lname = name.to_ascii_lowercase();
                let build_start = Instant::now();
                let derive = |existing: Option<&Table>| match existing {
                    Some(_) if if_not_exists => {
                        skipped = true;
                        Ok((Vec::new(), rows))
                    }
                    Some(_) => Err(DbError::AlreadyExists { kind: "table", name: lname.clone() }),
                    // Create + populate in one record; the append adopts
                    // the batch's columns (the table is empty), so the
                    // result set is shared, not copied.
                    None => Ok((
                        vec![
                            WalOp::CreateTable {
                                name: lname.clone(),
                                schema: batch.schema().clone(),
                            },
                            WalOp::Append { table: lname.clone(), batch },
                        ],
                        rows,
                    )),
                };
                let observe = |held: Option<&Table>| match held {
                    Some(t) => shape(t),
                    // The table the ops created is not under the guard:
                    // look it up (gone only if a concurrent DROP won).
                    None => catalog.table(&lname).map_or((0, 0), |h| shape(&h.read())),
                };
                let committed = self.commit_then(StatementKind::Ddl, &lname, derive, observe)?;
                (plan, scalar_subs, lname, build_start, committed)
            }
            BoundStatement::InsertQuery { table, column_map, plan, scalar_subs } => {
                let (plan, batch) = execute(plan, &scalar_subs)?;
                let build_start = Instant::now();
                let derive = |t: Option<&Table>| {
                    let batch = reorder_for_insert(target(t, &table)?, &column_map, batch)?;
                    let n = batch.rows();
                    Ok((vec![WalOp::Append { table: table.clone(), batch }], n))
                };
                let observe = |held: Option<&Table>| held.map_or((0, 0), shape);
                let committed = self.commit_then(StatementKind::Dml, &table, derive, observe)?;
                (plan, scalar_subs, table, build_start, committed)
            }
            _ => {
                return Err(DbError::internal(
                    "run_build takes CREATE TABLE … AS or INSERT … SELECT",
                ))
            }
        };
        Ok(Built { build: build_start.elapsed(), plan, subs, table, result, shape, skipped })
    }

    fn run_bound_probe(
        &self,
        bound: BoundStatement,
        opts: &ExecOptions,
        probe: Option<Arc<CachedQuery>>,
    ) -> DbResult<QueryResult> {
        let catalog = &self.catalog;
        let functions = &self.functions;
        match bound {
            BoundStatement::CreateTable { name, schema, if_not_exists } => {
                self.commit(StatementKind::Ddl, &name, |existing| match existing {
                    Some(_) if if_not_exists => Ok((Vec::new(), 0)),
                    Some(_) => Err(DbError::AlreadyExists { kind: "table", name: name.clone() }),
                    None => Ok((
                        vec![WalOp::CreateTable { name: name.to_ascii_lowercase(), schema }],
                        0,
                    )),
                })
            }
            build @ (BoundStatement::CreateTableAs { .. } | BoundStatement::InsertQuery { .. }) => {
                Ok(self.run_build(build, opts, None)?.result)
            }
            BoundStatement::DropTable { name, if_exists } => {
                self.commit(StatementKind::Ddl, &name, |existing| match existing {
                    Some(_) => Ok((vec![WalOp::DropTable { name: name.to_ascii_lowercase() }], 0)),
                    None if if_exists => Ok((Vec::new(), 0)),
                    None => Err(DbError::NotFound { kind: "table", name: name.clone() }),
                })
            }
            BoundStatement::DropFunction { name, if_exists } => {
                functions.drop_function(&name, if_exists)?;
                Ok(QueryResult::no_rows(StatementKind::Ddl, 0))
            }
            BoundStatement::InsertValues { table, column_map, rows } => {
                self.commit(StatementKind::Dml, &table, |t| {
                    let batch = values_batch(target(t, &table)?, &column_map, &rows)?;
                    Ok((vec![WalOp::Append { table: table.clone(), batch }], rows.len()))
                })
            }
            BoundStatement::Delete { table, filter, scalar_subs } => {
                // Bound afresh each time: this is the subqueries' one check.
                crate::verify::verify_query(None, &scalar_subs, functions)?;
                let params = self.exec(opts, None).evaluate_scalar_subqueries(&scalar_subs)?;
                self.commit(StatementKind::Dml, &table, |t| {
                    let snapshot = target(t, &table)?.scan();
                    let ctx = EvalContext {
                        params: &params,
                        ..EvalContext::new(&snapshot, Some(functions))
                    };
                    let mut keep = vec![true; snapshot.rows()];
                    for i in selected_rows(filter.as_ref(), &ctx)? {
                        keep[i as usize] = false;
                    }
                    let keep: Vec<u32> =
                        (0..snapshot.rows() as u32).filter(|&i| keep[i as usize]).collect();
                    let removed = snapshot.rows() - keep.len();
                    Ok((vec![WalOp::Retain { table: table.clone(), keep }], removed))
                })
            }
            BoundStatement::Update { table, assignments, filter, scalar_subs } => {
                // Bound afresh each time: this is the subqueries' one check.
                crate::verify::verify_query(None, &scalar_subs, functions)?;
                let params = self.exec(opts, None).evaluate_scalar_subqueries(&scalar_subs)?;
                self.commit(StatementKind::Dml, &table, |t| {
                    let t = target(t, &table)?;
                    let snapshot = t.scan();
                    let ctx = EvalContext {
                        params: &params,
                        ..EvalContext::new(&snapshot, Some(functions))
                    };
                    let selected = selected_rows(filter.as_ref(), &ctx)?;
                    // One op per assigned column, one record for the whole
                    // statement: multi-column updates replay atomically.
                    let mut ops = Vec::with_capacity(assignments.len());
                    for (col_idx, expr) in assignments {
                        let dtype = t.schema().field(col_idx).dtype;
                        let new = eval(&ctx, &expr)?;
                        let new = if new.data_type() == dtype {
                            new
                        } else {
                            Cow::Owned(new.cast(dtype)?)
                        };
                        let column = Arc::new(assign(snapshot.column(col_idx), &new, &selected)?);
                        ops.push(WalOp::ReplaceColumn { table: table.clone(), col_idx, column });
                    }
                    Ok((ops, selected.len()))
                })
            }
            BoundStatement::Query { plan, scalar_subs } => {
                let plan = self.prepare(plan, &scalar_subs)?.plan;
                Ok(QueryResult::rows(self.run_plan(&plan, &scalar_subs, opts, None)?))
            }
            BoundStatement::Explain { plan, scalar_subs, analyze: true } => {
                // EXPLAIN ANALYZE runs the statement exactly as a plain
                // query would, collecting per-operator rows, wall time, and
                // whether the parallel path engaged, subqueries included.
                // When the inner statement would hit the plan cache, the
                // cached plan is what runs — and the report says so.
                let prepared;
                let (plan, subs, cache_note) = match &probe {
                    Some(entry) => (
                        &entry.plan,
                        &entry.scalar_subs,
                        "plan cache: hit (parse, bind, and optimize skipped)\n",
                    ),
                    None => {
                        prepared = self.prepare(plan, &scalar_subs)?.plan;
                        (&prepared, &scalar_subs, "plan cache: miss\n")
                    }
                };
                let trace = PlanTrace::new();
                if self.stats_enabled() {
                    // Per-operator cardinality estimates, printed as
                    // `est=N` next to the actual row counts.
                    trace.set_estimates(estimate::estimate_map(plan, catalog));
                }
                let start = Instant::now();
                let result = self.run_plan(plan, subs, opts, Some(&trace))?;
                let total = start.elapsed();
                let mut text = plan_text(plan, subs, &|n| trace.annotation(n));
                text.push_str(cache_note);
                text.push_str(&execution_line(result.rows(), total));
                plan_rows(&text)
            }
            BoundStatement::Explain { plan, scalar_subs, analyze: false } => {
                // Plain EXPLAIN executes nothing. Operators are annotated
                // with what the executor may do: run in parallel
                // (expression safety; the row threshold decides at run
                // time), fuse a predicate, scan encoded columns.
                let plan = self.prepare(plan, &scalar_subs)?.plan;
                let note = |n: &LogicalPlan| explain_annotation(n, functions, catalog);
                plan_rows(&plan_text(&plan, &scalar_subs, &note))
            }
            BoundStatement::ExplainBuild(build) => {
                let trace = PlanTrace::new();
                let start = Instant::now();
                let built = self.run_build(*build, opts, Some(&trace))?;
                let total = start.elapsed();
                let (columns, encoded) = built.shape;
                // An `IF NOT EXISTS` that found the table built nothing.
                let (rows, note) = match built.skipped {
                    true => (0, " (exists, skipped)"),
                    false => (built.result.rows_affected(), ""),
                };
                let mut text = format!(
                    "TableBuild {}{note} rows={rows} columns={columns} encoded={encoded}/{columns} \
                     time={:.3}ms\n",
                    built.table,
                    built.build.as_secs_f64() * 1e3,
                );
                for line in plan_text(&built.plan, &built.subs, &|n| trace.annotation(n)).lines() {
                    text.push_str(&format!("  {line}\n"));
                }
                text.push_str(&execution_line(rows, total));
                plan_rows(&text)
            }
            BoundStatement::ShowTables => {
                let names = catalog.table_names();
                let rows: Vec<i64> = names
                    .iter()
                    .map(|n| catalog.table(n).map(|t| t.read().rows() as i64).unwrap_or(0))
                    .collect();
                let batch = Batch::from_columns(vec![
                    ("table_name", Column::from_strings(names.iter().map(String::as_str))),
                    ("row_count", Column::from_i64s(rows)),
                ])?;
                Ok(QueryResult::rows(batch))
            }
            BoundStatement::ShowFunctions => {
                let (scalar, table) = functions.names();
                let mut names: Vec<String> = Vec::new();
                let mut kinds: Vec<&str> = Vec::new();
                for s in scalar {
                    names.push(s);
                    kinds.push("scalar");
                }
                for t in table {
                    names.push(t);
                    kinds.push("table");
                }
                let batch = Batch::from_columns(vec![
                    ("function_name", Column::from_strings(names.iter().map(String::as_str))),
                    ("kind", Column::from_strings(kinds.iter().copied())),
                ])?;
                Ok(QueryResult::rows(batch))
            }
            BoundStatement::Checkpoint => {
                self.checkpoint()?;
                Ok(QueryResult::no_rows(StatementKind::Ddl, 0))
            }
            BoundStatement::Save { path } => {
                crate::persist::save_database(self, Path::new(&path))?;
                Ok(QueryResult::no_rows(StatementKind::Ddl, 0))
            }
        }
    }
}

/// The table a DML statement bound against, unless it was dropped since.
fn target<'a>(table: Option<&'a Table>, name: &str) -> DbResult<&'a Table> {
    table.ok_or_else(|| DbError::NotFound { kind: "table", name: name.to_owned() })
}

/// The rows a DML statement's `WHERE` selects, in order: all of them
/// without one.
fn selected_rows(filter: Option<&Expr>, ctx: &EvalContext<'_>) -> DbResult<Vec<u32>> {
    match filter {
        Some(pred) => eval_predicate(ctx, pred),
        None => Ok((0..ctx.batch.rows() as u32).collect()),
    }
}

/// An UPDATE's new column: `old` with each selected row's value replaced
/// by `new`'s at that row, or by its one row when `new` is a constant. One
/// typed extend of the old column by the new values, then one gather in
/// which a selected row's position points at its new value.
fn assign(old: &Column, new: &Column, selected: &[u32]) -> DbResult<Column> {
    let n = old.len();
    if new.len() != n && new.len() != 1 {
        return Err(DbError::Shape(format!("{} new values for {n} rows", new.len())));
    }
    let mut both = old.clone();
    both.extend(new)?;
    let mut positions: Vec<u32> = (0..n as u32).collect();
    for &i in selected {
        positions[i as usize] = (n + if new.len() == 1 { 0 } else { i as usize }) as u32;
    }
    Ok(both.take(&positions))
}

/// Constant rows as a batch in the table's schema, honoring an explicit
/// column list: unmentioned columns receive NULL.
fn values_batch(table: &Table, column_map: &[usize], rows: &[Vec<Value>]) -> DbResult<Batch> {
    let width = table.schema().len();
    let mut full_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let mut full = vec![Value::Null; width];
        for (v, &dst) in row.iter().zip(column_map) {
            full[dst] = v.clone();
        }
        full_rows.push(full);
    }
    Batch::from_rows(table.schema().clone(), &full_rows)
}

/// A table build: the statement's result, the query plan that fed it and
/// its scalar subqueries, the table it built or appended to, the time the
/// commit took (the table build plus, on a durable database, the log
/// append), the table's width and encoded columns once committed, and
/// whether an `IF NOT EXISTS` found the table and built nothing.
struct Built {
    result: QueryResult,
    plan: Box<LogicalPlan>,
    subs: Vec<LogicalPlan>,
    table: String,
    build: Duration,
    shape: (usize, usize),
    skipped: bool,
}

/// A plan's text, every operator annotated by `note`, with the scalar
/// subqueries its `$subqueryN` placeholders name listed below it.
fn plan_text(
    plan: &LogicalPlan,
    subs: &[LogicalPlan],
    note: &dyn Fn(&LogicalPlan) -> Option<String>,
) -> String {
    let mut text = plan.display_with(note);
    for (i, sub) in subs.iter().enumerate() {
        text.push_str(&format!("scalar subquery ${i}:\n{}", sub.display_with(note)));
    }
    text
}

/// The last line of an `EXPLAIN ANALYZE`: rows out and the statement's time.
fn execution_line(rows: usize, total: Duration) -> String {
    format!("execution: {rows} rows in {:.3}ms\n", total.as_secs_f64() * 1e3)
}

/// `EXPLAIN` text as its result: one `plan` row per non-blank line.
fn plan_rows(text: &str) -> DbResult<QueryResult> {
    let lines = text.lines().filter(|l| !l.trim().is_empty());
    Ok(QueryResult::rows(Batch::from_columns(vec![("plan", Column::from_strings(lines))])?))
}

/// Reorders a source batch to the target table's column positions,
/// padding unmentioned columns with NULL.
fn reorder_for_insert(table: &Table, column_map: &[usize], batch: Batch) -> DbResult<Batch> {
    let schema = table.schema();
    let identity =
        column_map.len() == schema.len() && column_map.iter().enumerate().all(|(i, &m)| i == m);
    if identity {
        return Ok(batch);
    }
    let n = batch.rows();
    let mut columns: Vec<Arc<Column>> = Vec::with_capacity(schema.len());
    for (dst, f) in schema.fields().iter().enumerate() {
        match column_map.iter().position(|&m| m == dst) {
            Some(src) => {
                let c = batch.column(src);
                let c =
                    if c.data_type() == f.dtype { c.as_ref().clone() } else { c.cast(f.dtype)? };
                columns.push(Arc::new(c));
            }
            None => columns.push(Arc::new(Column::nulls(f.dtype, n))),
        }
    }
    Batch::new(schema.clone(), columns)
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("tables", &self.catalog.table_names()).finish()
    }
}

/// Builds a `Field` list quickly in tests and loaders.
pub fn fields(defs: &[(&str, DataType)]) -> DbResult<Arc<Schema>> {
    Ok(Arc::new(Schema::new(defs.iter().map(|(n, t)| Field::new(*n, *t)).collect())?))
}

/// Strips a leading SQL keyword (case-insensitive, must be followed by
/// whitespace) and returns the remainder, or `None` if absent.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let head = s.get(..kw.len())?;
    if !head.eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    if rest.starts_with(char::is_whitespace) {
        Some(rest)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scalar subquery runs under the statement's deadline: an expired
    /// one stops it at its own first operator, and the error says so.
    #[test]
    fn a_scalar_subquery_runs_under_the_statement_deadline() {
        let db = db();
        match db.execute_with_timeout("SELECT (SELECT COUNT(*) FROM t)", Duration::ZERO) {
            Err(DbError::Timeout { path }) => assert_eq!(path, "$subquery0/project"),
            other => panic!("expected a timeout in the subquery, got {other:?}"),
        }
    }

    /// Value `i` of a low-cardinality sample of `dtype`, NULL every fourth
    /// row counting from `skew`.
    fn sample(dtype: DataType, i: usize, skew: usize) -> Value {
        if (i + skew).is_multiple_of(4) {
            return Value::Null;
        }
        let k = (i + skew) % 5;
        match dtype {
            DataType::Boolean => Value::Boolean(k.is_multiple_of(2)),
            DataType::Int8 => Value::Int8(k as i8 - 2),
            DataType::Int16 => Value::Int16(k as i16 * 300),
            DataType::Int32 => Value::Int32(k as i32 * 70_000),
            DataType::Int64 => Value::Int64(k as i64 * 5_000_000_000),
            DataType::Float32 => Value::Float32(k as f32 * 0.25),
            DataType::Float64 => Value::Float64(k as f64 * -1.5),
            DataType::Varchar => Value::Varchar(format!("v{k}")),
            DataType::Blob => Value::Blob(vec![k as u8; k]),
        }
    }

    /// [`assign`] gives what the per-`Value` loop it replaced gave, for every
    /// type: NULLs among the old and the new values, a plain and a
    /// dictionary-encoded old column, new values row for row and a
    /// broadcast constant (NULL or not), and any selection.
    #[test]
    fn assign_matches_the_per_value_update() {
        use crate::column::{ColumnBuilder, Encoding};
        let n = 23;
        let selections: [Vec<u32>; 3] =
            [Vec::new(), (0..n as u32).collect(), (0..n as u32).filter(|i| i % 3 != 1).collect()];
        for dtype in [
            DataType::Boolean,
            DataType::Int8,
            DataType::Int16,
            DataType::Int32,
            DataType::Int64,
            DataType::Float32,
            DataType::Float64,
            DataType::Varchar,
            DataType::Blob,
        ] {
            let column = |len: usize, skew: usize| {
                let values: Vec<Value> = (0..len).map(|i| sample(dtype, i, skew)).collect();
                Column::from_values(dtype, &values).unwrap()
            };
            let plain = column(n, 0);
            let dict = plain.encode(Encoding::Dict);
            assert_eq!(dict.encoding(), Encoding::Dict);
            for old in [&plain, &dict] {
                for new in [column(n, 1), column(1, 2), column(1, 3)] {
                    for selected in &selections {
                        let got = assign(old, &new, selected).unwrap();
                        let mut want = ColumnBuilder::new(dtype);
                        for i in 0..n {
                            let v = match selected.contains(&(i as u32)) {
                                true => new.value(if new.len() == 1 { 0 } else { i }),
                                false => old.value(i),
                            };
                            want.push_value(&v).unwrap();
                        }
                        let want = want.finish();
                        assert_eq!(got.data_type(), dtype);
                        assert_eq!(got.len(), n);
                        for i in 0..n {
                            assert_eq!(got.value(i), want.value(i), "{dtype} row {i}");
                        }
                    }
                }
            }
        }
        let short = Column::from_i32s(vec![1, 2]);
        assert!(assign(&Column::from_i32s(vec![1, 2, 3]), &short, &[0]).is_err());
    }

    fn db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)").unwrap();
        db.execute(
            "INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', 1.5), (3, 'x', 2.5), (NULL, 'z', NULL)",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = db();
        let r = db.query("SELECT a, b FROM t WHERE a >= 2").unwrap();
        assert_eq!(r.rows(), 2);
        assert_eq!(r.row(0), vec![Value::Int32(2), Value::Varchar("y".into())]);
    }

    #[test]
    fn select_star_and_aliases() {
        let db = db();
        let r = db.query("SELECT * FROM t").unwrap();
        assert_eq!(r.width(), 3);
        assert_eq!(r.rows(), 4);
        let r = db.query("SELECT a AS x, a + 1 AS y FROM t WHERE a = 1").unwrap();
        assert_eq!(r.schema().names(), vec!["x", "y"]);
        assert_eq!(r.row(0)[1], Value::Int64(2));
    }

    #[test]
    fn aggregation_via_sql() {
        let db = db();
        let r =
            db.query("SELECT b, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY b ORDER BY b").unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(r.row(0), vec!["x".into(), Value::Int64(2), Value::Int64(4)]);
        assert_eq!(r.row(2), vec!["z".into(), Value::Int64(1), Value::Null]);
    }

    #[test]
    fn ungrouped_aggregates() {
        let db = db();
        assert_eq!(db.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(4));
        assert_eq!(db.query_value("SELECT COUNT(a) FROM t").unwrap(), Value::Int64(3));
        assert_eq!(db.query_value("SELECT AVG(c) FROM t").unwrap(), Value::Float64(1.5));
        assert_eq!(db.query_value("SELECT MIN(b) FROM t").unwrap(), Value::Varchar("x".into()));
    }

    #[test]
    fn having_filters_groups() {
        let db = db();
        let r = db.query("SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1").unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.row(0)[0], Value::Varchar("x".into()));
    }

    #[test]
    fn join_via_sql() {
        let db = db();
        db.execute("CREATE TABLE u (b VARCHAR, score INTEGER)").unwrap();
        db.execute("INSERT INTO u VALUES ('x', 10), ('y', 20)").unwrap();
        let r = db.query("SELECT t.a, u.score FROM t JOIN u ON t.b = u.b ORDER BY t.a").unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(r.row(2), vec![Value::Int32(3), Value::Int32(10)]);
        let r = db
            .query("SELECT t.a, u.score FROM t LEFT JOIN u ON t.b = u.b WHERE t.b = 'z'")
            .unwrap();
        assert_eq!(r.rows(), 1);
        assert!(r.row(0)[1].is_null());
    }

    #[test]
    fn order_limit_offset() {
        let db = db();
        let r = db.query("SELECT a FROM t ORDER BY a DESC LIMIT 2").unwrap();
        // NULLs first under DESC.
        assert!(r.row(0)[0].is_null());
        assert_eq!(r.row(1)[0], Value::Int32(3));
        let r = db.query("SELECT a FROM t ORDER BY 1 ASC LIMIT 2 OFFSET 1").unwrap();
        assert_eq!(r.row(0)[0], Value::Int32(2));
    }

    #[test]
    fn distinct_and_union() {
        let db = db();
        let r = db.query("SELECT DISTINCT b FROM t").unwrap();
        assert_eq!(r.rows(), 3);
        let r = db.query("SELECT 1 AS v UNION ALL SELECT 2 UNION ALL SELECT 1").unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(r.schema().names(), vec!["v"]);
    }

    #[test]
    fn union_coerces_types() {
        let db = db();
        let r = db.query("SELECT 1 AS v UNION ALL SELECT 2.5").unwrap();
        assert_eq!(r.column(0).data_type(), DataType::Float64);
        assert!(db.execute("SELECT 1 UNION ALL SELECT 'x'").is_err());
    }

    #[test]
    fn delete_and_update() {
        let db = db();
        let r = db.execute("DELETE FROM t WHERE a = 2").unwrap();
        assert_eq!(r.rows_affected(), 1);
        assert_eq!(db.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(3));
        let r = db.execute("UPDATE t SET c = c * 2 WHERE a = 1").unwrap();
        assert_eq!(r.rows_affected(), 1);
        assert_eq!(db.query_value("SELECT c FROM t WHERE a = 1").unwrap(), Value::Float64(1.0));
        // Unfiltered update touches all rows.
        let r = db.execute("UPDATE t SET b = 'w'").unwrap();
        assert_eq!(r.rows_affected(), 3);
        assert_eq!(db.query("SELECT DISTINCT b FROM t").unwrap().rows(), 1);
    }

    #[test]
    fn create_table_as_and_insert_select() {
        let db = db();
        db.execute("CREATE TABLE t2 AS SELECT a, c FROM t WHERE a IS NOT NULL").unwrap();
        assert_eq!(db.query_value("SELECT COUNT(*) FROM t2").unwrap(), Value::Int64(3));
        db.execute("INSERT INTO t2 SELECT a, c FROM t WHERE a = 1").unwrap();
        assert_eq!(db.query_value("SELECT COUNT(*) FROM t2").unwrap(), Value::Int64(4));
    }

    #[test]
    fn insert_with_column_list_pads_nulls() {
        let db = db();
        db.execute("INSERT INTO t (b) VALUES ('only-b')").unwrap();
        let r = db.query("SELECT a, b, c FROM t WHERE b = 'only-b'").unwrap();
        assert!(r.row(0)[0].is_null());
        assert!(r.row(0)[2].is_null());
    }

    #[test]
    fn scalar_subquery_in_predicate() {
        let db = db();
        let r = db.query("SELECT a FROM t WHERE c > (SELECT AVG(c) FROM t) ORDER BY a").unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.row(0)[0], Value::Int32(3));
    }

    #[test]
    fn derived_table() {
        let db = db();
        let r = db
            .query(
                "SELECT s.b, s.n FROM (SELECT b, COUNT(*) AS n FROM t GROUP BY b) s WHERE s.n > 1",
            )
            .unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.row(0)[1], Value::Int64(2));
    }

    #[test]
    fn select_without_from() {
        let db = Database::new();
        let r = db.query("SELECT 1 + 1 AS two, 'hi' AS s").unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.row(0), vec![Value::Int64(2), Value::Varchar("hi".into())]);
    }

    #[test]
    fn case_and_functions_in_sql() {
        let db = db();
        let r = db
            .query(
                "SELECT a, CASE WHEN a >= 2 THEN 'big' ELSE 'small' END AS size \
                 FROM t WHERE a IS NOT NULL ORDER BY a",
            )
            .unwrap();
        assert_eq!(r.row(0)[1], Value::Varchar("small".into()));
        assert_eq!(r.row(2)[1], Value::Varchar("big".into()));
        assert_eq!(db.query_value("SELECT ABS(-5)").unwrap(), Value::Int64(5));
        assert_eq!(
            db.query_value("SELECT UPPER('abc') || '!'").unwrap(),
            Value::Varchar("ABC!".into())
        );
    }

    #[test]
    fn show_tables_lists() {
        let db = db();
        let r = db.query("SHOW TABLES").unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.row(0)[0], Value::Varchar("t".into()));
        assert_eq!(r.row(0)[1], Value::Int64(4));
    }

    #[test]
    fn error_paths() {
        let db = db();
        assert!(matches!(
            db.execute("SELECT zzz FROM t"),
            Err(DbError::NotFound { kind: "column", .. })
        ));
        assert!(matches!(
            db.execute("SELECT * FROM missing"),
            Err(DbError::NotFound { kind: "table", .. })
        ));
        assert!(db.execute("SELECT a FROM t GROUP BY b").is_err());
        assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
        assert!(db.execute("CREATE TABLE t (x INT)").is_err());
        db.execute("CREATE TABLE IF NOT EXISTS t (x INT)").unwrap();
    }

    #[test]
    fn group_by_ordinal_and_alias() {
        let db = db();
        let r = db.query("SELECT b AS grp, COUNT(*) FROM t GROUP BY 1 ORDER BY 1").unwrap();
        assert_eq!(r.rows(), 3);
        let r = db.query("SELECT b AS grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp").unwrap();
        assert_eq!(r.rows(), 3);
    }

    #[test]
    fn group_expr_in_projection() {
        let db = db();
        let r = db
            .query("SELECT a % 2 AS parity, COUNT(*) AS n FROM t WHERE a IS NOT NULL GROUP BY a % 2 ORDER BY parity")
            .unwrap();
        assert_eq!(r.rows(), 2);
        assert_eq!(r.row(0)[1], Value::Int64(1)); // parity 0: {2}
        assert_eq!(r.row(1)[1], Value::Int64(2)); // parity 1: {1, 3}
    }

    #[test]
    fn execute_script_runs_all() {
        let db = Database::new();
        let r = db
            .execute_script(
                "CREATE TABLE s (x INT); INSERT INTO s VALUES (1), (2); SELECT SUM(x) FROM s",
            )
            .unwrap();
        assert_eq!(r.batch().column(0).value(0), Value::Int64(3));
    }

    #[test]
    fn explain_shows_optimized_plan() {
        let db = db();
        let r = db.query("EXPLAIN SELECT a FROM t WHERE a > 1 + 1 ORDER BY a LIMIT 3").unwrap();
        let text: Vec<String> =
            (0..r.rows()).map(|i| r.row(i)[0].as_str().unwrap().to_owned()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Limit"), "{joined}");
        assert!(joined.contains("Scan t"), "{joined}");
        // Constant folding happened: the predicate compares against 2.
        assert!(joined.contains("> 2"), "{joined}");
        assert!(!joined.contains("1 + 1"), "{joined}");
    }

    #[test]
    fn optimizer_preserves_results() {
        let db = db();
        db.execute("CREATE TABLE u (b VARCHAR, w INTEGER)").unwrap();
        db.execute("INSERT INTO u VALUES ('x', 1), ('y', 2)").unwrap();
        // Filter over join with per-side and cross-side conjuncts.
        let r = db
            .query(
                "SELECT t.a, u.w FROM t JOIN u ON t.b = u.b                  WHERE t.a > 0 AND u.w < 2 AND t.a <> u.w ORDER BY t.a",
            )
            .unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.row(0), vec![Value::Int32(3), Value::Int32(1)]);
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mlcs_durable_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_reopen_replays_every_statement_kind() {
        let dir = durable_dir("replay");
        {
            let (db, report) = Database::open_durable(&dir).unwrap();
            assert!(report.is_clean());
            assert!(db.is_durable());
            db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
            db.execute("DELETE FROM t WHERE a = 2").unwrap();
            db.execute("UPDATE t SET b = 'w' WHERE a = 3").unwrap();
            db.execute("CREATE TABLE gone (x INT)").unwrap();
            db.execute("DROP TABLE gone").unwrap();
            db.execute("CREATE TABLE t2 AS SELECT a FROM t").unwrap();
            db.execute("INSERT INTO t2 SELECT a + 10 FROM t").unwrap();
        } // no checkpoint: everything must come back from the log alone
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.replayed_records >= 8);
        assert_eq!(db.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(2));
        assert_eq!(
            db.query_value("SELECT b FROM t WHERE a = 3").unwrap(),
            Value::Varchar("w".into())
        );
        assert_eq!(db.query_value("SELECT SUM(a) FROM t2").unwrap(), Value::Int64(28));
        assert!(!db.catalog().has_table("gone"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_reopen_needs_no_data_replay() {
        let dir = durable_dir("ckpt_sql");
        {
            let (db, _) = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE t (v BIGINT)").unwrap();
            db.execute("INSERT INTO t VALUES (41), (1)").unwrap();
            db.execute("CHECKPOINT").unwrap();
            // Post-checkpoint traffic lands in the fresh log.
            db.execute("INSERT INTO t VALUES (100)").unwrap();
        }
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        // Marker + one post-checkpoint insert; the first two statements
        // came back from pages.
        assert_eq!(report.replayed_records, 2, "{report:?}");
        assert_eq!(db.query_value("SELECT SUM(v) FROM t").unwrap(), Value::Int64(142));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_durable_database() {
        let db = db();
        assert!(matches!(db.execute("CHECKPOINT"), Err(DbError::Unsupported(_))));
        assert!(!db.is_durable());
    }

    #[test]
    fn save_statement_snapshots_to_directory() {
        let dir = durable_dir("save_stmt");
        let snap = durable_dir("save_stmt_snap");
        let db = db();
        db.execute(&format!("SAVE '{}'", snap.display())).unwrap();
        let restored = Database::new();
        crate::persist::load_database(&restored, &snap).unwrap();
        assert_eq!(restored.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(4));
        // On a durable database SAVE checkpoints first, so saving into the
        // durable directory itself stays reopenable.
        let (ddb, _) = Database::open_durable(&dir).unwrap();
        ddb.execute("CREATE TABLE u (x INT)").unwrap();
        ddb.execute("INSERT INTO u VALUES (5)").unwrap();
        ddb.execute(&format!("SAVE '{}'", dir.display())).unwrap();
        drop(ddb);
        let (back, report) = Database::open_durable(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(back.query_value("SELECT x FROM u").unwrap(), Value::Int32(5));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&snap).unwrap();
    }

    #[test]
    fn blob_round_trip_via_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE m (id INT, body BLOB)").unwrap();
        db.execute("INSERT INTO m VALUES (1, x'DEADBEEF')").unwrap();
        let v = db.query_value("SELECT body FROM m WHERE id = 1").unwrap();
        assert_eq!(v, Value::Blob(vec![0xDE, 0xAD, 0xBE, 0xEF]));
        assert_eq!(db.query_value("SELECT OCTET_LENGTH(body) FROM m").unwrap(), Value::Int64(4));
    }
}
