//! The one mutation path: every statement that changes a table or the
//! catalog commits through [`Database::commit`], logged first on a durable
//! database.

use super::handle::{Database, QueryResult, StatementKind};
use crate::batch::Batch;
use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::expr::{eval, eval_predicate, EvalContext, Expr};
use crate::parallel::locks::RwLock;
use crate::sql::estimate;
use crate::sql::execute::{ExecOptions, PlanTrace};
use crate::sql::plan::{BoundStatement, LogicalPlan};
use crate::table::Table;
use crate::types::Value;
use crate::wal::{self, Wal, WalOp};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
pub(super) struct Durability {
    wal: Wal,
    dir: PathBuf,
    fence: RwLock<()>,
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

impl Database {
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
            fence: RwLock::new(()),
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
    pub(super) fn durable(&self) -> Option<Arc<Durability>> {
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

    /// Runs a `CREATE TABLE … AS` or `INSERT … SELECT`: optimizes and
    /// executes its query (traced when `trace` is given), then commits the
    /// result, which builds or appends to the table.
    pub(super) fn run_build(
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

    /// Commits a `DELETE` or `UPDATE`: evaluates its scalar subqueries,
    /// then `derive` turns the table, a context evaluating over its rows,
    /// and the rows its `WHERE` selects (all of them without one, in
    /// order) into the statement's ops and affected-row count.
    fn commit_where(
        &self,
        table: &str,
        filter: Option<&Expr>,
        subs: &[LogicalPlan],
        opts: &ExecOptions,
        derive: impl FnOnce(&Table, &EvalContext<'_>, Vec<u32>) -> DbResult<(Vec<WalOp>, usize)>,
    ) -> DbResult<QueryResult> {
        // Bound afresh each time: this is the subqueries' one check.
        crate::verify::verify_query(None, subs, &self.functions)?;
        let params = self.exec(opts, None).evaluate_scalar_subqueries(subs)?;
        self.commit(StatementKind::Dml, table, |t| {
            let t = target(t, table)?;
            let snapshot = t.scan();
            let ctx = EvalContext {
                params: &params,
                ..EvalContext::new(&snapshot, Some(&self.functions))
            };
            let selected = match filter {
                Some(pred) => eval_predicate(&ctx, pred)?,
                None => (0..snapshot.rows() as u32).collect(),
            };
            derive(t, &ctx, selected)
        })
    }

    /// Runs a statement that changes a table or the catalog.
    pub(super) fn run_mutation(
        &self,
        bound: BoundStatement,
        opts: &ExecOptions,
    ) -> DbResult<QueryResult> {
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
            BoundStatement::Delete { table, filter, scalar_subs } => self.commit_where(
                &table,
                filter.as_ref(),
                &scalar_subs,
                opts,
                |_, ctx, selected| {
                    let rows = ctx.batch.rows();
                    let mut keep = vec![true; rows];
                    for i in selected {
                        keep[i as usize] = false;
                    }
                    let keep: Vec<u32> = (0..rows as u32).filter(|&i| keep[i as usize]).collect();
                    let removed = rows - keep.len();
                    Ok((vec![WalOp::Retain { table: table.clone(), keep }], removed))
                },
            ),
            BoundStatement::Update { table, assignments, filter, scalar_subs } => {
                self.commit_where(
                    &table,
                    filter.as_ref(),
                    &scalar_subs,
                    opts,
                    |t, ctx, selected| {
                        // One op per assigned column, one record for the whole
                        // statement: multi-column updates replay atomically.
                        let mut ops = Vec::with_capacity(assignments.len());
                        for (col_idx, expr) in assignments {
                            let dtype = t.schema().field(col_idx).dtype;
                            let new = eval(ctx, &expr)?;
                            let new = if new.data_type() == dtype {
                                new
                            } else {
                                Cow::Owned(new.cast(dtype)?)
                            };
                            let column =
                                Arc::new(assign(ctx.batch.column(col_idx), &new, &selected)?);
                            ops.push(WalOp::ReplaceColumn {
                                table: table.clone(),
                                col_idx,
                                column,
                            });
                        }
                        Ok((ops, selected.len()))
                    },
                )
            }
            BoundStatement::Checkpoint => {
                self.checkpoint()?;
                Ok(QueryResult::no_rows(StatementKind::Ddl, 0))
            }
            BoundStatement::Save { path } => {
                crate::persist::save_database(self, Path::new(&path))?;
                Ok(QueryResult::no_rows(StatementKind::Ddl, 0))
            }
            _ => Err(DbError::internal("run_mutation takes a statement that changes data")),
        }
    }
}

/// The table a DML statement bound against, unless it was dropped since.
fn target<'a>(table: Option<&'a Table>, name: &str) -> DbResult<&'a Table> {
    table.ok_or_else(|| DbError::NotFound { kind: "table", name: name.to_owned() })
}

/// An UPDATE's new column: `old` with each selected row's value replaced
/// by `new`'s at that row, or by its one row when `new` is a constant. One
/// typed extend of the old column by the new values, then one gather in
/// which a selected row's position points at its new value.
pub(super) fn assign(old: &Column, new: &Column, selected: &[u32]) -> DbResult<Column> {
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
pub(super) struct Built {
    pub(super) result: QueryResult,
    pub(super) plan: Box<LogicalPlan>,
    pub(super) subs: Vec<LogicalPlan>,
    pub(super) table: String,
    pub(super) build: Duration,
    pub(super) shape: (usize, usize),
    pub(super) skipped: bool,
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
