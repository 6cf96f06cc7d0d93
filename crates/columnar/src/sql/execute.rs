//! Plan execution: turns a bound [`LogicalPlan`] into a [`Batch`].

use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::column::{Column, Encoding};
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::expr::{eval_shared, EvalContext, Expr};
use crate::metrics;
use crate::parallel::locks::Mutex;
use crate::parallel::{effective_threads, DEFAULT_MORSEL_ROWS};
use crate::schema::{Field, Schema};
use crate::sql::estimate;
use crate::sql::plan::{BoundTableArg, LogicalPlan, PlanAgg};
use crate::udf::FunctionRegistry;
use crate::verify::{expr_parallel_safe, exprs_parallel_safe};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input rows below which operators stay serial by default: morsel
/// scheduling overhead swamps the win on small batches.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 32 * 1024;

/// Divisor applied to the parallel threshold for heavy operators (hash
/// join, hash aggregate, sort). Per-row cost there is several times a
/// filter/project's, so the morsel-scheduling overhead amortizes at a
/// proportionally smaller input: with the default 32K threshold these
/// operators go parallel at 8K rows. Plan-time cardinality estimates
/// (see [`crate::sql::estimate`]) pick the operator shapes; this runtime
/// gate still keys off actual input rows so estimation error can never
/// serialize a genuinely large input.
pub const HEAVY_OP_DIVISOR: usize = 4;

/// Knobs controlling parallel execution of a plan.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Worker count including the calling thread; `0` resolves to the
    /// hardware thread count (or the `MLCS_THREADS` override).
    pub threads: usize,
    /// Minimum operator input rows before the parallel path engages.
    pub parallel_threshold: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
    /// Wall-clock deadline for the whole statement. Checked at every
    /// operator (batch) boundary and inside every parallel operator at
    /// morsel boundaries; expiry surfaces as [`DbError::Timeout`] carrying
    /// the operator path that observed it.
    pub deadline: Option<Instant>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            threads: 0,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            deadline: None,
        }
    }
}

impl ExecOptions {
    /// Options that always take the serial path.
    pub fn serial() -> ExecOptions {
        ExecOptions {
            threads: 1,
            parallel_threshold: usize::MAX,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            deadline: None,
        }
    }

    /// These options with the statement deadline set `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> ExecOptions {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// These options with the parallel threshold lowered for a heavy
    /// operator (join/aggregate/sort) — see [`HEAVY_OP_DIVISOR`]. A
    /// serial policy (`usize::MAX`) stays effectively serial, and a
    /// forced-parallel threshold of 1 stays 1 (`Parallelism::enabled`
    /// clamps the threshold to at least 1).
    fn for_heavy(&self) -> ExecOptions {
        ExecOptions { parallel_threshold: self.parallel_threshold / HEAVY_OP_DIVISOR, ..*self }
    }

    /// The operator-level policy under these options, given whether every
    /// expression the operator evaluates is parallel-safe. The deadline is
    /// carried into the policy even on the serial path so morsel-level
    /// checks stay active wherever the operator ends up running.
    fn parallelism(&self, safe: bool) -> exec::Parallelism {
        if !safe {
            return exec::Parallelism { deadline: self.deadline, ..exec::Parallelism::serial() };
        }
        exec::Parallelism {
            threads: effective_threads(self.threads),
            threshold: self.parallel_threshold,
            morsel_rows: self.morsel_rows.max(1),
            deadline: self.deadline,
        }
    }
}

/// Whether the executor may run `plan`'s operator on several threads:
/// the operator has a parallel path and every expression it evaluates is
/// parallel-safe (see [`crate::verify::expr_parallel_safe`]); the row
/// threshold still decides at run time. `EXPLAIN` prints it as
/// `[parallel]`.
pub(crate) fn parallel_eligible(plan: &LogicalPlan, functions: &FunctionRegistry) -> bool {
    match plan {
        LogicalPlan::Filter { predicate, .. } => expr_parallel_safe(predicate, functions),
        // Bare column references pass through whole; only computed
        // expressions run per morsel.
        LogicalPlan::Project { exprs, .. } => {
            exprs.iter().any(|e| !matches!(e, Expr::Column(_)))
                && exprs_parallel_safe(exprs, functions)
        }
        LogicalPlan::Join { join_type, residual, .. } => {
            *join_type != exec::JoinType::Cross
                && residual.as_ref().is_none_or(|r| expr_parallel_safe(r, functions))
        }
        // The hash aggregate reads only its materialized pre-batch, but an
        // unsafe group key or argument keeps the whole operator serial.
        LogicalPlan::Aggregate { group, aggs, .. } => {
            aggs.iter().all(|a| !a.distinct)
                && exprs_parallel_safe(group, functions)
                && aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .all(|e| expr_parallel_safe(e, functions))
        }
        LogicalPlan::Sort { keys, .. } => !keys.is_empty(),
        LogicalPlan::Distinct { .. } => true,
        _ => false,
    }
}

/// Runtime statistics observed for one plan operator during a traced
/// (`EXPLAIN ANALYZE`) execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Total rows fed into the operator (sum of its inputs' output rows;
    /// zero for leaves).
    pub rows_in: usize,
    /// Rows the operator produced.
    pub rows_out: usize,
    /// Wall time including the operator's inputs (inclusive time, as in
    /// `EXPLAIN ANALYZE` elsewhere); per-morsel work is folded in because
    /// the caller blocks until every morsel finishes.
    pub elapsed: Duration,
    /// Whether the parallel path actually engaged (threshold met, workers
    /// available, expressions safe).
    pub parallel: bool,
    /// Whether a fused predicate kernel ran (filters only).
    pub fused: bool,
    /// Whether the operator saw dictionary-encoded input columns.
    pub dict: bool,
    /// Whether the operator saw run-length-encoded input columns.
    pub rle: bool,
    /// The optimizer's estimated output cardinality for this node, when
    /// column statistics were available at plan time (see
    /// [`crate::sql::estimate`]). Shown as `est=N` so estimation error is
    /// visible next to actual rows.
    pub est: Option<u64>,
}

/// Per-node statistics collected while executing a plan, keyed by node
/// identity. Populated by a traced execution (`EXPLAIN ANALYZE`); the
/// plan value must not move between execution and
/// [`PlanTrace::annotation`] lookups.
#[derive(Debug, Default)]
pub struct PlanTrace {
    nodes: Mutex<HashMap<usize, NodeStats>>,
    /// Plan-time cardinality estimates keyed like `nodes` (node address),
    /// installed via [`PlanTrace::set_estimates`] before execution.
    ests: Mutex<HashMap<usize, u64>>,
}

impl PlanTrace {
    /// An empty trace.
    pub fn new() -> PlanTrace {
        PlanTrace::default()
    }

    fn key(plan: &LogicalPlan) -> usize {
        plan as *const LogicalPlan as usize
    }

    /// Installs plan-time cardinality estimates (from
    /// [`crate::sql::estimate::estimate_map`] over the same plan value)
    /// so `EXPLAIN ANALYZE` can print `est=N` next to actual rows.
    pub fn set_estimates(&self, estimates: HashMap<usize, u64>) {
        *self.ests.lock() = estimates;
    }

    fn est_for(&self, key: usize) -> Option<u64> {
        self.ests.lock().get(&key).copied()
    }

    fn record(&self, plan: &LogicalPlan, mut stats: NodeStats) {
        let key = Self::key(plan);
        stats.est = self.est_for(key);
        self.nodes.lock().insert(key, stats);
    }

    /// The statistics recorded for `plan`'s node, if it executed.
    pub fn get(&self, plan: &LogicalPlan) -> Option<NodeStats> {
        self.nodes.lock().get(&Self::key(plan)).copied()
    }

    fn rows_out(&self, plan: &LogicalPlan) -> usize {
        self.get(plan).map(|s| s.rows_out).unwrap_or(0)
    }

    /// The `EXPLAIN ANALYZE` suffix for `plan`'s node, e.g.
    /// `" (rows=1000, in=32768, time=1.204ms) [parallel]"`. Returns `None`
    /// for nodes that never executed.
    pub fn annotation(&self, plan: &LogicalPlan) -> Option<String> {
        let s = self.get(plan)?;
        let mut out = format!(" (rows={}", s.rows_out);
        if let Some(e) = s.est {
            out.push_str(&format!(", est={e}"));
        }
        if !plan.children().is_empty() {
            out.push_str(&format!(", in={}", s.rows_in));
        }
        out.push_str(&format!(", time={})", format_duration(s.elapsed)));
        if s.parallel {
            out.push_str(" [parallel]");
        }
        if s.fused {
            out.push_str(" [fused]");
        }
        if s.dict {
            out.push_str(" [dict]");
        }
        if s.rle {
            out.push_str(" [rle]");
        }
        Some(out)
    }
}

/// Renders a duration for plan annotations: sub-second values in
/// milliseconds with microsecond precision, longer ones in seconds.
fn format_duration(d: Duration) -> String {
    if d < Duration::from_secs(1) {
        format!("{:.3}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.3}s", d.as_secs_f64())
    }
}

/// The lowercase metric segment for an operator, as used in the
/// `exec.<op>.rows` / `exec.<op>.time_ns` registry names.
fn metric_op(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "scan",
        LogicalPlan::UnitRow => "unit_row",
        LogicalPlan::TableFunction { .. } => "table_function",
        LogicalPlan::Filter { .. } => "filter",
        LogicalPlan::Project { .. } => "project",
        LogicalPlan::Join { .. } => "hash_join",
        LogicalPlan::Aggregate { .. } => "aggregate",
        LogicalPlan::Sort { .. } => "sort",
        LogicalPlan::Limit { .. } => "limit",
        LogicalPlan::Distinct { .. } => "distinct",
        LogicalPlan::UnionAll { .. } => "union_all",
    }
}

/// Executes a plan against the catalog and function registry with default
/// [`ExecOptions`] (parallel above the row threshold).
///
/// A plan run through here has no parameters: a scalar-subquery
/// placeholder in it is an internal error (a statement's subqueries are
/// evaluated by [`crate::Database`], which hands their values to the plan
/// as parameters). Debug builds verify the plan (see [`crate::verify`])
/// before running it, so plans reaching the executor from outside the
/// database are checked.
pub fn execute_plan(
    plan: &LogicalPlan,
    catalog: &Catalog,
    functions: &Arc<FunctionRegistry>,
) -> DbResult<Batch> {
    execute_plan_with(plan, catalog, functions, &ExecOptions::default())
}

/// [`execute_plan`] with explicit parallelism options.
pub fn execute_plan_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    functions: &Arc<FunctionRegistry>,
    opts: &ExecOptions,
) -> DbResult<Batch> {
    #[cfg(debug_assertions)]
    crate::verify::verify_plan(plan, functions)?;
    Exec { catalog, functions, opts, params: &[], trace: None }.run(plan)
}

/// One execution of a plan: the tables and UDFs it reads, how it runs,
/// the evaluated scalar subqueries its `Expr::Subquery` placeholders read,
/// and — under `EXPLAIN ANALYZE` — the trace it records per-node
/// statistics into. The plan itself is only ever read.
#[derive(Clone, Copy)]
pub(crate) struct Exec<'a> {
    pub catalog: &'a Catalog,
    pub functions: &'a Arc<FunctionRegistry>,
    pub opts: &'a ExecOptions,
    /// One one-row column per scalar subquery (see
    /// [`Exec::evaluate_scalar_subqueries`]).
    pub params: &'a [Arc<Column>],
    /// Keyed by node address: the same plan value must be used for later
    /// [`PlanTrace::annotation`] lookups.
    pub trace: Option<&'a PlanTrace>,
}

/// A batch plus an optional selection vector over it — the unit flowing
/// between pipeline-friendly operators (scan → filter → project/aggregate).
/// A filter records *which* rows survive without gathering them; the
/// consumer then gathers only the columns it actually touches (late
/// materialization). `sel` indices are strictly increasing row numbers
/// into `batch`; `None` means all rows.
struct ExecView {
    batch: Batch,
    sel: Option<Vec<u32>>,
}

impl ExecView {
    fn full(batch: Batch) -> ExecView {
        ExecView { batch, sel: None }
    }

    /// Logical row count (after the selection).
    fn rows(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.rows(), Vec::len)
    }

    /// Gathers the selected rows across all columns. A full selection is
    /// the identity (selections are increasing), so no gather happens.
    fn materialize(self) -> Batch {
        match self.sel {
            None => self.batch,
            Some(s) if s.len() == self.batch.rows() => self.batch,
            Some(s) => self.batch.take(&s),
        }
    }

    /// The late-materialization gather: only the columns in `cols`, only
    /// the selected rows. Dictionary columns gather codes, not values.
    fn gather(&self, cols: &[usize]) -> DbResult<Batch> {
        let narrow = self.batch.project(cols)?;
        Ok(match &self.sel {
            None => narrow,
            Some(s) if s.len() == self.batch.rows() => narrow,
            Some(s) => narrow.take(s),
        })
    }
}

/// Per-operator execution flags feeding [`NodeStats`] markers.
#[derive(Debug, Clone, Copy, Default)]
struct OpFlags {
    parallel: bool,
    fused: bool,
    dict: bool,
    rle: bool,
}

impl OpFlags {
    /// Flags with dict/rle derived from the columns of `b`.
    fn encodings(b: &Batch) -> OpFlags {
        OpFlags {
            dict: b.columns().iter().any(|c| c.encoding() == Encoding::Dict),
            rle: b.columns().iter().any(|c| c.encoding() == Encoding::Rle),
            ..OpFlags::default()
        }
    }
}

/// The sorted, deduplicated input columns referenced by `exprs`.
fn referenced(exprs: &[&Expr]) -> Vec<usize> {
    let mut refs = Vec::new();
    for e in exprs {
        e.referenced_columns(&mut refs);
    }
    refs.sort_unstable();
    refs.dedup();
    refs
}

/// The remap table sending original column index → position in `refs`
/// (for [`Expr::remap_columns`] after a [`ExecView::gather`]).
fn remap_table(refs: &[usize], width: usize) -> Vec<usize> {
    let mut map = vec![0usize; width];
    for (pos, &i) in refs.iter().enumerate() {
        map[i] = pos;
    }
    map
}

impl<'a> Exec<'a> {
    /// Evaluates a statement's scalar subqueries in order, serially under
    /// this execution's deadline, each with the values of those before it
    /// as its parameters (the binder lists a nested subquery before the one
    /// it is nested in). A subquery's value is the one-row column it
    /// returned — the same `Arc`, so fetching a stored model copies
    /// nothing — or a one-row NULL of its type when it returned no rows;
    /// more than one row or column is an error.
    pub(crate) fn evaluate_scalar_subqueries(
        &self,
        subs: &[LogicalPlan],
    ) -> DbResult<Vec<Arc<Column>>> {
        let opts = ExecOptions { deadline: self.opts.deadline, ..ExecOptions::serial() };
        let mut params: Vec<Arc<Column>> = Vec::with_capacity(subs.len());
        for (i, sub) in subs.iter().enumerate() {
            let batch =
                Exec { opts: &opts, params: &params, ..*self }.run(sub).map_err(|e| match e {
                    DbError::Timeout { path } => {
                        DbError::Timeout { path: format!("$subquery{i}/{path}") }
                    }
                    other => other,
                })?;
            if batch.width() != 1 {
                return Err(DbError::bind(format!(
                    "scalar subquery returned {} columns",
                    batch.width()
                )));
            }
            params.push(match batch.rows() {
                0 => Arc::new(Column::nulls(batch.column(0).data_type(), 1)),
                1 => batch.column(0).clone(),
                n => {
                    return Err(DbError::bind(format!(
                        "scalar subquery returned {n} rows; expected at most one"
                    )))
                }
            });
        }
        Ok(params)
    }

    /// Executes `plan`: [`Self::view`] with the output materialized, for
    /// operators (and entry points) that need a plain batch.
    pub(crate) fn run(&self, plan: &LogicalPlan) -> DbResult<Batch> {
        Ok(self.view(plan)?.materialize())
    }

    /// An evaluation context over `batch` with this execution's UDFs and
    /// parameters.
    fn ctx<'b>(&'b self, batch: &'b Batch) -> EvalContext<'b> {
        EvalContext { batch, functions: Some(self.functions.as_ref()), params: self.params }
    }

    /// The recursive executor, producing a view (possibly with a pending
    /// selection). Each node's output rows and inclusive wall time feed the
    /// `exec.<op>.rows` / `exec.<op>.time_ns` registry metrics, and — when
    /// tracing — the per-node [`PlanTrace`] used by `EXPLAIN ANALYZE`.
    fn view(&self, plan: &LogicalPlan) -> DbResult<ExecView> {
        let op = metric_op(plan);
        if let Some(d) = self.opts.deadline {
            if Instant::now() >= d {
                metrics::counter("exec.deadline_expired").incr();
                return Err(DbError::Timeout { path: op.to_owned() });
            }
        }
        let start = Instant::now();
        let (view, flags) = self.operator(plan).map_err(|e| match e {
            // Grow the operator path as the timeout unwinds: a morsel-level
            // check reports an empty path, the operator that observed it
            // contributes its name, and each ancestor prepends its own.
            DbError::Timeout { path } if path.is_empty() => {
                metrics::counter("exec.deadline_expired").incr();
                DbError::Timeout { path: op.to_owned() }
            }
            DbError::Timeout { path } => DbError::Timeout { path: format!("{op}/{path}") },
            other => other,
        })?;
        let elapsed = start.elapsed();
        metrics::counter(&format!("exec.{op}.rows")).add(view.rows() as u64);
        metrics::record_duration(&format!("exec.{op}.time_ns"), elapsed);
        if let Some(tr) = self.trace {
            let rows_in = plan.children().iter().map(|c| tr.rows_out(c)).sum();
            tr.record(
                plan,
                NodeStats {
                    rows_in,
                    rows_out: view.rows(),
                    elapsed,
                    parallel: flags.parallel,
                    fused: flags.fused,
                    dict: flags.dict,
                    rle: flags.rle,
                    est: None, // filled from the trace's estimate map in record()
                },
            );
        }
        Ok(view)
    }

    /// One operator's work: produces the node's output view and the flags
    /// describing which specialized paths engaged for it.
    fn operator(&self, plan: &LogicalPlan) -> DbResult<(ExecView, OpFlags)> {
        let Exec { catalog, functions, opts, .. } = *self;
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let b = catalog.table(table)?.read().scan();
                #[cfg(debug_assertions)]
                crate::verify::verify_batch_encodings(&b)?;
                let flags = OpFlags::encodings(&b);
                Ok((ExecView::full(b), flags))
            }
            LogicalPlan::UnitRow => Ok((ExecView::full(unit_batch()?), OpFlags::default())),
            LogicalPlan::TableFunction { name, args, schema } => {
                let udf = functions.table(name)?;
                let mut arg_cols: Vec<Arc<Column>> = Vec::new();
                for a in args {
                    match a {
                        BoundTableArg::Scalar(e) => {
                            arg_cols.push(eval_shared(&self.ctx(&unit_batch()?), e)?);
                        }
                        BoundTableArg::Plan(p) => {
                            let b = self.run(p)?;
                            arg_cols.extend(b.columns().iter().cloned());
                        }
                    }
                }
                metrics::counter(&format!("udf.{name}.invocations")).incr();
                metrics::counter("udf.table.invocations").incr();
                let out = udf.invoke(&arg_cols)?;
                Ok((ExecView::full(conform(out, schema.clone())?), OpFlags::default()))
            }
            LogicalPlan::Filter { input, predicate } => {
                let v = self.view(input)?;
                let par = opts.parallelism(parallel_eligible(plan, functions));
                let mut flags = OpFlags::encodings(&v.batch);
                // Produce a selection over the input batch; rows are gathered
                // only when a downstream operator needs them.
                let (sel, st) = match &v.sel {
                    None => exec::filter_sel(&self.ctx(&v.batch), predicate, par)?,
                    Some(prev) => {
                        // Stacked filters: evaluate over only the columns this
                        // predicate references, restricted to the surviving
                        // rows, then map back to input-batch row numbers.
                        let refs = referenced(&[predicate]);
                        let narrow = v.gather(&refs)?;
                        let mut pred = predicate.clone();
                        pred.remap_columns(&remap_table(&refs, v.batch.width()));
                        let (sub_sel, st) = exec::filter_sel(&self.ctx(&narrow), &pred, par)?;
                        (sub_sel.iter().map(|&i| prev[i as usize]).collect(), st)
                    }
                };
                flags.parallel = st.parallel;
                flags.fused = st.fused;
                Ok((ExecView { batch: v.batch, sel: Some(sel) }, flags))
            }
            LogicalPlan::Project { input, exprs, schema } => {
                let v = self.view(input)?;
                let par = opts.parallelism(parallel_eligible(plan, functions));
                let mut flags = OpFlags::encodings(&v.batch);
                let (out, ran_parallel) = self.project(&v, exprs, schema.clone(), par)?;
                flags.parallel = ran_parallel;
                Ok((ExecView::full(out), flags))
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema,
            } => {
                let l = self.run(left)?;
                let r = self.run(right)?;
                let eligible = parallel_eligible(plan, functions);
                let par = opts.for_heavy().parallelism(eligible);
                let (mut joined, ran_parallel) =
                    exec::hash_join(&l, &r, left_keys, right_keys, *join_type, *build_left, par)?;
                if let Some(pred) = residual {
                    let par = opts.parallelism(eligible);
                    joined = exec::filter(&self.ctx(&joined), pred, par)?;
                }
                let flags = OpFlags { parallel: ran_parallel, ..OpFlags::default() };
                Ok((ExecView::full(conform(joined, schema.clone())?), flags))
            }
            LogicalPlan::Aggregate { input, group, aggs, schema } => {
                let v = self.view(input)?;
                // Gather only the columns the group keys and aggregate
                // arguments reference (keeping one so COUNT(*) sees the row
                // count), then aggregate over the narrow batch.
                let mut expr_refs: Vec<&Expr> = group.iter().collect();
                expr_refs.extend(aggs.iter().filter_map(|a| a.arg.as_ref()));
                let mut refs = referenced(&expr_refs);
                if refs.is_empty() && v.batch.width() > 0 {
                    refs.push(0);
                }
                let mut flags = OpFlags::encodings(&v.batch);
                let narrow = v.gather(&refs)?;
                let map = remap_table(&refs, v.batch.width());
                let mut group = group.to_vec();
                for g in &mut group {
                    g.remap_columns(&map);
                }
                let mut aggs = aggs.to_vec();
                for a in &mut aggs {
                    if let Some(arg) = &mut a.arg {
                        arg.remap_columns(&map);
                    }
                }
                let par = opts.for_heavy().parallelism(parallel_eligible(plan, functions));
                // An ungrouped aggregate has one group: nothing to size.
                let groups = if group.is_empty() { 0 } else { self.estimated_groups(plan) };
                let (out, ran_parallel) =
                    self.aggregate(&narrow, &group, &aggs, schema.clone(), par, groups)?;
                flags.parallel = ran_parallel;
                Ok((ExecView::full(out), flags))
            }
            LogicalPlan::Sort { input, keys } => {
                let b = self.run(input)?;
                let keys: Vec<exec::SortKey> = keys
                    .iter()
                    .map(|k| exec::SortKey {
                        column: k.column,
                        ascending: k.ascending,
                        nulls_first: k.nulls_first,
                    })
                    .collect();
                let par = opts.for_heavy().parallelism(parallel_eligible(plan, functions));
                let (out, ran_parallel) = exec::sort(&b, &keys, par)?;
                let flags = OpFlags { parallel: ran_parallel, ..OpFlags::default() };
                Ok((ExecView::full(out), flags))
            }
            LogicalPlan::Limit { input, limit, offset } => {
                let b = self.run(input)?;
                Ok((ExecView::full(exec::limit(&b, *limit, *offset)), OpFlags::default()))
            }
            LogicalPlan::Distinct { input } => {
                // DISTINCT is a group-by on every column with no aggregates.
                let b = self.run(input)?;
                let keys: Vec<usize> = (0..b.width()).collect();
                let par = opts.for_heavy().parallelism(parallel_eligible(plan, functions));
                let groups = self.estimated_groups(plan);
                let (out, ran_parallel) = exec::hash_aggregate_sized(&b, &keys, &[], par, groups)?;
                let flags = OpFlags { parallel: ran_parallel, ..OpFlags::default() };
                Ok((ExecView::full(out), flags))
            }
            LogicalPlan::UnionAll { inputs, schema } => {
                let batches: Vec<Batch> = inputs
                    .iter()
                    .map(|p| self.run(p).and_then(|b| conform(b, schema.clone())))
                    .collect::<DbResult<_>>()?;
                Ok((ExecView::full(Batch::concat(&batches)?), OpFlags::default()))
            }
        }
    }
}

/// A one-row batch with a single hidden column, used to evaluate
/// expressions that reference no input (e.g. `SELECT 1`).
fn unit_batch() -> DbResult<Batch> {
    Batch::from_columns(vec![("__unit", Column::from_bools(vec![false]))])
}

impl Exec<'_> {
    /// The plan's estimate of the groups of `plan`, an aggregate or
    /// DISTINCT: what its tables are sized for (0 when there is none).
    fn estimated_groups(&self, plan: &LogicalPlan) -> usize {
        estimate::estimate_rows(plan, self.catalog)
            .map_or(0, |n| n.try_into().unwrap_or(usize::MAX))
    }

    /// Evaluates projection expressions over the view and labels the result
    /// with `schema`. A bare column reference of its output's type passes the
    /// input's own column on, whole: it is never sliced, evaluated or
    /// concatenated, so it keeps its encoding (a pending selection is the one
    /// gather it pays). Only computed expressions run per morsel, each morsel
    /// over its slice of the columns they reference, and their parts are
    /// concatenated in morsel order. Constants broadcast and results cast to
    /// the declared types. Also reports whether the morsel-parallel run
    /// engaged.
    fn project(
        &self,
        v: &ExecView,
        exprs: &[Expr],
        schema: Arc<Schema>,
        par: exec::Parallelism,
    ) -> DbResult<(Batch, bool)> {
        let input = v.batch.columns();
        let through: Vec<Option<usize>> = exprs
            .iter()
            .zip(schema.fields())
            .map(|(e, f)| match e {
                Expr::Column(i) if input.get(*i).is_some_and(|c| c.data_type() == f.dtype) => {
                    Some(*i)
                }
                _ => None,
            })
            .collect();
        let (computed, fields): (Vec<&Expr>, Vec<Field>) = exprs
            .iter()
            .zip(schema.fields())
            .zip(&through)
            .filter(|(_, t)| t.is_none())
            .map(|((e, f), _)| (e, f.clone()))
            .unzip();
        let mut parallel = false;
        let mut evaluated = Vec::new().into_iter();
        if !computed.is_empty() {
            // Gather only what the computed expressions reference (keeping at
            // least one column so constants still see the right row count).
            let mut refs = referenced(&computed);
            if refs.is_empty() && !input.is_empty() {
                refs.push(0);
            }
            let narrow = v.gather(&refs)?;
            let map = remap_table(&refs, input.len());
            let computed: Vec<Expr> = computed
                .into_iter()
                .map(|e| {
                    let mut e = e.clone();
                    e.remap_columns(&map);
                    e
                })
                .collect();
            let part_schema = Arc::new(Schema::new_unchecked(fields));
            parallel = par.enabled(narrow.rows());
            let parts = par.run_morsels(narrow.rows(), parallel, |m| {
                let slice = narrow.slice(m.start, m.len);
                let ctx = self.ctx(&slice);
                let mut columns = Vec::with_capacity(computed.len());
                for (e, f) in computed.iter().zip(part_schema.fields()) {
                    let c = eval_shared(&ctx, e)?;
                    let c = if c.len() == m.len { c } else { Arc::new(c.broadcast_to(m.len)?) };
                    columns.push(if c.data_type() == f.dtype {
                        c
                    } else {
                        Arc::new(c.cast(f.dtype)?)
                    });
                }
                Batch::new(part_schema.clone(), columns)
            })?;
            evaluated = Batch::concat(&parts)?.columns().to_vec().into_iter();
        }
        let passed: Vec<usize> = through.iter().flatten().copied().collect();
        let mut passed = v.gather(&passed)?.columns().to_vec().into_iter();
        let columns = through
            .iter()
            .map(|t| if t.is_some() { passed.next() } else { evaluated.next() })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                DbError::internal("projection produced fewer columns than its schema")
            })?;
        Ok((Batch::new(schema, columns)?, parallel))
    }

    /// Evaluates group and aggregate-argument expressions, runs the hash
    /// aggregate under `par`, and labels the output with the plan schema. A
    /// group key or argument that is a bare column is the input's own
    /// column, shared. Also reports whether the morsel-parallel aggregation
    /// engaged.
    fn aggregate(
        &self,
        input: &Batch,
        group: &[Expr],
        aggs: &[PlanAgg],
        schema: Arc<Schema>,
        par: exec::Parallelism,
        groups: usize,
    ) -> DbResult<(Batch, bool)> {
        let ctx = self.ctx(input);
        let n = input.rows();
        let shared = |e: &Expr| -> DbResult<Arc<Column>> {
            let c = eval_shared(&ctx, e)?;
            Ok(if c.len() == n { c } else { Arc::new(c.broadcast_to(n)?) })
        };
        // Pre-batch: group key columns first, then aggregate arguments.
        let mut fields = Vec::new();
        let mut pre_cols: Vec<Arc<Column>> = Vec::new();
        for (i, g) in group.iter().enumerate() {
            let c = shared(g)?;
            fields.push(Field::new(format!("g{i}"), c.data_type()));
            pre_cols.push(c);
        }
        let mut calls = Vec::with_capacity(aggs.len());
        for (i, a) in aggs.iter().enumerate() {
            let arg = match &a.arg {
                Some(e) => {
                    let c = shared(e)?;
                    fields.push(Field::new(format!("a{i}"), c.data_type()));
                    pre_cols.push(c);
                    Some(pre_cols.len() - 1)
                }
                None => None,
            };
            calls.push(exec::AggCall { func: a.func, arg, distinct: a.distinct });
        }
        if pre_cols.is_empty() {
            // COUNT(*)-only aggregation: no keys, no arguments. Carry a column
            // so the pre-batch still knows the input row count — the input's
            // first, shared, when it has one.
            let c = match input.columns().first() {
                Some(c) => c.clone(),
                None => Arc::new(Column::from_bools(vec![false; n])),
            };
            fields.push(Field::new("__rows", c.data_type()));
            pre_cols.push(c);
        }
        let pre = Batch::new(Arc::new(Schema::new_unchecked(fields)), pre_cols)?;
        let group_keys: Vec<usize> = (0..group.len()).collect();
        let (out, ran_parallel) =
            exec::hash_aggregate_sized(&pre, &group_keys, &calls, par, groups)?;
        Ok((conform(out, schema)?, ran_parallel))
    }
}

/// Relabels `batch` with `schema`, casting columns whose types differ.
pub fn conform(batch: Batch, schema: Arc<Schema>) -> DbResult<Batch> {
    if batch.width() != schema.len() {
        return Err(DbError::internal(format!(
            "plan schema has {} columns but execution produced {}",
            schema.len(),
            batch.width()
        )));
    }
    let mut columns = Vec::with_capacity(batch.width());
    for (c, f) in batch.columns().iter().zip(schema.fields()) {
        if c.data_type() == f.dtype {
            columns.push(c.clone());
        } else {
            columns.push(Arc::new(c.cast(f.dtype)?));
        }
    }
    Batch::new(schema, columns)
}
