//! `EXPLAIN` and `EXPLAIN ANALYZE`: the prepared plan's text, annotated
//! with what the executor may do or, under `ANALYZE`, with what it did.

use super::handle::{Database, QueryResult};
use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::column::{Column, Encoding};
use crate::error::{DbError, DbResult};
use crate::expr::fuse;
use crate::sql::estimate;
use crate::sql::execute::{parallel_eligible, ExecOptions, PlanTrace};
use crate::sql::plan::{BoundStatement, LogicalPlan};
use crate::sql::plan_cache::CachedQuery;
use crate::udf::FunctionRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Database {
    /// Runs an `EXPLAIN` or `EXPLAIN ANALYZE`. `probe` is the cached plan
    /// the analyzed query would hit, if any.
    pub(super) fn run_explain(
        &self,
        bound: BoundStatement,
        opts: &ExecOptions,
        probe: Option<Arc<CachedQuery>>,
    ) -> DbResult<QueryResult> {
        let catalog = &self.catalog;
        let functions = &self.functions;
        match bound {
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
            _ => Err(DbError::internal("run_explain takes an EXPLAIN")),
        }
    }
}

/// The static `EXPLAIN` annotation for one plan node: `[parallel]` where
/// the executor is eligible to run the operator in parallel (the row
/// threshold still decides at run time), `[fused]` on filters whose
/// predicate has a fusible shape (the kernel compiler may still bail per
/// batch, e.g. on a cross-family comparison), and `[dict]` / `[rle]` on
/// scans of tables that currently hold encoded columns. `EXPLAIN ANALYZE`
/// reports what actually ran; this reports what the executor is eligible
/// to do.
fn explain_annotation(
    plan: &LogicalPlan,
    functions: &FunctionRegistry,
    catalog: &Catalog,
) -> Option<String> {
    let mut ann = String::new();
    if parallel_eligible(plan, functions) {
        ann.push_str(" [parallel]");
    }
    match plan {
        LogicalPlan::Filter { predicate, .. } if fuse::fusible(predicate) => {
            ann.push_str(" [fused]");
        }
        LogicalPlan::Scan { table, .. } => {
            if let Ok(t) = catalog.table(table) {
                let batch = t.read().scan();
                let encodings: Vec<_> = batch.columns().iter().map(|c| c.encoding()).collect();
                if encodings.contains(&Encoding::Dict) {
                    ann.push_str(" [dict]");
                }
                if encodings.contains(&Encoding::Rle) {
                    ann.push_str(" [rle]");
                }
            }
        }
        _ => {}
    }
    (!ann.is_empty()).then_some(ann)
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
