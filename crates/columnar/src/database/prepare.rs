//! Preparing and running a statement: parse → bind → optimize → verify,
//! the plan cache that skips all four for a repeated query, and the run
//! of a prepared plan with its scalar subqueries.

use super::handle::{Database, QueryResult};
use crate::batch::Batch;
use crate::column::Column;
use crate::error::DbResult;
use crate::sql::binder::bind;
use crate::sql::estimate;
use crate::sql::execute::{Exec, ExecOptions, PlanTrace};
use crate::sql::optimizer::{optimize_with_stats, CostOutcome};
use crate::sql::parser::parse;
use crate::sql::plan::{BoundStatement, LogicalPlan};
use crate::sql::plan_cache::{CacheStamp, CachedQuery};
use std::sync::Arc;
use std::time::Instant;

impl Database {
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
    pub(super) fn prepare(&self, plan: LogicalPlan, subs: &[LogicalPlan]) -> DbResult<CostOutcome> {
        let outcome = optimize_with_stats(plan, &self.catalog, self.stats_enabled())?;
        crate::verify::verify_query(Some(&outcome.plan), subs, &self.functions)?;
        Ok(outcome)
    }

    /// Runs a prepared plan: evaluates its scalar subqueries fresh (their
    /// values depend on current data) and executes the plan with them as
    /// parameters. The plan is only read, so a cached one runs where it
    /// stands.
    pub(super) fn run_plan(
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
    pub(super) fn exec<'a>(
        &'a self,
        opts: &'a ExecOptions,
        trace: Option<&'a PlanTrace>,
    ) -> Exec<'a> {
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
    pub(super) fn run_query_fresh(
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
    pub(super) fn analyze_probe(
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

    /// Runs a bound statement. `probe` is the cached plan an `EXPLAIN
    /// ANALYZE` of a query would run (see [`Self::analyze_probe`]).
    pub(super) fn run_bound_probe(
        &self,
        bound: BoundStatement,
        opts: &ExecOptions,
        probe: Option<Arc<CachedQuery>>,
    ) -> DbResult<QueryResult> {
        let catalog = &self.catalog;
        match bound {
            BoundStatement::Query { plan, scalar_subs } => {
                let plan = self.prepare(plan, &scalar_subs)?.plan;
                Ok(QueryResult::rows(self.run_plan(&plan, &scalar_subs, opts, None)?))
            }
            explain @ (BoundStatement::Explain { .. } | BoundStatement::ExplainBuild(_)) => {
                self.run_explain(explain, opts, probe)
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
                let (scalar, table) = self.functions.names();
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
            mutation => self.run_mutation(mutation, opts),
        }
    }

    /// Whether any recorded table row count has drifted far enough —
    /// 2× growth, 2× shrink, or first rows into a table optimized empty —
    /// that a cost-based plan choice (join order, build side) made at
    /// those counts should be revisited. Missing tables do not count as
    /// drift: the generation stamp already invalidates on DDL.
    pub(super) fn stats_drifted(&self, recorded: &[(String, u64)]) -> bool {
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
