//! A small rule-based plan optimizer.
//!
//! Three rewrites that matter for an operator-at-a-time engine, where
//! every operator materializes its full result:
//!
//! 1. **Constant folding** — column-free, UDF-free subexpressions are
//!    evaluated at plan time (`a < 2 + 3` → `a < 5`).
//! 2. **Filter fusion & elimination** — adjacent filters merge into one
//!    conjunction; literal-`TRUE` filters disappear (so the scan's
//!    zero-copy snapshot flows through untouched).
//! 3. **Predicate pushdown** — filters move below projections (when they
//!    only reference pass-through columns), below sorts and distincts,
//!    and into the matching side of inner joins, shrinking intermediate
//!    materializations as early as possible.
//!
//! The optimizer never sees a scalar subquery's value: a plan keeps its
//! subqueries as placeholders ([`Expr::Subquery`]), and each execution
//! hands it their values as parameters. A placeholder is opaque to
//! folding, so one optimized plan serves every execution.
//!
//! On top of the rule set, [`optimize_with_stats`] runs four **cost-based
//! passes** over the catalog's live column statistics (see
//! [`crate::stats`] and [`crate::sql::estimate`]):
//!
//! 1. **Aggregate-from-stats** — `COUNT(*)` / `COUNT(col)` / `MIN` /
//!    `MAX` over a bare scan collapse to a literal projection answered
//!    straight from the maintained statistics (never cached: the literals
//!    go stale on the next insert).
//! 2. **Conjunct ordering** — filter conjuncts over a scan are reordered
//!    most-selective-first so fused kernels see fewer survivors; only
//!    infallible predicate shapes are reordered.
//! 3. **Join reordering** — left-deep inner-join chains under
//!    order-insensitive consumers are reordered greedily by estimated
//!    cardinality, with a restoring projection keeping the output schema.
//! 4. **Build-side selection** — a hash join whose left input is
//!    estimated at half the right's cardinality or less builds on the
//!    left instead (the executor restores canonical row order).
//!
//! Last, on both the stats-on and the stats-off path, [`prune_columns`]
//! narrows the input of every join and sort to the columns its consumers
//! read. It must run after the passes above: they pattern-match bare
//! scans and join column positions, which its narrowing projections
//! change.
//!
//! Debug builds re-run the plan verifier after every pass.

use crate::catalog::Catalog;
use crate::column::Encoding;
use crate::error::DbResult;
use crate::exec::{AggFunc, JoinType};
use crate::expr::{fuse, BinaryOp, Expr, UnaryOp};
use crate::metrics;
use crate::schema::{Field, Schema};
use crate::sql::binder::eval_constant;
use crate::sql::estimate;
use crate::sql::plan::{LogicalPlan, PlanAgg};
use crate::stats::ColumnStats;
use crate::types::Value;
use crate::udf::FunctionRegistry;
use crate::verify::{expr_parallel_safe, exprs_parallel_safe};
use std::collections::HashSet;
use std::sync::Arc;

/// The `EXPLAIN` annotation for one plan node: `" [parallel]"` when the
/// executor is *eligible* to run the operator in parallel (every expression
/// it evaluates is parallel-safe); the row threshold still decides at run
/// time. Pass to [`LogicalPlan::display_with`].
pub fn parallel_annotation(plan: &LogicalPlan, functions: &FunctionRegistry) -> Option<String> {
    let eligible = match plan {
        LogicalPlan::Filter { predicate, .. } => expr_parallel_safe(predicate, functions),
        // Bare column references pass through whole; only computed
        // expressions run per morsel.
        LogicalPlan::Project { exprs, .. } => {
            exprs.iter().any(|e| !matches!(e, Expr::Column(_)))
                && exprs_parallel_safe(exprs, functions)
        }
        LogicalPlan::Join { join_type, residual, .. } => {
            *join_type != JoinType::Cross
                && residual.as_ref().map(|r| expr_parallel_safe(r, functions)).unwrap_or(true)
        }
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
    };
    eligible.then(|| " [parallel]".to_owned())
}

/// The full static `EXPLAIN` annotation: [`parallel_annotation`] plus the
/// compressed-execution markers — `[fused]` on filters whose predicate has
/// a fusible shape (the kernel compiler may still bail per batch, e.g. on
/// a cross-family comparison), and `[dict]` / `[rle]` on scans of tables
/// that currently hold encoded columns. `EXPLAIN ANALYZE` reports what
/// actually ran; this reports what the executor is eligible to do.
pub fn explain_annotation(
    plan: &LogicalPlan,
    functions: &FunctionRegistry,
    catalog: &crate::catalog::Catalog,
) -> Option<String> {
    let mut ann = parallel_annotation(plan, functions).unwrap_or_default();
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

/// Optimizes a plan (bottom-up, fixed small pass set).
///
/// Debug builds re-run the structural plan verifier after each rewrite
/// pass, so an optimizer bug that breaks schema propagation or column
/// bounds is caught here rather than downstream in the executor.
pub fn optimize(plan: LogicalPlan) -> DbResult<LogicalPlan> {
    let plan = rewrite(plan);
    #[cfg(debug_assertions)]
    crate::verify::verify_rewrite(&plan)?;
    Ok(plan)
}

/// The outcome of [`optimize_with_stats`]: the optimized plan, plus
/// whether any rewrite baked *data values* (not just plan structure) into
/// it. A `from_stats` plan must never be cached — its literals are a
/// snapshot of the table contents and go stale on the next write.
#[derive(Debug)]
pub struct CostOutcome {
    /// The optimized plan.
    pub plan: LogicalPlan,
    /// True when the aggregate-from-stats pass answered part of the query
    /// from column statistics.
    pub from_stats: bool,
}

/// [`optimize`] plus the cost-based passes over live column statistics.
///
/// With `use_stats` false (statistics disabled via
/// `MLCS_DISABLE_STATS` or [`crate::Database::set_stats_enabled`]) only
/// the rule-based rewrites run, so results can be compared bit-for-bit
/// against the cost-based plans. Either way [`prune_columns`] runs last.
pub fn optimize_with_stats(
    plan: LogicalPlan,
    catalog: &Catalog,
    use_stats: bool,
) -> DbResult<CostOutcome> {
    let plan = optimize(plan)?;
    if !use_stats {
        return pruned(plan, false);
    }
    let mut from_stats = false;
    let plan = collapse_stats_aggregates(plan, catalog, &mut from_stats);
    #[cfg(debug_assertions)]
    crate::verify::verify_rewrite(&plan)?;
    let plan = order_conjuncts(plan, catalog);
    #[cfg(debug_assertions)]
    crate::verify::verify_rewrite(&plan)?;
    let plan = reorder_joins(plan, catalog, false);
    #[cfg(debug_assertions)]
    crate::verify::verify_rewrite(&plan)?;
    let plan = choose_build_sides(plan, catalog);
    #[cfg(debug_assertions)]
    crate::verify::verify_rewrite(&plan)?;
    pruned(plan, from_stats)
}

/// The last pass of [`optimize_with_stats`] on either path: the passes
/// before it pattern-match bare scans and join positions, which the
/// narrowing projections it inserts would hide.
fn pruned(plan: LogicalPlan, from_stats: bool) -> DbResult<CostOutcome> {
    let plan = prune_columns(plan);
    #[cfg(debug_assertions)]
    crate::verify::verify_rewrite(&plan)?;
    Ok(CostOutcome { plan, from_stats })
}

/// Column pruning: a join or sort carries only the columns its consumers
/// read. The columns each operator needs flow top-down from the root,
/// which needs all of its own:
/// - a `Filter` adds its predicate's columns, a `Join` its keys and
///   residual, a `Sort` its keys;
/// - an `Aggregate` needs its group keys and arguments (`COUNT(*)` none),
///   a `Project` what its expressions reference;
/// - a `Distinct`, a `UnionAll` branch and a table function's plan
///   argument need every column they have.
///
/// Where the input of a `Join` or `Sort` carries more than it needs, a
/// bare-reference `Project` narrows it — free, since the executor passes
/// such columns on without copying — and every positional reference
/// above is remapped. A `Project` also drops the bare references no
/// consumer reads; computed expressions stay, since dropping one could
/// drop an error or a UDF call. Nothing is inserted under a `Filter`,
/// `Project` or `Aggregate`: they gather only the columns they reference.
/// Operators keep at least one column, so a consumer that reads none
/// (`COUNT(*)`) still sees the row count.
pub fn prune_columns(plan: LogicalPlan) -> LogicalPlan {
    let all: Vec<usize> = (0..plan.schema().len()).collect();
    prune(plan, &all).0
}

/// Prunes `plan` for a consumer that reads the output columns `need`
/// (sorted, distinct). Returns the new plan and, per output column of it,
/// the old output column it carries: a sorted superset of `need`.
fn prune(plan: LogicalPlan, need: &[usize]) -> (LogicalPlan, Vec<usize>) {
    match plan {
        LogicalPlan::Filter { input, mut predicate } => {
            let (input, kept) = prune(*input, &with_refs(need.to_vec(), [&predicate]));
            predicate.remap_columns(&positions(&kept));
            (LogicalPlan::Filter { input: Box::new(input), predicate }, kept)
        }
        LogicalPlan::Limit { input, limit, offset } => {
            let (input, kept) = prune(*input, need);
            (LogicalPlan::Limit { input: Box::new(input), limit, offset }, kept)
        }
        LogicalPlan::Sort { input, mut keys } => {
            let mut cols = need.to_vec();
            cols.extend(keys.iter().map(|k| k.column));
            let (input, kept) = narrowed(*input, &with_refs(cols, []));
            let map = positions(&kept);
            for k in &mut keys {
                k.column = map[k.column];
            }
            (LogicalPlan::Sort { input: Box::new(input), keys }, kept)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            mut left_keys,
            mut right_keys,
            mut residual,
            build_left,
            schema,
        } => {
            let lw = left.schema().len();
            let mut cols = need.to_vec();
            cols.extend(&left_keys);
            cols.extend(right_keys.iter().map(|k| k + lw));
            let cols = with_refs(cols, residual.as_ref());
            let split = cols.partition_point(|&c| c < lw);
            let right_need: Vec<usize> = cols[split..].iter().map(|c| c - lw).collect();
            let (left, left_kept) = narrowed(*left, &cols[..split]);
            let (right, right_kept) = narrowed(*right, &right_need);
            let map = positions(&left_kept);
            for k in &mut left_keys {
                *k = map[*k];
            }
            let map = positions(&right_kept);
            for k in &mut right_keys {
                *k = map[*k];
            }
            let kept: Vec<usize> =
                left_kept.iter().copied().chain(right_kept.iter().map(|c| c + lw)).collect();
            if let Some(r) = &mut residual {
                r.remap_columns(&positions(&kept));
            }
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema: select_fields(&schema, &kept),
            };
            (join, kept)
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let mut keep: Vec<usize> = (0..exprs.len())
                .filter(|k| need.binary_search(k).is_ok() || !matches!(exprs[*k], Expr::Column(_)))
                .collect();
            if keep.is_empty() && !exprs.is_empty() {
                keep.push(0);
            }
            let schema = select_fields(&schema, &keep);
            let mut exprs: Vec<Expr> = keep.iter().map(|&k| exprs[k].clone()).collect();
            let (input, kept) = prune(*input, &with_refs(Vec::new(), &exprs));
            let map = positions(&kept);
            for e in &mut exprs {
                e.remap_columns(&map);
            }
            (LogicalPlan::Project { input: Box::new(input), exprs, schema }, keep)
        }
        LogicalPlan::Aggregate { input, mut group, mut aggs, schema } => {
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            let (input, kept) = prune(*input, &with_refs(Vec::new(), group.iter().chain(args)));
            let map = positions(&kept);
            for e in group.iter_mut().chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut())) {
                e.remap_columns(&map);
            }
            let all = (0..schema.len()).collect();
            (LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema }, all)
        }
        // Every other node reads all of its inputs' columns and keeps its
        // own output, so pruning only recurses.
        other => {
            let all = (0..other.schema().len()).collect();
            (map_inputs(other, &mut |c| prune_columns(c)), all)
        }
    }
}

/// [`prune`], then a bare-reference `Project` on top if the result still
/// carries columns beyond `need`. Returns exactly `need` as the carried
/// columns — or, when `need` is empty, the first one, so the row count
/// survives.
fn narrowed(plan: LogicalPlan, need: &[usize]) -> (LogicalPlan, Vec<usize>) {
    let (plan, kept) = prune(plan, need);
    let want: Vec<usize> = match (need, kept.first()) {
        ([], Some(&first)) => vec![first],
        _ => need.to_vec(),
    };
    if want.len() == kept.len() {
        return (plan, kept);
    }
    let map = positions(&kept);
    let exprs = want.iter().map(|&c| Expr::col(map[c])).collect();
    let at: Vec<usize> = want.iter().map(|&c| map[c]).collect();
    let schema = select_fields(&plan.schema(), &at);
    (LogicalPlan::Project { input: Box::new(plan), exprs, schema }, want)
}

/// `cols` plus every column `exprs` reference, sorted and distinct.
fn with_refs<'a>(mut cols: Vec<usize>, exprs: impl IntoIterator<Item = &'a Expr>) -> Vec<usize> {
    for e in exprs {
        e.referenced_columns(&mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The remap table for a node that now carries the old columns `kept`
/// (sorted): old column `kept[p]` is new column `p`.
fn positions(kept: &[usize]) -> Vec<usize> {
    let mut map = vec![0; kept.last().map_or(0, |&c| c + 1)];
    for (p, &c) in kept.iter().enumerate() {
        map[c] = p;
    }
    map
}

/// The fields of `schema` at `cols`, sharing the schema when that is all
/// of them.
fn select_fields(schema: &Arc<Schema>, cols: &[usize]) -> Arc<Schema> {
    if cols.len() == schema.len() && cols.iter().enumerate().all(|(p, &c)| p == c) {
        return schema.clone();
    }
    Arc::new(Schema::new_unchecked(cols.iter().map(|&c| schema.field(c).clone()).collect()))
}

/// Applies `f` to each direct child of `plan`, rebuilding the node.
fn map_inputs(plan: LogicalPlan, f: &mut dyn FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    use crate::sql::plan::BoundTableArg;
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(f(*input)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(f(*input)), exprs, schema }
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
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            join_type,
            left_keys,
            right_keys,
            residual,
            build_left,
            schema,
        },
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            LogicalPlan::Aggregate { input: Box::new(f(*input)), group, aggs, schema }
        }
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort { input: Box::new(f(*input)), keys },
        LogicalPlan::Limit { input, limit, offset } => {
            LogicalPlan::Limit { input: Box::new(f(*input)), limit, offset }
        }
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct { input: Box::new(f(*input)) },
        LogicalPlan::UnionAll { inputs, schema } => {
            LogicalPlan::UnionAll { inputs: inputs.into_iter().map(f).collect(), schema }
        }
        LogicalPlan::TableFunction { name, args, schema } => LogicalPlan::TableFunction {
            name,
            args: args
                .into_iter()
                .map(|a| match a {
                    BoundTableArg::Plan(p) => BoundTableArg::Plan(f(p)),
                    scalar => scalar,
                })
                .collect(),
            schema,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::UnitRow) => leaf,
    }
}

/// Pass 1: collapse ungrouped `COUNT(*)` / `COUNT(col)` / `MIN(col)` /
/// `MAX(col)` over a bare scan into a literal projection over
/// [`LogicalPlan::UnitRow`], answered from the table's statistics without
/// touching a single row. Sets `from_stats` (such plans are uncacheable)
/// and ticks `sql.stats.answered_aggregates` per collapsed aggregate.
fn collapse_stats_aggregates(
    plan: LogicalPlan,
    catalog: &Catalog,
    from_stats: &mut bool,
) -> LogicalPlan {
    let plan = map_inputs(plan, &mut |c| collapse_stats_aggregates(c, catalog, from_stats));
    if let LogicalPlan::Aggregate { input, group, aggs, schema } = &plan {
        if group.is_empty() && !aggs.is_empty() {
            if let LogicalPlan::Scan { table, .. } = &**input {
                if let Some(exprs) = stats_literals(catalog, table, aggs) {
                    metrics::counter("sql.stats.answered_aggregates").incr();
                    *from_stats = true;
                    return LogicalPlan::Project {
                        input: Box::new(LogicalPlan::UnitRow),
                        exprs,
                        schema: schema.clone(),
                    };
                }
            }
        }
    }
    plan
}

/// The literal answers for `aggs` over `table`'s statistics, or `None`
/// when any aggregate cannot be answered exactly (unsupported function,
/// DISTINCT, non-column argument, or min/max poisoned by NaN).
fn stats_literals(catalog: &Catalog, table: &str, aggs: &[PlanAgg]) -> Option<Vec<Expr>> {
    let t = catalog.table(table).ok()?;
    let guard = t.read();
    let stats = guard.stats();
    let mut out = Vec::with_capacity(aggs.len());
    for a in aggs {
        if a.distinct {
            return None;
        }
        let v = match (a.func, &a.arg) {
            (AggFunc::CountStar, None) => {
                Value::Int64(i64::try_from(stats.rows()).unwrap_or(i64::MAX))
            }
            (AggFunc::Count, Some(Expr::Column(i))) => {
                let c = stats.column(*i)?;
                Value::Int64(i64::try_from(c.rows().saturating_sub(c.nulls())).unwrap_or(i64::MAX))
            }
            (AggFunc::Min, Some(Expr::Column(i))) => {
                let c = stats.column(*i)?;
                match c.min_max() {
                    Some((min, _)) => min.clone(),
                    // MIN over no non-NULL values is SQL NULL; a poisoned
                    // (NaN-containing) column cannot be answered.
                    None if c.nulls() == c.rows() => Value::Null,
                    None => return None,
                }
            }
            (AggFunc::Max, Some(Expr::Column(i))) => {
                let c = stats.column(*i)?;
                match c.min_max() {
                    Some((_, max)) => max.clone(),
                    None if c.nulls() == c.rows() => Value::Null,
                    None => return None,
                }
            }
            _ => return None,
        };
        out.push(Expr::Literal(v));
    }
    Some(out)
}

/// Pass 2: reorder filter conjuncts over a scan most-selective-first, so
/// short-circuiting fused kernels reject rows on the cheapest test. Only
/// conjunctions whose every member is an infallible predicate shape
/// (comparisons, boolean logic, `IS NULL`, `BETWEEN`, `IN` over
/// columns/literals) are reordered — anything that can error at runtime
/// keeps its written order so error behavior is unchanged. Ticks
/// `sql.cost.conjunct_reorders` when an order actually changes.
fn order_conjuncts(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = map_inputs(plan, &mut |c| order_conjuncts(c, catalog));
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let predicate = match &*input {
                LogicalPlan::Scan { table, schema } => {
                    let conjuncts = split_conjuncts(predicate);
                    let predicate = if conjuncts.len() >= 2 && conjuncts.iter().all(reorder_safe) {
                        let cols = scan_column_stats(catalog, table, schema.len());
                        let mut scored: Vec<(f64, usize, Expr)> = conjuncts
                            .into_iter()
                            .enumerate()
                            .map(|(i, c)| (estimate::selectivity(&c, &cols), i, c))
                            .collect();
                        // Stable sort: ties and NaN scores keep written order.
                        scored.sort_by(|a, b| {
                            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
                        });
                        if !scored.windows(2).all(|w| w[0].1 < w[1].1) {
                            metrics::counter("sql.cost.conjunct_reorders").incr();
                        }
                        combine(scored.into_iter().map(|(_, _, c)| c).collect())
                    } else {
                        combine(conjuncts)
                    };
                    match predicate {
                        Some(p) => p,
                        None => Expr::Literal(Value::Boolean(true)), // unreachable: ≥1 conjunct
                    }
                }
                _ => predicate,
            };
            LogicalPlan::Filter { input, predicate }
        }
        other => other,
    }
}

/// Per-column stats for a scan, padded with `None` to the schema width.
fn scan_column_stats(catalog: &Catalog, table: &str, width: usize) -> Vec<Option<ColumnStats>> {
    match catalog.table(table) {
        Ok(t) => {
            let guard = t.read();
            let stats = guard.stats();
            (0..width).map(|i| stats.column(i).cloned()).collect()
        }
        Err(_) => vec![None; width],
    }
}

/// Whether a conjunct is safe to evaluate in any order: built purely from
/// columns, literals, comparisons, boolean logic, `IS NULL`, `BETWEEN`,
/// and `IN` lists — shapes that can never raise a runtime error, so
/// evaluating them earlier or later is unobservable.
fn reorder_safe(e: &Expr) -> bool {
    match e {
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Binary { op, left, right } => {
            (op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or))
                && reorder_safe(left)
                && reorder_safe(right)
        }
        Expr::Unary { op: UnaryOp::Not, expr } => reorder_safe(expr),
        Expr::IsNull { expr, .. } => reorder_safe(expr),
        Expr::Between { expr, low, high, .. } => {
            reorder_safe(expr) && reorder_safe(low) && reorder_safe(high)
        }
        Expr::InList { expr, list, .. } => reorder_safe(expr) && list.iter().all(reorder_safe),
        _ => false,
    }
}

/// Pass 3: greedy cardinality-based reordering of inner-join chains.
///
/// `order_free` tracks whether the consumer above can observe the node's
/// row *order* (not just its row set): it starts false at the root (a
/// query's output order must match the stats-off plan bit-for-bit) and
/// becomes true under consumers that are provably order-insensitive — an
/// ungrouped aggregate of order-insensitive functions, or a sort whose
/// keys cover every column. Only there may a join chain be reordered.
fn reorder_joins(plan: LogicalPlan, catalog: &Catalog, order_free: bool) -> LogicalPlan {
    match plan {
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let input_schema = input.schema();
            let child_free =
                group.is_empty() && aggs.iter().all(|a| order_insensitive_agg(a, &input_schema));
            LogicalPlan::Aggregate {
                input: Box::new(reorder_joins(*input, catalog, child_free)),
                group,
                aggs,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            // A stable sort whose keys cover every column erases the input
            // order entirely (equal-on-all-keys rows are identical).
            let width = input.schema().len();
            let covered: HashSet<usize> = keys.iter().map(|k| k.column).collect();
            let child_free = order_free || (0..width).all(|i| covered.contains(&i));
            LogicalPlan::Sort { input: Box::new(reorder_joins(*input, catalog, child_free)), keys }
        }
        LogicalPlan::Limit { input, limit, offset } => LogicalPlan::Limit {
            // Which rows survive a limit depends on order.
            input: Box::new(reorder_joins(*input, catalog, false)),
            limit,
            offset,
        },
        join @ LogicalPlan::Join { .. } if order_free => try_reorder_chain(join, catalog),
        other => {
            // Filter/Project/Distinct/UnionAll pass row order through;
            // joins outside an order-free region pin their children, and
            // table UDFs may be sensitive to argument row order.
            let free = order_free
                && !matches!(other, LogicalPlan::Join { .. } | LogicalPlan::TableFunction { .. });
            map_inputs(other, &mut |c| reorder_joins(c, catalog, free))
        }
    }
}

/// Whether reordering the aggregate's input rows can change its output:
/// counts never; MIN/MAX only through float `-0.0`/`+0.0` ties (first
/// occurrence wins), so non-float columns are safe; SUM/AVG accumulate in
/// row order and stay pinned for floats (and conservatively for ints).
fn order_insensitive_agg(agg: &PlanAgg, input: &Schema) -> bool {
    match (agg.func, &agg.arg) {
        (AggFunc::CountStar, None) => true,
        (AggFunc::Count, Some(_)) => true,
        (AggFunc::Min | AggFunc::Max, Some(Expr::Column(i))) => input
            .fields()
            .get(*i)
            .map(|f| {
                !matches!(
                    f.dtype,
                    crate::types::DataType::Float32 | crate::types::DataType::Float64
                )
            })
            .unwrap_or(false),
        _ => false,
    }
}

/// Attempts a greedy reorder of the inner-join chain rooted at `join`;
/// recursion continues into the chain's relations either way. Ticks
/// `sql.cost.join_reorders` per chain whose order changed.
fn try_reorder_chain(join: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let order = {
        let mut rels: Vec<&LogicalPlan> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        chain_refs(&join, &mut rels, &mut edges);
        let widths: Vec<usize> = rels.iter().map(|r| r.schema().len()).collect();
        let sizes: Vec<u64> = rels
            .iter()
            .map(|r| estimate::estimate_rows(r, catalog).unwrap_or(u64::MAX / 2))
            .collect();
        greedy_order(&sizes, &widths, &edges)
    };
    match order {
        Some(order) => rebuild_chain(join, &order, catalog),
        // No profitable/safe reorder: still recurse into children, which
        // remain order-free (the chain's output order is unobserved).
        None => map_inputs(join, &mut |c| reorder_joins(c, catalog, true)),
    }
}

/// Flattens a maximal inner-join chain (no residuals, non-empty keys)
/// into its base relations plus equality edges in *global* column
/// coordinates (columns numbered across the relations in chain order).
fn chain_refs<'a>(
    plan: &'a LogicalPlan,
    rels: &mut Vec<&'a LogicalPlan>,
    edges: &mut Vec<(usize, usize)>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            residual: None,
            ..
        } if !left_keys.is_empty() => {
            let base_left: usize = rels.iter().map(|r| r.schema().len()).sum();
            chain_refs(left, rels, edges);
            let base_right: usize = rels.iter().map(|r| r.schema().len()).sum();
            chain_refs(right, rels, edges);
            for (lk, rk) in left_keys.iter().zip(right_keys) {
                edges.push((base_left + lk, base_right + rk));
            }
        }
        other => rels.push(other),
    }
}

/// Owned counterpart of [`chain_refs`], consuming the chain. Produces the
/// relations in the same order (edges are identical, so callers reuse the
/// borrowed analysis).
fn chain_owned(plan: LogicalPlan, rels: &mut Vec<LogicalPlan>) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            residual: None,
            ..
        } if !left_keys.is_empty() => {
            chain_owned(*left, rels);
            chain_owned(*right, rels);
        }
        other => rels.push(other),
    }
}

/// Picks a join order: smallest relation first, then repeatedly the
/// smallest relation connected by an equality edge to the placed set
/// (never introducing a cross product). Returns `None` when the chain is
/// too short, disconnected, or the greedy order equals the original.
fn greedy_order(sizes: &[u64], widths: &[usize], edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let n = sizes.len();
    if n < 3 {
        return None;
    }
    // Map global column coordinates to relation indices.
    let mut rel_of_col = Vec::new();
    for (rel, w) in widths.iter().enumerate() {
        rel_of_col.extend(std::iter::repeat_n(rel, *w));
    }
    let rel_edges: Vec<(usize, usize)> = edges
        .iter()
        .filter_map(|&(a, b)| Some((*rel_of_col.get(a)?, *rel_of_col.get(b)?)))
        .collect();
    if rel_edges.len() != edges.len() {
        return None; // malformed coordinates; leave the plan alone
    }
    let start = (0..n).min_by_key(|&i| (sizes[i], i))?;
    let mut order = vec![start];
    let mut placed = vec![false; n];
    placed[start] = true;
    while order.len() < n {
        let next = (0..n)
            .filter(|&c| !placed[c])
            .filter(|&c| {
                rel_edges.iter().any(|&(a, b)| (a == c && placed[b]) || (b == c && placed[a]))
            })
            .min_by_key(|&c| (sizes[c], c))?;
        placed[next] = true;
        order.push(next);
    }
    if order.iter().enumerate().all(|(i, &r)| i == r) {
        return None; // already optimal under the heuristic
    }
    Some(order)
}

/// Rebuilds a flattened chain left-deep in `order`, reattaching each
/// original equality edge at the join step that places its later
/// endpoint, then restores the original output column order with a
/// projection so nothing above the chain changes.
fn rebuild_chain(join: LogicalPlan, order: &[usize], catalog: &Catalog) -> LogicalPlan {
    let top_schema = join.schema();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    {
        let mut rels: Vec<&LogicalPlan> = Vec::new();
        chain_refs(&join, &mut rels, &mut edges);
    }
    let mut owned: Vec<LogicalPlan> = Vec::new();
    chain_owned(join, &mut owned);
    // The chain's output order is unobserved, so its relations stay
    // order-free for nested chains.
    let rels: Vec<LogicalPlan> =
        owned.into_iter().map(|r| reorder_joins(r, catalog, true)).collect();
    let n = rels.len();
    let widths: Vec<usize> = rels.iter().map(|r| r.schema().len()).collect();
    let mut offsets = vec![0usize; n];
    for i in 1..n {
        offsets[i] = offsets[i - 1] + widths[i - 1];
    }
    let total: usize = widths.iter().sum();
    let locate = |g: usize| -> (usize, usize) {
        let mut rel = 0;
        while rel + 1 < n && g >= offsets[rel + 1] {
            rel += 1;
        }
        (rel, g - offsets[rel])
    };
    // Column base of each relation in the new (placement) order.
    let mut new_base = vec![0usize; n];
    let mut acc = 0usize;
    for &r in order {
        new_base[r] = acc;
        acc += widths.get(r).copied().unwrap_or(0);
    }
    let mut slots: Vec<Option<LogicalPlan>> = rels.into_iter().map(Some).collect();
    let mut placed = vec![false; n];
    let mut used = vec![false; edges.len()];
    let mut tree = match order.first().and_then(|&f| slots.get_mut(f).and_then(Option::take)) {
        Some(t) => t,
        None => return LogicalPlan::UnitRow, // unreachable: order is a permutation
    };
    if let Some(&f) = order.first() {
        placed[f] = true;
    }
    for &next in order.iter().skip(1) {
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (ei, &(a, b)) in edges.iter().enumerate() {
            if used[ei] {
                continue;
            }
            let (ra, ca) = locate(a);
            let (rb, cb) = locate(b);
            let (placed_rel, placed_col, next_col) = if ra == next && placed[rb] {
                (rb, cb, ca)
            } else if rb == next && placed[ra] {
                (ra, ca, cb)
            } else {
                continue;
            };
            used[ei] = true;
            left_keys.push(new_base[placed_rel] + placed_col);
            right_keys.push(next_col);
        }
        let right = match slots.get_mut(next).and_then(Option::take) {
            Some(r) => r,
            None => return LogicalPlan::UnitRow, // unreachable: permutation
        };
        let fields: Vec<Field> = tree
            .schema()
            .fields()
            .iter()
            .cloned()
            .chain(right.schema().fields().iter().cloned())
            .collect();
        tree = LogicalPlan::Join {
            left: Box::new(tree),
            right: Box::new(right),
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            residual: None,
            build_left: false,
            schema: Arc::new(Schema::new_unchecked(fields)),
        };
        placed[next] = true;
    }
    metrics::counter("sql.cost.join_reorders").incr();
    let exprs: Vec<Expr> = (0..total)
        .map(|g| {
            let (rel, col) = locate(g);
            Expr::col(new_base[rel] + col)
        })
        .collect();
    LogicalPlan::Project { input: Box::new(tree), exprs, schema: top_schema }
}

/// Pass 4: build-side selection. A hash join builds on its right input by
/// default; when the left input is estimated at **half the right's
/// cardinality or less** (`est(left) * 2 <= est(right)`), flip
/// `build_left` so the hash table is built on the smaller side. The
/// executor's swapped kernels restore canonical row order, so this never
/// changes results. Inner/Left equi-joins only; missing estimates never
/// trigger a swap. Ticks `sql.cost.build_side_swaps` per flipped join.
fn choose_build_sides(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = map_inputs(plan, &mut |c| choose_build_sides(c, catalog));
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: join_type @ (JoinType::Inner | JoinType::Left),
            left_keys,
            right_keys,
            residual,
            build_left: false,
            schema,
        } => {
            let swap = !left_keys.is_empty()
                && match (
                    estimate::estimate_rows(&left, catalog),
                    estimate::estimate_rows(&right, catalog),
                ) {
                    (Some(l), Some(r)) => l.saturating_mul(2) <= r,
                    _ => false,
                };
            if swap {
                metrics::counter("sql.cost.build_side_swaps").incr();
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                residual,
                build_left: swap,
                schema,
            }
        }
        other => other,
    }
}

/// The rule pass: constant folding, filter fusion and pushdown, applied
/// bottom-up to every node, table-function arguments included.
fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    // Recurse first so child rewrites expose parent opportunities.
    match map_inputs(plan, &mut rewrite) {
        LogicalPlan::Filter { input, mut predicate } => {
            fold_expr(&mut predicate);
            push_filter(predicate, *input)
        }
        LogicalPlan::Project { input, mut exprs, schema } => {
            exprs.iter_mut().for_each(fold_expr);
            LogicalPlan::Project { input, exprs, schema }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            mut residual,
            build_left,
            schema,
        } => {
            residual.iter_mut().for_each(fold_expr);
            LogicalPlan::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema,
            }
        }
        LogicalPlan::Aggregate { input, mut group, mut aggs, schema } => {
            group
                .iter_mut()
                .chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut()))
                .for_each(fold_expr);
            LogicalPlan::Aggregate { input, group, aggs, schema }
        }
        other => other,
    }
}

/// Places a filter above `input`, pushing it down where legal.
fn push_filter(predicate: Expr, input: LogicalPlan) -> LogicalPlan {
    // TRUE filters vanish.
    if matches!(predicate, Expr::Literal(Value::Boolean(true))) {
        return input;
    }
    match input {
        // Filter(Filter(x)) fuses into one conjunction.
        LogicalPlan::Filter { input, predicate: inner } => {
            let fused = Expr::binary(BinaryOp::And, inner, predicate);
            push_filter(fused, *input)
        }
        // Filter over Sort/Distinct commutes (set-preserving operators).
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(push_filter(predicate, *input)), keys }
        }
        LogicalPlan::Distinct { input } => {
            LogicalPlan::Distinct { input: Box::new(push_filter(predicate, *input)) }
        }
        // Filter over Project pushes down when every referenced output
        // column is a plain pass-through (`Column(i)`) — rewrite the
        // predicate in input coordinates.
        LogicalPlan::Project { input, exprs, schema } => {
            let mut refs = Vec::new();
            predicate.referenced_columns(&mut refs);
            let passthrough: Vec<Option<usize>> = exprs
                .iter()
                .map(|e| match e {
                    Expr::Column(i) => Some(*i),
                    _ => None,
                })
                .collect();
            if refs.iter().all(|&r| passthrough.get(r).copied().flatten().is_some()) {
                let map: Vec<usize> = passthrough
                    .iter()
                    .map(|p| p.unwrap_or(0)) // unused slots never referenced
                    .collect();
                let mut pushed = predicate;
                pushed.remap_columns(&map);
                let inner = push_filter(pushed, *input);
                LogicalPlan::Project { input: Box::new(inner), exprs, schema }
            } else {
                LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Project { input, exprs, schema }),
                    predicate,
                }
            }
        }
        // Filter over an inner join pushes conjuncts that reference only
        // one side into that side.
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            residual,
            build_left,
            schema,
        } => {
            let left_width = left.schema().len();
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut keep = Vec::new();
            for conj in split_conjuncts(predicate) {
                let mut refs = Vec::new();
                conj.referenced_columns(&mut refs);
                if !refs.is_empty() && refs.iter().all(|&r| r < left_width) {
                    left_preds.push(conj);
                } else if !refs.is_empty() && refs.iter().all(|&r| r >= left_width) {
                    let mut c = conj;
                    // Rebase to right-side coordinates.
                    let total = schema.len();
                    let map: Vec<usize> =
                        (0..total).map(|i| i.saturating_sub(left_width)).collect();
                    c.remap_columns(&map);
                    right_preds.push(c);
                } else {
                    keep.push(conj);
                }
            }
            let new_left = match combine(left_preds) {
                Some(p) => Box::new(push_filter(p, *left)),
                None => Box::new(rewrite(*left)),
            };
            let new_right = match combine(right_preds) {
                Some(p) => Box::new(push_filter(p, *right)),
                None => Box::new(rewrite(*right)),
            };
            let join = LogicalPlan::Join {
                left: new_left,
                right: new_right,
                join_type: JoinType::Inner,
                left_keys,
                right_keys,
                residual,
                build_left,
                schema,
            };
            match combine(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
                None => join,
            }
        }
        other => LogicalPlan::Filter { input: Box::new(other), predicate },
    }
}

fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary { op: BinaryOp::And, left, right } => {
            let mut out = split_conjuncts(*left);
            out.extend(split_conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

fn combine(preds: Vec<Expr>) -> Option<Expr> {
    preds.into_iter().reduce(|a, b| Expr::binary(BinaryOp::And, a, b))
}

/// True when the expression is safe and useful to fold: column-free,
/// UDF-free, subquery-free, and not already a literal.
fn foldable(e: &Expr) -> bool {
    fn pure(e: &Expr) -> bool {
        match e {
            Expr::Column(_) | Expr::Subquery(_) | Expr::Udf { .. } => false,
            Expr::Literal(_) => true,
            Expr::Binary { left, right, .. } => pure(left) && pure(right),
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                pure(expr)
            }
            Expr::Case { operand, branches, else_expr } => {
                operand.as_deref().is_none_or(pure)
                    && branches.iter().all(|(w, t)| pure(w) && pure(t))
                    && else_expr.as_deref().is_none_or(pure)
            }
            Expr::InList { expr, list, .. } => pure(expr) && list.iter().all(pure),
            Expr::Like { expr, pattern, .. } => pure(expr) && pure(pattern),
            Expr::Between { expr, low, high, .. } => pure(expr) && pure(low) && pure(high),
            Expr::ScalarFn { args, .. } => args.iter().all(pure),
        }
    }
    !matches!(e, Expr::Literal(_)) && pure(e)
}

/// Folds constant subexpressions in place. Folding errors (e.g. division
/// by zero in dead CASE branches) leave the expression unchanged so the
/// error surfaces — or not — at execution time, matching unoptimized
/// semantics.
pub fn fold_expr(e: &mut Expr) {
    if foldable(e) {
        if let Ok(v) = eval_constant(e) {
            *e = Expr::Literal(v);
            return;
        }
    }
    match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) => {}
        Expr::Binary { left, right, .. } => {
            fold_expr(left);
            fold_expr(right);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
            fold_expr(expr)
        }
        Expr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                fold_expr(o);
            }
            for (w, t) in branches {
                fold_expr(w);
                fold_expr(t);
            }
            if let Some(x) = else_expr {
                fold_expr(x);
            }
        }
        Expr::InList { expr, list, .. } => {
            fold_expr(expr);
            for x in list {
                fold_expr(x);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            fold_expr(expr);
            fold_expr(pattern);
        }
        Expr::Between { expr, low, high, .. } => {
            fold_expr(expr);
            fold_expr(low);
            fold_expr(high);
        }
        Expr::ScalarFn { args, .. } | Expr::Udf { args, .. } => {
            for a in args {
                fold_expr(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr as E;

    #[test]
    fn constants_fold() {
        let mut e = E::binary(
            BinaryOp::Lt,
            E::col(0),
            E::binary(BinaryOp::Add, E::lit(2i32), E::lit(3i32)),
        );
        fold_expr(&mut e);
        assert_eq!(e, E::binary(BinaryOp::Lt, E::col(0), E::Literal(Value::Int64(5))));
    }

    #[test]
    fn folding_errors_are_deferred() {
        // 1/0 must not panic or error during optimization.
        let mut e = E::binary(BinaryOp::Div, E::lit(1i32), E::lit(0i32));
        fold_expr(&mut e);
        assert!(matches!(e, E::Binary { .. }), "kept unfolded: {e}");
    }

    #[test]
    fn udf_calls_never_fold() {
        let mut e = E::Udf { name: "f".into(), args: vec![E::lit(1i32)] };
        fold_expr(&mut e);
        assert!(matches!(e, E::Udf { .. }));
    }

    fn scan(cols: usize) -> LogicalPlan {
        use crate::schema::{Field, Schema};
        let fields =
            (0..cols).map(|i| Field::new(format!("c{i}"), crate::types::DataType::Int32)).collect();
        LogicalPlan::Scan {
            table: "t".into(),
            schema: std::sync::Arc::new(Schema::new_unchecked(fields)),
        }
    }

    #[test]
    fn true_filter_removed() {
        let plan = LogicalPlan::Filter { input: Box::new(scan(1)), predicate: E::lit(true) };
        let out = optimize(plan).unwrap();
        assert!(matches!(out, LogicalPlan::Scan { .. }), "{out}");
    }

    #[test]
    fn adjacent_filters_fuse() {
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(1)),
                predicate: E::binary(BinaryOp::Gt, E::col(0), E::lit(1i32)),
            }),
            predicate: E::binary(BinaryOp::Lt, E::col(0), E::lit(9i32)),
        };
        let out = optimize(plan).unwrap();
        match out {
            LogicalPlan::Filter { input, predicate } => {
                assert!(matches!(*input, LogicalPlan::Scan { .. }));
                assert!(matches!(predicate, E::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn filter_pushes_below_passthrough_project() {
        use crate::schema::{Field, Schema};
        let project = LogicalPlan::Project {
            input: Box::new(scan(3)),
            exprs: vec![E::col(2), E::col(0)],
            schema: std::sync::Arc::new(Schema::new_unchecked(vec![
                Field::new("a", crate::types::DataType::Int32),
                Field::new("b", crate::types::DataType::Int32),
            ])),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(project),
            predicate: E::binary(BinaryOp::Eq, E::col(1), E::lit(5i32)),
        };
        let out = optimize(plan).unwrap();
        match out {
            LogicalPlan::Project { input, .. } => match *input {
                LogicalPlan::Filter { predicate, input } => {
                    // Output column 1 maps back to input column 0.
                    assert_eq!(predicate, E::binary(BinaryOp::Eq, E::col(0), E::lit(5i32)));
                    assert!(matches!(*input, LogicalPlan::Scan { .. }));
                }
                other => panic!("expected filter under project, got {other}"),
            },
            other => panic!("expected project on top, got {other}"),
        }
    }

    #[test]
    fn filter_stays_above_computed_project() {
        use crate::schema::{Field, Schema};
        let project = LogicalPlan::Project {
            input: Box::new(scan(1)),
            exprs: vec![E::binary(BinaryOp::Add, E::col(0), E::lit(1i32))],
            schema: std::sync::Arc::new(Schema::new_unchecked(vec![Field::new(
                "a",
                crate::types::DataType::Int64,
            )])),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(project),
            predicate: E::binary(BinaryOp::Gt, E::col(0), E::lit(0i32)),
        };
        let out = optimize(plan).unwrap();
        assert!(matches!(out, LogicalPlan::Filter { .. }), "{out}");
    }

    #[test]
    fn filter_splits_across_inner_join() {
        use crate::schema::{Field, Schema};
        let join_schema = std::sync::Arc::new(Schema::new_unchecked(vec![
            Field::new("l0", crate::types::DataType::Int32),
            Field::new("l1", crate::types::DataType::Int32),
            Field::new("r0", crate::types::DataType::Int32),
        ]));
        let join = LogicalPlan::Join {
            left: Box::new(scan(2)),
            right: Box::new(scan(1)),
            join_type: JoinType::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            build_left: false,
            schema: join_schema,
        };
        // (l1 > 1) AND (r0 < 5) AND (l0 = r0-ish both sides)
        let pred = E::binary(
            BinaryOp::And,
            E::binary(
                BinaryOp::And,
                E::binary(BinaryOp::Gt, E::col(1), E::lit(1i32)),
                E::binary(BinaryOp::Lt, E::col(2), E::lit(5i32)),
            ),
            E::binary(BinaryOp::Eq, E::col(0), E::col(2)),
        );
        let plan = LogicalPlan::Filter { input: Box::new(join), predicate: pred };
        let out = optimize(plan).unwrap();
        // Top: the cross-side conjunct stays as a filter over the join.
        match out {
            LogicalPlan::Filter { input, predicate } => {
                assert_eq!(predicate, E::binary(BinaryOp::Eq, E::col(0), E::col(2)));
                match *input {
                    LogicalPlan::Join { left, right, .. } => {
                        assert!(
                            matches!(*left, LogicalPlan::Filter { .. }),
                            "left-side conjunct not pushed: {left}"
                        );
                        match *right {
                            LogicalPlan::Filter { predicate, .. } => {
                                // r0 rebased from column 2 to column 0.
                                assert_eq!(
                                    predicate,
                                    E::binary(BinaryOp::Lt, E::col(0), E::lit(5i32))
                                );
                            }
                            other => panic!("right-side conjunct not pushed: {other}"),
                        }
                    }
                    other => panic!("{other}"),
                }
            }
            other => panic!("{other}"),
        }
    }

    fn add_table(catalog: &Catalog, name: &str, cols: Vec<(&str, crate::column::Column)>) {
        let schema = Arc::new(Schema::new_unchecked(
            cols.iter().map(|(n, c)| Field::new(*n, c.data_type())).collect(),
        ));
        catalog.create_table(name, schema).unwrap();
        let batch = crate::batch::Batch::from_columns(cols).unwrap();
        catalog.table(name).unwrap().write().append_batch(&batch).unwrap();
    }

    fn cat_scan(catalog: &Catalog, name: &str) -> LogicalPlan {
        let schema = catalog.table(name).unwrap().read().schema().clone();
        LogicalPlan::Scan { table: name.to_owned(), schema }
    }

    #[test]
    fn bare_aggregates_collapse_to_stats_literals() {
        use crate::column::Column;
        use crate::types::DataType;
        let catalog = Catalog::new();
        add_table(&catalog, "t", vec![("x", Column::from_i32s((0..1000).collect()))]);
        let agg_schema = Arc::new(Schema::new_unchecked(vec![
            Field::new("n", DataType::Int64),
            Field::new("lo", DataType::Int32),
            Field::new("hi", DataType::Int32),
        ]));
        let plan = LogicalPlan::Aggregate {
            input: Box::new(cat_scan(&catalog, "t")),
            group: vec![],
            aggs: vec![
                PlanAgg { func: AggFunc::CountStar, arg: None, distinct: false },
                PlanAgg { func: AggFunc::Min, arg: Some(Expr::col(0)), distinct: false },
                PlanAgg { func: AggFunc::Max, arg: Some(Expr::col(0)), distinct: false },
            ],
            schema: agg_schema,
        };
        let off = optimize_with_stats(plan.clone(), &catalog, false).unwrap();
        assert!(!off.from_stats);
        assert!(matches!(off.plan, LogicalPlan::Aggregate { .. }), "{}", off.plan);
        let on = optimize_with_stats(plan, &catalog, true).unwrap();
        assert!(on.from_stats);
        match on.plan {
            LogicalPlan::Project { input, exprs, .. } => {
                assert!(matches!(*input, LogicalPlan::UnitRow));
                assert_eq!(
                    exprs,
                    vec![
                        Expr::Literal(Value::Int64(1000)),
                        Expr::Literal(Value::Int32(0)),
                        Expr::Literal(Value::Int32(999)),
                    ]
                );
            }
            other => panic!("expected literal projection, got {other}"),
        }
    }

    #[test]
    fn skewed_join_swaps_build_side() {
        use crate::column::Column;
        use crate::types::DataType;
        let catalog = Catalog::new();
        add_table(&catalog, "small", vec![("k", Column::from_i32s((0..10).collect()))]);
        add_table(
            &catalog,
            "big",
            vec![("k", Column::from_i32s((0..1000).map(|i| i % 10).collect()))],
        );
        let join_schema = Arc::new(Schema::new_unchecked(vec![
            Field::new("lk", DataType::Int32),
            Field::new("rk", DataType::Int32),
        ]));
        let join = |l: &str, r: &str| LogicalPlan::Join {
            left: Box::new(cat_scan(&catalog, l)),
            right: Box::new(cat_scan(&catalog, r)),
            join_type: JoinType::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            build_left: false,
            schema: join_schema.clone(),
        };
        // Small left input: build there instead of on the big probe side.
        match optimize_with_stats(join("small", "big"), &catalog, true).unwrap().plan {
            LogicalPlan::Join { build_left, .. } => {
                assert!(build_left, "small left side should become the build side")
            }
            other => panic!("{other}"),
        }
        // Small right input: already the build side, no swap.
        match optimize_with_stats(join("big", "small"), &catalog, true).unwrap().plan {
            LogicalPlan::Join { build_left, .. } => assert!(!build_left),
            other => panic!("{other}"),
        }
        // Stats off: never swaps.
        match optimize_with_stats(join("small", "big"), &catalog, false).unwrap().plan {
            LogicalPlan::Join { build_left, .. } => assert!(!build_left),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn conjuncts_reorder_most_selective_first() {
        use crate::column::Column;
        let catalog = Catalog::new();
        add_table(&catalog, "t", vec![("x", Column::from_i32s((0..1000).collect()))]);
        // Weak range conjunct first, highly selective equality second.
        let weak = Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(10i32));
        let strong = Expr::binary(BinaryOp::Eq, Expr::col(0), Expr::lit(500i32));
        let plan = LogicalPlan::Filter {
            input: Box::new(cat_scan(&catalog, "t")),
            predicate: Expr::binary(BinaryOp::And, weak.clone(), strong.clone()),
        };
        let out = optimize_with_stats(plan, &catalog, true).unwrap().plan;
        match out {
            LogicalPlan::Filter { predicate, .. } => match predicate {
                Expr::Binary { op: BinaryOp::And, left, right } => {
                    assert_eq!(*left, strong, "equality should be evaluated first");
                    assert_eq!(*right, weak);
                }
                other => panic!("{other}"),
            },
            other => panic!("{other}"),
        }
    }

    #[test]
    fn join_chain_reorders_smallest_first_under_countstar() {
        use crate::column::Column;
        use crate::types::DataType;
        let catalog = Catalog::new();
        add_table(
            &catalog,
            "a",
            vec![("k", Column::from_i32s((0..1000).map(|i| i % 10).collect()))],
        );
        add_table(&catalog, "b", vec![("k", Column::from_i32s((0..10).collect()))]);
        add_table(&catalog, "c", vec![("k", Column::from_i32s((0..10).collect()))]);
        let ab = LogicalPlan::Join {
            left: Box::new(cat_scan(&catalog, "a")),
            right: Box::new(cat_scan(&catalog, "b")),
            join_type: JoinType::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            build_left: false,
            schema: Arc::new(Schema::new_unchecked(vec![
                Field::new("ak", DataType::Int32),
                Field::new("bk", DataType::Int32),
            ])),
        };
        let abc = LogicalPlan::Join {
            left: Box::new(ab),
            right: Box::new(cat_scan(&catalog, "c")),
            join_type: JoinType::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            build_left: false,
            schema: Arc::new(Schema::new_unchecked(vec![
                Field::new("ak", DataType::Int32),
                Field::new("bk", DataType::Int32),
                Field::new("ck", DataType::Int32),
            ])),
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(abc),
            group: vec![],
            aggs: vec![PlanAgg { func: AggFunc::CountStar, arg: None, distinct: false }],
            schema: Arc::new(Schema::new_unchecked(vec![Field::new("n", DataType::Int64)])),
        };
        let out = optimize_with_stats(plan, &catalog, true).unwrap().plan;
        // COUNT(*) is order-insensitive, so the chain is rebuilt
        // smallest-relation-first under a restoring projection; the big
        // relation "a" (1000 rows) no longer drives the chain.
        let LogicalPlan::Aggregate { input, .. } = out else { panic!("{out}") };
        let LogicalPlan::Project { input, .. } = *input else {
            panic!("expected restoring projection, got {input}")
        };
        // Column pruning narrows the inner join, which only feeds the
        // outer one its key, under a bare-reference projection.
        let mut leaf = input.as_ref();
        while let LogicalPlan::Join { left: input, .. } | LogicalPlan::Project { input, .. } = leaf
        {
            leaf = input.as_ref();
        }
        match leaf {
            LogicalPlan::Scan { table, .. } => {
                assert_eq!(table, "b", "smallest connected relation should drive the chain")
            }
            other => panic!("{other}"),
        }
    }
}
