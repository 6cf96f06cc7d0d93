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
//!
//! Every pass runs from one list, `PASSES`, in order. Debug builds
//! re-run the plan verifier after each pass, and a broken invariant names
//! the pass that broke it.

mod build_side;
mod conjuncts;
mod join_order;
mod prune;
mod rewrite;
mod stats_aggregates;

pub use prune::prune_columns;
pub use rewrite::fold_expr;

use crate::catalog::Catalog;
use crate::error::DbResult;
use crate::expr::{BinaryOp, Expr};
use crate::sql::plan::LogicalPlan;
use build_side::choose_build_sides;
use conjuncts::order_conjuncts;
use join_order::reorder_joins;
use rewrite::rewrite;
use stats_aggregates::collapse_stats_aggregates;

/// One optimizer pass over the whole plan.
pub(crate) struct Pass {
    /// The name a broken plan invariant reports (debug builds).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub name: &'static str,
    /// The rewrite.
    pub run: Rewrite,
}

/// A pass's rewrite: a rule, or a cost-based rewrite over the live column
/// statistics of a catalog, which runs only while statistics are enabled
/// and sets the flag when it answered part of the query from them.
#[derive(Clone, Copy)]
pub(crate) enum Rewrite {
    Rule(fn(LogicalPlan) -> LogicalPlan),
    Cost(fn(LogicalPlan, &Catalog, &mut bool) -> LogicalPlan),
}

/// The rule pass: constant folding, filter fusion and pushdown.
const REWRITE: Pass = Pass { name: "rewrite", run: Rewrite::Rule(rewrite) };

/// Every pass, in the order they run. [`prune_columns`] must come last:
/// the passes before it pattern-match bare scans and join column
/// positions, which its narrowing projections change.
pub(crate) const PASSES: &[Pass] = &[
    REWRITE,
    Pass { name: "collapse_stats_aggregates", run: Rewrite::Cost(collapse_stats_aggregates) },
    Pass { name: "order_conjuncts", run: Rewrite::Cost(|p, c, _| order_conjuncts(p, c)) },
    Pass { name: "reorder_joins", run: Rewrite::Cost(|p, c, _| reorder_joins(p, c, false)) },
    Pass { name: "choose_build_sides", run: Rewrite::Cost(|p, c, _| choose_build_sides(p, c)) },
    Pass { name: "prune_columns", run: Rewrite::Rule(prune_columns) },
];

/// Runs `passes` over `plan` in order, the cost-based ones only when
/// given the catalog whose statistics they read. Debug builds verify the
/// plan after each pass; a broken invariant's path then starts with the
/// name of the pass.
pub(crate) fn run_passes(
    mut plan: LogicalPlan,
    passes: &[Pass],
    stats: Option<&Catalog>,
) -> DbResult<CostOutcome> {
    let mut from_stats = false;
    for pass in passes {
        plan = match (pass.run, stats) {
            (Rewrite::Rule(rule), _) => rule(plan),
            (Rewrite::Cost(cost), Some(catalog)) => cost(plan, catalog, &mut from_stats),
            (Rewrite::Cost(_), None) => continue,
        };
        #[cfg(debug_assertions)]
        crate::verify::verify_rewrite(&plan).map_err(|e| match e {
            crate::error::DbError::PlanInvariant { path, message } => {
                let path = format!("pass {} > {path}", pass.name);
                crate::error::DbError::PlanInvariant { path, message }
            }
            other => other,
        })?;
    }
    Ok(CostOutcome { plan, from_stats })
}

/// Optimizes a plan with the rule pass alone: no statistics, no column
/// pruning.
pub fn optimize(plan: LogicalPlan) -> DbResult<LogicalPlan> {
    Ok(run_passes(plan, &[REWRITE], None)?.plan)
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
/// [`crate::Database::set_stats_enabled`]) only the rule-based rewrites
/// run, so results can be compared bit-for-bit against the cost-based
/// plans. Either way [`prune_columns`] runs last.
pub fn optimize_with_stats(
    plan: LogicalPlan,
    catalog: &Catalog,
    use_stats: bool,
) -> DbResult<CostOutcome> {
    run_passes(plan, PASSES, use_stats.then_some(catalog))
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

#[cfg(test)]
mod tests;
