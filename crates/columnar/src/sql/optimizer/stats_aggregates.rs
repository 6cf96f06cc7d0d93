//! Aggregates answered from column statistics.

use super::map_inputs;
use crate::catalog::Catalog;
use crate::exec::AggFunc;
use crate::expr::Expr;
use crate::metrics;
use crate::sql::plan::{LogicalPlan, PlanAgg};
use crate::types::Value;

/// Pass 1: collapse ungrouped `COUNT(*)` / `COUNT(col)` / `MIN(col)` /
/// `MAX(col)` over a bare scan into a literal projection over
/// [`LogicalPlan::UnitRow`], answered from the table's statistics without
/// touching a single row. Sets `from_stats` (such plans are uncacheable)
/// and ticks `sql.stats.answered_aggregates` per collapsed aggregate.
pub(super) fn collapse_stats_aggregates(
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
