//! Filter conjuncts over a scan, most selective first.

use super::{combine, map_inputs, split_conjuncts};
use crate::catalog::Catalog;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::metrics;
use crate::sql::estimate;
use crate::sql::plan::LogicalPlan;
use crate::stats::ColumnStats;
use crate::types::Value;

/// Pass 2: reorder filter conjuncts over a scan most-selective-first, so
/// short-circuiting fused kernels reject rows on the cheapest test. Only
/// conjunctions whose every member is an infallible predicate shape
/// (comparisons, boolean logic, `IS NULL`, `BETWEEN`, `IN` over
/// columns/literals) are reordered — anything that can error at runtime
/// keeps its written order so error behavior is unchanged. Ticks
/// `sql.cost.conjunct_reorders` when an order actually changes.
pub(super) fn order_conjuncts(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
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
