//! Inner-join chains, reordered by estimated cardinality.

use super::map_inputs;
use crate::catalog::Catalog;
use crate::exec::{AggFunc, JoinType};
use crate::expr::Expr;
use crate::metrics;
use crate::schema::{Field, Schema};
use crate::sql::estimate;
use crate::sql::plan::{LogicalPlan, PlanAgg};
use std::collections::HashSet;
use std::sync::Arc;

/// Pass 3: greedy cardinality-based reordering of inner-join chains.
///
/// `order_free` tracks whether the consumer above can observe the node's
/// row *order* (not just its row set): it starts false at the root (a
/// query's output order must match the stats-off plan bit-for-bit) and
/// becomes true under consumers that are provably order-insensitive — an
/// ungrouped aggregate of order-insensitive functions, or a sort whose
/// keys cover every column. Only there may a join chain be reordered.
pub(super) fn reorder_joins(plan: LogicalPlan, catalog: &Catalog, order_free: bool) -> LogicalPlan {
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
