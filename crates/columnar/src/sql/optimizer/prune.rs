//! Column pruning, the last pass.

use super::map_inputs;
use crate::expr::Expr;
use crate::schema::Schema;
use crate::sql::plan::LogicalPlan;
use std::sync::Arc;

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
