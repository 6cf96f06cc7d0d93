//! The rule pass: constant folding, filter fusion and pushdown.

use super::{combine, map_inputs, split_conjuncts};
use crate::exec::JoinType;
use crate::expr::{BinaryOp, Expr};
use crate::sql::binder::eval_constant;
use crate::sql::plan::LogicalPlan;
use crate::types::Value;

/// The rule pass: constant folding, filter fusion and pushdown, applied
/// bottom-up to every node, table-function arguments included.
pub(super) fn rewrite(plan: LogicalPlan) -> LogicalPlan {
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

/// True when the expression is safe and useful to fold: column-free,
/// UDF-free, subquery-free, and not already a literal.
fn foldable(e: &Expr) -> bool {
    fn pure(e: &Expr) -> bool {
        let mut ok = !matches!(e, Expr::Column(_) | Expr::Subquery(_) | Expr::Udf { .. });
        e.for_each_child(|c| ok = ok && pure(c));
        ok
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
    e.for_each_child_mut(fold_expr);
}
