//! `FROM`: tables, derived tables, table functions and joins.

use super::scope::Scope;
use super::Binder;
use crate::error::{DbError, DbResult};
use crate::exec::JoinType;
use crate::expr::{BinaryOp, Expr};
use crate::schema::{Field, Schema};
use crate::sql::ast::*;
use crate::sql::plan::*;
use std::sync::Arc;

impl Binder<'_> {
    pub(super) fn bind_table_ref(&mut self, tr: TableRef) -> DbResult<(LogicalPlan, Scope)> {
        match tr {
            TableRef::Named { name, alias } => {
                let handle = self.catalog.table(&name)?;
                let schema = handle.read().schema().clone();
                let q = alias.unwrap_or_else(|| name.clone());
                let scope = Scope::from_schema(Some(&q), &schema);
                Ok((LogicalPlan::Scan { table: name, schema }, scope))
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.bind_query(*query)?;
                let scope = Scope::from_schema(Some(&alias), &plan.schema());
                Ok((plan, scope))
            }
            TableRef::TableFunction { name, args, alias } => {
                let udf = self.functions.table(&name)?;
                let mut bound_args = Vec::with_capacity(args.len());
                let mut arg_types = Vec::new();
                for a in args {
                    match a {
                        TableFuncArg::Expr(e) => {
                            let bound = self.bind_expr(&e, &Scope::default())?;
                            arg_types.push(self.type_in(&bound, &Schema::empty())?);
                            bound_args.push(BoundTableArg::Scalar(bound));
                        }
                        TableFuncArg::Subquery(q) => {
                            let plan = self.bind_query(q)?;
                            for f in plan.schema().fields() {
                                arg_types.push(f.dtype);
                            }
                            bound_args.push(BoundTableArg::Plan(plan));
                        }
                    }
                }
                let schema = udf.schema(&arg_types)?;
                let q = alias.unwrap_or_else(|| name.clone());
                let scope = Scope::from_schema(Some(&q), &schema);
                Ok((LogicalPlan::TableFunction { name, args: bound_args, schema }, scope))
            }
            TableRef::Join { left, right, join_type, constraint } => {
                let (lp, lscope) = self.bind_table_ref(*left)?;
                let (rp, rscope) = self.bind_table_ref(*right)?;
                self.bind_join(lp, lscope, rp, rscope, join_type, constraint)
            }
        }
    }

    pub(super) fn bind_join(
        &mut self,
        left: LogicalPlan,
        lscope: Scope,
        right: LogicalPlan,
        rscope: Scope,
        join_type: AstJoinType,
        constraint: JoinConstraint,
    ) -> DbResult<(LogicalPlan, Scope)> {
        let combined = lscope.clone().concat(rscope.clone());
        let jt = match join_type {
            AstJoinType::Inner => JoinType::Inner,
            AstJoinType::Left => JoinType::Left,
            AstJoinType::Cross => JoinType::Cross,
        };
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual: Option<Expr> = None;
        match constraint {
            JoinConstraint::None => {}
            JoinConstraint::Using(cols) => {
                for c in cols {
                    let li = lscope.resolve(&c)?;
                    let ri = rscope.resolve(&c)?;
                    left_keys.push(li);
                    right_keys.push(ri);
                }
            }
            JoinConstraint::On(on) => {
                // Split conjuncts; equi-conjuncts across sides become hash
                // keys, the rest a residual filter over the joined batch.
                let mut residuals = Vec::new();
                for conj in split_conjuncts(&on) {
                    if let AstExpr::Binary { op: BinaryOp::Eq, left: a, right: b } = &conj {
                        let ab = self.try_bind_side(a, &lscope).ok().flatten();
                        let bb = self.try_bind_side(b, &rscope).ok().flatten();
                        if let (Some(li), Some(ri)) = (ab, bb) {
                            left_keys.push(li);
                            right_keys.push(ri);
                            continue;
                        }
                        // Try swapped orientation.
                        let ab = self.try_bind_side(b, &lscope).ok().flatten();
                        let bb = self.try_bind_side(a, &rscope).ok().flatten();
                        if let (Some(li), Some(ri)) = (ab, bb) {
                            left_keys.push(li);
                            right_keys.push(ri);
                            continue;
                        }
                    }
                    residuals.push(conj);
                }
                if !residuals.is_empty() {
                    if jt == JoinType::Left {
                        return Err(DbError::Unsupported(
                            "non-equi conditions on LEFT JOIN".into(),
                        ));
                    }
                    let mut combined_pred: Option<AstExpr> = None;
                    for r in residuals {
                        combined_pred = Some(match combined_pred {
                            None => r,
                            Some(p) => AstExpr::Binary {
                                op: BinaryOp::And,
                                left: Box::new(p),
                                right: Box::new(r),
                            },
                        });
                    }
                    residual = Some(self.bind_expr(&combined_pred.expect("nonempty"), &combined)?);
                }
                if left_keys.is_empty() && jt != JoinType::Cross {
                    return Err(DbError::Unsupported(
                        "join without at least one equality condition".into(),
                    ));
                }
            }
        }
        // Output schema: left then right fields (names may repeat; the
        // scope carries qualifiers for disambiguation).
        let fields = combined.cols.iter().map(|c| Field::new(c.name.clone(), c.dtype)).collect();
        let schema = Arc::new(Schema::new_unchecked(fields));
        let plan = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            join_type: jt,
            left_keys,
            right_keys,
            residual,
            build_left: false,
            schema,
        };
        Ok((plan, combined))
    }

    /// Tries to bind an ON-side expression as a single column of the given
    /// scope. Returns `Ok(None)` when the expression references anything
    /// outside the scope.
    pub(super) fn try_bind_side(&mut self, e: &AstExpr, scope: &Scope) -> DbResult<Option<usize>> {
        match e {
            AstExpr::Ident(n) => Ok(scope.resolve(n).ok()),
            AstExpr::CompoundIdent(q, n) => Ok(scope.resolve_qualified(q, n).ok()),
            _ => Ok(None),
        }
    }
}

/// Splits an expression on top-level ANDs.
fn split_conjuncts(e: &AstExpr) -> Vec<AstExpr> {
    match e {
        AstExpr::Binary { op: BinaryOp::And, left, right } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}
