//! Expressions, in a `FROM` scope or over an aggregate's output.

use super::scope::Scope;
use super::{eval_constant, BindBelow, Binder};
use crate::error::{DbError, DbResult};
use crate::exec::AggFunc;
use crate::expr::{BuiltinScalar, Expr};
use crate::sql::ast::*;
use crate::sql::plan::*;

impl Binder<'_> {
    /// Binds an expression over the columns of a `FROM` scope.
    pub(super) fn bind_expr(&mut self, e: &AstExpr, scope: &Scope) -> DbResult<Expr> {
        self.bind_in(e, BindBelow::Scope(scope))
    }

    /// Binds an expression over the columns `names` makes visible. Over an
    /// aggregate's output, group expressions and aggregate calls become
    /// positional references into it; anything else must decompose into
    /// those.
    pub(super) fn bind_in(&mut self, e: &AstExpr, names: BindBelow<'_>) -> DbResult<Expr> {
        if let BindBelow::PostAgg(post) = names {
            // A group expression, the alias of one, or an aggregate call.
            if let Some(i) = post.group_asts.iter().position(|g| g == e) {
                return Ok(Expr::Column(i));
            }
            if let Some(i) = match e {
                AstExpr::Ident(n) => post.schema.index_of(n),
                _ => None,
            } {
                return Ok(Expr::Column(i));
            }
            if let Some(i) = post.agg_asts.iter().position(|a| a == e) {
                return Ok(Expr::Column(post.group_asts.len() + i));
            }
        }
        let mut bind = |e: &AstExpr| self.bind_in(e, names).map(Box::new);
        Ok(match e {
            AstExpr::Ident(n) => match names {
                BindBelow::Scope(scope) => Expr::Column(scope.resolve(n)?),
                BindBelow::PostAgg(_) => return Err(not_grouped(n)),
            },
            AstExpr::CompoundIdent(q, n) => match names {
                BindBelow::Scope(scope) => Expr::Column(scope.resolve_qualified(q, n)?),
                BindBelow::PostAgg(_) => return Err(not_grouped(&format!("{q}.{n}"))),
            },
            AstExpr::Literal(v) => Expr::Literal(v.clone()),
            AstExpr::Binary { op, left, right } => {
                Expr::Binary { op: *op, left: bind(left)?, right: bind(right)? }
            }
            AstExpr::Unary { op, expr } => Expr::Unary { op: *op, expr: bind(expr)? },
            AstExpr::Cast { expr, to } => Expr::Cast { expr: bind(expr)?, to: *to },
            AstExpr::IsNull { expr, negated } => {
                Expr::IsNull { expr: bind(expr)?, negated: *negated }
            }
            AstExpr::Case { operand, branches, else_expr } => Expr::Case {
                operand: operand.as_deref().map(&mut bind).transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((*bind(w)?, *bind(t)?)))
                    .collect::<DbResult<_>>()?,
                else_expr: else_expr.as_deref().map(&mut bind).transpose()?,
            },
            AstExpr::InList { expr, list, negated } => Expr::InList {
                expr: bind(expr)?,
                list: list.iter().map(|x| bind(x).map(|b| *b)).collect::<DbResult<_>>()?,
                negated: *negated,
            },
            AstExpr::Like { expr, pattern, negated } => {
                Expr::Like { expr: bind(expr)?, pattern: bind(pattern)?, negated: *negated }
            }
            AstExpr::Between { expr, low, high, negated } => Expr::Between {
                expr: bind(expr)?,
                low: bind(low)?,
                high: bind(high)?,
                negated: *negated,
            },
            AstExpr::ScalarSubquery(q) => {
                let plan = self.bind_query((**q).clone())?;
                if plan.schema().len() != 1 {
                    return Err(DbError::bind(format!(
                        "scalar subquery must return one column, returns {}",
                        plan.schema().len()
                    )));
                }
                self.scalar_subs.push(plan);
                Expr::Subquery(self.scalar_subs.len() - 1)
            }
            AstExpr::Function { name, args, .. } => {
                if AggFunc::from_name(name).is_some() {
                    return Err(DbError::bind(match names {
                        BindBelow::Scope(_) => {
                            format!("aggregate function {name}() is not allowed here")
                        }
                        BindBelow::PostAgg(_) => "nested aggregate functions".to_owned(),
                    }));
                }
                let args: Vec<Expr> =
                    args.iter().map(|a| bind(a).map(|b| *b)).collect::<DbResult<_>>()?;
                if let Some(func) = BuiltinScalar::from_name(name) {
                    let (min, max) = func.arity();
                    if args.len() < min || args.len() > max {
                        return Err(DbError::bind(format!(
                            "{name} expects at least {min} argument(s), got {}",
                            args.len()
                        )));
                    }
                    Expr::ScalarFn { func, args }
                } else if self.functions.has_scalar(name) {
                    Expr::Udf { name: name.clone(), args }
                } else {
                    return Err(DbError::NotFound { kind: "function", name: name.clone() });
                }
            }
        })
    }

    /// True if the AST contains an aggregate function call.
    pub(super) fn contains_aggregate(&self, e: &AstExpr) -> bool {
        let mut found = Vec::new();
        collect_aggregates(e, &mut found);
        !found.is_empty()
    }

    pub(super) fn bind_aggregate_call(&mut self, a: &AstExpr, scope: &Scope) -> DbResult<PlanAgg> {
        match a {
            AstExpr::Function { name, args, distinct, star } => {
                let func = AggFunc::from_name(name)
                    .ok_or_else(|| DbError::internal(format!("{name} is not an aggregate")))?;
                if *star {
                    return Ok(PlanAgg { func: AggFunc::CountStar, arg: None, distinct: false });
                }
                if args.len() != 1 {
                    return Err(DbError::bind(format!("{name}() expects exactly one argument")));
                }
                let arg = self.bind_expr(&args[0], scope)?;
                Ok(PlanAgg { func, arg: Some(arg), distinct: *distinct })
            }
            _ => Err(DbError::internal("bind_aggregate_call on non-function")),
        }
    }

    pub(super) fn constant_usize(&mut self, e: &AstExpr, what: &str) -> DbResult<usize> {
        let bound = self.bind_expr(e, &Scope::default())?;
        let v = eval_constant(&bound)?;
        v.as_i64()
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| DbError::bind(format!("{what} must be a non-negative integer")))
    }
}

/// Collects aggregate function calls (deduplicated by syntactic equality).
pub(super) fn collect_aggregates(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::Function { name, args, star, .. } => {
            if AggFunc::from_name(name).is_some() || *star {
                if !out.contains(e) {
                    out.push(e.clone());
                }
                return; // do not descend into aggregate arguments
            }
            for a in args {
                collect_aggregates(a, out);
            }
        }
        AstExpr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        AstExpr::Unary { expr, .. } | AstExpr::Cast { expr, .. } | AstExpr::IsNull { expr, .. } => {
            collect_aggregates(expr, out)
        }
        AstExpr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                collect_aggregates(o, out);
            }
            for (w, t) in branches {
                collect_aggregates(w, out);
                collect_aggregates(t, out);
            }
            if let Some(x) = else_expr {
                collect_aggregates(x, out);
            }
        }
        AstExpr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for x in list {
                collect_aggregates(x, out);
            }
        }
        AstExpr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        AstExpr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        AstExpr::Ident(_)
        | AstExpr::CompoundIdent(..)
        | AstExpr::Literal(_)
        | AstExpr::ScalarSubquery(_) => {}
    }
}

/// The error for a column a grouped `SELECT` names outside its groups and
/// aggregates.
fn not_grouped(column: &str) -> DbError {
    DbError::bind(format!("column '{column}' must appear in GROUP BY or inside an aggregate"))
}
