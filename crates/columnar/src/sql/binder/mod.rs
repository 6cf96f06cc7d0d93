//! The binder: resolves the parse AST against the catalog and function
//! registry, producing a positional [`LogicalPlan`].
//!
//! One `Binder` binds every statement; each statement kind binds in a
//! file of its own (`bind_select`, `bind_dml`), over the clause binders
//! they share (`bind_from`, `bind_expr`). A bound expression is typed by
//! the one rule in [`crate::expr`], the rule the plan verifier re-checks.

mod bind_dml;
mod bind_expr;
mod bind_from;
mod bind_select;
mod scope;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::expr::{type_of, Expr, TypeEnv};
use crate::schema::{Field, Schema};
use crate::sql::ast::*;
use crate::sql::plan::*;
use crate::types::{DataType, Value};
use crate::udf::FunctionRegistry;
use scope::Scope;
use std::sync::Arc;

/// Binds one parsed statement.
pub fn bind(
    stmt: Statement,
    catalog: &Catalog,
    functions: &FunctionRegistry,
) -> DbResult<BoundStatement> {
    let mut b = Binder { catalog, functions, scalar_subs: Vec::new() };
    b.bind_statement(stmt)
}

struct Binder<'a> {
    catalog: &'a Catalog,
    functions: &'a FunctionRegistry,
    /// Uncorrelated scalar subqueries gathered while binding; referenced by
    /// `Expr::Subquery(index)` placeholders.
    scalar_subs: Vec<LogicalPlan>,
}

impl<'a> Binder<'a> {
    fn bind_statement(&mut self, stmt: Statement) -> DbResult<BoundStatement> {
        match stmt {
            Statement::CreateTable { name, columns, if_not_exists } => {
                let fields = columns
                    .into_iter()
                    .map(|c| Field { name: c.name, dtype: c.dtype, nullable: c.nullable })
                    .collect();
                Ok(BoundStatement::CreateTable {
                    name,
                    schema: Arc::new(Schema::new(fields)?),
                    if_not_exists,
                })
            }
            Statement::CreateTableAs { name, query, if_not_exists } => {
                let plan = self.bind_query(query)?;
                Ok(BoundStatement::CreateTableAs {
                    name,
                    plan,
                    scalar_subs: std::mem::take(&mut self.scalar_subs),
                    if_not_exists,
                })
            }
            Statement::DropTable { name, if_exists } => {
                Ok(BoundStatement::DropTable { name, if_exists })
            }
            Statement::DropFunction { name, if_exists } => {
                Ok(BoundStatement::DropFunction { name, if_exists })
            }
            Statement::ShowTables => Ok(BoundStatement::ShowTables),
            Statement::ShowFunctions => Ok(BoundStatement::ShowFunctions),
            Statement::Checkpoint => Ok(BoundStatement::Checkpoint),
            Statement::Save { path } => Ok(BoundStatement::Save { path }),
            Statement::Query(q) => {
                let plan = self.bind_query(q)?;
                Ok(BoundStatement::Query {
                    plan,
                    scalar_subs: std::mem::take(&mut self.scalar_subs),
                })
            }
            Statement::Explain { query, analyze } => {
                let plan = self.bind_query(query)?;
                Ok(BoundStatement::Explain {
                    plan,
                    scalar_subs: std::mem::take(&mut self.scalar_subs),
                    analyze,
                })
            }
            Statement::ExplainBuild(inner) => match self.bind_statement(*inner)? {
                build @ (BoundStatement::CreateTableAs { .. }
                | BoundStatement::InsertQuery { .. }) => {
                    Ok(BoundStatement::ExplainBuild(Box::new(build)))
                }
                _ => Err(DbError::Unsupported(
                    "EXPLAIN ANALYZE of a statement other than SELECT, CREATE TABLE … AS \
                     or INSERT … SELECT"
                        .into(),
                )),
            },
            Statement::Insert { table, columns, source } => {
                self.bind_insert(table, columns, source)
            }
            Statement::Delete { table, filter } => self.bind_delete(table, filter),
            Statement::Update { table, assignments, filter } => {
                self.bind_update(table, assignments, filter)
            }
        }
    }

    /// The type of a bound expression over `input`.
    fn type_in(&self, e: &Expr, input: &Schema) -> DbResult<DataType> {
        type_of(e, input, self)?.ok_or_else(|| DbError::internal(format!("untyped expression {e}")))
    }
}

/// The binder answers every type: a `NULL` literal is an `INTEGER`, a
/// scalar subquery has its plan's type, a UDF returns what it says it
/// returns. It types only the operands that decide a result's type.
impl TypeEnv for Binder<'_> {
    fn null_type(&self) -> Option<DataType> {
        Some(DataType::Int32)
    }

    fn subquery_type(&self, i: usize) -> DbResult<Option<DataType>> {
        let plan =
            self.scalar_subs.get(i).ok_or_else(|| DbError::internal("dangling subquery index"))?;
        Ok(Some(plan.schema().field(0).dtype))
    }

    fn udf_type(&self, name: &str, args: &[Option<DataType>]) -> DbResult<Option<DataType>> {
        let args: Vec<DataType> = args
            .iter()
            .copied()
            .collect::<Option<_>>()
            .ok_or_else(|| DbError::internal(format!("untyped argument of {name}")))?;
        Ok(Some(self.functions.scalar(name)?.return_type(&args)?))
    }

    fn checks_operands(&self) -> bool {
        false
    }

    fn error(&self, message: String) -> DbError {
        DbError::Type(message)
    }
}

/// The columns an expression binds over: a FROM scope, or the output of
/// an aggregate (grouped selects, and their hidden ORDER BY columns).
#[derive(Clone, Copy)]
enum BindBelow<'a> {
    Scope(&'a Scope),
    PostAgg(&'a PostAggScope<'a>),
}

/// Post-aggregation binding context.
struct PostAggScope<'a> {
    group_asts: &'a [AstExpr],
    agg_asts: &'a [AstExpr],
    schema: &'a Arc<Schema>,
}

/// Evaluates a constant (column-free) expression to a single value.
pub fn eval_constant(e: &Expr) -> DbResult<Value> {
    let mut refs = Vec::new();
    e.referenced_columns(&mut refs);
    if !refs.is_empty() {
        return Err(DbError::bind("expression must be constant (no column references)"));
    }
    if e.has_subquery() {
        return Err(DbError::bind("constant expression cannot contain a subquery here"));
    }
    // Evaluate over a one-row unit batch.
    let unit = crate::batch::Batch::from_columns(vec![(
        "__unit",
        crate::column::Column::from_bools(vec![false]),
    )])?;
    let ctx = crate::expr::EvalContext::new(&unit, None);
    let col = crate::expr::eval(&ctx, e)?;
    Ok(col.value(0))
}
