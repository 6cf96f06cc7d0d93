//! Static plan verification.
//!
//! [`verify_plan`] walks a bound (and usually optimized) [`LogicalPlan`]
//! *before* execution and re-derives every invariant the executor relies
//! on, so a mistyped plan surfaces as a typed [`DbError::PlanInvariant`]
//! with operator-path context instead of a panic or silent wrong answer
//! mid-query:
//!
//! * **Schema propagation** — every operator's declared output schema must
//!   be derivable from its inputs (column counts and types line up for
//!   `Project`, `Join`, `Aggregate`, `UnionAll`, `TableFunction`).
//! * **No unbound references** — every `Expr::Column(i)`, join key, and
//!   sort key must index into its input schema.
//! * **Expression types** — expression trees are re-typed bottom-up with
//!   the same rules the binder uses; a disagreement with the declared
//!   schema is a verification failure. Types that cannot be determined
//!   statically (`NULL` literals, scalar subqueries checked without their
//!   plans) are treated as *unknown* and satisfy any expectation, so
//!   verification never rejects a plan the binder legitimately produced.
//! * **UDF contracts** — every referenced scalar/table UDF must exist in
//!   the registry and accept the bound argument types via its
//!   `return_type`/`schema` hook (this is where arity mismatches are
//!   caught); a `parallel_safe` scalar UDF must not appear in a constant
//!   (non-splittable) table-function argument, where morsel semantics do
//!   not apply.
//! * **Aggregate and join key compatibility** — `SUM`/`AVG` arguments must
//!   be numeric, and each join key pair must hash identically under the
//!   row-key encoding (same type, both integers, or both floats; an
//!   `INTEGER = DOUBLE` key would silently never match).
//!
//! The verifier runs unconditionally on every plan [`crate::Database`]
//! optimizes, once, before the plan first runs ([`verify_query`]; a
//! cached plan is not re-verified when it runs again), and in debug
//! builds after each optimizer rewrite pass and at the top of
//! `sql::execute::execute_plan`.

use crate::error::{DbError, DbResult};
use crate::exec::{AggFunc, JoinType};
use crate::expr::{BinaryOp, BuiltinScalar, Expr, UnaryOp};
use crate::schema::Schema;
use crate::sql::plan::{BoundStatement, BoundTableArg, LogicalPlan, PlanAgg};
use crate::types::DataType;
use crate::udf::FunctionRegistry;
use std::sync::Arc;

/// Validates the per-column encoding invariants of a batch (dictionary
/// codes in range, run ends strictly increasing and consistent with the
/// logical length, validity bitmap logical-length). The executor runs this
/// on every table scan in debug builds, so a storage-layer encoding bug
/// surfaces at the scan that exposes it rather than as a wrong result.
pub fn verify_batch_encodings(batch: &crate::batch::Batch) -> DbResult<()> {
    for c in batch.columns() {
        c.check_encoding()?;
    }
    Ok(())
}

/// Verifies a plan against the function registry, with `Expr::Subquery`
/// placeholders typed as unknown: a plan checked without its statement's
/// subquery plans (see [`verify_query`] for the check with them).
pub fn verify_plan(plan: &LogicalPlan, functions: &FunctionRegistry) -> DbResult<()> {
    Verifier::new(Some(functions), Subqueries::Opaque).run(plan)
}

/// Verifies a plan (if any) together with its statement's scalar-subquery
/// plans, every placeholder typed from the subquery it names: each
/// subquery plan may name only those before it (the binder lists a nested
/// subquery first), and the main plan any of them. This is the check an
/// optimized plan gets once, however often it then runs.
pub fn verify_query(
    plan: Option<&LogicalPlan>,
    subs: &[LogicalPlan],
    functions: &FunctionRegistry,
) -> DbResult<()> {
    let mut types = Vec::with_capacity(subs.len());
    for (i, sub) in subs.iter().enumerate() {
        Verifier::new(Some(functions), Subqueries::Known(&types)).run(sub)?;
        let schema = sub.schema();
        if schema.len() != 1 {
            return Err(DbError::plan_invariant(
                format!("scalar subquery ${i}"),
                format!("scalar subquery must return one column, has {}", schema.len()),
            ));
        }
        types.push(schema.field(0).dtype);
    }
    match plan {
        Some(p) => Verifier::new(Some(functions), Subqueries::Known(&types)).run(p),
        None => Ok(()),
    }
}

/// Verifies every plan inside a bound statement with [`verify_query`]:
/// the main plan (if any) plus each scalar-subquery plan.
///
/// `DELETE`/`UPDATE` filter expressions are bound against catalog state
/// not captured in the statement, so only their subquery plans are
/// checked here.
pub fn verify_statement(stmt: &BoundStatement, functions: &FunctionRegistry) -> DbResult<()> {
    match stmt {
        BoundStatement::Query { plan, scalar_subs }
        | BoundStatement::Explain { plan, scalar_subs, .. }
        | BoundStatement::CreateTableAs { plan, scalar_subs, .. }
        | BoundStatement::InsertQuery { plan, scalar_subs, .. } => {
            verify_query(Some(plan), scalar_subs, functions)
        }
        BoundStatement::ExplainBuild(inner) => verify_statement(inner, functions),
        BoundStatement::Delete { scalar_subs, .. } | BoundStatement::Update { scalar_subs, .. } => {
            verify_query(None, scalar_subs, functions)
        }
        BoundStatement::CreateTable { .. }
        | BoundStatement::DropTable { .. }
        | BoundStatement::InsertValues { .. }
        | BoundStatement::ShowTables
        | BoundStatement::ShowFunctions
        | BoundStatement::DropFunction { .. }
        | BoundStatement::Checkpoint
        | BoundStatement::Save { .. } => Ok(()),
    }
}

/// Structural re-verification after an optimizer rewrite: no registry is
/// available inside the optimizer, so UDF contracts are skipped (their
/// types become unknown) but schema propagation, column bounds, and key
/// compatibility are still enforced. Only called from debug builds (the
/// optimizer gates it on `debug_assertions`).
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub(crate) fn verify_rewrite(plan: &LogicalPlan) -> DbResult<()> {
    Verifier::new(None, Subqueries::Opaque).run(plan)
}

/// Whether evaluating `e` concurrently over disjoint morsels is safe: every
/// referenced scalar UDF must declare itself `parallel_safe`; builtins,
/// plain expressions, and scalar subqueries (read-only parameters) always
/// are.
/// An unregistered UDF name is conservatively unsafe (execution will fail
/// on it anyway).
pub fn expr_parallel_safe(e: &Expr, functions: &FunctionRegistry) -> bool {
    match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) => true,
        Expr::Binary { left, right, .. } => {
            expr_parallel_safe(left, functions) && expr_parallel_safe(right, functions)
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
            expr_parallel_safe(expr, functions)
        }
        Expr::Case { operand, branches, else_expr } => {
            operand.iter().all(|e| expr_parallel_safe(e, functions))
                && branches.iter().all(|(w, t)| {
                    expr_parallel_safe(w, functions) && expr_parallel_safe(t, functions)
                })
                && else_expr.iter().all(|e| expr_parallel_safe(e, functions))
        }
        Expr::InList { expr, list, .. } => {
            expr_parallel_safe(expr, functions)
                && list.iter().all(|e| expr_parallel_safe(e, functions))
        }
        Expr::Like { expr, pattern, .. } => {
            expr_parallel_safe(expr, functions) && expr_parallel_safe(pattern, functions)
        }
        Expr::Between { expr, low, high, .. } => {
            expr_parallel_safe(expr, functions)
                && expr_parallel_safe(low, functions)
                && expr_parallel_safe(high, functions)
        }
        Expr::ScalarFn { args, .. } => args.iter().all(|e| expr_parallel_safe(e, functions)),
        Expr::Udf { name, args } => {
            functions.scalar(name).map(|u| u.parallel_safe()).unwrap_or(false)
                && args.iter().all(|e| expr_parallel_safe(e, functions))
        }
    }
}

/// [`expr_parallel_safe`] over a slice of expressions.
pub fn exprs_parallel_safe(exprs: &[Expr], functions: &FunctionRegistry) -> bool {
    exprs.iter().all(|e| expr_parallel_safe(e, functions))
}

/// How `Expr::Subquery` placeholders are typed during verification.
enum Subqueries<'a> {
    /// Types computed from the statement's scalar-subquery plans; an index
    /// past the end is a dangling reference.
    Known(&'a [DataType]),
    /// Placeholders allowed with unknown type (a plan checked without its
    /// subquery plans).
    Opaque,
}

struct Verifier<'a> {
    functions: Option<&'a FunctionRegistry>,
    subqueries: Subqueries<'a>,
    /// Operator names from the root to the node being verified.
    path: Vec<String>,
    /// True while verifying a constant table-function argument, where
    /// row-parallel UDF semantics do not apply.
    in_constant_arg: bool,
}

impl<'a> Verifier<'a> {
    fn new(functions: Option<&'a FunctionRegistry>, subqueries: Subqueries<'a>) -> Self {
        Verifier { functions, subqueries, path: Vec::new(), in_constant_arg: false }
    }

    fn run(mut self, plan: &LogicalPlan) -> DbResult<()> {
        self.plan(plan).map(drop)
    }

    fn fail(&self, message: impl Into<String>) -> DbError {
        let path = if self.path.is_empty() { "<root>".to_owned() } else { self.path.join(" > ") };
        DbError::PlanInvariant { path, message: message.into() }
    }

    /// Verifies one operator subtree and returns its (validated) schema.
    fn plan(&mut self, plan: &LogicalPlan) -> DbResult<Arc<Schema>> {
        self.path.push(plan.node_name());
        let schema = self.node(plan)?;
        self.path.pop();
        Ok(schema)
    }

    fn node(&mut self, plan: &LogicalPlan) -> DbResult<Arc<Schema>> {
        match plan {
            // The scan schema is a bind-time snapshot; the executor's
            // `conform` handles any drift against the live catalog.
            LogicalPlan::Scan { schema, .. } => Ok(schema.clone()),
            LogicalPlan::UnitRow => Ok(Schema::empty()),
            LogicalPlan::TableFunction { name, args, schema } => {
                self.table_function(name, args, schema)?;
                Ok(schema.clone())
            }
            LogicalPlan::Filter { input, predicate } => {
                let schema = self.plan(input)?;
                self.boolean_expr(predicate, &schema, "filter predicate")?;
                Ok(schema)
            }
            LogicalPlan::Project { input, exprs, schema } => {
                let input_schema = self.plan(input)?;
                if exprs.len() != schema.len() {
                    return Err(self.fail(format!(
                        "{} expressions but {} output columns",
                        exprs.len(),
                        schema.len()
                    )));
                }
                for (i, (e, field)) in exprs.iter().zip(schema.fields()).enumerate() {
                    if let Some(t) = self.expr(e, &input_schema)? {
                        if t != field.dtype {
                            return Err(self.fail(format!(
                                "output column {i} ('{}') declared {} but expression \
                                 computes {t}",
                                field.name, field.dtype
                            )));
                        }
                    }
                }
                Ok(schema.clone())
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
            } => {
                let ls = self.plan(left)?;
                let rs = self.plan(right)?;
                self.join_keys(&ls, &rs, left_keys, right_keys, *join_type)?;
                if *build_left && *join_type == JoinType::Cross {
                    return Err(self.fail("build_left set on a Cross join".to_owned()));
                }
                if let Some(pred) = residual {
                    if *join_type != JoinType::Inner {
                        return Err(
                            self.fail(format!("residual condition on a {join_type:?} join"))
                        );
                    }
                    // Residual coordinates span left then right columns —
                    // the declared schema, whose types we check next.
                    self.boolean_expr(pred, schema, "join residual")?;
                }
                if schema.len() != ls.len() + rs.len() {
                    return Err(self.fail(format!(
                        "declared {} output columns but inputs provide {} + {}",
                        schema.len(),
                        ls.len(),
                        rs.len()
                    )));
                }
                let input_types = ls.fields().iter().chain(rs.fields()).map(|f| f.dtype);
                for (i, (expected, field)) in input_types.zip(schema.fields()).enumerate() {
                    if field.dtype != expected {
                        return Err(self.fail(format!(
                            "output column {i} declared {} but input provides {expected}",
                            field.dtype
                        )));
                    }
                }
                Ok(schema.clone())
            }
            LogicalPlan::Aggregate { input, group, aggs, schema } => {
                let input_schema = self.plan(input)?;
                self.aggregate(&input_schema, group, aggs, schema)?;
                Ok(schema.clone())
            }
            LogicalPlan::Sort { input, keys } => {
                let schema = self.plan(input)?;
                for k in keys {
                    if k.column >= schema.len() {
                        return Err(self.fail(format!(
                            "sort key column #{} out of range (input has {} columns)",
                            k.column,
                            schema.len()
                        )));
                    }
                }
                Ok(schema)
            }
            LogicalPlan::Limit { input, .. } | LogicalPlan::Distinct { input } => self.plan(input),
            LogicalPlan::UnionAll { inputs, schema } => {
                if inputs.is_empty() {
                    return Err(self.fail("UNION ALL with no branches"));
                }
                for (b, branch) in inputs.iter().enumerate() {
                    let bs = self.plan(branch)?;
                    if bs.len() != schema.len() {
                        return Err(self.fail(format!(
                            "branch {b} has {} columns, union declares {}",
                            bs.len(),
                            schema.len()
                        )));
                    }
                    for (i, (bf, uf)) in bs.fields().iter().zip(schema.fields()).enumerate() {
                        if DataType::common_numeric(bf.dtype, uf.dtype).is_none() {
                            return Err(self.fail(format!(
                                "branch {b} column {i} type {} is incompatible with \
                                 union type {}",
                                bf.dtype, uf.dtype
                            )));
                        }
                    }
                }
                Ok(schema.clone())
            }
        }
    }

    fn table_function(
        &mut self,
        name: &str,
        args: &[BoundTableArg],
        declared: &Arc<Schema>,
    ) -> DbResult<()> {
        let udf = match self.functions {
            Some(registry) => Some(
                registry
                    .table(name)
                    .map_err(|_| self.fail(format!("unknown table function '{name}'")))?,
            ),
            None => None,
        };
        let mut arg_types: Vec<Option<DataType>> = Vec::new();
        for a in args {
            match a {
                BoundTableArg::Scalar(e) => {
                    // Constant arguments are evaluated over a unit batch:
                    // no input columns exist, so any reference is unbound.
                    self.in_constant_arg = true;
                    let t = self.expr(e, &Schema::empty());
                    self.in_constant_arg = false;
                    arg_types.push(t?);
                }
                BoundTableArg::Plan(p) => {
                    let s = self.plan(p)?;
                    arg_types.extend(s.fields().iter().map(|f| Some(f.dtype)));
                }
            }
        }
        let (Some(udf), Some(known)) =
            (udf, arg_types.iter().copied().collect::<Option<Vec<DataType>>>())
        else {
            return Ok(());
        };
        let computed = udf.schema(&known).map_err(|e| {
            self.fail(format!("table function '{name}' rejects its bound arguments: {e}"))
        })?;
        if computed.len() != declared.len() {
            return Err(self.fail(format!(
                "table function '{name}' produces {} columns but the plan declares {}",
                computed.len(),
                declared.len()
            )));
        }
        for (i, (cf, df)) in computed.fields().iter().zip(declared.fields()).enumerate() {
            if cf.dtype != df.dtype {
                return Err(self.fail(format!(
                    "table function '{name}' column {i} has type {} but the plan \
                     declares {}",
                    cf.dtype, df.dtype
                )));
            }
        }
        Ok(())
    }

    fn join_keys(
        &mut self,
        ls: &Schema,
        rs: &Schema,
        left_keys: &[usize],
        right_keys: &[usize],
        join_type: JoinType,
    ) -> DbResult<()> {
        if left_keys.len() != right_keys.len() {
            return Err(self.fail(format!(
                "{} left keys vs {} right keys",
                left_keys.len(),
                right_keys.len()
            )));
        }
        if join_type == JoinType::Cross && !left_keys.is_empty() {
            return Err(self.fail("cross join with equi-keys"));
        }
        for (&lk, &rk) in left_keys.iter().zip(right_keys) {
            let lf = ls.fields().get(lk).ok_or_else(|| {
                self.fail(format!(
                    "left join key #{lk} out of range (left input has {} columns)",
                    ls.len()
                ))
            })?;
            let rf = rs.fields().get(rk).ok_or_else(|| {
                self.fail(format!(
                    "right join key #{rk} out of range (right input has {} columns)",
                    rs.len()
                ))
            })?;
            if !join_key_compatible(lf.dtype, rf.dtype, left_keys.len() == 1) {
                return Err(self.fail(format!(
                    "type-incompatible join key: {} ({}) vs {} ({}) never hash equal",
                    lf.name, lf.dtype, rf.name, rf.dtype
                )));
            }
        }
        Ok(())
    }

    fn aggregate(
        &mut self,
        input: &Schema,
        group: &[Expr],
        aggs: &[PlanAgg],
        schema: &Arc<Schema>,
    ) -> DbResult<()> {
        if schema.len() != group.len() + aggs.len() {
            return Err(self.fail(format!(
                "{} group keys + {} aggregates but {} output columns",
                group.len(),
                aggs.len(),
                schema.len()
            )));
        }
        for (i, g) in group.iter().enumerate() {
            if let Some(t) = self.expr(g, input)? {
                let declared = schema.field(i).dtype;
                if t != declared {
                    return Err(self.fail(format!(
                        "group key {i} declared {declared} but expression computes {t}"
                    )));
                }
            }
        }
        for (j, agg) in aggs.iter().enumerate() {
            let arg_type = match (&agg.arg, agg.func) {
                (None, AggFunc::CountStar) => None,
                (None, f) => {
                    return Err(self.fail(format!("{f:?} requires an argument")));
                }
                (Some(_), AggFunc::CountStar) => {
                    return Err(self.fail("COUNT(*) takes no argument"));
                }
                (Some(e), _) => self.expr(e, input)?,
            };
            // Sum mirrors the binder's bind-time check; Avg accepts
            // anything the accumulator can fold to f64.
            let expected = match (agg.func, arg_type) {
                (AggFunc::CountStar | AggFunc::Count, _) => Some(DataType::Int64),
                (AggFunc::Avg, Some(t)) if !t.is_numeric() && t != DataType::Boolean => {
                    return Err(self.fail(format!("AVG over non-numeric type {t}")));
                }
                (AggFunc::Avg, _) => Some(DataType::Float64),
                (AggFunc::Sum, Some(t)) if t.is_integer() => Some(DataType::Int64),
                (AggFunc::Sum, Some(t)) if t.is_float() => Some(DataType::Float64),
                (AggFunc::Sum, Some(t)) => {
                    return Err(self.fail(format!("SUM over non-numeric type {t}")));
                }
                (AggFunc::Sum, None) => None,
                (AggFunc::Min | AggFunc::Max, t) => t,
            };
            if let Some(expected) = expected {
                let declared = schema.field(group.len() + j).dtype;
                if declared != expected {
                    return Err(self.fail(format!(
                        "aggregate {j} ({:?}) declared {declared} but computes {expected}",
                        agg.func
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks a predicate-position expression: unbound references are
    /// errors and a statically-known non-boolean type is rejected.
    fn boolean_expr(&mut self, e: &Expr, input: &Schema, what: &str) -> DbResult<()> {
        if let Some(t) = self.expr(e, input)? {
            if t != DataType::Boolean {
                return Err(self.fail(format!("{what} has type {t}, expected BOOLEAN")));
            }
        }
        Ok(())
    }

    /// Re-types an expression bottom-up with the binder's rules. `None`
    /// means the type cannot be determined statically (NULL literal or
    /// opaque subquery somewhere relevant) and matches anything.
    fn expr(&mut self, e: &Expr, input: &Schema) -> DbResult<Option<DataType>> {
        Ok(match e {
            Expr::Column(i) => match input.fields().get(*i) {
                Some(f) => Some(f.dtype),
                None => {
                    return Err(self.fail(format!(
                        "unbound column reference #{i} (input has {} columns)",
                        input.len()
                    )));
                }
            },
            Expr::Literal(v) => v.data_type(),
            Expr::Binary { op, left, right } => {
                let lt = self.expr(left, input)?;
                let rt = self.expr(right, input)?;
                match op {
                    op if op.is_comparison() => Some(DataType::Boolean),
                    BinaryOp::And | BinaryOp::Or => Some(DataType::Boolean),
                    BinaryOp::Concat => Some(DataType::Varchar),
                    _ => match (lt, rt) {
                        (Some(l), Some(r)) => Some(if l.is_integer() && r.is_integer() {
                            DataType::Int64
                        } else {
                            DataType::Float64
                        }),
                        // One side unknown: only a non-integer known side
                        // pins the result (the "both integers" rule can no
                        // longer apply).
                        (Some(t), None) | (None, Some(t)) if !t.is_integer() => {
                            Some(DataType::Float64)
                        }
                        _ => None,
                    },
                }
            }
            Expr::Unary { op, expr } => {
                let t = self.expr(expr, input)?;
                match op {
                    UnaryOp::Not => Some(DataType::Boolean),
                    UnaryOp::Neg => {
                        t.map(|t| if t.is_float() { DataType::Float64 } else { DataType::Int64 })
                    }
                }
            }
            Expr::Cast { expr, to } => {
                self.expr(expr, input)?;
                Some(*to)
            }
            Expr::IsNull { expr, .. } => {
                self.expr(expr, input)?;
                Some(DataType::Boolean)
            }
            Expr::InList { expr, list, .. } => {
                self.expr(expr, input)?;
                for x in list {
                    self.expr(x, input)?;
                }
                Some(DataType::Boolean)
            }
            Expr::Like { expr, pattern, .. } => {
                self.expr(expr, input)?;
                self.expr(pattern, input)?;
                Some(DataType::Boolean)
            }
            Expr::Between { expr, low, high, .. } => {
                self.expr(expr, input)?;
                self.expr(low, input)?;
                self.expr(high, input)?;
                Some(DataType::Boolean)
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.expr(o, input)?;
                }
                let mut result: Option<DataType> = None;
                let mut unknown = false;
                let mut outputs = Vec::with_capacity(branches.len() + 1);
                for (when, then) in branches {
                    self.expr(when, input)?;
                    outputs.push(self.expr(then, input)?);
                }
                if let Some(e) = else_expr {
                    outputs.push(self.expr(e, input)?);
                }
                for t in outputs {
                    let Some(t) = t else {
                        unknown = true;
                        continue;
                    };
                    result = Some(match result {
                        None => t,
                        Some(prev) => DataType::common_numeric(prev, t).ok_or_else(|| {
                            self.fail(format!("CASE branches mix {prev} and {t}"))
                        })?,
                    });
                }
                if unknown {
                    None
                } else {
                    // No typed branch at all: the binder defaults to Int32.
                    Some(result.unwrap_or(DataType::Int32))
                }
            }
            Expr::ScalarFn { func, args } => {
                let (lo, hi) = func.arity();
                if args.len() < lo || args.len() > hi {
                    return Err(self.fail(format!(
                        "{func:?} expects {lo}{} argument(s), got {}",
                        if hi == usize::MAX {
                            "+".to_owned()
                        } else if hi > lo {
                            format!("..={hi}")
                        } else {
                            String::new()
                        },
                        args.len()
                    )));
                }
                let mut types = Vec::with_capacity(args.len());
                for a in args {
                    types.push(self.expr(a, input)?);
                }
                self.scalar_fn_type(*func, &types)?
            }
            Expr::Udf { name, args } => {
                let mut types = Vec::with_capacity(args.len());
                for a in args {
                    types.push(self.expr(a, input)?);
                }
                let Some(registry) = self.functions else {
                    return Ok(None);
                };
                let udf = registry
                    .scalar(name)
                    .map_err(|_| self.fail(format!("unknown scalar UDF '{name}'")))?;
                if self.in_constant_arg && udf.parallel_safe() {
                    return Err(self.fail(format!(
                        "parallel-safe UDF '{name}' used in a constant (non-splittable) \
                         table-function argument"
                    )));
                }
                match types.iter().copied().collect::<Option<Vec<DataType>>>() {
                    Some(known) => Some(udf.return_type(&known).map_err(|e| {
                        self.fail(format!("scalar UDF '{name}' rejects its bound arguments: {e}"))
                    })?),
                    None => None,
                }
            }
            Expr::Subquery(i) => match &self.subqueries {
                Subqueries::Known(types) => Some(*types.get(*i).ok_or_else(|| {
                    self.fail(format!("dangling scalar subquery ${i} ({} recorded)", types.len()))
                })?),
                Subqueries::Opaque => None,
            },
        })
    }

    /// Builtin return types, mirroring the binder's `infer_type` with
    /// unknown-propagation.
    fn scalar_fn_type(
        &self,
        func: BuiltinScalar,
        args: &[Option<DataType>],
    ) -> DbResult<Option<DataType>> {
        Ok(match func {
            BuiltinScalar::Abs | BuiltinScalar::Sign => {
                args[0].map(|t| if t.is_integer() { DataType::Int64 } else { DataType::Float64 })
            }
            BuiltinScalar::Floor
            | BuiltinScalar::Ceil
            | BuiltinScalar::Round
            | BuiltinScalar::Sqrt
            | BuiltinScalar::Exp
            | BuiltinScalar::Ln
            | BuiltinScalar::Log10
            | BuiltinScalar::Power => Some(DataType::Float64),
            BuiltinScalar::Length | BuiltinScalar::OctetLength => Some(DataType::Int64),
            BuiltinScalar::Lower
            | BuiltinScalar::Upper
            | BuiltinScalar::Trim
            | BuiltinScalar::Substr
            | BuiltinScalar::Concat => Some(DataType::Varchar),
            BuiltinScalar::Nullif => args[0],
            BuiltinScalar::Coalesce | BuiltinScalar::Least | BuiltinScalar::Greatest => {
                let mut result: Option<DataType> = None;
                for t in args {
                    let Some(t) = *t else { return Ok(None) };
                    result = Some(match result {
                        None => t,
                        Some(prev) => DataType::common_numeric(prev, t).ok_or_else(|| {
                            self.fail(format!("{func:?} arguments mix {prev} and {t}"))
                        })?,
                    });
                }
                result
            }
        })
    }
}

/// True when a `left = right` hash key pair compares correctly under the
/// row-key encoding (see `exec::rowkey`): identical types always do; any
/// two integer types and any two float types normalize to the same
/// encoding; and the single-key integer fast path additionally treats
/// BOOLEAN as an integer.
fn join_key_compatible(left: DataType, right: DataType, single_key: bool) -> bool {
    let int_like = |t: DataType| t.is_integer() || (single_key && t == DataType::Boolean);
    left == right || (int_like(left) && int_like(right)) || (left.is_float() && right.is_float())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::database::Database;
    use crate::schema::Field;
    use crate::sql::plan::PlanSortKey;
    use crate::udf::{ClosureScalarUdf, TableUdf};
    use crate::Batch;

    fn scan(types: &[DataType]) -> LogicalPlan {
        let fields =
            types.iter().enumerate().map(|(i, t)| Field::new(format!("c{i}"), *t)).collect();
        LogicalPlan::Scan { table: "t".into(), schema: Arc::new(Schema::new_unchecked(fields)) }
    }

    fn schema_of(types: &[DataType]) -> Arc<Schema> {
        Arc::new(Schema::new_unchecked(
            types.iter().enumerate().map(|(i, t)| Field::new(format!("o{i}"), *t)).collect(),
        ))
    }

    fn assert_invariant(result: DbResult<()>, needle: &str) {
        match result {
            Err(DbError::PlanInvariant { path, message }) => {
                assert!(
                    message.contains(needle),
                    "message {message:?} (at {path}) should contain {needle:?}"
                );
            }
            other => panic!("expected PlanInvariant containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn unbound_column_reference_rejected() {
        let registry = FunctionRegistry::new();
        let plan = LogicalPlan::Project {
            input: Box::new(scan(&[DataType::Int32, DataType::Int32])),
            exprs: vec![Expr::col(5)],
            schema: schema_of(&[DataType::Int32]),
        };
        assert_invariant(verify_plan(&plan, &registry), "unbound column reference #5");
    }

    #[test]
    fn udf_arity_mismatch_rejected() {
        let registry = FunctionRegistry::new();
        registry.register_scalar(Arc::new(
            ClosureScalarUdf::new("plus_one", DataType::Int64, |args| Ok(args[0].as_ref().clone()))
                .with_arity(1),
        ));
        let plan = LogicalPlan::Project {
            input: Box::new(scan(&[DataType::Int32, DataType::Int32])),
            exprs: vec![Expr::Udf {
                name: "plus_one".into(),
                args: vec![Expr::col(0), Expr::col(1)],
            }],
            schema: schema_of(&[DataType::Int64]),
        };
        assert_invariant(verify_plan(&plan, &registry), "plus_one");
    }

    #[test]
    fn type_incompatible_join_key_rejected() {
        let registry = FunctionRegistry::new();
        let join = |l: DataType, r: DataType| LogicalPlan::Join {
            left: Box::new(scan(&[l])),
            right: Box::new(scan(&[r])),
            join_type: JoinType::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            build_left: false,
            schema: schema_of(&[l, r]),
        };
        assert_invariant(
            verify_plan(&join(DataType::Int32, DataType::Varchar), &registry),
            "type-incompatible join key",
        );
        assert_invariant(
            verify_plan(&join(DataType::Int64, DataType::Float64), &registry),
            "type-incompatible join key",
        );
        // Width-only differences normalize in the row-key encoding.
        verify_plan(&join(DataType::Int32, DataType::Int64), &registry).unwrap();
        verify_plan(&join(DataType::Float32, DataType::Float64), &registry).unwrap();
    }

    #[test]
    fn incompatible_join_key_rejected_via_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE a (x INTEGER)").unwrap();
        db.execute("CREATE TABLE b (y VARCHAR)").unwrap();
        let err = db.execute("SELECT * FROM a JOIN b ON a.x = b.y").unwrap_err();
        assert!(
            matches!(err, DbError::PlanInvariant { .. }),
            "expected PlanInvariant, got {err:?}"
        );
        // DOUBLE vs INTEGER keys never hash equal either.
        db.execute("CREATE TABLE c (z DOUBLE)").unwrap();
        let err = db.execute("SELECT * FROM a JOIN c ON a.x = c.z").unwrap_err();
        assert!(matches!(err, DbError::PlanInvariant { .. }), "{err:?}");
    }

    #[test]
    fn project_type_mismatch_rejected() {
        let registry = FunctionRegistry::new();
        let plan = LogicalPlan::Project {
            input: Box::new(scan(&[DataType::Int32])),
            // a + 1 computes Int64, but the schema claims Varchar.
            exprs: vec![Expr::binary(BinaryOp::Add, Expr::col(0), Expr::lit(1i64))],
            schema: schema_of(&[DataType::Varchar]),
        };
        assert_invariant(verify_plan(&plan, &registry), "declared VARCHAR");
    }

    #[test]
    fn aggregate_contract_checks() {
        let registry = FunctionRegistry::new();
        let sum_over_varchar = LogicalPlan::Aggregate {
            input: Box::new(scan(&[DataType::Varchar])),
            group: vec![],
            aggs: vec![PlanAgg { func: AggFunc::Sum, arg: Some(Expr::col(0)), distinct: false }],
            schema: schema_of(&[DataType::Int64]),
        };
        assert_invariant(verify_plan(&sum_over_varchar, &registry), "SUM over non-numeric");

        let wrong_width = LogicalPlan::Aggregate {
            input: Box::new(scan(&[DataType::Int32])),
            group: vec![Expr::col(0)],
            aggs: vec![],
            schema: schema_of(&[DataType::Int32, DataType::Int64]),
        };
        assert_invariant(verify_plan(&wrong_width, &registry), "output columns");
    }

    #[test]
    fn sort_key_out_of_range_rejected() {
        let registry = FunctionRegistry::new();
        let plan = LogicalPlan::Sort {
            input: Box::new(scan(&[DataType::Int32])),
            keys: vec![PlanSortKey { column: 3, ascending: true, nulls_first: false }],
        };
        assert_invariant(verify_plan(&plan, &registry), "sort key column #3");
    }

    #[test]
    fn union_shape_checks() {
        let registry = FunctionRegistry::new();
        let width_mismatch = LogicalPlan::UnionAll {
            inputs: vec![scan(&[DataType::Int32, DataType::Int32]), scan(&[DataType::Int32])],
            schema: schema_of(&[DataType::Int32, DataType::Int32]),
        };
        assert_invariant(verify_plan(&width_mismatch, &registry), "branch 1");

        let type_mismatch = LogicalPlan::UnionAll {
            inputs: vec![scan(&[DataType::Varchar]), scan(&[DataType::Int32])],
            schema: schema_of(&[DataType::Varchar]),
        };
        assert_invariant(verify_plan(&type_mismatch, &registry), "incompatible");
    }

    #[test]
    fn error_reports_operator_path() {
        let registry = FunctionRegistry::new();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(&[DataType::Int32])),
                predicate: Expr::binary(BinaryOp::Eq, Expr::col(9), Expr::lit(1i32)),
            }),
            limit: Some(1),
            offset: 0,
        };
        match verify_plan(&plan, &registry) {
            Err(DbError::PlanInvariant { path, .. }) => {
                assert_eq!(path, "Limit > Filter");
            }
            other => panic!("{other:?}"),
        }
    }

    struct UnitTableUdf;
    impl TableUdf for UnitTableUdf {
        fn name(&self) -> &str {
            "unit_rows"
        }
        fn schema(&self, _args: &[DataType]) -> DbResult<Arc<Schema>> {
            Ok(Arc::new(Schema::new_unchecked(vec![Field::new("n", DataType::Int64)])))
        }
        fn invoke(&self, _args: &[Arc<Column>]) -> DbResult<Batch> {
            Batch::from_columns(vec![("n", Column::from_i64s(vec![1]))])
        }
    }

    #[test]
    fn parallel_safe_udf_rejected_in_constant_argument() {
        let registry = FunctionRegistry::new();
        registry.register_table(Arc::new(UnitTableUdf));
        registry.register_scalar(Arc::new(
            ClosureScalarUdf::new("rowwise", DataType::Int64, |args| Ok(args[0].as_ref().clone()))
                .parallel(),
        ));
        let plan = LogicalPlan::TableFunction {
            name: "unit_rows".into(),
            args: vec![BoundTableArg::Scalar(Expr::Udf {
                name: "rowwise".into(),
                args: vec![Expr::lit(1i64)],
            })],
            schema: schema_of(&[DataType::Int64]),
        };
        assert_invariant(verify_plan(&plan, &registry), "parallel-safe UDF 'rowwise'");
    }

    #[test]
    fn table_function_schema_mismatch_rejected() {
        let registry = FunctionRegistry::new();
        registry.register_table(Arc::new(UnitTableUdf));
        let plan = LogicalPlan::TableFunction {
            name: "unit_rows".into(),
            args: vec![],
            schema: schema_of(&[DataType::Varchar]),
        };
        assert_invariant(verify_plan(&plan, &registry), "declares VARCHAR");
        let missing = LogicalPlan::TableFunction {
            name: "nope".into(),
            args: vec![],
            schema: schema_of(&[DataType::Int64]),
        };
        assert_invariant(verify_plan(&missing, &registry), "unknown table function");
    }

    #[test]
    fn statement_verification_types_subqueries() {
        let registry = FunctionRegistry::new();
        // SELECT c0 FROM t WHERE c0 > $0 with $0 : AVG(c0) :: Float64.
        let sub = LogicalPlan::Aggregate {
            input: Box::new(scan(&[DataType::Int32])),
            group: vec![],
            aggs: vec![PlanAgg { func: AggFunc::Avg, arg: Some(Expr::col(0)), distinct: false }],
            schema: schema_of(&[DataType::Float64]),
        };
        let stmt = BoundStatement::Query {
            plan: LogicalPlan::Filter {
                input: Box::new(scan(&[DataType::Int32])),
                predicate: Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::Subquery(0)),
            },
            scalar_subs: vec![sub],
        };
        verify_statement(&stmt, &registry).unwrap();

        let dangling = BoundStatement::Query {
            plan: LogicalPlan::Filter {
                input: Box::new(scan(&[DataType::Int32])),
                predicate: Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::Subquery(7)),
            },
            scalar_subs: vec![],
        };
        assert_invariant(verify_statement(&dangling, &registry), "dangling scalar subquery");
    }

    #[test]
    fn legitimate_sql_passes_verification() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', 1.5)").unwrap();
        for sql in [
            "SELECT a, UPPER(b), c * 2 FROM t WHERE a > 0 ORDER BY a DESC LIMIT 1",
            "SELECT b, COUNT(*), SUM(a), AVG(c) FROM t GROUP BY b HAVING COUNT(*) > 0",
            "SELECT t1.a, t2.b FROM t t1 JOIN t t2 ON t1.a = t2.a",
            "SELECT DISTINCT b FROM t UNION ALL SELECT 'z'",
            "SELECT a FROM t WHERE c > (SELECT AVG(c) FROM t)",
            "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
        ] {
            db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn display_formats_plan_invariant() {
        let e = DbError::plan_invariant("Project > Scan(t)", "boom");
        assert_eq!(e.to_string(), "plan invariant violated at Project > Scan(t): boom");
        let v = Verifier::new(None, Subqueries::Opaque);
        assert!(matches!(v.fail("x"), DbError::PlanInvariant { path, .. } if path == "<root>"));
    }
}
