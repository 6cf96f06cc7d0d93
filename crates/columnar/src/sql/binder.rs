//! The binder: resolves the parse AST against the catalog and function
//! registry, producing a positional [`LogicalPlan`].

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::exec::{AggFunc, JoinType};
use crate::expr::{BinaryOp, BuiltinScalar, Expr, UnaryOp};
use crate::schema::{Field, Schema};
use crate::sql::ast::*;
use crate::sql::plan::*;
use crate::types::{DataType, Value};
use crate::udf::FunctionRegistry;
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

/// One visible column during binding: optional qualifier, name, type.
#[derive(Debug, Clone)]
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    dtype: DataType,
}

/// The set of columns visible to expressions, in input-batch order.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn from_schema(qualifier: Option<&str>, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| ScopeCol {
                    qualifier: qualifier.map(str::to_owned),
                    name: f.name.to_ascii_lowercase(),
                    dtype: f.dtype,
                })
                .collect(),
        }
    }

    fn concat(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    /// Resolves a bare identifier; ambiguity is an error.
    fn resolve(&self, name: &str) -> DbResult<usize> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if c.name == name {
                if found.is_some() {
                    return Err(DbError::bind(format!("column '{name}' is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| DbError::NotFound { kind: "column", name: name.to_owned() })
    }

    /// Resolves `qualifier.name`.
    fn resolve_qualified(&self, qualifier: &str, name: &str) -> DbResult<usize> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if c.name == name && c.qualifier.as_deref() == Some(qualifier) {
                if found.is_some() {
                    return Err(DbError::bind(format!("column '{qualifier}.{name}' is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| DbError::NotFound {
            kind: "column",
            name: format!("{qualifier}.{name}"),
        })
    }
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
            Statement::Delete { table, filter } => {
                let handle = self.catalog.table(&table)?;
                let schema = handle.read().schema().clone();
                let scope = Scope::from_schema(Some(&table), &schema);
                let filter = match filter {
                    Some(f) => Some(self.bind_expr(&f, &scope)?),
                    None => None,
                };
                Ok(BoundStatement::Delete {
                    table,
                    filter,
                    scalar_subs: std::mem::take(&mut self.scalar_subs),
                })
            }
            Statement::Update { table, assignments, filter } => {
                let handle = self.catalog.table(&table)?;
                let schema = handle.read().schema().clone();
                let scope = Scope::from_schema(Some(&table), &schema);
                let mut bound = Vec::with_capacity(assignments.len());
                for (col, e) in assignments {
                    let (idx, _) = schema.field_by_name(&col)?;
                    bound.push((idx, self.bind_expr(&e, &scope)?));
                }
                let filter = match filter {
                    Some(f) => Some(self.bind_expr(&f, &scope)?),
                    None => None,
                };
                Ok(BoundStatement::Update {
                    table,
                    assignments: bound,
                    filter,
                    scalar_subs: std::mem::take(&mut self.scalar_subs),
                })
            }
        }
    }

    fn bind_insert(
        &mut self,
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    ) -> DbResult<BoundStatement> {
        let handle = self.catalog.table(&table)?;
        let schema = handle.read().schema().clone();
        let column_map: Vec<usize> = match &columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| schema.field_by_name(c).map(|(i, _)| i))
                .collect::<DbResult<_>>()?,
        };
        match source {
            InsertSource::Values(rows) => {
                let empty = Scope::default();
                let mut const_rows = Vec::with_capacity(rows.len());
                for row in &rows {
                    if row.len() != column_map.len() {
                        return Err(DbError::Shape(format!(
                            "INSERT row has {} values, expected {}",
                            row.len(),
                            column_map.len()
                        )));
                    }
                    let mut values = Vec::with_capacity(row.len());
                    for e in row {
                        let bound = self.bind_expr(e, &empty)?;
                        values.push(eval_constant(&bound)?);
                    }
                    const_rows.push(values);
                }
                if !self.scalar_subs.is_empty() {
                    return Err(DbError::Unsupported(
                        "scalar subqueries in INSERT VALUES; use INSERT INTO … SELECT".into(),
                    ));
                }
                Ok(BoundStatement::InsertValues { table, column_map, rows: const_rows })
            }
            InsertSource::Query(q) => {
                let plan = self.bind_query(q)?;
                if plan.schema().len() != column_map.len() {
                    return Err(DbError::Shape(format!(
                        "INSERT source has {} columns, expected {}",
                        plan.schema().len(),
                        column_map.len()
                    )));
                }
                Ok(BoundStatement::InsertQuery {
                    table,
                    column_map,
                    plan,
                    scalar_subs: std::mem::take(&mut self.scalar_subs),
                })
            }
        }
    }

    // ---- queries ---------------------------------------------------------

    fn bind_query(&mut self, q: Query) -> DbResult<LogicalPlan> {
        let mut plan = match q.body {
            // Plain SELECT: ORDER BY binds inside bind_select, where the
            // pre-projection scope is available for hidden sort columns.
            SetExpr::Select(s) => self.bind_select(*s, &q.order_by)?,
            body => {
                let (plan, projection_asts) = self.bind_set_expr(body)?;
                if q.order_by.is_empty() {
                    plan
                } else {
                    self.bind_order_by(plan, &q.order_by, projection_asts.as_deref())?
                }
            }
        };
        if q.limit.is_some() || q.offset.is_some() {
            let limit = match q.limit {
                Some(e) => Some(self.constant_usize(&e, "LIMIT")?),
                None => None,
            };
            let offset = match q.offset {
                Some(e) => self.constant_usize(&e, "OFFSET")?,
                None => 0,
            };
            plan = LogicalPlan::Limit { input: Box::new(plan), limit, offset };
        }
        Ok(plan)
    }

    /// Binds a set expression; also returns the projection ASTs of the
    /// top-level SELECT (used to resolve ORDER BY aliases), when available.
    fn bind_set_expr(&mut self, body: SetExpr) -> DbResult<(LogicalPlan, Option<Vec<SelectItem>>)> {
        match body {
            SetExpr::Select(s) => {
                let projection = s.projection.clone();
                let plan = self.bind_select(*s, &[])?;
                Ok((plan, Some(projection)))
            }
            SetExpr::UnionAll(l, r) => {
                let (lp, _) = self.bind_set_expr(*l)?;
                let (rp, _) = self.bind_set_expr(*r)?;
                let plan = self.bind_union(lp, rp)?;
                Ok((plan, None))
            }
        }
    }

    fn bind_union(&mut self, left: LogicalPlan, right: LogicalPlan) -> DbResult<LogicalPlan> {
        let ls = left.schema();
        let rs = right.schema();
        if ls.len() != rs.len() {
            return Err(DbError::bind(format!(
                "UNION ALL branches have {} and {} columns",
                ls.len(),
                rs.len()
            )));
        }
        // Coerce each branch to the common type per column.
        let mut fields = Vec::with_capacity(ls.len());
        for (lf, rf) in ls.fields().iter().zip(rs.fields()) {
            let t = DataType::common_numeric(lf.dtype, rf.dtype).ok_or_else(|| {
                DbError::bind(format!(
                    "UNION ALL column '{}' mixes {} and {}",
                    lf.name, lf.dtype, rf.dtype
                ))
            })?;
            fields.push(Field::new(lf.name.clone(), t));
        }
        let schema = Arc::new(Schema::new_unchecked(fields));
        let coerce = |plan: LogicalPlan, schema: &Arc<Schema>| -> LogicalPlan {
            let needs =
                plan.schema().fields().iter().zip(schema.fields()).any(|(a, b)| a.dtype != b.dtype);
            if !needs {
                return plan;
            }
            let exprs = plan
                .schema()
                .fields()
                .iter()
                .zip(schema.fields())
                .enumerate()
                .map(|(i, (a, b))| {
                    if a.dtype == b.dtype {
                        Expr::Column(i)
                    } else {
                        Expr::Cast { expr: Box::new(Expr::Column(i)), to: b.dtype }
                    }
                })
                .collect();
            LogicalPlan::Project { input: Box::new(plan), exprs, schema: schema.clone() }
        };
        let inputs = vec![coerce(left, &schema), coerce(right, &schema)];
        Ok(LogicalPlan::UnionAll { inputs, schema })
    }

    fn bind_select(&mut self, s: Select, order_by: &[OrderItem]) -> DbResult<LogicalPlan> {
        // FROM
        let (mut plan, scope) = match s.from {
            Some(tr) => self.bind_table_ref(tr)?,
            None => (LogicalPlan::UnitRow, Scope::default()),
        };

        // WHERE
        if let Some(w) = &s.where_clause {
            let predicate = self.bind_expr(w, &scope)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
        }

        // Does this select aggregate?
        let mut has_agg = !s.group_by.is_empty()
            || s.having.is_some()
            || s.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => self.contains_aggregate(expr),
                _ => false,
            });

        if has_agg {
            // Resolve GROUP BY items: ordinals and projection aliases expand
            // to the projected expression.
            let mut group_asts: Vec<AstExpr> = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                group_asts.push(self.resolve_group_item(g, &s.projection)?);
            }
            // Collect aggregate calls across projection + HAVING.
            let mut agg_asts: Vec<AstExpr> = Vec::new();
            for item in &s.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    collect_aggregates(expr, &mut agg_asts);
                }
            }
            if let Some(h) = &s.having {
                collect_aggregates(h, &mut agg_asts);
            }
            if agg_asts.is_empty() && s.group_by.is_empty() {
                // HAVING without aggregates or grouping: treat as filter.
                has_agg = false;
                let _ = has_agg;
                return Err(DbError::Unsupported("HAVING without GROUP BY or aggregates".into()));
            }

            // Bind group exprs and agg args over the FROM scope.
            let group_exprs: Vec<Expr> =
                group_asts.iter().map(|g| self.bind_expr(g, &scope)).collect::<DbResult<_>>()?;
            let mut plan_aggs = Vec::with_capacity(agg_asts.len());
            for a in &agg_asts {
                plan_aggs.push(self.bind_aggregate_call(a, &scope)?);
            }

            // Aggregate output schema: named group keys, then aggregates.
            let input_schema = plan.schema();
            let mut fields = Vec::new();
            for (ast, e) in group_asts.iter().zip(&group_exprs) {
                let name = derived_name(ast);
                let dtype = self.infer_type(e, &input_schema)?;
                fields.push(Field::new(unique_name(&mut fields_names(&fields), &name), dtype));
            }
            for (i, (ast, pa)) in agg_asts.iter().zip(&plan_aggs).enumerate() {
                let arg_t = match &pa.arg {
                    Some(e) => Some(self.infer_type(e, &input_schema)?),
                    None => None,
                };
                let dtype = pa.func.result_type(arg_t)?;
                let name = derived_name(ast);
                let name = if name == "?" { format!("agg{i}") } else { name };
                fields.push(Field::new(unique_name(&mut fields_names(&fields), &name), dtype));
            }
            let agg_schema = Arc::new(Schema::new_unchecked(fields));
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group: group_exprs,
                aggs: plan_aggs,
                schema: agg_schema.clone(),
            };

            // Post-aggregate binding rewrites group-expr and agg-call ASTs
            // to positional refs into the aggregate output.
            let post =
                PostAggScope { group_asts: &group_asts, agg_asts: &agg_asts, schema: &agg_schema };

            if let Some(h) = &s.having {
                let predicate = self.bind_post_agg(h, &post)?;
                plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
            }

            // Projection over the aggregate output.
            let mut exprs = Vec::new();
            let mut names: Vec<String> = Vec::new();
            for item in &s.projection {
                match item {
                    SelectItem::Wildcard => {
                        // SELECT * with GROUP BY projects the group keys.
                        for i in 0..group_asts.len() {
                            exprs.push(Expr::Column(i));
                            names.push(agg_schema.field(i).name.clone());
                        }
                    }
                    SelectItem::QualifiedWildcard(_) => {
                        return Err(DbError::Unsupported(
                            "qualified * in an aggregated SELECT".into(),
                        ))
                    }
                    SelectItem::Expr { expr, alias } => {
                        exprs.push(self.bind_post_agg(expr, &post)?);
                        names.push(alias.clone().unwrap_or_else(|| derived_name(expr)));
                    }
                }
            }
            return self.finish_select(
                plan,
                exprs,
                names,
                &s.projection,
                s.distinct,
                order_by,
                BindBelow::PostAgg(&post),
            );
        }

        // Non-aggregated projection.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in scope.cols.iter().enumerate() {
                        exprs.push(Expr::Column(i));
                        names.push(c.name.clone());
                    }
                    if scope.cols.is_empty() {
                        return Err(DbError::bind("SELECT * with no FROM clause"));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for (i, c) in scope.cols.iter().enumerate() {
                        if c.qualifier.as_deref() == Some(q.as_str()) {
                            exprs.push(Expr::Column(i));
                            names.push(c.name.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(DbError::NotFound { kind: "table alias", name: q.clone() });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(self.bind_expr(expr, &scope)?);
                    names.push(alias.clone().unwrap_or_else(|| derived_name(expr)));
                }
            }
        }
        self.finish_select(
            plan,
            exprs,
            names,
            &s.projection,
            s.distinct,
            order_by,
            BindBelow::Scope(&scope),
        )
    }

    /// Applies projection, DISTINCT, and ORDER BY to a bound SELECT.
    ///
    /// ORDER BY keys resolve, in order of preference, to: a 1-based output
    /// ordinal, an output name/alias, a syntactic match of a projection
    /// item, or — when none of those apply — a *hidden* sort column bound
    /// below the projection, which is projected away again after sorting.
    #[allow(clippy::too_many_arguments)]
    fn finish_select(
        &mut self,
        input: LogicalPlan,
        exprs: Vec<Expr>,
        names: Vec<String>,
        projection: &[SelectItem],
        distinct: bool,
        order_by: &[OrderItem],
        below: BindBelow<'_>,
    ) -> DbResult<LogicalPlan> {
        let visible = exprs.len();
        let mut all_exprs = exprs;
        let mut all_names = names;
        let mut keys: Vec<PlanSortKey> = Vec::with_capacity(order_by.len());
        for item in order_by {
            // 1-based output ordinal.
            if let AstExpr::Literal(Value::Int32(n)) = &item.expr {
                let idx = *n as usize;
                if idx == 0 || idx > visible {
                    return Err(DbError::bind(format!("ORDER BY ordinal {n} out of range")));
                }
                keys.push(PlanSortKey {
                    column: idx - 1,
                    ascending: item.ascending,
                    nulls_first: item.nulls_first.unwrap_or(!item.ascending),
                });
                continue;
            }
            // Output name or alias.
            let mut resolved = None;
            if let AstExpr::Ident(name) = &item.expr {
                if let Some(i) =
                    all_names[..visible].iter().position(|n| n.eq_ignore_ascii_case(name))
                {
                    resolved = Some(i);
                }
            }
            // Syntactic match of a projection item (e.g. ORDER BY count(*)).
            if resolved.is_none() {
                for (i, p) in projection.iter().enumerate() {
                    if let SelectItem::Expr { expr, .. } = p {
                        if expr == &item.expr && i < visible {
                            resolved = Some(i);
                            break;
                        }
                    }
                }
            }
            let column = match resolved {
                Some(c) => c,
                None => {
                    // Hidden sort column bound below the projection.
                    if distinct {
                        return Err(DbError::Unsupported(
                            "ORDER BY on a column not in a SELECT DISTINCT output".into(),
                        ));
                    }
                    let bound = match below {
                        BindBelow::Scope(scope) => self.bind_expr(&item.expr, scope)?,
                        BindBelow::PostAgg(post) => self.bind_post_agg(&item.expr, post)?,
                    };
                    all_exprs.push(bound);
                    all_names.push(format!("__sort{}", all_exprs.len()));
                    all_exprs.len() - 1
                }
            };
            keys.push(PlanSortKey {
                column,
                ascending: item.ascending,
                nulls_first: item.nulls_first.unwrap_or(!item.ascending),
            });
        }
        let hidden = all_exprs.len() - visible;
        let mut plan = self.make_project(input, all_exprs, all_names)?;
        if distinct {
            plan = LogicalPlan::Distinct { input: Box::new(plan) };
        }
        if !keys.is_empty() {
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
        }
        if hidden > 0 {
            // Drop the hidden sort columns.
            let schema = plan.schema();
            let exprs: Vec<Expr> = (0..visible).map(Expr::Column).collect();
            let fields: Vec<Field> = schema.fields()[..visible].to_vec();
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: Arc::new(Schema::new_unchecked(fields)),
            };
        }
        Ok(plan)
    }

    /// Builds a Project node, inferring output types and deduplicating
    /// output names.
    fn make_project(
        &self,
        input: LogicalPlan,
        exprs: Vec<Expr>,
        names: Vec<String>,
    ) -> DbResult<LogicalPlan> {
        let input_schema = input.schema();
        let mut fields: Vec<Field> = Vec::with_capacity(exprs.len());
        for (e, n) in exprs.iter().zip(&names) {
            let dtype = self.infer_type(e, &input_schema)?;
            let mut taken = fields_names(&fields);
            fields.push(Field::new(unique_name(&mut taken, n), dtype));
        }
        Ok(LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema: Arc::new(Schema::new_unchecked(fields)),
        })
    }

    /// Resolves a GROUP BY item: a 1-based ordinal or an alias of a
    /// projection item expands to the projected expression.
    fn resolve_group_item(&self, g: &AstExpr, projection: &[SelectItem]) -> DbResult<AstExpr> {
        match g {
            AstExpr::Literal(Value::Int32(n)) => {
                let idx = *n as usize;
                let item = projection
                    .get(idx.wrapping_sub(1))
                    .ok_or_else(|| DbError::bind(format!("GROUP BY ordinal {n} out of range")))?;
                match item {
                    SelectItem::Expr { expr, .. } => Ok(expr.clone()),
                    _ => Err(DbError::bind("GROUP BY ordinal points at *")),
                }
            }
            AstExpr::Ident(name) => {
                for item in projection {
                    if let SelectItem::Expr { expr, alias: Some(a) } = item {
                        if a == name {
                            return Ok(expr.clone());
                        }
                    }
                }
                Ok(g.clone())
            }
            _ => Ok(g.clone()),
        }
    }

    fn bind_order_by(
        &mut self,
        plan: LogicalPlan,
        items: &[OrderItem],
        projection: Option<&[SelectItem]>,
    ) -> DbResult<LogicalPlan> {
        let schema = plan.schema();
        let visible = schema.len();
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            // 1-based ordinal?
            if let AstExpr::Literal(Value::Int32(n)) = &item.expr {
                let idx = *n as usize;
                if idx == 0 || idx > visible {
                    return Err(DbError::bind(format!("ORDER BY ordinal {n} out of range")));
                }
                keys.push(PlanSortKey {
                    column: idx - 1,
                    ascending: item.ascending,
                    nulls_first: item.nulls_first.unwrap_or(!item.ascending),
                });
                continue;
            }
            // Output column name or alias?
            let mut resolved = None;
            if let AstExpr::Ident(name) = &item.expr {
                if let Some(i) = schema.index_of(name) {
                    resolved = Some(i);
                }
            }
            // Projection-item syntactic match (e.g. ORDER BY count(*))?
            if resolved.is_none() {
                if let Some(proj) = projection {
                    for (i, p) in proj.iter().enumerate() {
                        if let SelectItem::Expr { expr, .. } = p {
                            if expr == &item.expr && i < visible {
                                resolved = Some(i);
                                break;
                            }
                        }
                    }
                }
            }
            match resolved {
                Some(column) => keys.push(PlanSortKey {
                    column,
                    ascending: item.ascending,
                    nulls_first: item.nulls_first.unwrap_or(!item.ascending),
                }),
                None => {
                    return Err(DbError::bind(format!(
                    "ORDER BY expression '{:?}' must reference an output column, alias, or ordinal",
                    item.expr
                )))
                }
            }
        }
        Ok(LogicalPlan::Sort { input: Box::new(plan), keys })
    }

    // ---- FROM binding ----------------------------------------------------

    fn bind_table_ref(&mut self, tr: TableRef) -> DbResult<(LogicalPlan, Scope)> {
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
                            arg_types.push(self.infer_type(&bound, &Schema::empty())?);
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

    fn bind_join(
        &mut self,
        left: LogicalPlan,
        lscope: Scope,
        right: LogicalPlan,
        rscope: Scope,
        join_type: AstJoinType,
        constraint: JoinConstraint,
    ) -> DbResult<(LogicalPlan, Scope)> {
        let lcols = lscope.len();
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
        let mut fields = Vec::with_capacity(combined.len());
        for (i, c) in combined.cols.iter().enumerate() {
            let dtype = c.dtype;
            let _ = i;
            fields.push(Field::new(c.name.clone(), dtype));
        }
        let schema = Arc::new(Schema::new_unchecked(fields));
        let _ = lcols;
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
    fn try_bind_side(&mut self, e: &AstExpr, scope: &Scope) -> DbResult<Option<usize>> {
        match e {
            AstExpr::Ident(n) => Ok(scope.resolve(n).ok()),
            AstExpr::CompoundIdent(q, n) => Ok(scope.resolve_qualified(q, n).ok()),
            _ => Ok(None),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn bind_expr(&mut self, e: &AstExpr, scope: &Scope) -> DbResult<Expr> {
        match e {
            AstExpr::Ident(n) => Ok(Expr::Column(scope.resolve(n)?)),
            AstExpr::CompoundIdent(q, n) => Ok(Expr::Column(scope.resolve_qualified(q, n)?)),
            AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
            AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
                op: *op,
                left: Box::new(self.bind_expr(left, scope)?),
                right: Box::new(self.bind_expr(right, scope)?),
            }),
            AstExpr::Unary { op, expr } => {
                Ok(Expr::Unary { op: *op, expr: Box::new(self.bind_expr(expr, scope)?) })
            }
            AstExpr::Cast { expr, to } => {
                Ok(Expr::Cast { expr: Box::new(self.bind_expr(expr, scope)?), to: *to })
            }
            AstExpr::IsNull { expr, negated } => {
                Ok(Expr::IsNull { expr: Box::new(self.bind_expr(expr, scope)?), negated: *negated })
            }
            AstExpr::Case { operand, branches, else_expr } => Ok(Expr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.bind_expr(o, scope)?)),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.bind_expr(w, scope)?, self.bind_expr(t, scope)?)))
                    .collect::<DbResult<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e, scope)?)),
                    None => None,
                },
            }),
            AstExpr::InList { expr, list, negated } => Ok(Expr::InList {
                expr: Box::new(self.bind_expr(expr, scope)?),
                list: list.iter().map(|e| self.bind_expr(e, scope)).collect::<DbResult<_>>()?,
                negated: *negated,
            }),
            AstExpr::Like { expr, pattern, negated } => Ok(Expr::Like {
                expr: Box::new(self.bind_expr(expr, scope)?),
                pattern: Box::new(self.bind_expr(pattern, scope)?),
                negated: *negated,
            }),
            AstExpr::Between { expr, low, high, negated } => Ok(Expr::Between {
                expr: Box::new(self.bind_expr(expr, scope)?),
                low: Box::new(self.bind_expr(low, scope)?),
                high: Box::new(self.bind_expr(high, scope)?),
                negated: *negated,
            }),
            AstExpr::ScalarSubquery(q) => {
                let plan = self.bind_query((**q).clone())?;
                if plan.schema().len() != 1 {
                    return Err(DbError::bind(format!(
                        "scalar subquery must return one column, returns {}",
                        plan.schema().len()
                    )));
                }
                self.scalar_subs.push(plan);
                Ok(Expr::Subquery(self.scalar_subs.len() - 1))
            }
            AstExpr::Function { name, args, distinct, star } => {
                if *star || *distinct || AggFunc::from_name(name).is_some() {
                    // An aggregate outside an aggregation context.
                    if AggFunc::from_name(name).is_some() {
                        return Err(DbError::bind(format!(
                            "aggregate function {name}() is not allowed here"
                        )));
                    }
                }
                let bound_args: Vec<Expr> =
                    args.iter().map(|a| self.bind_expr(a, scope)).collect::<DbResult<_>>()?;
                if let Some(f) = BuiltinScalar::from_name(name) {
                    let (min, max) = f.arity();
                    if bound_args.len() < min || bound_args.len() > max {
                        return Err(DbError::bind(format!(
                            "{} expects at least {min} argument(s), got {}",
                            name,
                            bound_args.len()
                        )));
                    }
                    return Ok(Expr::ScalarFn { func: f, args: bound_args });
                }
                if self.functions.has_scalar(name) {
                    return Ok(Expr::Udf { name: name.clone(), args: bound_args });
                }
                Err(DbError::NotFound { kind: "function", name: name.clone() })
            }
        }
    }

    /// True if the AST contains an aggregate function call.
    fn contains_aggregate(&self, e: &AstExpr) -> bool {
        let mut found = Vec::new();
        collect_aggregates(e, &mut found);
        !found.is_empty()
    }

    fn bind_aggregate_call(&mut self, a: &AstExpr, scope: &Scope) -> DbResult<PlanAgg> {
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

    /// Binds an expression in the post-aggregation scope: group expressions
    /// and aggregate calls become positional references into the aggregate
    /// output; anything else must decompose into those.
    fn bind_post_agg(&mut self, e: &AstExpr, post: &PostAggScope<'_>) -> DbResult<Expr> {
        // Exact group-expression match?
        for (i, g) in post.group_asts.iter().enumerate() {
            if e == g {
                return Ok(Expr::Column(i));
            }
        }
        // Alias of a group name (bare ident matching the agg schema)?
        if let AstExpr::Ident(n) = e {
            if let Some(i) = post.schema.index_of(n) {
                return Ok(Expr::Column(i));
            }
        }
        // Aggregate call?
        for (i, a) in post.agg_asts.iter().enumerate() {
            if e == a {
                return Ok(Expr::Column(post.group_asts.len() + i));
            }
        }
        match e {
            AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
            AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
                op: *op,
                left: Box::new(self.bind_post_agg(left, post)?),
                right: Box::new(self.bind_post_agg(right, post)?),
            }),
            AstExpr::Unary { op, expr } => {
                Ok(Expr::Unary { op: *op, expr: Box::new(self.bind_post_agg(expr, post)?) })
            }
            AstExpr::Cast { expr, to } => {
                Ok(Expr::Cast { expr: Box::new(self.bind_post_agg(expr, post)?), to: *to })
            }
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.bind_post_agg(expr, post)?),
                negated: *negated,
            }),
            AstExpr::Case { operand, branches, else_expr } => Ok(Expr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.bind_post_agg(o, post)?)),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.bind_post_agg(w, post)?, self.bind_post_agg(t, post)?)))
                    .collect::<DbResult<_>>()?,
                else_expr: match else_expr {
                    Some(x) => Some(Box::new(self.bind_post_agg(x, post)?)),
                    None => None,
                },
            }),
            AstExpr::InList { expr, list, negated } => Ok(Expr::InList {
                expr: Box::new(self.bind_post_agg(expr, post)?),
                list: list.iter().map(|x| self.bind_post_agg(x, post)).collect::<DbResult<_>>()?,
                negated: *negated,
            }),
            AstExpr::Like { expr, pattern, negated } => Ok(Expr::Like {
                expr: Box::new(self.bind_post_agg(expr, post)?),
                pattern: Box::new(self.bind_post_agg(pattern, post)?),
                negated: *negated,
            }),
            AstExpr::Between { expr, low, high, negated } => Ok(Expr::Between {
                expr: Box::new(self.bind_post_agg(expr, post)?),
                low: Box::new(self.bind_post_agg(low, post)?),
                high: Box::new(self.bind_post_agg(high, post)?),
                negated: *negated,
            }),
            AstExpr::ScalarSubquery(q) => {
                let plan = self.bind_query((**q).clone())?;
                if plan.schema().len() != 1 {
                    return Err(DbError::bind("scalar subquery must return one column"));
                }
                self.scalar_subs.push(plan);
                Ok(Expr::Subquery(self.scalar_subs.len() - 1))
            }
            AstExpr::Function { name, args, .. } => {
                if AggFunc::from_name(name).is_some() {
                    return Err(DbError::bind("nested aggregate functions"));
                }
                let bound: Vec<Expr> =
                    args.iter().map(|a| self.bind_post_agg(a, post)).collect::<DbResult<_>>()?;
                if let Some(f) = BuiltinScalar::from_name(name) {
                    return Ok(Expr::ScalarFn { func: f, args: bound });
                }
                if self.functions.has_scalar(name) {
                    return Ok(Expr::Udf { name: name.clone(), args: bound });
                }
                Err(DbError::NotFound { kind: "function", name: name.clone() })
            }
            AstExpr::Ident(n) => Err(DbError::bind(format!(
                "column '{n}' must appear in GROUP BY or inside an aggregate"
            ))),
            AstExpr::CompoundIdent(q, n) => Err(DbError::bind(format!(
                "column '{q}.{n}' must appear in GROUP BY or inside an aggregate"
            ))),
        }
    }

    fn constant_usize(&mut self, e: &AstExpr, what: &str) -> DbResult<usize> {
        let bound = self.bind_expr(e, &Scope::default())?;
        let v = eval_constant(&bound)?;
        v.as_i64()
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| DbError::bind(format!("{what} must be a non-negative integer")))
    }

    /// Infers the output type of a bound expression. Must agree with the
    /// evaluator; the executor casts to the declared type as a safety net.
    fn infer_type(&self, e: &Expr, input: &Schema) -> DbResult<DataType> {
        Ok(match e {
            Expr::Column(i) => {
                input
                    .fields()
                    .get(*i)
                    .ok_or_else(|| DbError::internal(format!("type of column #{i}")))?
                    .dtype
            }
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int32),
            Expr::Binary { op, left, right } => match op {
                op if op.is_comparison() => DataType::Boolean,
                BinaryOp::And | BinaryOp::Or => DataType::Boolean,
                BinaryOp::Concat => DataType::Varchar,
                _ => {
                    let lt = self.infer_type(left, input)?;
                    let rt = self.infer_type(right, input)?;
                    if lt.is_integer() && rt.is_integer() {
                        DataType::Int64
                    } else {
                        DataType::Float64
                    }
                }
            },
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => DataType::Boolean,
                UnaryOp::Neg => {
                    let t = self.infer_type(expr, input)?;
                    if t.is_float() {
                        DataType::Float64
                    } else {
                        DataType::Int64
                    }
                }
            },
            Expr::Cast { to, .. } => *to,
            Expr::IsNull { .. }
            | Expr::InList { .. }
            | Expr::Like { .. }
            | Expr::Between { .. } => DataType::Boolean,
            Expr::Case { branches, else_expr, .. } => {
                let mut t: Option<DataType> = None;
                for (_, then) in branches {
                    let bt = self.infer_type(then, input)?;
                    t = Some(match t {
                        None => bt,
                        Some(prev) => DataType::common_numeric(prev, bt).ok_or_else(|| {
                            DbError::Type(format!("CASE branches mix {prev} and {bt}"))
                        })?,
                    });
                }
                if let Some(e) = else_expr {
                    let bt = self.infer_type(e, input)?;
                    t = Some(match t {
                        None => bt,
                        Some(prev) => DataType::common_numeric(prev, bt).ok_or_else(|| {
                            DbError::Type(format!("CASE branches mix {prev} and {bt}"))
                        })?,
                    });
                }
                t.unwrap_or(DataType::Int32)
            }
            Expr::ScalarFn { func, args } => match func {
                BuiltinScalar::Abs | BuiltinScalar::Sign => {
                    let t = self.infer_type(&args[0], input)?;
                    if t.is_integer() {
                        DataType::Int64
                    } else {
                        DataType::Float64
                    }
                }
                BuiltinScalar::Floor
                | BuiltinScalar::Ceil
                | BuiltinScalar::Round
                | BuiltinScalar::Sqrt
                | BuiltinScalar::Exp
                | BuiltinScalar::Ln
                | BuiltinScalar::Log10
                | BuiltinScalar::Power => DataType::Float64,
                BuiltinScalar::Length | BuiltinScalar::OctetLength => DataType::Int64,
                BuiltinScalar::Lower
                | BuiltinScalar::Upper
                | BuiltinScalar::Trim
                | BuiltinScalar::Substr
                | BuiltinScalar::Concat => DataType::Varchar,
                BuiltinScalar::Nullif => self.infer_type(&args[0], input)?,
                BuiltinScalar::Coalesce | BuiltinScalar::Least | BuiltinScalar::Greatest => {
                    let mut t = self.infer_type(&args[0], input)?;
                    for a in &args[1..] {
                        let at = self.infer_type(a, input)?;
                        t = DataType::common_numeric(t, at)
                            .ok_or_else(|| DbError::Type(format!("arguments mix {t} and {at}")))?;
                    }
                    t
                }
            },
            Expr::Udf { name, args } => {
                let udf = self.functions.scalar(name)?;
                let arg_types: Vec<DataType> =
                    args.iter().map(|a| self.infer_type(a, input)).collect::<DbResult<_>>()?;
                udf.return_type(&arg_types)?
            }
            Expr::Subquery(i) => {
                let plan = self
                    .scalar_subs
                    .get(*i)
                    .ok_or_else(|| DbError::internal("dangling subquery index"))?;
                plan.schema().field(0).dtype
            }
        })
    }
}

/// Where hidden ORDER BY columns bind: the FROM scope (plain selects) or
/// the aggregate output (grouped selects).
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

/// Collects aggregate function calls (deduplicated by syntactic equality).
fn collect_aggregates(e: &AstExpr, out: &mut Vec<AstExpr>) {
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

/// Derives an output column name from the projected AST.
fn derived_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Ident(n) => n.clone(),
        AstExpr::CompoundIdent(_, n) => n.clone(),
        AstExpr::Function { name, .. } => name.clone(),
        AstExpr::Cast { expr, .. } => derived_name(expr),
        _ => "?".into(),
    }
}

fn fields_names(fields: &[Field]) -> Vec<String> {
    fields.iter().map(|f| f.name.clone()).collect()
}

/// Produces a name not already in `taken` by appending `_1`, `_2`, ….
fn unique_name(taken: &mut Vec<String>, base: &str) -> String {
    let base = if base == "?" { "col".to_owned() } else { base.to_owned() };
    if !taken.iter().any(|t| t.eq_ignore_ascii_case(&base)) {
        taken.push(base.clone());
        return base;
    }
    for i in 1.. {
        let cand = format!("{base}_{i}");
        if !taken.iter().any(|t| t.eq_ignore_ascii_case(&cand)) {
            taken.push(cand.clone());
            return cand;
        }
    }
    unreachable!()
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
