//! `SELECT` and `UNION ALL` queries: projection, grouping, `HAVING`,
//! `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`.

use super::bind_expr::collect_aggregates;
use super::scope::Scope;
use super::{BindBelow, Binder, PostAggScope};
use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::sql::ast::*;
use crate::sql::plan::*;
use crate::types::{DataType, Value};
use std::sync::Arc;

impl Binder<'_> {
    pub(super) fn bind_query(&mut self, q: Query) -> DbResult<LogicalPlan> {
        let mut plan = match q.body {
            // Plain SELECT: ORDER BY binds inside bind_select, where the
            // pre-projection scope is available for hidden sort columns.
            SetExpr::Select(s) => self.bind_select(*s, &q.order_by)?,
            body => {
                let plan = self.bind_set_expr(body)?;
                if q.order_by.is_empty() {
                    plan
                } else {
                    self.bind_order_by(plan, &q.order_by)?
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

    /// Binds a set expression.
    pub(super) fn bind_set_expr(&mut self, body: SetExpr) -> DbResult<LogicalPlan> {
        match body {
            SetExpr::Select(s) => self.bind_select(*s, &[]),
            SetExpr::UnionAll(l, r) => {
                let lp = self.bind_set_expr(*l)?;
                let rp = self.bind_set_expr(*r)?;
                self.bind_union(lp, rp)
            }
        }
    }

    pub(super) fn bind_union(
        &mut self,
        left: LogicalPlan,
        right: LogicalPlan,
    ) -> DbResult<LogicalPlan> {
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

    pub(super) fn bind_select(
        &mut self,
        s: Select,
        order_by: &[OrderItem],
    ) -> DbResult<LogicalPlan> {
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
        let has_agg = !s.group_by.is_empty()
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
                let dtype = self.type_in(e, &input_schema)?;
                fields.push(Field::new(unique_name(&mut fields_names(&fields), &name), dtype));
            }
            for (i, (ast, pa)) in agg_asts.iter().zip(&plan_aggs).enumerate() {
                let arg_t = match &pa.arg {
                    Some(e) => Some(self.type_in(e, &input_schema)?),
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
                let predicate = self.bind_in(h, BindBelow::PostAgg(&post))?;
                plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
            }

            // Projection over the aggregate output.
            let mut exprs = Vec::new();
            let mut names: Vec<String> = Vec::new();
            let mut texts = Vec::new();
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
                        texts.push((expr, exprs.len()));
                        exprs.push(self.bind_in(expr, BindBelow::PostAgg(&post))?);
                        names.push(alias.clone().unwrap_or_else(|| derived_name(expr)));
                    }
                }
            }
            return self.finish_select(
                plan,
                exprs,
                names,
                &texts,
                s.distinct,
                order_by,
                BindBelow::PostAgg(&post),
            );
        }

        // Non-aggregated projection.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        let mut texts = Vec::new();
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
                    texts.push((expr, exprs.len()));
                    exprs.push(self.bind_expr(expr, &scope)?);
                    names.push(alias.clone().unwrap_or_else(|| derived_name(expr)));
                }
            }
        }
        self.finish_select(
            plan,
            exprs,
            names,
            &texts,
            s.distinct,
            order_by,
            BindBelow::Scope(&scope),
        )
    }

    /// Applies projection, DISTINCT, and ORDER BY to a bound SELECT.
    /// `texts` pairs each projected expression's AST with its output
    /// column (a `*` before it spans one column per expanded field).
    ///
    /// ORDER BY keys resolve, in order of preference, to: a 1-based output
    /// ordinal, an output name/alias, a syntactic match of a projection
    /// item, or — when none of those apply — a *hidden* sort column bound
    /// below the projection, which is projected away again after sorting.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn finish_select(
        &mut self,
        input: LogicalPlan,
        exprs: Vec<Expr>,
        names: Vec<String>,
        texts: &[(&AstExpr, usize)],
        distinct: bool,
        order_by: &[OrderItem],
        below: BindBelow<'_>,
    ) -> DbResult<LogicalPlan> {
        let visible = exprs.len();
        let mut all_exprs = exprs;
        let mut all_names = names;
        let mut keys: Vec<PlanSortKey> = Vec::with_capacity(order_by.len());
        for item in order_by {
            let by_name =
                |name: &str| all_names[..visible].iter().position(|n| n.eq_ignore_ascii_case(name));
            let column = match output_column(item, visible, by_name, texts)? {
                Some(c) => c,
                None => {
                    // Hidden sort column bound below the projection.
                    if distinct {
                        return Err(DbError::Unsupported(
                            "ORDER BY on a column not in a SELECT DISTINCT output".into(),
                        ));
                    }
                    all_exprs.push(self.bind_in(&item.expr, below)?);
                    all_names.push(format!("__sort{}", all_exprs.len()));
                    all_exprs.len() - 1
                }
            };
            keys.push(sort_key(item, column));
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
    pub(super) fn make_project(
        &self,
        input: LogicalPlan,
        exprs: Vec<Expr>,
        names: Vec<String>,
    ) -> DbResult<LogicalPlan> {
        let input_schema = input.schema();
        let mut fields: Vec<Field> = Vec::with_capacity(exprs.len());
        for (e, n) in exprs.iter().zip(&names) {
            let dtype = self.type_in(e, &input_schema)?;
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
    pub(super) fn resolve_group_item(
        &self,
        g: &AstExpr,
        projection: &[SelectItem],
    ) -> DbResult<AstExpr> {
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

    /// Sorts a `UNION ALL` by its output columns: each ORDER BY item is
    /// an ordinal or an output name.
    pub(super) fn bind_order_by(
        &mut self,
        plan: LogicalPlan,
        items: &[OrderItem],
    ) -> DbResult<LogicalPlan> {
        let schema = plan.schema();
        let mut keys = Vec::with_capacity(items.len());
        for (k, item) in items.iter().enumerate() {
            let by_name = |name: &str| schema.index_of(name);
            let Some(column) = output_column(item, schema.len(), by_name, &[])? else {
                let name = match &item.expr {
                    AstExpr::Ident(name) => format!(" ({name})"),
                    _ => String::new(),
                };
                return Err(DbError::bind(format!(
                    "ORDER BY item {}{name} must reference an output column, alias, or ordinal",
                    k + 1
                )));
            };
            keys.push(sort_key(item, column));
        }
        Ok(LogicalPlan::Sort { input: Box::new(plan), keys })
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

/// The output column an ORDER BY item names, in order of preference: a
/// 1-based ordinal among the `visible` columns, an output name or alias
/// (`by_name`), or a syntactic match of a projected expression in `texts`
/// (e.g. `ORDER BY count(*)`), paired with its output column. `None` when
/// it names none of them.
fn output_column(
    item: &OrderItem,
    visible: usize,
    by_name: impl Fn(&str) -> Option<usize>,
    texts: &[(&AstExpr, usize)],
) -> DbResult<Option<usize>> {
    if let AstExpr::Literal(Value::Int32(n)) = &item.expr {
        let idx = *n as usize;
        if idx == 0 || idx > visible {
            return Err(DbError::bind(format!("ORDER BY ordinal {n} out of range")));
        }
        return Ok(Some(idx - 1));
    }
    if let Some(i) = match &item.expr {
        AstExpr::Ident(name) => by_name(name),
        _ => None,
    } {
        return Ok(Some(i));
    }
    Ok(texts.iter().find(|(expr, _)| **expr == item.expr).map(|&(_, column)| column))
}

/// The sort key an ORDER BY item puts on `column`: NULLs sort last
/// ascending and first descending unless the item says otherwise.
fn sort_key(item: &OrderItem, column: usize) -> PlanSortKey {
    PlanSortKey {
        column,
        ascending: item.ascending,
        nulls_first: item.nulls_first.unwrap_or(!item.ascending),
    }
}
