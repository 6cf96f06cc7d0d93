//! `INSERT`, `DELETE` and `UPDATE`.

use super::scope::Scope;
use super::{eval_constant, Binder};
use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::sql::plan::*;

impl Binder<'_> {
    pub(super) fn bind_insert(
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

    pub(super) fn bind_delete(
        &mut self,
        table: String,
        filter: Option<AstExpr>,
    ) -> DbResult<BoundStatement> {
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

    pub(super) fn bind_update(
        &mut self,
        table: String,
        assignments: Vec<(String, AstExpr)>,
        filter: Option<AstExpr>,
    ) -> DbResult<BoundStatement> {
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
