//! Logical query plans: bound, positionally-resolved operator trees.

use crate::exec::{AggFunc, JoinType};
use crate::expr::Expr;
use crate::schema::Schema;
use std::fmt;
use std::sync::Arc;

/// One bound aggregate call inside an [`LogicalPlan::Aggregate`].
#[derive(Debug, Clone)]
pub struct PlanAgg {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression over the aggregate input (`None` for COUNT(*)).
    pub arg: Option<Expr>,
    /// `agg(DISTINCT …)`.
    pub distinct: bool,
}

/// One bound sort key inside an [`LogicalPlan::Sort`].
#[derive(Debug, Clone, Copy)]
pub struct PlanSortKey {
    /// Column index into the sort input.
    pub column: usize,
    /// Ascending?
    pub ascending: bool,
    /// NULLs first?
    pub nulls_first: bool,
}

/// A bound argument to a table-valued function.
#[derive(Debug, Clone)]
pub enum BoundTableArg {
    /// A constant scalar expression (no column references).
    Scalar(Expr),
    /// A subplan whose result columns are passed as whole-column arguments.
    Plan(LogicalPlan),
}

/// A bound logical plan. Every node knows its output schema.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan a named table.
    Scan {
        /// Table name (resolved at execution from the catalog).
        table: String,
        /// Snapshot of the table's schema at bind time.
        schema: Arc<Schema>,
    },
    /// Invoke a table-valued UDF (the paper's `train`).
    TableFunction {
        /// Registered function name.
        name: String,
        /// Bound arguments.
        args: Vec<BoundTableArg>,
        /// Declared output schema.
        schema: Arc<Schema>,
    },
    /// A one-row, zero-visible-column relation (`SELECT 1`).
    UnitRow,
    /// Keep rows where the predicate is TRUE.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input columns.
        predicate: Expr,
    },
    /// Compute expressions over the input.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<Expr>,
        /// Output schema (names + inferred types).
        schema: Arc<Schema>,
    },
    /// Hash join.
    Join {
        /// Probe side.
        left: Box<LogicalPlan>,
        /// Build side.
        right: Box<LogicalPlan>,
        /// Inner / Left / Cross.
        join_type: JoinType,
        /// Equi-key columns on the left input.
        left_keys: Vec<usize>,
        /// Equi-key columns on the right input.
        right_keys: Vec<usize>,
        /// Non-equi residual condition applied post-join (inner only).
        residual: Option<Expr>,
        /// Build the hash table on the *left* input instead of the right.
        /// Set by the cost-based optimizer when the left side is estimated
        /// to be much smaller; the executor restores canonical row order,
        /// so flipping this bit never changes results. Inner/Left only.
        build_left: bool,
        /// Output schema: left fields then right fields.
        schema: Arc<Schema>,
    },
    /// Hash aggregation. Output columns: group keys, then aggregates.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-key expressions over the input.
        group: Vec<Expr>,
        /// Aggregate calls.
        aggs: Vec<PlanAgg>,
        /// Output schema (named group keys + named aggregates).
        schema: Arc<Schema>,
    },
    /// Stable multi-key sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys over the input columns.
        keys: Vec<PlanSortKey>,
    },
    /// Row-count limiting.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Max rows, if bounded.
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
    /// Duplicate elimination over all columns.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Concatenation of same-shape inputs.
    UnionAll {
        /// The branches (at least one).
        inputs: Vec<LogicalPlan>,
        /// Common output schema.
        schema: Arc<Schema>,
    },
}

impl LogicalPlan {
    /// The plan's output schema.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::TableFunction { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::UnionAll { schema, .. } => schema.clone(),
            LogicalPlan::UnitRow => Schema::empty(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// A short operator label used in verifier diagnostics and plan paths
    /// (`"Scan(t)"`, `"Project"`, …).
    pub fn node_name(&self) -> String {
        match self {
            LogicalPlan::Scan { table, .. } => format!("Scan({table})"),
            LogicalPlan::TableFunction { name, .. } => format!("TableFunction({name})"),
            LogicalPlan::UnitRow => "UnitRow".to_owned(),
            LogicalPlan::Filter { .. } => "Filter".to_owned(),
            LogicalPlan::Project { .. } => "Project".to_owned(),
            LogicalPlan::Join { join_type, .. } => format!("Join({join_type:?})"),
            LogicalPlan::Aggregate { .. } => "Aggregate".to_owned(),
            LogicalPlan::Sort { .. } => "Sort".to_owned(),
            LogicalPlan::Limit { .. } => "Limit".to_owned(),
            LogicalPlan::Distinct { .. } => "Distinct".to_owned(),
            LogicalPlan::UnionAll { .. } => "UnionAll".to_owned(),
        }
    }

    /// The operator's direct plan inputs, including table-function argument
    /// subplans. Leaves return an empty list.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::UnitRow => Vec::new(),
            LogicalPlan::TableFunction { args, .. } => args
                .iter()
                .filter_map(|a| match a {
                    BoundTableArg::Plan(p) => Some(p),
                    BoundTableArg::Scalar(_) => None,
                })
                .collect(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Renders the plan tree with a per-node annotation appended to each
    /// node's head line — e.g. the optimizer's `" [parallel]"` marker in
    /// `EXPLAIN` output. Plain `Display` is `display_with(&|_| None)`.
    pub fn display_with(&self, ann: &dyn Fn(&LogicalPlan) -> Option<String>) -> String {
        let mut out = String::new();
        // Writing into a String is infallible.
        let _ = self.push_lines(&mut out, 0, ann);
        out
    }

    fn push_lines(
        &self,
        f: &mut dyn fmt::Write,
        indent: usize,
        ann: &dyn Fn(&LogicalPlan) -> Option<String>,
    ) -> fmt::Result {
        let pad = "  ".repeat(indent);
        let sfx = ann(self).unwrap_or_default();
        match self {
            LogicalPlan::Scan { table, .. } => writeln!(f, "{pad}Scan {table}{sfx}"),
            LogicalPlan::TableFunction { name, args, .. } => {
                writeln!(f, "{pad}TableFunction {name} ({} args){sfx}", args.len())?;
                for a in args {
                    if let BoundTableArg::Plan(p) = a {
                        p.push_lines(f, indent + 1, ann)?;
                    }
                }
                Ok(())
            }
            LogicalPlan::UnitRow => writeln!(f, "{pad}UnitRow{sfx}"),
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter {predicate}{sfx}")?;
                input.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::Project { input, exprs, schema } => {
                write!(f, "{pad}Project ")?;
                for (i, (e, fld)) in exprs.iter().zip(schema.fields()).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e} AS {}", fld.name)?;
                }
                writeln!(f, "{sfx}")?;
                input.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::Join {
                left, right, join_type, left_keys, right_keys, build_left, ..
            } => {
                let side = if *build_left { " [build=left]" } else { "" };
                writeln!(
                    f,
                    "{pad}Join {join_type:?} on {left_keys:?} = {right_keys:?}{side}{sfx}"
                )?;
                left.push_lines(f, indent + 1, ann)?;
                right.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::Aggregate { input, group, aggs, .. } => {
                writeln!(f, "{pad}Aggregate groups={} aggs={}{sfx}", group.len(), aggs.len())?;
                input.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::Sort { input, keys } => {
                writeln!(f, "{pad}Sort {} keys{sfx}", keys.len())?;
                input.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::Limit { input, limit, offset } => {
                writeln!(f, "{pad}Limit {limit:?} offset {offset}{sfx}")?;
                input.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::Distinct { input } => {
                writeln!(f, "{pad}Distinct{sfx}")?;
                input.push_lines(f, indent + 1, ann)
            }
            LogicalPlan::UnionAll { inputs, .. } => {
                writeln!(f, "{pad}UnionAll{sfx}")?;
                for i in inputs {
                    i.push_lines(f, indent + 1, ann)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.push_lines(f, 0, &|_| None)
    }
}

/// A fully bound statement ready for execution.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// `CREATE TABLE`.
    CreateTable {
        /// Table name.
        name: String,
        /// Schema.
        schema: Arc<Schema>,
        /// Suppress already-exists.
        if_not_exists: bool,
    },
    /// `CREATE TABLE AS`.
    CreateTableAs {
        /// Table name.
        name: String,
        /// Source plan.
        plan: LogicalPlan,
        /// Uncorrelated scalar subqueries referenced by the plan.
        scalar_subs: Vec<LogicalPlan>,
        /// Suppress already-exists.
        if_not_exists: bool,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Table name.
        name: String,
        /// Suppress missing-table.
        if_exists: bool,
    },
    /// `INSERT ... VALUES` with constant rows already evaluated.
    InsertValues {
        /// Target table.
        table: String,
        /// Column positions in the target table, per provided value.
        column_map: Vec<usize>,
        /// Constant rows (in provided-column order).
        rows: Vec<Vec<crate::types::Value>>,
    },
    /// `INSERT ... SELECT`.
    InsertQuery {
        /// Target table.
        table: String,
        /// Column positions in the target table.
        column_map: Vec<usize>,
        /// Source plan.
        plan: LogicalPlan,
        /// Scalar subqueries.
        scalar_subs: Vec<LogicalPlan>,
    },
    /// `DELETE`.
    Delete {
        /// Target table.
        table: String,
        /// Predicate over the table's columns; `None` = all rows.
        filter: Option<Expr>,
        /// Scalar subqueries.
        scalar_subs: Vec<LogicalPlan>,
    },
    /// `UPDATE`.
    Update {
        /// Target table.
        table: String,
        /// `(column index, value expression)` pairs.
        assignments: Vec<(usize, Expr)>,
        /// Predicate; `None` = all rows.
        filter: Option<Expr>,
        /// Scalar subqueries.
        scalar_subs: Vec<LogicalPlan>,
    },
    /// A query.
    Query {
        /// The plan.
        plan: LogicalPlan,
        /// Scalar subqueries.
        scalar_subs: Vec<LogicalPlan>,
    },
    /// `EXPLAIN`: render the optimized plan instead of executing it. With
    /// `analyze`, the query also runs and each operator line reports its
    /// observed input/output rows, wall time, and whether the parallel path
    /// actually engaged.
    Explain {
        /// The plan to describe.
        plan: LogicalPlan,
        /// Scalar subqueries, listed below the plan as `$subqueryN` (and,
        /// under `EXPLAIN ANALYZE`, executed and annotated too).
        scalar_subs: Vec<LogicalPlan>,
        /// Whether to execute the plan and annotate runtime statistics.
        analyze: bool,
    },
    /// `EXPLAIN ANALYZE` of a `CreateTableAs` or `InsertQuery`: the
    /// statement runs as usual and its table build is reported.
    ExplainBuild(Box<BoundStatement>),
    /// `SHOW TABLES`.
    ShowTables,
    /// `SHOW FUNCTIONS`.
    ShowFunctions,
    /// `DROP FUNCTION`.
    DropFunction {
        /// Function name.
        name: String,
        /// Suppress missing-function.
        if_exists: bool,
    },
    /// `CHECKPOINT`: fold the write-ahead log into the page base.
    Checkpoint,
    /// `SAVE 'dir'`: whole-file snapshot into a directory.
    Save {
        /// Target directory.
        path: String,
    },
}
