//! The parse-level abstract syntax tree.
//!
//! Names are unresolved strings (already lower-cased by the lexer); the
//! binder turns this AST into a [`crate::sql::plan::LogicalPlan`] with
//! positional column references.

use crate::types::{DataType, Value};

/// A complete SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE [IF NOT EXISTS] name (col TYPE [NOT NULL], ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Suppress the already-exists error.
        if_not_exists: bool,
    },
    /// `CREATE TABLE [IF NOT EXISTS] name AS query`.
    CreateTableAs {
        /// Table name.
        name: String,
        /// Source query.
        query: Query,
        /// Suppress the already-exists error.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        /// Table name.
        name: String,
        /// Suppress the missing-table error.
        if_exists: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES ... | query`.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Row source.
        source: InsertSource,
    },
    /// `DELETE FROM name [WHERE ...]`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter; `None` deletes everything.
        filter: Option<AstExpr>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE ...]`.
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        assignments: Vec<(String, AstExpr)>,
        /// Row filter; `None` updates everything.
        filter: Option<AstExpr>,
    },
    /// A `SELECT` query.
    Query(Query),
    /// `EXPLAIN SELECT ...` — shows the optimized logical plan.
    /// With `analyze` set (`EXPLAIN ANALYZE`), also executes the query and
    /// annotates each operator with its observed rows and wall time.
    Explain {
        /// The query being explained.
        query: Query,
        /// Whether to execute the query and report per-operator runtime.
        analyze: bool,
    },
    /// `EXPLAIN ANALYZE CREATE TABLE … AS …` or `EXPLAIN ANALYZE INSERT …
    /// SELECT`: runs the statement as it would run without `EXPLAIN` and
    /// reports the table build with the query's annotated plan under it.
    ExplainBuild(Box<Statement>),
    /// `SHOW TABLES`.
    ShowTables,
    /// `SHOW FUNCTIONS` — lists registered UDFs.
    ShowFunctions,
    /// `DROP FUNCTION [IF EXISTS] name` — unregisters a UDF.
    DropFunction {
        /// Function name.
        name: String,
        /// Suppress the missing-function error.
        if_exists: bool,
    },
    /// `CHECKPOINT` — folds the write-ahead log into the page base and
    /// truncates it. Only meaningful on a durable database.
    Checkpoint,
    /// `SAVE 'dir'` — whole-file snapshot of every table into a directory
    /// (checkpointing first when the database is durable).
    Save {
        /// Target directory.
        path: String,
    },
}

/// One column in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// False when `NOT NULL` was given.
    pub nullable: bool,
}

/// Source of inserted rows.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)` — constant expression rows.
    Values(Vec<Vec<AstExpr>>),
    /// `INSERT INTO t SELECT …`.
    Query(Query),
}

/// A query: set expression plus ordering and limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The body (`SELECT` or `UNION ALL` tree).
    pub body: SetExpr,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` expression (constant).
    pub limit: Option<AstExpr>,
    /// `OFFSET` expression (constant).
    pub offset: Option<AstExpr>,
}

/// The set-expression level of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A plain `SELECT`.
    Select(Box<Select>),
    /// `left UNION ALL right`.
    UnionAll(Box<SetExpr>, Box<SetExpr>),
}

/// One `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projected items.
    pub projection: Vec<SelectItem>,
    /// `FROM` clause; `None` for table-less selects (`SELECT 1`).
    pub from: Option<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<AstExpr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<AstExpr>,
    /// `HAVING` predicate.
    pub having: Option<AstExpr>,
}

/// One item in the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// An expression with optional alias.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table reference in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table with optional alias.
    Named {
        /// Table name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// A derived table: `(SELECT ...) alias`.
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
    /// A table-valued function call: `train(args...)`.
    TableFunction {
        /// Function name.
        name: String,
        /// Arguments (expressions or whole-column subqueries).
        args: Vec<TableFuncArg>,
        /// Alias.
        alias: Option<String>,
    },
    /// A join of two table references.
    Join {
        /// Left side.
        left: Box<TableRef>,
        /// Right side.
        right: Box<TableRef>,
        /// INNER / LEFT / CROSS.
        join_type: AstJoinType,
        /// Join condition.
        constraint: JoinConstraint,
    },
}

/// Join kinds supported by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstJoinType {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN` (or comma).
    Cross,
}

/// The condition attached to a join.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinConstraint {
    /// `ON expr`.
    On(AstExpr),
    /// `USING (col, ...)`.
    Using(Vec<String>),
    /// No condition (cross join).
    None,
}

/// An argument to a table-valued function.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFuncArg {
    /// A scalar expression (no column references).
    Expr(AstExpr),
    /// `(SELECT ...)` — every column of the result is passed as a whole
    /// column argument, the paper's way of feeding data to `train`.
    Subquery(Query),
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression (may be an output alias or a 1-based ordinal).
    pub expr: AstExpr,
    /// `ASC` (default) or `DESC`.
    pub ascending: bool,
    /// Explicit `NULLS FIRST`/`LAST`, if given.
    pub nulls_first: Option<bool>,
}

/// An unresolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Bare identifier `col`.
    Ident(String),
    /// Qualified identifier `t.col`.
    CompoundIdent(String, String),
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: crate::expr::BinaryOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: crate::expr::UnaryOp,
        /// Operand.
        expr: Box<AstExpr>,
    },
    /// Function call: aggregate, builtin scalar, or UDF — resolved by the
    /// binder in that order.
    Function {
        /// Function name (lower-cased).
        name: String,
        /// Arguments.
        args: Vec<AstExpr>,
        /// `f(DISTINCT x)`.
        distinct: bool,
        /// `COUNT(*)`.
        star: bool,
    },
    /// `CAST(expr AS TYPE)`.
    Cast {
        /// Operand.
        expr: Box<AstExpr>,
        /// Target type.
        to: DataType,
    },
    /// `CASE ...`.
    Case {
        /// Optional operand form.
        operand: Option<Box<AstExpr>>,
        /// `(when, then)` pairs.
        branches: Vec<(AstExpr, AstExpr)>,
        /// `ELSE`.
        else_expr: Option<Box<AstExpr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<AstExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Candidates.
        list: Vec<AstExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Pattern.
        pattern: Box<AstExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Low bound.
        low: Box<AstExpr>,
        /// High bound.
        high: Box<AstExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `(SELECT ...)` used as a scalar — must evaluate to one row, one
    /// column. This is how a stored model BLOB is fed to `predict`.
    ScalarSubquery(Box<Query>),
}
