//! Physical expressions: column references are resolved to input indices,
//! function names to builtins or registered UDFs. Produced by the SQL
//! binder; evaluated vectorized by [`eval`].

mod eval;
mod functions;
pub mod fuse;
mod typing;

pub use eval::{eval, eval_predicate, eval_predicate_offset, eval_shared, EvalContext};
pub use functions::BuiltinScalar;
pub(crate) use typing::{type_of, TypeEnv};

use crate::types::{DataType, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division when both sides are integers)
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND` (three-valued)
    And,
    /// `OR` (three-valued)
    Or,
    /// `||` string concatenation
    Concat,
}

impl BinaryOp {
    /// True for `= <> < <= > >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// True for `+ - * / %`.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean NOT (three-valued).
    Not,
}

/// A physical expression over the columns of an input batch.
///
/// Evaluation is column-at-a-time: every node produces either a full-length
/// column or a length-1 *constant* column that consumers broadcast. This is
/// how a scalar argument (e.g. a pickled model from a scalar subquery)
/// reaches a vectorized UDF without being duplicated per row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Binary operation with SQL NULL semantics.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        to: DataType,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Optional comparison operand (`CASE x WHEN v ...`).
        operand: Option<Box<Expr>>,
        /// `(when, then)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result.
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern (usually a literal).
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// A built-in scalar function.
    ScalarFn {
        /// Which builtin.
        func: BuiltinScalar,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A registered vectorized scalar UDF (the paper's `predict`).
    Udf {
        /// Registered name.
        name: String,
        /// Arguments; constant args arrive at the UDF as length-1 columns.
        args: Vec<Expr>,
    },
    /// Placeholder for an uncorrelated scalar subquery, indexing into the
    /// bound statement's subquery list. Plans keep it: each execution
    /// evaluates the subqueries up front and [`eval`] reads subquery `i`'s
    /// one-row value from the context's parameters
    /// ([`EvalContext::params`]), like a literal.
    Subquery(usize),
}

impl Expr {
    /// Convenience: `Expr::Column(i)`.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: binary op.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// Calls `f` on each operand of this node, in evaluation order.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                f(expr)
            }
            Expr::Case { operand, branches, else_expr } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.iter().for_each(|e| f(e));
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::ScalarFn { args, .. } | Expr::Udf { args, .. } => args.iter().for_each(f),
        }
    }

    /// [`Self::for_each_child`] with mutable operands.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                f(expr)
            }
            Expr::Case { operand, branches, else_expr } => {
                operand.iter_mut().for_each(|o| f(o));
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                else_expr.iter_mut().for_each(|e| f(e));
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::ScalarFn { args, .. } | Expr::Udf { args, .. } => args.iter_mut().for_each(f),
        }
    }

    /// Collects the input column indices this expression references.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            e => e.for_each_child(|c| c.referenced_columns(out)),
        }
    }

    /// Rewrites every `Column(i)` through `map[i]` (projection pushdown).
    pub fn remap_columns(&mut self, map: &[usize]) {
        match self {
            Expr::Column(i) => *i = map[*i],
            e => e.for_each_child_mut(|c| c.remap_columns(map)),
        }
    }

    /// True if the expression contains any scalar-subquery placeholder.
    pub fn has_subquery(&self) -> bool {
        let mut found = matches!(self, Expr::Subquery(_));
        self.for_each_child(|c| found = found || c.has_subquery());
        found
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Case { .. } => write!(f, "CASE…END"),
            Expr::InList { expr, negated, .. } => {
                write!(f, "({expr} {}IN (…))", if *negated { "NOT " } else { "" })
            }
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE {pattern})", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, low, high, negated } => {
                write!(f, "({expr} {}BETWEEN {low} AND {high})", if *negated { "NOT " } else { "" })
            }
            Expr::ScalarFn { func, args } => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Subquery(i) => write!(f, "$subquery{i}"),
            Expr::Udf { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_and_remap() {
        let mut e = Expr::binary(
            BinaryOp::Add,
            Expr::col(2),
            Expr::ScalarFn { func: BuiltinScalar::Abs, args: vec![Expr::col(5)] },
        );
        let mut refs = Vec::new();
        e.referenced_columns(&mut refs);
        assert_eq!(refs, vec![2, 5]);
        let map: Vec<usize> = (0..6).map(|i| 10 - i).collect();
        e.remap_columns(&map);
        let mut refs = Vec::new();
        e.referenced_columns(&mut refs);
        assert_eq!(refs, vec![8, 5]);
    }

    #[test]
    fn display_renders() {
        let e = Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(5i32));
        assert_eq!(e.to_string(), "(#0 < 5)");
    }
}
