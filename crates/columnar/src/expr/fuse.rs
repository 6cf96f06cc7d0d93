//! Fused predicate kernels: closure-composed, single-pass evaluation.
//!
//! The vectorized evaluator materializes one intermediate boolean column
//! per operator in a predicate tree — `a < 10 AND b > 2 AND c = 'x'`
//! touches every row three times and allocates three columns before the
//! selection vector is built. [`compile`] instead composes one closure per
//! tree node into a single row-at-a-time kernel: each row is touched once,
//! `AND`/`OR` short-circuit, and nothing is materialized. The filter
//! operator runs the kernel straight into its selection vector.
//!
//! ## Fusion contract
//!
//! A kernel returns `Option<bool>` — SQL's three-valued logic with `None`
//! as NULL — and is **infallible**: only operators whose vectorized
//! evaluation cannot raise per-row errors are fused (comparisons over
//! same-family types, `AND`/`OR`/`NOT`, `IS NULL`, `BETWEEN` over
//! literals, boolean columns and literals). Arithmetic is never fused:
//! its checked integer lanes error on overflow/division-by-zero for every
//! valid row, and a short-circuiting kernel would skip errors the
//! vectorized path raises. `Float32` comparisons are excluded for the
//! same reason (their fallback lane errors on NaN). Within the fused set,
//! kernels mirror the vectorized lanes bit for bit — including the
//! `Float64` NaN rule (incomparable compares as valid-false, not NULL).
//!
//! Dictionary-encoded comparison leaves pre-compute one verdict per
//! distinct value and the kernel reduces to a code lookup per row. RLE
//! leaves bail out of fusion — the vectorized run-at-a-time lane is
//! already the better shape for runs.
//!
//! Fused expressions are a strict subset of the parallel-safe expressions
//! (no UDFs can appear), so morsel workers may compile kernels per slice
//! freely; [`crate::verify::expr_parallel_safe`] stays the gate.

use crate::column::{Column, ColumnData};
use crate::expr::{BinaryOp, EvalContext, Expr, UnaryOp};
use crate::metrics;
use crate::strings::StringColumn;
use crate::types::Value;
use std::borrow::Cow;
use std::cmp::Ordering;

/// A compiled predicate kernel borrowing the batch it was compiled for.
pub struct Fused<'a> {
    kernel: Kernel<'a>,
    /// Number of dictionary-backed comparison leaves in the kernel.
    pub dict_leaves: u32,
}

type Kernel<'a> = Box<dyn Fn(usize) -> Option<bool> + 'a>;

impl Fused<'_> {
    /// Evaluates the predicate at row `i`; `None` is SQL NULL.
    #[inline]
    pub fn eval(&self, i: usize) -> Option<bool> {
        (self.kernel)(i)
    }
}

/// Static shape check: true when `expr` has a fusible shape. Optimistic —
/// [`compile`] may still bail on a concrete batch (unsupported column
/// type pairing, RLE leaf); the executor then takes the vectorized path.
/// A scalar subquery counts as a literal: its value is a parameter.
pub fn fusible(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(Value::Boolean(_)) | Expr::Literal(Value::Null) => true,
        Expr::Column(_) | Expr::Subquery(_) => true,
        Expr::IsNull { expr, .. } => matches!(**expr, Expr::Column(_)),
        Expr::Unary { op: UnaryOp::Not, expr } => fusible(expr),
        Expr::Binary { op, left, right } if op.is_comparison() => {
            cmp_operand(left) && cmp_operand(right)
        }
        Expr::Binary { op: BinaryOp::And | BinaryOp::Or, left, right } => {
            fusible(left) && fusible(right)
        }
        Expr::Between { expr, low, high, .. } => {
            matches!(**expr, Expr::Column(_)) && constant_operand(low) && constant_operand(high)
        }
        _ => false,
    }
}

fn cmp_operand(e: &Expr) -> bool {
    matches!(e, Expr::Column(_)) || constant_operand(e)
}

fn constant_operand(e: &Expr) -> bool {
    matches!(e, Expr::Literal(_) | Expr::Subquery(_))
}

/// The value a constant operand stands for: a literal's own, or a scalar
/// subquery's, read from the context's parameters.
fn constant<'e>(e: &'e Expr, ctx: &EvalContext<'_>) -> Option<Cow<'e, Value>> {
    match e {
        Expr::Literal(v) => Some(Cow::Borrowed(v)),
        Expr::Subquery(i) => {
            ctx.param(*i).ok().filter(|c| c.len() == 1).map(|c| Cow::Owned(c.value(0)))
        }
        _ => None,
    }
}

/// Compiles `expr` into a single-pass kernel over the context's batch, or
/// `None` when the shape, types, or encodings are outside the fusion
/// contract.
pub fn compile<'a>(expr: &Expr, ctx: &EvalContext<'a>) -> Option<Fused<'a>> {
    let mut dict_leaves = 0u32;
    let kernel = build(expr, ctx, &mut dict_leaves)?;
    metrics::counter("expr.fused.kernels").incr();
    Some(Fused { kernel, dict_leaves })
}

fn build<'a>(expr: &Expr, ctx: &EvalContext<'a>, dict_leaves: &mut u32) -> Option<Kernel<'a>> {
    let batch = ctx.batch;
    match expr {
        Expr::Literal(_) | Expr::Subquery(_) => match *constant(expr, ctx)? {
            Value::Boolean(v) => Some(Box::new(move |_| Some(v))),
            Value::Null => Some(Box::new(|_| None)),
            _ => None,
        },
        Expr::Column(i) => {
            let col: &'a Column = batch.columns().get(*i)?.as_ref();
            let bools = col.bools()?;
            Some(Box::new(move |i| if col.is_null(i) { None } else { Some(bools[i]) }))
        }
        Expr::IsNull { expr, negated } => match expr.as_ref() {
            Expr::Column(i) => {
                let col: &'a Column = batch.columns().get(*i)?.as_ref();
                let negated = *negated;
                Some(Box::new(move |i| Some(col.is_null(i) != negated)))
            }
            _ => None,
        },
        Expr::Unary { op: UnaryOp::Not, expr } => {
            let k = build(expr, ctx, dict_leaves)?;
            Some(Box::new(move |i| k(i).map(|b| !b)))
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            build_cmp(*op, left, right, ctx, dict_leaves)
        }
        Expr::Binary { op: BinaryOp::And, left, right } => {
            let l = build(left, ctx, dict_leaves)?;
            let r = build(right, ctx, dict_leaves)?;
            Some(Box::new(move |i| match (l(i), r(i)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }))
        }
        Expr::Binary { op: BinaryOp::Or, left, right } => {
            let l = build(left, ctx, dict_leaves)?;
            let r = build(right, ctx, dict_leaves)?;
            Some(Box::new(move |i| match (l(i), r(i)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }))
        }
        Expr::Between { expr, low, high, negated } => {
            let ge = build_cmp(BinaryOp::GtEq, expr, low, ctx, dict_leaves)?;
            let le = build_cmp(BinaryOp::LtEq, expr, high, ctx, dict_leaves)?;
            let negated = *negated;
            Some(Box::new(move |i| {
                let v = match (ge(i), le(i)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                if negated {
                    v.map(|b| !b)
                } else {
                    v
                }
            }))
        }
        _ => None,
    }
}

fn build_cmp<'a>(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    ctx: &EvalContext<'a>,
    dict_leaves: &mut u32,
) -> Option<Kernel<'a>> {
    let column = |i: usize| ctx.batch.columns().get(i).map(|c| c.as_ref());
    match (left, right) {
        (Expr::Column(i), Expr::Column(j)) => col_col(op, column(*i)?, column(*j)?),
        (Expr::Column(i), c) => col_lit(op, column(*i)?, &*constant(c, ctx)?, false, dict_leaves),
        (c, Expr::Column(i)) => col_lit(op, column(*i)?, &*constant(c, ctx)?, true, dict_leaves),
        _ => None,
    }
}

fn keep(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => false,
    }
}

fn lit_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Int8(x) => Some(*x as i64),
        Value::Int16(x) => Some(*x as i64),
        Value::Int32(x) => Some(*x as i64),
        Value::Int64(x) => Some(*x),
        _ => None,
    }
}

/// Column vs. constant. `flip` means the literal was the left operand.
fn col_lit<'a>(
    op: BinaryOp,
    col: &'a Column,
    v: &Value,
    flip: bool,
    dict_leaves: &mut u32,
) -> Option<Kernel<'a>> {
    if v.is_null() {
        // Comparison with NULL is NULL everywhere.
        return Some(Box::new(|_| None));
    }
    if let Some((codes, dict)) = col.dict_parts() {
        // One verdict per distinct value; the kernel is a code lookup.
        let lut = cmp_lut(op, dict, v, flip)?;
        *dict_leaves += 1;
        return Some(Box::new(
            move |i| {
                if col.is_null(i) {
                    None
                } else {
                    Some(lut[codes[i] as usize])
                }
            },
        ));
    }
    if !col.is_plain() {
        return None; // RLE: the vectorized run-at-a-time lane handles it.
    }
    match (col.data(), v) {
        (ColumnData::Int8(s), _) => Some(int_kernel(s, col, lit_i64(v)?, op, flip)),
        (ColumnData::Int16(s), _) => Some(int_kernel(s, col, lit_i64(v)?, op, flip)),
        (ColumnData::Int32(s), _) => Some(int_kernel(s, col, lit_i64(v)?, op, flip)),
        (ColumnData::Int64(s), _) => Some(int_kernel(s, col, lit_i64(v)?, op, flip)),
        (ColumnData::Float64(s), Value::Float64(x)) => {
            let lit = *x;
            Some(Box::new(move |i| {
                if col.is_null(i) {
                    return None;
                }
                let a = s[i];
                let ord = if flip { lit.partial_cmp(&a) } else { a.partial_cmp(&lit) };
                // Mirror the vectorized Float64 lane: incomparable (NaN)
                // compares as valid-false, not NULL.
                Some(ord.map(|o| keep(op, o)).unwrap_or(false))
            }))
        }
        (ColumnData::Varchar(s), Value::Varchar(x)) => {
            Some(str_kernel(s, col, x.clone(), op, flip))
        }
        (ColumnData::Boolean(s), Value::Boolean(x)) => {
            let lit = *x;
            Some(Box::new(move |i| {
                if col.is_null(i) {
                    return None;
                }
                let a = s[i];
                let ord = if flip { lit.cmp(&a) } else { a.cmp(&lit) };
                Some(keep(op, ord))
            }))
        }
        _ => None,
    }
}

fn int_kernel<'a, T: Copy + Into<i64> + 'a>(
    slice: &'a [T],
    col: &'a Column,
    lit: i64,
    op: BinaryOp,
    flip: bool,
) -> Kernel<'a> {
    Box::new(move |i| {
        if col.is_null(i) {
            return None;
        }
        let a: i64 = slice[i].into();
        let ord = if flip { lit.cmp(&a) } else { a.cmp(&lit) };
        Some(keep(op, ord))
    })
}

fn str_kernel<'a>(
    s: &'a StringColumn,
    col: &'a Column,
    lit: String,
    op: BinaryOp,
    flip: bool,
) -> Kernel<'a> {
    Box::new(move |i| {
        if col.is_null(i) {
            return None;
        }
        let a = s.get(i);
        let ord = if flip { lit.as_str().cmp(a) } else { a.cmp(lit.as_str()) };
        Some(keep(op, ord))
    })
}

/// Verdict per dictionary entry for a column-vs-constant comparison.
fn cmp_lut(op: BinaryOp, dict: &ColumnData, v: &Value, flip: bool) -> Option<Vec<bool>> {
    let ord_keep = |ord: Option<Ordering>| ord.map(|o| keep(op, o)).unwrap_or(false);
    match (dict, v) {
        (ColumnData::Int8(d), _) => int_lut(d, lit_i64(v)?, op, flip),
        (ColumnData::Int16(d), _) => int_lut(d, lit_i64(v)?, op, flip),
        (ColumnData::Int32(d), _) => int_lut(d, lit_i64(v)?, op, flip),
        (ColumnData::Int64(d), _) => int_lut(d, lit_i64(v)?, op, flip),
        (ColumnData::Float64(d), Value::Float64(x)) => Some(
            d.iter()
                .map(|a| ord_keep(if flip { x.partial_cmp(a) } else { a.partial_cmp(x) }))
                .collect(),
        ),
        (ColumnData::Varchar(d), Value::Varchar(x)) => Some(
            (0..d.len())
                .map(|i| {
                    let a = d.get(i);
                    keep(op, if flip { x.as_str().cmp(a) } else { a.cmp(x.as_str()) })
                })
                .collect(),
        ),
        (ColumnData::Boolean(d), Value::Boolean(x)) => {
            Some(d.iter().map(|a| keep(op, if flip { x.cmp(a) } else { a.cmp(x) })).collect())
        }
        _ => None,
    }
}

fn int_lut<T: Copy + Into<i64>>(d: &[T], lit: i64, op: BinaryOp, flip: bool) -> Option<Vec<bool>> {
    Some(
        d.iter()
            .map(|&a| {
                let a: i64 = a.into();
                keep(op, if flip { lit.cmp(&a) } else { a.cmp(&lit) })
            })
            .collect(),
    )
}

/// Column vs. column within one batch: both plain, same type family.
fn col_col<'a>(op: BinaryOp, l: &'a Column, r: &'a Column) -> Option<Kernel<'a>> {
    if !l.is_plain() || !r.is_plain() {
        return None;
    }
    match (l.data(), r.data()) {
        (ColumnData::Float64(a), ColumnData::Float64(b)) => Some(Box::new(move |i| {
            if l.is_null(i) || r.is_null(i) {
                return None;
            }
            Some(a[i].partial_cmp(&b[i]).map(|o| keep(op, o)).unwrap_or(false))
        })),
        (ColumnData::Varchar(a), ColumnData::Varchar(b)) => Some(Box::new(move |i| {
            if l.is_null(i) || r.is_null(i) {
                return None;
            }
            Some(keep(op, a.get(i).cmp(b.get(i))))
        })),
        (ColumnData::Boolean(a), ColumnData::Boolean(b)) => Some(Box::new(move |i| {
            if l.is_null(i) || r.is_null(i) {
                return None;
            }
            Some(keep(op, a[i].cmp(&b[i])))
        })),
        _ => {
            let ga = int_getter(l.data())?;
            let gb = int_getter(r.data())?;
            Some(Box::new(move |i| {
                if l.is_null(i) || r.is_null(i) {
                    return None;
                }
                Some(keep(op, ga(i).cmp(&gb(i))))
            }))
        }
    }
}

fn int_getter<'a>(data: &'a ColumnData) -> Option<Box<dyn Fn(usize) -> i64 + 'a>> {
    match data {
        ColumnData::Int8(v) => Some(Box::new(move |i| v[i] as i64)),
        ColumnData::Int16(v) => Some(Box::new(move |i| v[i] as i64)),
        ColumnData::Int32(v) => Some(Box::new(move |i| v[i] as i64)),
        ColumnData::Int64(v) => Some(Box::new(move |i| v[i])),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Encoding;
    use crate::expr::Expr as E;
    use std::sync::Arc;

    fn batch() -> Batch {
        Batch::from_columns(vec![
            ("a", Column::from_i32s(vec![1, 2, 3, 4])),
            ("b", Column::from_opt_i32s(vec![Some(10), None, Some(30), Some(40)])),
            ("f", Column::from_f64s(vec![0.5, 1.5, f64::NAN, 3.5])),
            ("s", Column::from_strings(["apple", "banana", "cherry", "date"])),
            ("d", Column::from_i32s(vec![7, 8, 7, 8]).encode(Encoding::Dict)),
        ])
        .unwrap()
    }

    fn eval_all(expr: &E, b: &Batch) -> Vec<Option<bool>> {
        let f = compile(expr, &EvalContext::new(b, None)).expect("fusible");
        (0..b.rows()).map(|i| f.eval(i)).collect()
    }

    #[test]
    fn comparison_and_logic_fuse() {
        let b = batch();
        let e = E::binary(
            BinaryOp::And,
            E::binary(BinaryOp::Gt, E::col(0), E::lit(1i32)),
            E::binary(BinaryOp::Lt, E::col(0), E::lit(4i32)),
        );
        assert!(fusible(&e));
        assert_eq!(eval_all(&e, &b), vec![Some(false), Some(true), Some(true), Some(false)]);
    }

    #[test]
    fn null_rows_are_none_but_and_false_wins() {
        let b = batch();
        // b IS NULL on row 1; b > 0 is NULL there.
        let e = E::binary(BinaryOp::Gt, E::col(1), E::lit(0i32));
        assert_eq!(eval_all(&e, &b)[1], None);
        // NULL AND false = false, matching the vectorized 3VL tables.
        let e = E::binary(
            BinaryOp::And,
            E::binary(BinaryOp::Gt, E::col(1), E::lit(0i32)),
            E::lit(false),
        );
        assert_eq!(eval_all(&e, &b)[1], Some(false));
    }

    #[test]
    fn nan_compares_valid_false() {
        let b = batch();
        let e = E::binary(BinaryOp::Lt, E::col(2), E::lit(2.0f64));
        assert_eq!(eval_all(&e, &b), vec![Some(true), Some(true), Some(false), Some(false)]);
    }

    #[test]
    fn dict_leaf_uses_lut() {
        let b = batch();
        let e = E::binary(BinaryOp::Eq, E::col(4), E::lit(7i32));
        let f = compile(&e, &EvalContext::new(&b, None)).unwrap();
        assert_eq!(f.dict_leaves, 1);
        let got: Vec<_> = (0..4).map(|i| f.eval(i)).collect();
        assert_eq!(got, vec![Some(true), Some(false), Some(true), Some(false)]);
    }

    #[test]
    fn unsupported_shapes_bail() {
        let b = batch();
        // Arithmetic is never fused (error semantics).
        let e = E::binary(
            BinaryOp::Gt,
            E::binary(BinaryOp::Add, E::col(0), E::lit(1i32)),
            E::lit(2i32),
        );
        assert!(!fusible(&e));
        assert!(compile(&e, &EvalContext::new(&b, None)).is_none());
        // Cross-family compare bails at compile time.
        let e = E::binary(BinaryOp::Gt, E::col(0), E::lit(1.5f64));
        assert!(fusible(&e), "shape looks fusible");
        assert!(compile(&e, &EvalContext::new(&b, None)).is_none(), "type pairing bails");
        // RLE leaves bail.
        let rb = Batch::from_columns(vec![(
            "r",
            Column::from_i32s(vec![1, 1, 2, 2]).encode(Encoding::Rle),
        )])
        .unwrap();
        let e = E::binary(BinaryOp::Eq, E::col(0), E::lit(1i32));
        assert!(compile(&e, &EvalContext::new(&rb, None)).is_none());
    }

    #[test]
    fn between_and_isnull_fuse() {
        let b = batch();
        let e = E::Between {
            expr: Box::new(E::col(0)),
            low: Box::new(E::lit(2i32)),
            high: Box::new(E::lit(3i32)),
            negated: true,
        };
        assert_eq!(eval_all(&e, &b), vec![Some(true), Some(false), Some(false), Some(true)]);
        let e = E::IsNull { expr: Box::new(E::col(1)), negated: false };
        assert_eq!(eval_all(&e, &b), vec![Some(false), Some(true), Some(false), Some(false)]);
    }

    #[test]
    fn a_scalar_subquery_fuses_as_the_literal_it_holds() {
        let b = batch();
        let params =
            [Arc::new(Column::from_i32s(vec![2])), Arc::new(Column::from_bools(vec![true]))];
        let ctx = EvalContext { params: &params, ..EvalContext::new(&b, None) };
        let e = E::binary(BinaryOp::Gt, E::col(0), E::Subquery(0));
        assert!(fusible(&e));
        let f = compile(&e, &ctx).expect("fusible with its parameter");
        let got: Vec<_> = (0..4).map(|i| f.eval(i)).collect();
        assert_eq!(got, vec![Some(false), Some(false), Some(true), Some(true)]);
        let e = E::binary(
            BinaryOp::And,
            E::Subquery(1),
            E::binary(BinaryOp::Eq, E::Subquery(0), E::col(4)),
        );
        assert!(compile(&e, &ctx).is_some(), "subquery on the left of a dictionary leaf");
        // Without its parameter the placeholder does not fuse.
        assert!(compile(&e, &EvalContext::new(&b, None)).is_none());
    }
}
