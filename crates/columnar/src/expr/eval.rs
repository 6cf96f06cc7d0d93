//! Vectorized expression evaluation.
//!
//! Every expression evaluates to a [`Column`] that is either full-length
//! (`rows` values) or a length-1 constant that consumers broadcast. NULL
//! semantics follow SQL: arithmetic and comparisons propagate NULL,
//! `AND`/`OR` use three-valued logic.

use crate::batch::Batch;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder};
use crate::error::{DbError, DbResult};
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::metrics;
use crate::types::{DataType, Value};
use crate::udf::FunctionRegistry;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Evaluation context: the input batch, (optionally) the function
/// registry needed to resolve UDF calls, and the execution's parameters.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// The input rows.
    pub batch: &'a Batch,
    /// UDF registry; `None` in contexts where UDFs are not allowed.
    pub functions: Option<&'a FunctionRegistry>,
    /// The statement's evaluated scalar subqueries, one one-row column
    /// each: `Expr::Subquery(i)` reads `params[i]`.
    pub params: &'a [Arc<Column>],
}

impl<'a> EvalContext<'a> {
    /// Context over a batch with UDFs available and no parameters.
    pub fn new(batch: &'a Batch, functions: Option<&'a FunctionRegistry>) -> Self {
        EvalContext { batch, functions, params: &[] }
    }

    /// The value of scalar subquery `i`: its one-row column, shared.
    pub fn param(&self, i: usize) -> DbResult<&'a Arc<Column>> {
        self.params.get(i).ok_or_else(|| {
            DbError::internal(format!(
                "scalar subquery ${i} has no value ({} evaluated)",
                self.params.len()
            ))
        })
    }
}

/// The batch's own column `i`, bounds-checked: the one way an expression
/// reads its input, so a column reference is never copied.
fn column_at(batch: &Batch, i: usize) -> DbResult<&Arc<Column>> {
    let cols = batch.columns();
    cols.get(i).ok_or_else(|| {
        DbError::internal(format!("column index {i} out of range ({} columns)", cols.len()))
    })
}

/// Evaluates `expr` over the context's batch. A column reference is the
/// batch's own column and a scalar subquery its parameter, both borrowed;
/// every other expression computes a new column (a literal is one row, so
/// constants cost one allocation).
pub fn eval<'a>(ctx: &EvalContext<'a>, expr: &Expr) -> DbResult<Cow<'a, Column>> {
    let out = match expr {
        Expr::Column(i) => return column_at(ctx.batch, *i).map(|c| Cow::Borrowed(c.as_ref())),
        Expr::Subquery(i) => return ctx.param(*i).map(|c| Cow::Borrowed(c.as_ref())),
        Expr::Literal(v) => {
            Column::from_values(v.data_type().unwrap_or(DataType::Int32), std::slice::from_ref(v))?
        }
        Expr::Binary { op, left, right } => {
            let l = eval(ctx, left)?;
            let r = eval(ctx, right)?;
            eval_binary(*op, &l, &r)?
        }
        Expr::Unary { op, expr } => {
            let c = eval(ctx, expr)?;
            eval_unary(*op, &c)?
        }
        Expr::Cast { expr, to } => {
            let c = eval(ctx, expr)?;
            if c.data_type() == *to {
                return Ok(c);
            }
            c.cast(*to)?
        }
        Expr::IsNull { expr, negated } => {
            let c = eval(ctx, expr)?;
            let out: Vec<bool> = (0..c.len()).map(|i| c.is_null(i) != *negated).collect();
            Column::from_bools(out)
        }
        Expr::Case { operand, branches, else_expr } => {
            eval_case(ctx, operand.as_deref(), branches, else_expr.as_deref())?
        }
        Expr::InList { expr, list, negated } => eval_in_list(ctx, expr, list, *negated)?,
        Expr::Like { expr, pattern, negated } => eval_like(ctx, expr, pattern, *negated)?,
        Expr::Between { expr, low, high, negated } => eval_between(ctx, expr, low, high, *negated)?,
        Expr::ScalarFn { func, args } => {
            // Builtins consume typed slices; hand them plain columns.
            let arg_cols: Vec<Cow<'_, Column>> =
                args.iter().map(|a| eval(ctx, a).map(plain)).collect::<DbResult<_>>()?;
            super::functions::eval_builtin(*func, &arg_cols)?
        }
        Expr::Udf { name, args } => eval_udf(ctx, name, args)?,
    };
    Ok(Cow::Owned(out))
}

/// [`eval`] for a caller that keeps the result: a column reference or a
/// scalar subquery is the batch's or the parameter's own `Arc`, shared;
/// every other expression is evaluated.
pub fn eval_shared(ctx: &EvalContext<'_>, expr: &Expr) -> DbResult<Arc<Column>> {
    match expr {
        Expr::Column(i) => column_at(ctx.batch, *i).cloned(),
        Expr::Subquery(i) => ctx.param(*i).cloned(),
        // Only those two evaluate borrowed, so this moves.
        other => Ok(Arc::new(eval(ctx, other)?.into_owned())),
    }
}

/// `c` with its encoding (if any) decoded; a plain column passes as is.
fn plain(c: Cow<'_, Column>) -> Cow<'_, Column> {
    match c {
        Cow::Borrowed(c) => c.decoded(),
        Cow::Owned(c) if !c.is_plain() => Cow::Owned(c.decode()),
        owned => owned,
    }
}

/// A scalar UDF call. The UDF receives borrowed typed slices: a plain
/// argument column is shared with the input, an encoded one is decoded
/// once, unless the UDF reads encodings itself
/// ([`crate::udf::ScalarUdf::reads_encoded`]).
fn eval_udf(ctx: &EvalContext<'_>, name: &str, args: &[Expr]) -> DbResult<Column> {
    let registry = ctx
        .functions
        .ok_or_else(|| DbError::Unsupported("UDF calls are not allowed in this context".into()))?;
    let udf = registry.scalar(name)?;
    let arg_cols: Vec<Arc<Column>> = args
        .iter()
        .map(|a| {
            let c = eval_shared(ctx, a)?;
            Ok(if c.is_plain() || udf.reads_encoded() { c } else { Arc::new(c.decode()) })
        })
        .collect::<DbResult<_>>()?;
    let n = arg_cols.iter().map(|c| c.len()).max().unwrap_or(ctx.batch.rows());
    for c in &arg_cols {
        if c.len() != n && c.len() != 1 {
            return Err(DbError::Udf {
                function: name.to_owned(),
                message: format!("argument length {} incompatible with {} rows", c.len(), n),
            });
        }
    }
    let out = crate::udf::invoke_scalar_checked(udf.as_ref(), &arg_cols)?;
    if out.len() != n && out.len() != 1 {
        return Err(DbError::Udf {
            function: name.to_owned(),
            message: format!("returned {} rows, expected {n} (or 1)", out.len()),
        });
    }
    Ok(out)
}

/// Evaluates a predicate into a selection vector: the indices of rows where
/// it is TRUE (NULL counts as not-true, per SQL `WHERE`).
pub fn eval_predicate(ctx: &EvalContext<'_>, expr: &Expr) -> DbResult<Vec<u32>> {
    let rows = ctx.batch.rows();
    let c = eval(ctx, expr)?;
    let c = c.decoded();
    let bools = c.bools().ok_or_else(|| {
        DbError::Type(format!("predicate must be BOOLEAN, got {}", c.data_type()))
    })?;
    if c.len() == 1 && rows != 1 {
        // Constant predicate: all or nothing.
        return if !c.is_null(0) && bools[0] {
            Ok((0..rows as u32).collect())
        } else {
            Ok(Vec::new())
        };
    }
    if c.len() != rows {
        return Err(DbError::Shape(format!(
            "predicate produced {} values for {} rows",
            c.len(),
            rows
        )));
    }
    let mut sel = Vec::with_capacity(rows);
    match c.validity() {
        None => {
            for (i, &b) in bools.iter().enumerate() {
                if b {
                    sel.push(i as u32);
                }
            }
        }
        Some(bm) => {
            for (i, &b) in bools.iter().enumerate() {
                if b && bm.get(i) {
                    sel.push(i as u32);
                }
            }
        }
    }
    Ok(sel)
}

/// [`eval_predicate`] for a batch that is a slice of a larger input:
/// returned indices are shifted by `offset` into the original batch's row
/// space. The morsel-parallel filter evaluates each morsel slice with
/// this and concatenates the per-morsel selections.
pub fn eval_predicate_offset(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    offset: usize,
) -> DbResult<Vec<u32>> {
    let mut sel = eval_predicate(ctx, expr)?;
    if offset > 0 {
        let off = u32::try_from(offset)
            .map_err(|_| DbError::Shape(format!("row offset {offset} exceeds u32 range")))?;
        for i in &mut sel {
            *i += off;
        }
    }
    Ok(sel)
}

/// Broadcast helper: the common evaluation length of a two-column op.
fn pair_len(a: &Column, b: &Column) -> DbResult<usize> {
    match (a.len(), b.len()) {
        (x, y) if x == y => Ok(x),
        (1, y) => Ok(y),
        (x, 1) => Ok(x),
        (x, y) => Err(DbError::Shape(format!("mismatched operand lengths {x} and {y}"))),
    }
}

/// Broadcast index: constants (length 1) always read row 0.
#[inline]
fn bidx(len: usize, i: usize) -> usize {
    if len == 1 {
        0
    } else {
        i
    }
}

fn eval_binary(op: BinaryOp, l: &Column, r: &Column) -> DbResult<Column> {
    match op {
        _ if op.is_arithmetic() => eval_arithmetic(op, l, r),
        _ if op.is_comparison() => eval_comparison(op, l, r),
        BinaryOp::And | BinaryOp::Or => eval_logical(op, l, r),
        BinaryOp::Concat => eval_concat(l, r),
        _ => unreachable!("all binary ops covered"),
    }
}

fn eval_arithmetic(op: BinaryOp, l: &Column, r: &Column) -> DbResult<Column> {
    let n = pair_len(l, r)?;
    let lt = l.data_type();
    let rt = r.data_type();
    if !lt.is_numeric() || !rt.is_numeric() {
        return Err(DbError::Type(format!("cannot apply '{}' to {} and {}", op.symbol(), lt, rt)));
    }
    let ln = l.len();
    let rn = r.len();
    let validity = combine_validity(l, r, n);
    if lt.is_integer() && rt.is_integer() {
        // Integer lane: evaluate at i64 with checked arithmetic.
        let mut out: Vec<i64> = Vec::with_capacity(n);
        for i in 0..n {
            let (li, ri) = (bidx(ln, i), bidx(rn, i));
            if valid_at(&validity, i) {
                let a = l.i64_at(li).ok_or_else(|| non_numeric(op, l, r))?;
                let b = r.i64_at(ri).ok_or_else(|| non_numeric(op, l, r))?;
                let v = match op {
                    BinaryOp::Add => a.checked_add(b),
                    BinaryOp::Sub => a.checked_sub(b),
                    BinaryOp::Mul => a.checked_mul(b),
                    BinaryOp::Div => {
                        if b == 0 {
                            return Err(DbError::Arithmetic("division by zero".into()));
                        }
                        a.checked_div(b)
                    }
                    BinaryOp::Mod => {
                        if b == 0 {
                            return Err(DbError::Arithmetic("modulo by zero".into()));
                        }
                        a.checked_rem(b)
                    }
                    _ => unreachable!(),
                };
                match v {
                    Some(v) => out.push(v),
                    None => {
                        return Err(DbError::Arithmetic(format!(
                            "integer overflow in {a} {} {b}",
                            op.symbol()
                        )))
                    }
                }
            } else {
                out.push(0);
            }
        }
        Column::new(crate::column::ColumnData::Int64(out), validity)
    } else {
        // Float lane.
        let mut out: Vec<f64> = Vec::with_capacity(n);
        for i in 0..n {
            let (li, ri) = (bidx(ln, i), bidx(rn, i));
            if valid_at(&validity, i) {
                let a = l.f64_at(li).ok_or_else(|| non_numeric(op, l, r))?;
                let b = r.f64_at(ri).ok_or_else(|| non_numeric(op, l, r))?;
                out.push(match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div => a / b,
                    BinaryOp::Mod => a % b,
                    _ => unreachable!(),
                });
            } else {
                out.push(0.0);
            }
        }
        Column::new(crate::column::ColumnData::Float64(out), validity)
    }
}

/// Error for a valid row whose cell is not readable as a number — only
/// reachable if an operand column lies about its type.
fn non_numeric(op: BinaryOp, l: &Column, r: &Column) -> DbError {
    DbError::internal(format!(
        "non-numeric cell under '{}' over {} and {}",
        op.symbol(),
        l.data_type(),
        r.data_type()
    ))
}

/// Combined validity of both operands at the broadcast length, or `None`
/// when every row is valid.
fn combine_validity(l: &Column, r: &Column, n: usize) -> Option<Bitmap> {
    if l.validity().is_none() && r.validity().is_none() {
        return None;
    }
    let mut bm = Bitmap::filled(n, true);
    for i in 0..n {
        let lv = !l.is_null(bidx(l.len(), i));
        let rv = !r.is_null(bidx(r.len(), i));
        if !(lv && rv) {
            bm.set(i, false);
        }
    }
    Some(bm)
}

#[inline]
fn valid_at(validity: &Option<Bitmap>, i: usize) -> bool {
    validity.as_ref().is_none_or(|bm| bm.get(i))
}

/// True when the pair can be compared from types alone, so a per-distinct
/// or per-run comparison cannot raise errors a per-row comparison would
/// have skipped (all-NULL rows never reach the row loop).
fn cmp_types_total(l: &Column, r: &Column) -> bool {
    let (lt, rt) = (l.data_type(), r.data_type());
    lt == rt || (lt.is_numeric() && rt.is_numeric())
}

/// Encoded comparison fast lanes: a dict or RLE column against a length-1
/// constant compares once per distinct value (or run), then maps the
/// verdicts back through the codes (or runs). Returns `Ok(None)` when no
/// lane applies; the caller decodes and takes the plain path.
fn eval_comparison_encoded(op: BinaryOp, l: &Column, r: &Column) -> DbResult<Option<Column>> {
    let (enc, konst, enc_left) = if !l.is_plain() && r.len() == 1 && r.is_plain() {
        (l, r, true)
    } else if !r.is_plain() && l.len() == 1 && l.is_plain() {
        (r, l, false)
    } else {
        return Ok(None);
    };
    if !cmp_types_total(l, r) {
        return Ok(None);
    }
    let n = enc.len();
    let validity = combine_validity(l, r, n);
    // Compare the physical values (dictionary entries or run values) once,
    // through the same lanes plain columns use, so the verdict per distinct
    // value is bit-identical to what a row-at-a-time comparison computes.
    let phys = Column::new(enc.data().clone(), None)?;
    let verdicts = if enc_left {
        eval_comparison(op, &phys, konst)?
    } else {
        eval_comparison(op, konst, &phys)?
    };
    let lut = verdicts
        .bools()
        .ok_or_else(|| DbError::internal("comparison produced a non-boolean column"))?;
    let mut out: Vec<bool> = vec![false; n];
    if let Some((codes, _)) = enc.dict_parts() {
        metrics::counter("exec.encoding.dict_rows").add(n as u64);
        for (i, o) in out.iter_mut().enumerate() {
            if valid_at(&validity, i) {
                *o = lut[codes[i] as usize];
            }
        }
    } else if let Some((run_ends, _)) = enc.rle_parts() {
        metrics::counter("exec.encoding.rle_runs").add(run_ends.len() as u64);
        let mut start = 0usize;
        for (run, &end) in run_ends.iter().enumerate() {
            if lut[run] {
                for o in out.iter_mut().take(end as usize).skip(start) {
                    *o = true;
                }
            }
            start = end as usize;
        }
        if let Some(bm) = &validity {
            for (i, o) in out.iter_mut().enumerate() {
                if !bm.get(i) {
                    *o = false;
                }
            }
        }
    } else {
        return Ok(None);
    }
    Column::new(crate::column::ColumnData::Boolean(out), validity).map(Some)
}

fn eval_comparison(op: BinaryOp, l: &Column, r: &Column) -> DbResult<Column> {
    if let Some(out) = eval_comparison_encoded(op, l, r)? {
        return Ok(out);
    }
    let ld;
    let l = if l.is_plain() {
        l
    } else {
        ld = l.decode();
        &ld
    };
    let rd;
    let r = if r.is_plain() {
        r
    } else {
        rd = r.decode();
        &rd
    };
    let n = pair_len(l, r)?;
    let (ln, rn) = (l.len(), r.len());
    let validity = combine_validity(l, r, n);
    let keep = |ord: Ordering| match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!(),
    };
    let mut out: Vec<bool> = vec![false; n];

    // Fast lanes for the common homogeneous cases; the fallback compares
    // row Values (covers cross-type numeric comparison).
    match (l.data(), r.data()) {
        (crate::column::ColumnData::Int32(a), crate::column::ColumnData::Int32(b)) => {
            for (i, o) in out.iter_mut().enumerate() {
                if valid_at(&validity, i) {
                    *o = keep(a[bidx(ln, i)].cmp(&b[bidx(rn, i)]));
                }
            }
        }
        (crate::column::ColumnData::Int64(a), crate::column::ColumnData::Int64(b)) => {
            for (i, o) in out.iter_mut().enumerate() {
                if valid_at(&validity, i) {
                    *o = keep(a[bidx(ln, i)].cmp(&b[bidx(rn, i)]));
                }
            }
        }
        (crate::column::ColumnData::Float64(a), crate::column::ColumnData::Float64(b)) => {
            for (i, o) in out.iter_mut().enumerate() {
                if valid_at(&validity, i) {
                    if let Some(ord) = a[bidx(ln, i)].partial_cmp(&b[bidx(rn, i)]) {
                        *o = keep(ord);
                    }
                }
            }
        }
        (crate::column::ColumnData::Varchar(a), crate::column::ColumnData::Varchar(b)) => {
            for (i, o) in out.iter_mut().enumerate() {
                if valid_at(&validity, i) {
                    *o = keep(a.get(bidx(ln, i)).cmp(b.get(bidx(rn, i))));
                }
            }
        }
        _ => {
            for (i, o) in out.iter_mut().enumerate() {
                if valid_at(&validity, i) {
                    let a = l.value(bidx(ln, i));
                    let b = r.value(bidx(rn, i));
                    match a.sql_cmp(&b) {
                        Some(ord) => *o = keep(ord),
                        None => {
                            return Err(DbError::Type(format!(
                                "cannot compare {} with {}",
                                l.data_type(),
                                r.data_type()
                            )))
                        }
                    }
                }
            }
        }
    }
    Column::new(crate::column::ColumnData::Boolean(out), validity)
}

fn eval_logical(op: BinaryOp, l: &Column, r: &Column) -> DbResult<Column> {
    let ld;
    let l = if l.is_plain() {
        l
    } else {
        ld = l.decode();
        &ld
    };
    let rd;
    let r = if r.is_plain() {
        r
    } else {
        rd = r.decode();
        &rd
    };
    let n = pair_len(l, r)?;
    let (ln, rn) = (l.len(), r.len());
    let (la, ra) = match (l.bools(), r.bools()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(DbError::Type(format!(
                "{} requires BOOLEAN operands, got {} and {}",
                op.symbol(),
                l.data_type(),
                r.data_type()
            )))
        }
    };
    // Three-valued logic encoded as Option<bool>.
    let mut out = Vec::with_capacity(n);
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let a = if l.is_null(bidx(ln, i)) { None } else { Some(la[bidx(ln, i)]) };
        let b = if r.is_null(bidx(rn, i)) { None } else { Some(ra[bidx(rn, i)]) };
        let v = match op {
            BinaryOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinaryOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!(),
        };
        match v {
            Some(b) => out.push(b),
            None => {
                out.push(false);
                validity.set(i, false);
                any_null = true;
            }
        }
    }
    Column::new(
        crate::column::ColumnData::Boolean(out),
        if any_null { Some(validity) } else { None },
    )
}

fn eval_concat(l: &Column, r: &Column) -> DbResult<Column> {
    let n = pair_len(l, r)?;
    let (ln, rn) = (l.len(), r.len());
    let ls = varchar(l)?;
    let rs = varchar(r)?;
    let (la, ra) = match (ls.strings(), rs.strings()) {
        (Some(la), Some(ra)) => (la, ra),
        _ => return Err(DbError::internal("cast to VARCHAR produced a non-string column")),
    };
    let validity = combine_validity(l, r, n);
    let mut out = crate::strings::StringColumn::with_capacity(n, 8);
    let mut buf = String::new();
    for i in 0..n {
        buf.clear();
        if valid_at(&validity, i) {
            buf.push_str(la.get(bidx(ln, i)));
            buf.push_str(ra.get(bidx(rn, i)));
        }
        out.push(&buf);
    }
    Column::new(crate::column::ColumnData::Varchar(out), validity)
}

/// `c` as plain strings: a plain VARCHAR column is borrowed, anything else
/// is decoded and cast.
fn varchar(c: &Column) -> DbResult<Cow<'_, Column>> {
    let c = c.decoded();
    if c.data_type() == DataType::Varchar {
        Ok(c)
    } else {
        c.cast(DataType::Varchar).map(Cow::Owned)
    }
}

fn eval_unary(op: UnaryOp, c: &Column) -> DbResult<Column> {
    match op {
        UnaryOp::Neg => {
            let t = c.data_type();
            if t.is_integer() || t == DataType::Boolean {
                let mut out = Vec::with_capacity(c.len());
                for i in 0..c.len() {
                    match c.i64_at(i) {
                        Some(v) => out.push(v.checked_neg().ok_or_else(|| {
                            DbError::Arithmetic(format!("integer overflow negating {v}"))
                        })?),
                        None => out.push(0),
                    }
                }
                Column::new(crate::column::ColumnData::Int64(out), c.validity().cloned())
            } else if t.is_float() {
                let mut out = Vec::with_capacity(c.len());
                for i in 0..c.len() {
                    out.push(c.f64_at(i).map(|v| -v).unwrap_or(0.0));
                }
                Column::new(crate::column::ColumnData::Float64(out), c.validity().cloned())
            } else {
                Err(DbError::Type(format!("cannot negate {t}")))
            }
        }
        UnaryOp::Not => {
            let c = c.decoded();
            let bools = c.bools().ok_or_else(|| {
                DbError::Type(format!("NOT requires BOOLEAN, got {}", c.data_type()))
            })?;
            let out: Vec<bool> = bools.iter().map(|b| !b).collect();
            Column::new(crate::column::ColumnData::Boolean(out), c.validity().cloned())
        }
    }
}

fn eval_case(
    ctx: &EvalContext<'_>,
    operand: Option<&Expr>,
    branches: &[(Expr, Expr)],
    else_expr: Option<&Expr>,
) -> DbResult<Column> {
    let n = ctx.batch.rows().max(1);
    // Evaluate conditions as boolean columns. For the operand form,
    // each WHEN value is compared with the operand for equality.
    let mut conds: Vec<Cow<'_, Column>> = Vec::with_capacity(branches.len());
    for (when, _) in branches {
        let cond = match operand {
            Some(op_expr) => {
                let l = eval(ctx, op_expr)?;
                let r = eval(ctx, when)?;
                Cow::Owned(eval_comparison(BinaryOp::Eq, &l, &r)?)
            }
            None => plain(eval(ctx, when)?),
        };
        if cond.bools().is_none() {
            return Err(DbError::Type("CASE WHEN condition must be BOOLEAN".into()));
        }
        conds.push(cond);
    }
    let thens: Vec<Cow<'_, Column>> =
        branches.iter().map(|(_, t)| eval(ctx, t)).collect::<DbResult<_>>()?;
    let else_col = match else_expr {
        Some(e) => Some(eval(ctx, e)?),
        None => None,
    };
    // Unify the output type across branches.
    let mut out_type: Option<DataType> = None;
    for c in thens.iter().chain(else_col.iter()) {
        let t = c.data_type();
        out_type = Some(match out_type {
            None => t,
            Some(prev) => DataType::common_numeric(prev, t)
                .ok_or_else(|| DbError::Type(format!("CASE branches mix {prev} and {t}")))?,
        });
    }
    let out_type = out_type.unwrap_or(DataType::Int32);
    let mut b = ColumnBuilder::new(out_type);
    for i in 0..n {
        let mut chosen: Option<Value> = None;
        for (cond, then) in conds.iter().zip(&thens) {
            let ci = bidx(cond.len(), i);
            if !cond.is_null(ci) && cond.bools().is_some_and(|bs| bs[ci]) {
                chosen = Some(then.value(bidx(then.len(), i)));
                break;
            }
        }
        let v = match chosen {
            Some(v) => v,
            None => match &else_col {
                Some(e) => e.value(bidx(e.len(), i)),
                None => Value::Null,
            },
        };
        b.push_value(&v)?;
    }
    Ok(b.finish())
}

fn eval_in_list(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    list: &[Expr],
    negated: bool,
) -> DbResult<Column> {
    let c = eval(ctx, expr)?;
    let items: Vec<Cow<'_, Column>> = list.iter().map(|e| eval(ctx, e)).collect::<DbResult<_>>()?;
    // Dict lane: with constant list items, probe each distinct value once
    // and map the verdicts through the codes, mirroring the row loop below
    // exactly (NULL rows yield false-and-invalid, matching its output).
    if let Some((codes, _)) = c.dict_parts() {
        if items.iter().all(|it| it.len() == 1 && it.is_plain()) {
            let phys = Column::new(c.data().clone(), None)?;
            let lut = in_list_columns(&phys, &items, negated)?;
            let lut_bools =
                lut.bools().ok_or_else(|| DbError::internal("IN produced a non-boolean column"))?;
            let n = c.len();
            metrics::counter("exec.encoding.dict_rows").add(n as u64);
            let mut out = Vec::with_capacity(n);
            let mut validity = Bitmap::filled(n, true);
            let mut any_null = false;
            for (i, &raw) in codes.iter().enumerate().take(n) {
                let code = raw as usize;
                if c.is_null(i) || lut.is_null(code) {
                    out.push(false);
                    validity.set(i, false);
                    any_null = true;
                } else {
                    out.push(lut_bools[code]);
                }
            }
            return Column::new(
                crate::column::ColumnData::Boolean(out),
                if any_null { Some(validity) } else { None },
            );
        }
    }
    let c = c.decoded();
    in_list_columns(&c, &items, negated)
}

fn in_list_columns(c: &Column, items: &[Cow<'_, Column>], negated: bool) -> DbResult<Column> {
    let n = c.len();
    let mut out = Vec::with_capacity(n);
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let v = c.value(i);
        if v.is_null() {
            out.push(false);
            validity.set(i, false);
            any_null = true;
            continue;
        }
        let mut found = false;
        let mut saw_null = false;
        for item in items {
            let w = item.value(bidx(item.len(), i));
            if w.is_null() {
                saw_null = true;
            } else if v.sql_cmp(&w) == Some(Ordering::Equal) {
                found = true;
                break;
            }
        }
        if found {
            out.push(!negated);
        } else if saw_null {
            // Unknown: x IN (…, NULL) is NULL when no match is found.
            out.push(false);
            validity.set(i, false);
            any_null = true;
        } else {
            out.push(negated);
        }
    }
    Column::new(
        crate::column::ColumnData::Boolean(out),
        if any_null { Some(validity) } else { None },
    )
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative wildcard matching with backtracking over the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn eval_like(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    pattern: &Expr,
    negated: bool,
) -> DbResult<Column> {
    let c = eval(ctx, expr)?;
    let p = eval(ctx, pattern)?;
    // Dict lane: with a constant pattern, run the matcher once per
    // distinct string and gather the verdicts through the codes.
    if let Some((codes, _)) = c.dict_parts() {
        if c.data_type() == DataType::Varchar && p.len() == 1 && p.is_plain() {
            let phys = Column::new(c.data().clone(), None)?;
            let lut = like_columns(&phys, &p, negated)?;
            let lut_bools = lut
                .bools()
                .ok_or_else(|| DbError::internal("LIKE produced a non-boolean column"))?;
            let n = c.len();
            metrics::counter("exec.encoding.dict_rows").add(n as u64);
            let validity = combine_validity(&c, &p, n);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(valid_at(&validity, i) && lut_bools[codes[i] as usize]);
            }
            return Column::new(crate::column::ColumnData::Boolean(out), validity);
        }
    }
    let c = c.decoded();
    let p = p.decoded();
    like_columns(&c, &p, negated)
}

fn like_columns(c: &Column, p: &Column, negated: bool) -> DbResult<Column> {
    let cs = c
        .strings()
        .ok_or_else(|| DbError::Type(format!("LIKE requires VARCHAR, got {}", c.data_type())))?;
    let ps = p.strings().ok_or_else(|| {
        DbError::Type(format!("LIKE pattern must be VARCHAR, got {}", p.data_type()))
    })?;
    let n = pair_len(c, p)?;
    let validity = combine_validity(c, p, n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if valid_at(&validity, i) {
            let m = like_match(cs.get(bidx(c.len(), i)), ps.get(bidx(p.len(), i)));
            out.push(m != negated);
        } else {
            out.push(false);
        }
    }
    Column::new(crate::column::ColumnData::Boolean(out), validity)
}

fn eval_between(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    low: &Expr,
    high: &Expr,
    negated: bool,
) -> DbResult<Column> {
    let c = eval(ctx, expr)?;
    let lo = eval(ctx, low)?;
    let hi = eval(ctx, high)?;
    let ge = eval_comparison(BinaryOp::GtEq, &c, &lo)?;
    let le = eval_comparison(BinaryOp::LtEq, &c, &hi)?;
    let both = eval_logical(BinaryOp::And, &ge, &le)?;
    if negated {
        eval_unary(UnaryOp::Not, &both)
    } else {
        Ok(both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr as E;

    fn batch() -> Batch {
        Batch::from_columns(vec![
            ("a", Column::from_i32s(vec![1, 2, 3, 4])),
            ("b", Column::from_opt_i32s(vec![Some(10), None, Some(30), Some(40)])),
            ("f", Column::from_f64s(vec![0.5, 1.5, 2.5, 3.5])),
            ("s", Column::from_strings(["apple", "banana", "cherry", "date"])),
            ("t", Column::from_bools(vec![true, true, false, false])),
        ])
        .unwrap()
    }

    fn run(expr: &E) -> Column {
        let b = batch();
        let ctx = EvalContext::new(&b, None);
        eval(&ctx, expr).unwrap().into_owned()
    }

    #[test]
    fn column_and_literal() {
        let c = run(&E::col(0));
        assert_eq!(c.i32s().unwrap(), &[1, 2, 3, 4]);
        let c = run(&E::lit(7i64));
        assert_eq!(c.len(), 1);
        assert_eq!(c.value(0), Value::Int64(7));
    }

    #[test]
    fn arithmetic_with_broadcast_and_nulls() {
        // a + 1 (broadcast literal)
        let c = run(&E::binary(BinaryOp::Add, E::col(0), E::lit(1i32)));
        assert_eq!(c.i64s().unwrap(), &[2, 3, 4, 5]);
        // a + b propagates NULL
        let c = run(&E::binary(BinaryOp::Add, E::col(0), E::col(1)));
        assert_eq!(c.value(0), Value::Int64(11));
        assert!(c.is_null(1));
        // mixed int/float goes to the float lane
        let c = run(&E::binary(BinaryOp::Mul, E::col(0), E::col(2)));
        assert_eq!(c.f64s().unwrap(), &[0.5, 3.0, 7.5, 14.0]);
    }

    #[test]
    fn integer_division_and_errors() {
        let c = run(&E::binary(BinaryOp::Div, E::col(0), E::lit(2i32)));
        assert_eq!(c.i64s().unwrap(), &[0, 1, 1, 2]);
        let b = batch();
        let ctx = EvalContext::new(&b, None);
        let err = eval(&ctx, &E::binary(BinaryOp::Div, E::col(0), E::lit(0i32)));
        assert!(matches!(err, Err(DbError::Arithmetic(_))));
        // Float division by zero yields infinity, not an error.
        let c = run(&E::binary(BinaryOp::Div, E::col(2), E::lit(0.0f64)));
        assert!(c.f64s().unwrap()[0].is_infinite());
    }

    #[test]
    fn overflow_detected() {
        let b = Batch::from_columns(vec![("x", Column::from_i64s(vec![i64::MAX]))]).unwrap();
        let ctx = EvalContext::new(&b, None);
        let err = eval(&ctx, &E::binary(BinaryOp::Add, E::col(0), E::lit(1i64)));
        assert!(matches!(err, Err(DbError::Arithmetic(_))));
    }

    #[test]
    fn comparisons() {
        let c = run(&E::binary(BinaryOp::Gt, E::col(0), E::lit(2i32)));
        assert_eq!(c.bools().unwrap(), &[false, false, true, true]);
        // NULL propagates
        let c = run(&E::binary(BinaryOp::Eq, E::col(1), E::lit(10i32)));
        assert!(!c.is_null(0) && c.bools().unwrap()[0]);
        assert!(c.is_null(1));
        // strings
        let c = run(&E::binary(BinaryOp::Lt, E::col(3), E::lit("c")));
        assert_eq!(c.bools().unwrap(), &[true, true, false, false]);
        // cross-type numeric
        let c = run(&E::binary(BinaryOp::GtEq, E::col(2), E::col(0)));
        assert_eq!(c.bools().unwrap(), &[false, false, false, false]);
    }

    #[test]
    fn three_valued_logic() {
        // (b = 10) OR t : row1 -> NULL OR true = true; row2 -> ... etc.
        let e =
            E::binary(BinaryOp::Or, E::binary(BinaryOp::Eq, E::col(1), E::lit(10i32)), E::col(4));
        let c = run(&e);
        assert!(c.bools().unwrap()[0]); // true OR true
        assert!(!c.is_null(1) && c.bools().unwrap()[1]); // NULL OR true = true
        let e =
            E::binary(BinaryOp::And, E::binary(BinaryOp::Eq, E::col(1), E::lit(10i32)), E::col(4));
        let c = run(&e);
        // row 1: b is NULL -> (b = 10) is NULL; t[1] = true -> NULL AND true = NULL
        assert!(c.is_null(1));
        // row 2: (30 = 10) is false -> false AND false = false, not NULL
        assert!(!c.is_null(2));
        assert!(!c.bools().unwrap()[2]);
    }

    #[test]
    fn logical_null_and_false() {
        // NULL AND false = false (not NULL)
        let b = Batch::from_columns(vec![
            ("x", Column::from_opt_bools(vec![None])),
            ("y", Column::from_bools(vec![false])),
        ])
        .unwrap();
        let ctx = EvalContext::new(&b, None);
        let c = eval(&ctx, &E::binary(BinaryOp::And, E::col(0), E::col(1))).unwrap();
        assert!(!c.is_null(0));
        assert!(!c.bools().unwrap()[0]);
        let c = eval(&ctx, &E::binary(BinaryOp::Or, E::col(0), E::col(1))).unwrap();
        assert!(c.is_null(0));
    }

    #[test]
    fn predicate_selection_vector() {
        let b = batch();
        let ctx = EvalContext::new(&b, None);
        let sel =
            eval_predicate(&ctx, &E::binary(BinaryOp::GtEq, E::col(0), E::lit(3i32))).unwrap();
        assert_eq!(sel, vec![2, 3]);
        // NULL rows excluded
        let sel = eval_predicate(&ctx, &E::binary(BinaryOp::Gt, E::col(1), E::lit(0i32))).unwrap();
        assert_eq!(sel, vec![0, 2, 3]);
        // constant TRUE selects all
        let sel = eval_predicate(&ctx, &E::lit(true)).unwrap();
        assert_eq!(sel.len(), 4);
        // constant FALSE selects none
        let sel = eval_predicate(&ctx, &E::lit(false)).unwrap();
        assert!(sel.is_empty());
    }

    #[test]
    fn case_expression() {
        // CASE WHEN a < 3 THEN 'small' ELSE 'big' END
        let e = E::Case {
            operand: None,
            branches: vec![(E::binary(BinaryOp::Lt, E::col(0), E::lit(3i32)), E::lit("small"))],
            else_expr: Some(Box::new(E::lit("big"))),
        };
        let c = run(&e);
        let s = c.strings().unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["small", "small", "big", "big"]);
        // Without ELSE, unmatched rows are NULL.
        let e = E::Case {
            operand: None,
            branches: vec![(E::binary(BinaryOp::Lt, E::col(0), E::lit(2i32)), E::lit(1i32))],
            else_expr: None,
        };
        let c = run(&e);
        assert!(!c.is_null(0));
        assert!(c.is_null(3));
    }

    #[test]
    fn case_with_operand() {
        // CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END
        let e = E::Case {
            operand: Some(Box::new(E::col(0))),
            branches: vec![(E::lit(1i32), E::lit("one")), (E::lit(2i32), E::lit("two"))],
            else_expr: Some(Box::new(E::lit("many"))),
        };
        let c = run(&e);
        let s = c.strings().unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["one", "two", "many", "many"]);
    }

    #[test]
    fn in_list_semantics() {
        let e = E::InList {
            expr: Box::new(E::col(0)),
            list: vec![E::lit(1i32), E::lit(4i32)],
            negated: false,
        };
        let c = run(&e);
        assert_eq!(c.bools().unwrap(), &[true, false, false, true]);
        // NULL in the list makes non-matches NULL.
        let e = E::InList {
            expr: Box::new(E::col(0)),
            list: vec![E::lit(1i32), E::Literal(Value::Null)],
            negated: false,
        };
        let c = run(&e);
        assert!(!c.is_null(0) && c.bools().unwrap()[0]);
        assert!(c.is_null(1));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("banana", "ba%"));
        assert!(like_match("banana", "%ana"));
        assert!(like_match("banana", "b_n_n_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "ab"));
        assert!(like_match("a%c", "a%c"));
        assert!(like_match("xyzzy", "%z%"));
        let e = E::Like {
            expr: Box::new(E::col(3)),
            pattern: Box::new(E::lit("%an%")),
            negated: false,
        };
        let c = run(&e);
        assert_eq!(c.bools().unwrap(), &[false, true, false, false]);
    }

    #[test]
    fn between_works() {
        let e = E::Between {
            expr: Box::new(E::col(0)),
            low: Box::new(E::lit(2i32)),
            high: Box::new(E::lit(3i32)),
            negated: false,
        };
        let c = run(&e);
        assert_eq!(c.bools().unwrap(), &[false, true, true, false]);
        let e = E::Between {
            expr: Box::new(E::col(0)),
            low: Box::new(E::lit(2i32)),
            high: Box::new(E::lit(3i32)),
            negated: true,
        };
        let c = run(&e);
        assert_eq!(c.bools().unwrap(), &[true, false, false, true]);
    }

    #[test]
    fn concat_strings() {
        let e = E::binary(BinaryOp::Concat, E::col(3), E::lit("!"));
        let c = run(&e);
        assert_eq!(c.strings().unwrap().get(0), "apple!");
        // numbers are stringified
        let e = E::binary(BinaryOp::Concat, E::col(0), E::lit("x"));
        let c = run(&e);
        assert_eq!(c.strings().unwrap().get(2), "3x");
    }

    #[test]
    fn is_null_and_not() {
        let c = run(&E::IsNull { expr: Box::new(E::col(1)), negated: false });
        assert_eq!(c.bools().unwrap(), &[false, true, false, false]);
        let c = run(&E::IsNull { expr: Box::new(E::col(1)), negated: true });
        assert_eq!(c.bools().unwrap(), &[true, false, true, true]);
        let c = run(&E::Unary { op: UnaryOp::Not, expr: Box::new(E::col(4)) });
        assert_eq!(c.bools().unwrap(), &[false, false, true, true]);
    }

    #[test]
    fn neg_unary() {
        let c = run(&E::Unary { op: UnaryOp::Neg, expr: Box::new(E::col(0)) });
        assert_eq!(c.i64s().unwrap(), &[-1, -2, -3, -4]);
        let c = run(&E::Unary { op: UnaryOp::Neg, expr: Box::new(E::col(2)) });
        assert_eq!(c.f64s().unwrap(), &[-0.5, -1.5, -2.5, -3.5]);
    }

    #[test]
    fn type_errors_reported() {
        let b = batch();
        let ctx = EvalContext::new(&b, None);
        assert!(eval(&ctx, &E::binary(BinaryOp::Add, E::col(3), E::lit(1i32))).is_err());
        assert!(eval(&ctx, &E::binary(BinaryOp::And, E::col(0), E::col(4))).is_err());
        assert!(eval_predicate(&ctx, &E::col(0)).is_err());
    }
}
