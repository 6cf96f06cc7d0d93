//! Built-in scalar functions.

use crate::column::{Column, ColumnBuilder, ColumnData};
use crate::error::{DbError, DbResult};
use crate::types::{DataType, Value};
use std::borrow::Borrow;

/// The closed set of built-in scalar functions.
///
/// User-defined functions are not in this enum; they resolve through the
/// [`crate::udf::FunctionRegistry`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinScalar {
    /// `ABS(x)`
    Abs,
    /// `SIGN(x)` → -1, 0, 1
    Sign,
    /// `FLOOR(x)`
    Floor,
    /// `CEIL(x)`
    Ceil,
    /// `ROUND(x)` (half away from zero)
    Round,
    /// `SQRT(x)`
    Sqrt,
    /// `EXP(x)`
    Exp,
    /// `LN(x)`
    Ln,
    /// `LOG10(x)`
    Log10,
    /// `POWER(x, y)`
    Power,
    /// `LENGTH(s)` in characters
    Length,
    /// `LOWER(s)`
    Lower,
    /// `UPPER(s)`
    Upper,
    /// `TRIM(s)`
    Trim,
    /// `SUBSTR(s, start [, len])`, 1-based start
    Substr,
    /// `CONCAT(a, b, ...)`
    Concat,
    /// `COALESCE(a, b, ...)`
    Coalesce,
    /// `NULLIF(a, b)`
    Nullif,
    /// `LEAST(a, b, ...)`
    Least,
    /// `GREATEST(a, b, ...)`
    Greatest,
    /// `OCTET_LENGTH(b)` — bytes of a BLOB or string
    OctetLength,
}

impl BuiltinScalar {
    /// Resolves a SQL function name to a builtin.
    pub fn from_name(name: &str) -> Option<BuiltinScalar> {
        Some(match name.to_ascii_uppercase().as_str() {
            "ABS" => BuiltinScalar::Abs,
            "SIGN" => BuiltinScalar::Sign,
            "FLOOR" => BuiltinScalar::Floor,
            "CEIL" | "CEILING" => BuiltinScalar::Ceil,
            "ROUND" => BuiltinScalar::Round,
            "SQRT" => BuiltinScalar::Sqrt,
            "EXP" => BuiltinScalar::Exp,
            "LN" => BuiltinScalar::Ln,
            "LOG10" | "LOG" => BuiltinScalar::Log10,
            "POWER" | "POW" => BuiltinScalar::Power,
            "LENGTH" | "CHAR_LENGTH" => BuiltinScalar::Length,
            "LOWER" => BuiltinScalar::Lower,
            "UPPER" => BuiltinScalar::Upper,
            "TRIM" => BuiltinScalar::Trim,
            "SUBSTR" | "SUBSTRING" => BuiltinScalar::Substr,
            "CONCAT" => BuiltinScalar::Concat,
            "COALESCE" => BuiltinScalar::Coalesce,
            "NULLIF" => BuiltinScalar::Nullif,
            "LEAST" => BuiltinScalar::Least,
            "GREATEST" => BuiltinScalar::Greatest,
            "OCTET_LENGTH" => BuiltinScalar::OctetLength,
            _ => return None,
        })
    }

    /// Expected argument count: `(min, max)`.
    pub fn arity(self) -> (usize, usize) {
        match self {
            BuiltinScalar::Power | BuiltinScalar::Nullif => (2, 2),
            BuiltinScalar::Substr => (2, 3),
            BuiltinScalar::Concat
            | BuiltinScalar::Coalesce
            | BuiltinScalar::Least
            | BuiltinScalar::Greatest => (1, usize::MAX),
            _ => (1, 1),
        }
    }
}

/// Common evaluation length of a set of argument columns (broadcasting
/// length-1 constants).
fn common_len(args: &[&Column]) -> DbResult<usize> {
    let n = args.iter().map(|c| c.len()).max().unwrap_or(1);
    for c in args {
        if c.len() != n && c.len() != 1 {
            return Err(DbError::Shape(format!(
                "function argument length {} incompatible with {n}",
                c.len()
            )));
        }
    }
    Ok(n)
}

#[inline]
fn bidx(len: usize, i: usize) -> usize {
    if len == 1 {
        0
    } else {
        i
    }
}

/// Evaluates a builtin over argument columns.
pub fn eval_builtin<C: Borrow<Column>>(func: BuiltinScalar, args: &[C]) -> DbResult<Column> {
    let args: Vec<&Column> = args.iter().map(Borrow::borrow).collect();
    let args = args.as_slice();
    let (min, max) = func.arity();
    if args.len() < min || args.len() > max {
        return Err(DbError::Bind(format!(
            "{func:?} expects {min}{} arguments, got {}",
            if max == usize::MAX {
                "+"
            } else if max != min {
                "-3"
            } else {
                ""
            },
            args.len()
        )));
    }
    match func {
        BuiltinScalar::Abs
        | BuiltinScalar::Sign
        | BuiltinScalar::Floor
        | BuiltinScalar::Ceil
        | BuiltinScalar::Round
        | BuiltinScalar::Sqrt
        | BuiltinScalar::Exp
        | BuiltinScalar::Ln
        | BuiltinScalar::Log10 => eval_math1(func, args[0]),
        BuiltinScalar::Power => eval_math2(args[0], args[1]),
        BuiltinScalar::Length => eval_length(args[0]),
        BuiltinScalar::OctetLength => eval_octet_length(args[0]),
        BuiltinScalar::Lower | BuiltinScalar::Upper | BuiltinScalar::Trim => {
            eval_string1(func, args[0])
        }
        BuiltinScalar::Substr => eval_substr(args),
        BuiltinScalar::Concat => eval_concat_n(args),
        BuiltinScalar::Coalesce => eval_coalesce(args),
        BuiltinScalar::Nullif => eval_nullif(args[0], args[1]),
        BuiltinScalar::Least | BuiltinScalar::Greatest => eval_extreme(func, args),
    }
}

fn eval_math1(func: BuiltinScalar, c: &Column) -> DbResult<Column> {
    let t = c.data_type();
    if !t.is_numeric() && t != DataType::Boolean {
        return Err(DbError::Type(format!("{func:?} requires a numeric argument, got {t}")));
    }
    // ABS and SIGN stay in the integer lane for integers.
    if t.is_integer() && matches!(func, BuiltinScalar::Abs | BuiltinScalar::Sign) {
        let mut out = Vec::with_capacity(c.len());
        for i in 0..c.len() {
            let v = c.i64_at(i).unwrap_or(0);
            out.push(match func {
                BuiltinScalar::Abs => v
                    .checked_abs()
                    .ok_or_else(|| DbError::Arithmetic(format!("integer overflow in ABS({v})")))?,
                BuiltinScalar::Sign => v.signum(),
                _ => unreachable!(),
            });
        }
        return Column::new(ColumnData::Int64(out), c.validity().cloned());
    }
    let mut out = Vec::with_capacity(c.len());
    for i in 0..c.len() {
        let v = c.f64_at(i).unwrap_or(0.0);
        out.push(match func {
            BuiltinScalar::Abs => v.abs(),
            BuiltinScalar::Sign => {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            BuiltinScalar::Floor => v.floor(),
            BuiltinScalar::Ceil => v.ceil(),
            BuiltinScalar::Round => {
                // Half away from zero, the SQL convention.
                if v >= 0.0 {
                    (v + 0.5).floor()
                } else {
                    (v - 0.5).ceil()
                }
            }
            BuiltinScalar::Sqrt => v.sqrt(),
            BuiltinScalar::Exp => v.exp(),
            BuiltinScalar::Ln => v.ln(),
            BuiltinScalar::Log10 => v.log10(),
            _ => unreachable!(),
        });
    }
    Column::new(ColumnData::Float64(out), c.validity().cloned())
}

fn eval_math2(x: &Column, y: &Column) -> DbResult<Column> {
    if !x.data_type().is_numeric() || !y.data_type().is_numeric() {
        return Err(DbError::Type("POWER requires numeric arguments".into()));
    }
    let n = common_len(&[x, y])?;
    let mut out = Vec::with_capacity(n);
    let mut validity = crate::bitmap::Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let a = x.f64_at(bidx(x.len(), i));
        let b = y.f64_at(bidx(y.len(), i));
        match (a, b) {
            (Some(a), Some(b)) => out.push(a.powf(b)),
            _ => {
                out.push(0.0);
                validity.set(i, false);
                any_null = true;
            }
        }
    }
    Column::new(ColumnData::Float64(out), if any_null { Some(validity) } else { None })
}

fn eval_length(c: &Column) -> DbResult<Column> {
    let s = c
        .strings()
        .ok_or_else(|| DbError::Type(format!("LENGTH requires VARCHAR, got {}", c.data_type())))?;
    let out: Vec<i64> = (0..c.len()).map(|i| s.get(i).chars().count() as i64).collect();
    Column::new(ColumnData::Int64(out), c.validity().cloned())
}

fn eval_octet_length(c: &Column) -> DbResult<Column> {
    let out: Vec<i64> = match c.data() {
        ColumnData::Varchar(s) => (0..c.len()).map(|i| s.get(i).len() as i64).collect(),
        ColumnData::Blob(b) => (0..c.len()).map(|i| b.get(i).len() as i64).collect(),
        other => {
            return Err(DbError::Type(format!(
                "OCTET_LENGTH requires VARCHAR or BLOB, got {}",
                other.data_type()
            )))
        }
    };
    Column::new(ColumnData::Int64(out), c.validity().cloned())
}

fn eval_string1(func: BuiltinScalar, c: &Column) -> DbResult<Column> {
    let s = c.strings().ok_or_else(|| {
        DbError::Type(format!("{func:?} requires VARCHAR, got {}", c.data_type()))
    })?;
    let mut out = crate::strings::StringColumn::with_capacity(c.len(), 8);
    for i in 0..c.len() {
        let v = s.get(i);
        match func {
            BuiltinScalar::Lower => out.push(&v.to_lowercase()),
            BuiltinScalar::Upper => out.push(&v.to_uppercase()),
            BuiltinScalar::Trim => out.push(v.trim()),
            _ => unreachable!(),
        }
    }
    Column::new(ColumnData::Varchar(out), c.validity().cloned())
}

fn eval_substr(args: &[&Column]) -> DbResult<Column> {
    let c = &args[0];
    let s = c
        .strings()
        .ok_or_else(|| DbError::Type(format!("SUBSTR requires VARCHAR, got {}", c.data_type())))?;
    let n = common_len(args)?;
    let start = &args[1];
    let len = args.get(2);
    let mut out = crate::strings::StringColumn::with_capacity(n, 8);
    let mut validity = crate::bitmap::Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let sv = if c.is_null(bidx(c.len(), i)) { None } else { Some(s.get(bidx(c.len(), i))) };
        let st = start.i64_at(bidx(start.len(), i));
        let ln = match len {
            Some(l) => l.i64_at(bidx(l.len(), i)).map(Some),
            None => Some(None), // absent length -> to end of string
        };
        match (sv, st, ln) {
            (Some(sv), Some(st), Some(ln)) => {
                let chars: Vec<char> = sv.chars().collect();
                // SQL SUBSTR is 1-based; out-of-range clamps.
                let begin = (st.max(1) - 1) as usize;
                let end = match ln {
                    Some(l) if l >= 0 => (begin + l as usize).min(chars.len()),
                    Some(_) => begin, // negative length -> empty
                    None => chars.len(),
                };
                let begin = begin.min(chars.len());
                let sub: String = chars[begin..end].iter().collect();
                out.push(&sub);
            }
            _ => {
                out.push("");
                validity.set(i, false);
                any_null = true;
            }
        }
    }
    Column::new(ColumnData::Varchar(out), if any_null { Some(validity) } else { None })
}

fn eval_concat_n(args: &[&Column]) -> DbResult<Column> {
    let n = common_len(args)?;
    let cast: Vec<Column> =
        args.iter().map(|c| c.cast(DataType::Varchar)).collect::<DbResult<_>>()?;
    let strs: Vec<&crate::strings::StringColumn> = cast
        .iter()
        .map(|c| {
            c.strings()
                .ok_or_else(|| DbError::internal("cast to VARCHAR produced a non-string column"))
        })
        .collect::<DbResult<_>>()?;
    let mut out = crate::strings::StringColumn::with_capacity(n, 16);
    let mut buf = String::new();
    for i in 0..n {
        buf.clear();
        for (c, s) in cast.iter().zip(&strs) {
            let j = bidx(c.len(), i);
            if !c.is_null(j) {
                // CONCAT skips NULLs (the common DBMS behaviour).
                buf.push_str(s.get(j));
            }
        }
        out.push(&buf);
    }
    Column::new(ColumnData::Varchar(out), None)
}

fn eval_coalesce(args: &[&Column]) -> DbResult<Column> {
    let n = common_len(args)?;
    // Output type: first non-null-capable common type across args.
    let mut out_type = args[0].data_type();
    for c in &args[1..] {
        out_type = DataType::common_numeric(out_type, c.data_type()).ok_or_else(|| {
            DbError::Type(format!("COALESCE arguments mix {out_type} and {}", c.data_type()))
        })?;
    }
    let mut b = ColumnBuilder::new(out_type);
    for i in 0..n {
        let mut v = Value::Null;
        for c in args {
            let w = c.value(bidx(c.len(), i));
            if !w.is_null() {
                v = w;
                break;
            }
        }
        b.push_value(&v)?;
    }
    Ok(b.finish())
}

fn eval_nullif(a: &Column, b: &Column) -> DbResult<Column> {
    let n = common_len(&[a, b])?;
    let mut builder = ColumnBuilder::new(a.data_type());
    for i in 0..n {
        let x = a.value(bidx(a.len(), i));
        let y = b.value(bidx(b.len(), i));
        if !x.is_null() && x.sql_cmp(&y) == Some(std::cmp::Ordering::Equal) {
            builder.push_null();
        } else {
            builder.push_value(&x)?;
        }
    }
    Ok(builder.finish())
}

fn eval_extreme(func: BuiltinScalar, args: &[&Column]) -> DbResult<Column> {
    let n = common_len(args)?;
    let mut out_type = args[0].data_type();
    for c in &args[1..] {
        out_type = DataType::common_numeric(out_type, c.data_type()).ok_or_else(|| {
            DbError::Type(format!("{func:?} arguments mix {out_type} and {}", c.data_type()))
        })?;
    }
    let want_greater = func == BuiltinScalar::Greatest;
    let mut b = ColumnBuilder::new(out_type);
    for i in 0..n {
        // LEAST/GREATEST ignore NULLs unless all args are NULL.
        let mut best: Option<Value> = None;
        for c in args {
            let v = c.value(bidx(c.len(), i));
            if v.is_null() {
                continue;
            }
            best = Some(match best {
                None => v,
                Some(cur) => match v.sql_order(&cur) {
                    Some(std::cmp::Ordering::Greater) if want_greater => v,
                    Some(std::cmp::Ordering::Less) if !want_greater => v,
                    _ => cur,
                },
            });
        }
        match best {
            Some(v) => b.push_value(&v)?,
            None => b.push_null(),
        }
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_resolves_aliases() {
        assert_eq!(BuiltinScalar::from_name("abs"), Some(BuiltinScalar::Abs));
        assert_eq!(BuiltinScalar::from_name("CEILING"), Some(BuiltinScalar::Ceil));
        assert_eq!(BuiltinScalar::from_name("char_length"), Some(BuiltinScalar::Length));
        assert_eq!(BuiltinScalar::from_name("nope"), None);
    }

    #[test]
    fn math_functions() {
        let c = Column::from_i32s(vec![-3, 0, 3]);
        let out = eval_builtin(BuiltinScalar::Abs, std::slice::from_ref(&c)).unwrap();
        assert_eq!(out.i64s().unwrap(), &[3, 0, 3]);
        let out = eval_builtin(BuiltinScalar::Sign, &[c]).unwrap();
        assert_eq!(out.i64s().unwrap(), &[-1, 0, 1]);
        let c = Column::from_f64s(vec![1.4, 1.5, -1.5, 2.5]);
        let out = eval_builtin(BuiltinScalar::Round, &[c]).unwrap();
        assert_eq!(out.f64s().unwrap(), &[1.0, 2.0, -2.0, 3.0]);
        let c = Column::from_f64s(vec![4.0]);
        let out = eval_builtin(BuiltinScalar::Sqrt, &[c]).unwrap();
        assert_eq!(out.f64s().unwrap(), &[2.0]);
        let out = eval_builtin(
            BuiltinScalar::Power,
            &[Column::from_f64s(vec![2.0, 3.0]), Column::from_i32s(vec![10])],
        )
        .unwrap();
        assert_eq!(out.f64s().unwrap(), &[1024.0, 59049.0]);
    }

    #[test]
    fn abs_overflow_detected() {
        let c = Column::from_i64s(vec![i64::MIN]);
        assert!(eval_builtin(BuiltinScalar::Abs, &[c]).is_err());
    }

    #[test]
    fn string_functions() {
        let c = Column::from_strings(["  Hi ", "wörld"]);
        let out = eval_builtin(BuiltinScalar::Trim, std::slice::from_ref(&c)).unwrap();
        assert_eq!(out.strings().unwrap().get(0), "Hi");
        let out = eval_builtin(BuiltinScalar::Upper, std::slice::from_ref(&c)).unwrap();
        assert_eq!(out.strings().unwrap().get(1), "WÖRLD");
        let out = eval_builtin(BuiltinScalar::Length, &[c]).unwrap();
        assert_eq!(out.i64s().unwrap(), &[5, 5]);
    }

    #[test]
    fn substr_behaviour() {
        let c = Column::from_strings(["hello"]);
        let sub = |start: i64, len: Option<i64>| {
            let mut args = vec![c.clone(), Column::from_i64s(vec![start])];
            if let Some(l) = len {
                args.push(Column::from_i64s(vec![l]));
            }
            eval_builtin(BuiltinScalar::Substr, &args).unwrap().strings().unwrap().get(0).to_owned()
        };
        assert_eq!(sub(2, Some(3)), "ell");
        assert_eq!(sub(1, None), "hello");
        assert_eq!(sub(4, Some(100)), "lo");
        assert_eq!(sub(100, Some(2)), "");
        assert_eq!(sub(2, Some(-1)), "");
    }

    #[test]
    fn concat_skips_nulls() {
        let out = eval_builtin(
            BuiltinScalar::Concat,
            &[
                Column::from_strings(["a", "b"]),
                Column::from_opt_i32s(vec![Some(1), None]),
                Column::from_strings(["x", "y"]),
            ],
        )
        .unwrap();
        let s = out.strings().unwrap();
        assert_eq!(s.get(0), "a1x");
        assert_eq!(s.get(1), "by");
    }

    #[test]
    fn coalesce_and_nullif() {
        let out = eval_builtin(
            BuiltinScalar::Coalesce,
            &[Column::from_opt_i32s(vec![None, Some(2)]), Column::from_i32s(vec![9, 9])],
        )
        .unwrap();
        assert_eq!(out.value(0), Value::Int32(9));
        assert_eq!(out.value(1), Value::Int32(2));
        let out = eval_builtin(
            BuiltinScalar::Nullif,
            &[Column::from_i32s(vec![1, 2]), Column::from_i32s(vec![1, 3])],
        )
        .unwrap();
        assert!(out.is_null(0));
        assert_eq!(out.value(1), Value::Int32(2));
    }

    #[test]
    fn least_greatest() {
        let out = eval_builtin(
            BuiltinScalar::Greatest,
            &[Column::from_i32s(vec![1, 5]), Column::from_opt_i32s(vec![Some(3), None])],
        )
        .unwrap();
        assert_eq!(out.value(0), Value::Int32(3));
        assert_eq!(out.value(1), Value::Int32(5));
        let out = eval_builtin(
            BuiltinScalar::Least,
            &[Column::from_opt_i32s(vec![None]), Column::from_opt_i32s(vec![None])],
        )
        .unwrap();
        assert!(out.is_null(0));
    }

    #[test]
    fn octet_length_on_blob() {
        let out = eval_builtin(
            BuiltinScalar::OctetLength,
            &[Column::from_blobs([&[1u8, 2, 3][..], &[][..]])],
        )
        .unwrap();
        assert_eq!(out.i64s().unwrap(), &[3, 0]);
    }

    #[test]
    fn arity_enforced() {
        assert!(eval_builtin::<Column>(BuiltinScalar::Abs, &[]).is_err());
        assert!(eval_builtin(BuiltinScalar::Nullif, &[Column::from_i32s(vec![1])]).is_err());
    }
}
