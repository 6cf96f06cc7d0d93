//! The one typing rule for expressions: the binder types a projection,
//! group key or aggregate argument with it, and the plan verifier
//! re-types every expression of a plan with it. The two differ only in
//! what the rule cannot know by itself, which each supplies through
//! [`TypeEnv`]: the binder a concrete answer for everything, the
//! verifier "unknown" where the plan does not say.

use super::{BinaryOp, BuiltinScalar, Expr, UnaryOp};
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::types::DataType;

/// What typing an expression needs from its caller. `None` is an unknown
/// type: it matches anything, and an operator over it is unknown unless
/// its other operands decide its type.
pub(crate) trait TypeEnv {
    /// The type of a `NULL` literal.
    fn null_type(&self) -> Option<DataType>;
    /// The type of scalar subquery `$i`.
    fn subquery_type(&self, i: usize) -> DbResult<Option<DataType>>;
    /// The return type of scalar UDF `name` over arguments of `args`.
    fn udf_type(&self, name: &str, args: &[Option<DataType>]) -> DbResult<Option<DataType>>;
    /// Whether operands that do not decide the result's type are typed
    /// too, which checks their column references, arities and UDFs.
    fn checks_operands(&self) -> bool;
    /// The error for an expression the rule rejects.
    fn error(&self, message: String) -> DbError;
}

/// The type of `e` over columns of `input`, bottom-up.
pub(crate) fn type_of(e: &Expr, input: &Schema, env: &impl TypeEnv) -> DbResult<Option<DataType>> {
    let ty = |e: &Expr| type_of(e, input, env);
    // An operand whose type does not decide the result's.
    let check = |e: &Expr| if env.checks_operands() { ty(e).map(drop) } else { Ok(()) };
    Ok(match e {
        Expr::Column(i) => match input.fields().get(*i) {
            Some(f) => Some(f.dtype),
            None => {
                return Err(env.error(format!(
                    "unbound column reference #{i} (input has {} columns)",
                    input.len()
                )))
            }
        },
        Expr::Literal(v) => v.data_type().or_else(|| env.null_type()),
        Expr::Binary { op, left, right } if op.is_arithmetic() => {
            match (ty(left)?, ty(right)?) {
                (Some(l), Some(r)) => Some(int_or_float(l.is_integer() && r.is_integer())),
                // One side unknown: only a non-integer known side pins the
                // result (the "both integers" rule can no longer apply).
                (Some(t), None) | (None, Some(t)) if !t.is_integer() => Some(DataType::Float64),
                _ => None,
            }
        }
        Expr::Unary { op: UnaryOp::Neg, expr } => ty(expr)?.map(|t| int_or_float(!t.is_float())),
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().map_or(Ok(()), check)?;
            let mut outputs = Vec::with_capacity(branches.len() + 1);
            for (when, then) in branches {
                check(when)?;
                outputs.push(ty(then)?);
            }
            if let Some(e) = else_expr {
                outputs.push(ty(e)?);
            }
            let known = common_type(outputs.iter().flatten().copied(), env, "CASE branches")?;
            match outputs.contains(&None) {
                true => None,
                // No typed branch at all: INTEGER.
                false => Some(known.unwrap_or(DataType::Int32)),
            }
        }
        Expr::ScalarFn { func, args } => {
            let (lo, hi) = func.arity();
            if args.len() < lo || args.len() > hi {
                let range = match hi {
                    usize::MAX => "+".to_owned(),
                    hi if hi > lo => format!("..={hi}"),
                    _ => String::new(),
                };
                return Err(env.error(format!(
                    "{func:?} expects {lo}{range} argument(s), got {}",
                    args.len()
                )));
            }
            // The leading arguments whose types decide the result's.
            let deciding = match func {
                BuiltinScalar::Abs | BuiltinScalar::Sign | BuiltinScalar::Nullif => 1,
                BuiltinScalar::Coalesce | BuiltinScalar::Least | BuiltinScalar::Greatest => {
                    args.len()
                }
                _ => 0,
            };
            let mut types = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                types.push(if i < deciding { ty(a)? } else { check(a).map(|()| None)? });
            }
            scalar_fn_type(*func, &types, env)?
        }
        Expr::Udf { name, args } => {
            let types = args.iter().map(ty).collect::<DbResult<Vec<_>>>()?;
            env.udf_type(name, &types)?
        }
        Expr::Subquery(i) => env.subquery_type(*i)?,
        // Every other form has a type of its own, whatever its operands'.
        other => {
            let mut checked = Ok(());
            other.for_each_child(|c| {
                if checked.is_ok() {
                    checked = check(c);
                }
            });
            checked?;
            Some(match other {
                Expr::Binary { op: BinaryOp::Concat, .. } => DataType::Varchar,
                Expr::Cast { to, .. } => *to,
                _ => DataType::Boolean,
            })
        }
    })
}

/// `INTEGER` arithmetic widens to `BIGINT`, anything else to `DOUBLE`.
fn int_or_float(integer: bool) -> DataType {
    if integer {
        DataType::Int64
    } else {
        DataType::Float64
    }
}

/// The common type of `types`, `None` when there are none.
fn common_type(
    types: impl IntoIterator<Item = DataType>,
    env: &impl TypeEnv,
    what: &str,
) -> DbResult<Option<DataType>> {
    let mut common: Option<DataType> = None;
    for t in types {
        common = Some(match common {
            None => t,
            Some(prev) => DataType::common_numeric(prev, t)
                .ok_or_else(|| env.error(format!("{what} mix {prev} and {t}")))?,
        });
    }
    Ok(common)
}

/// A builtin's return type over its argument types.
fn scalar_fn_type(
    func: BuiltinScalar,
    args: &[Option<DataType>],
    env: &impl TypeEnv,
) -> DbResult<Option<DataType>> {
    Ok(match func {
        BuiltinScalar::Abs | BuiltinScalar::Sign => args[0].map(|t| int_or_float(t.is_integer())),
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
            // The types before the first unknown one must still agree.
            let known: Vec<DataType> = args.iter().map_while(|t| *t).collect();
            let common = common_type(known.iter().copied(), env, "arguments")?;
            if known.len() == args.len() {
                common
            } else {
                None
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Column;
    use crate::expr::{eval, EvalContext};
    use crate::types::Value;
    use proptest::test_runner::TestRng;

    const TYPES: [DataType; 9] = [
        DataType::Boolean,
        DataType::Int8,
        DataType::Int16,
        DataType::Int32,
        DataType::Int64,
        DataType::Float32,
        DataType::Float64,
        DataType::Varchar,
        DataType::Blob,
    ];

    /// The binder's answers: a `NULL` is an `INTEGER`, and only the
    /// operands that decide a type are typed.
    struct Bound;

    impl TypeEnv for Bound {
        fn null_type(&self) -> Option<DataType> {
            Some(DataType::Int32)
        }
        fn subquery_type(&self, _: usize) -> DbResult<Option<DataType>> {
            Err(DbError::internal("no subqueries here"))
        }
        fn udf_type(&self, _: &str, _: &[Option<DataType>]) -> DbResult<Option<DataType>> {
            Err(DbError::internal("no UDFs here"))
        }
        fn checks_operands(&self) -> bool {
            false
        }
        fn error(&self, message: String) -> DbError {
            DbError::Type(message)
        }
    }

    /// A value of `dtype` drawn from a few small ones, NULL one time in
    /// four.
    fn value(dtype: DataType, rng: &mut TestRng) -> Value {
        if rng.below(4) == 0 {
            return Value::Null;
        }
        let k = rng.below(5) as i64 - 2;
        match dtype {
            DataType::Boolean => Value::Boolean(k > 0),
            DataType::Int8 => Value::Int8(k as i8),
            DataType::Int16 => Value::Int16(k as i16 * 300),
            DataType::Int32 => Value::Int32(k as i32 * 70_000),
            DataType::Int64 => Value::Int64(k * 5_000_000_000),
            DataType::Float32 => Value::Float32(k as f32 * 0.25),
            DataType::Float64 => Value::Float64(k as f64 * -1.5),
            DataType::Varchar => Value::Varchar(format!("v{k}")),
            DataType::Blob => Value::Blob(vec![k as u8; k.unsigned_abs() as usize]),
        }
    }

    /// One column of every type, `c0` … `c8` in [`TYPES`] order.
    fn batch(rng: &mut TestRng) -> Batch {
        let names: Vec<String> = (0..TYPES.len()).map(|i| format!("c{i}")).collect();
        let columns = TYPES.iter().zip(&names).map(|(&t, name)| {
            let values: Vec<Value> = (0..5).map(|_| value(t, rng)).collect();
            (name.as_str(), Column::from_values(t, &values).unwrap())
        });
        Batch::from_columns(columns.collect()).unwrap()
    }

    /// A random expression over [`batch`]'s columns, at most `depth` deep.
    fn expr(rng: &mut TestRng, depth: u32) -> Expr {
        let sub = |n: usize, rng: &mut TestRng| -> Vec<Expr> {
            (0..n).map(|_| expr(rng, depth - 1)).collect()
        };
        if depth == 0 || rng.below(3) == 0 {
            return match rng.below(3) {
                0 => Expr::Column(rng.below(TYPES.len() as u64) as usize),
                1 => Expr::Literal(Value::Null),
                _ => Expr::Literal(value(TYPES[rng.below(TYPES.len() as u64) as usize], rng)),
            };
        }
        let pick = |rng: &mut TestRng, of: &[BinaryOp]| of[rng.below(of.len() as u64) as usize];
        let func = |func: BuiltinScalar, args: Vec<Expr>| Expr::ScalarFn { func, args };
        match rng.below(8) {
            0 | 1 => {
                use BinaryOp::*;
                let op = pick(rng, &[Add, Sub, Mul, Div, Mod]);
                let [l, r] = <[Expr; 2]>::try_from(sub(2, rng)).unwrap();
                Expr::binary(op, l, r)
            }
            2 => {
                use BinaryOp::*;
                let op = pick(rng, &[Eq, NotEq, Lt, LtEq, Gt, GtEq]);
                let [l, r] = <[Expr; 2]>::try_from(sub(2, rng)).unwrap();
                Expr::binary(op, l, r)
            }
            3 => {
                let n = 1 + rng.below(2) as usize;
                let whens = sub(n, rng)
                    .into_iter()
                    .map(|w| Expr::IsNull { expr: Box::new(w), negated: false });
                let branches = whens.zip(sub(n, rng)).collect();
                let else_expr = (rng.below(2) == 0).then(|| Box::new(expr(rng, depth - 1)));
                Expr::Case { operand: None, branches, else_expr }
            }
            4 => {
                let which =
                    [BuiltinScalar::Coalesce, BuiltinScalar::Least, BuiltinScalar::Greatest];
                let f = which[rng.below(3) as usize];
                let n = 1 + rng.below(3) as usize;
                func(f, sub(n, rng))
            }
            5 => {
                let f = [BuiltinScalar::Abs, BuiltinScalar::Sign][rng.below(2) as usize];
                func(f, sub(1, rng))
            }
            6 => func(BuiltinScalar::Nullif, sub(2, rng)),
            _ => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(expr(rng, depth - 1)) },
        }
    }

    proptest::proptest! {
        /// The type the rule gives a bound expression is the type of the
        /// column the evaluator returns for it, over every column type and
        /// NULL literals: arithmetic, comparisons, `CASE`,
        /// `COALESCE`/`LEAST`/`GREATEST`, `ABS`/`SIGN`, `NULLIF` and
        /// negation. An expression the evaluator rejects says nothing.
        #[test]
        fn the_rule_types_what_the_evaluator_returns(seed in proptest::prelude::any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let batch = batch(&mut rng);
            let ctx = EvalContext::new(&batch, None);
            let mut evaluated = 0;
            for _ in 0..32 {
                let e = expr(&mut rng, 3);
                let Ok(column) = eval(&ctx, &e) else { continue };
                evaluated += 1;
                let typed = type_of(&e, batch.schema(), &Bound);
                proptest::prop_assert_eq!(
                    typed.ok().flatten(),
                    Some(column.data_type()),
                    "{}",
                    e
                );
            }
            // About two in three evaluate; none would make this vacuous.
            proptest::prop_assert!(evaluated > 0);
        }
    }
}
