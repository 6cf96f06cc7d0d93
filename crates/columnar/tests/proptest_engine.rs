//! Property-based tests over the storage and execution layers, checking
//! the vectorized operators against scalar reference implementations.

use mlcs_columnar::exec::{self, AggCall, AggFunc, JoinType, Parallelism, SortKey};
use mlcs_columnar::expr::{eval, eval_predicate, BinaryOp, EvalContext, Expr};
use mlcs_columnar::{Batch, Column, Value};
use proptest::prelude::*;

fn opt_i32s() -> impl Strategy<Value = Vec<Option<i32>>> {
    proptest::collection::vec(proptest::option::of(-100i32..100), 0..80)
}

/// The two ways every operator runs: one morsel on the calling thread, and
/// forced onto the pool in morsels small enough that these inputs span
/// several.
fn policies() -> [Parallelism; 2] {
    [
        Parallelism::serial(),
        Parallelism { threads: 4, threshold: 1, morsel_rows: 7, deadline: None },
    ]
}

/// A `(key, pos)` batch: the key column under test plus each row's
/// position, so join output rows can be traced back to their inputs.
fn keyed(key: Column) -> Batch {
    let pos = Column::from_i64s((0..key.len() as i64).collect());
    Batch::from_columns(vec![("k", key), ("pos", pos)]).unwrap()
}

/// The nested-loop reference join over optional keys: every `(left pos,
/// Some(right pos))` with equal non-NULL keys, left rows in order and each
/// left row's matches in right order; under `left_join` a matchless left
/// row yields `(left pos, None)`. NULL never equals anything.
fn nested_loop<K: PartialEq>(
    left: &[Option<K>],
    right: &[Option<K>],
    left_join: bool,
) -> Vec<(i64, Option<i64>)> {
    let mut pairs = Vec::new();
    for (l, lk) in left.iter().enumerate() {
        let before = pairs.len();
        for (r, rk) in right.iter().enumerate() {
            if lk.is_some() && lk == rk {
                pairs.push((l as i64, Some(r as i64)));
            }
        }
        if left_join && pairs.len() == before {
            pairs.push((l as i64, None));
        }
    }
    pairs
}

/// Checks `exec::hash_join` over two [`keyed`] batches against the
/// expected position pairs, for both build sides under both policies. The
/// comparison is on the ordered pair list, which pins the pair multiset
/// and the documented output order at once.
fn check_join(
    lb: &Batch,
    rb: &Batch,
    join_type: JoinType,
    expect: &[(i64, Option<i64>)],
) -> Result<(), TestCaseError> {
    for build_left in [false, true] {
        for par in policies() {
            let (out, ran_parallel) =
                exec::hash_join(lb, rb, &[0], &[0], join_type, build_left, par).unwrap();
            let pairs: Vec<(i64, Option<i64>)> = (0..out.rows())
                .map(|i| (out.column(1).i64_at(i).unwrap(), out.column(3).i64_at(i)))
                .collect();
            prop_assert_eq!(&pairs[..], expect, "build_left={} par={:?}", build_left, par);
            let expect_parallel = par.threads > 1 && lb.rows().max(rb.rows()) > 0;
            prop_assert_eq!(ran_parallel, expect_parallel);
            // Every matched output row has equal keys on both sides.
            for i in 0..out.rows() {
                if !out.column(3).is_null(i) {
                    prop_assert_eq!(out.row(i)[0].clone(), out.row(i)[2].clone());
                }
            }
        }
    }
    Ok(())
}

/// `DISTINCT` as the engine runs it: a group-by on every column with no
/// aggregates.
fn distinct(batch: &Batch, par: Parallelism) -> (Batch, bool) {
    let keys: Vec<usize> = (0..batch.width()).collect();
    exec::hash_aggregate(batch, &keys, &[], par).unwrap()
}

/// The first occurrence of every distinct element, in order.
fn first_occurrences<T: PartialEq + Clone>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for v in values {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

fn agg(func: AggFunc, arg: Option<usize>) -> AggCall {
    AggCall { func, arg, distinct: false }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// take() then value() equals direct indexed access.
    #[test]
    fn take_matches_scalar_access(values in opt_i32s(), seed in any::<u64>()) {
        prop_assume!(!values.is_empty());
        let col = Column::from_opt_i32s(values.clone());
        let indices: Vec<u32> = (0..values.len())
            .map(|i| ((seed.wrapping_mul(i as u64 + 1) >> 7) % values.len() as u64) as u32)
            .collect();
        let taken = col.take(&indices);
        for (dst, &src) in indices.iter().enumerate() {
            prop_assert_eq!(taken.value(dst), col.value(src as usize));
        }
    }

    /// The vectorized comparison agrees with Value::sql_cmp per row.
    #[test]
    fn vectorized_comparison_matches_reference(
        a in opt_i32s(),
        threshold in -100i32..100,
    ) {
        prop_assume!(!a.is_empty());
        let col = Column::from_opt_i32s(a.clone());
        let batch = Batch::from_columns(vec![("a", col)]).unwrap();
        let ctx = EvalContext::new(&batch, None);
        let e = Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(threshold));
        let out = eval(&ctx, &e).unwrap();
        for (i, v) in a.iter().enumerate() {
            match v {
                None => prop_assert!(out.is_null(i)),
                Some(x) => {
                    prop_assert!(!out.is_null(i));
                    prop_assert_eq!(out.bools().unwrap()[i], *x < threshold);
                }
            }
        }
    }

    /// Selection vectors contain exactly the TRUE rows, in order.
    #[test]
    fn predicate_selects_true_rows(a in opt_i32s(), threshold in -100i32..100) {
        let col = Column::from_opt_i32s(a.clone());
        let batch = Batch::from_columns(vec![("a", col)]).unwrap();
        let ctx = EvalContext::new(&batch, None);
        let e = Expr::binary(BinaryOp::GtEq, Expr::col(0), Expr::lit(threshold));
        let sel = eval_predicate(&ctx, &e).unwrap();
        let expect: Vec<u32> = a
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Some(x) if *x >= threshold))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(sel, expect);
    }

    /// Arithmetic with NULL propagation matches a scalar model.
    #[test]
    fn addition_matches_reference(a in opt_i32s(), b in opt_i32s()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let batch = Batch::from_columns(vec![
            ("a", Column::from_opt_i32s(a.to_vec())),
            ("b", Column::from_opt_i32s(b.to_vec())),
        ])
        .unwrap();
        let ctx = EvalContext::new(&batch, None);
        let out = eval(&ctx, &Expr::binary(BinaryOp::Add, Expr::col(0), Expr::col(1))).unwrap();
        for i in 0..n {
            match (a[i], b[i]) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(out.i64_at(i), Some(x as i64 + y as i64))
                }
                _ => prop_assert!(out.is_null(i)),
            }
        }
    }

    /// The filter operator's selection is exactly the TRUE rows, in order,
    /// however the input is cut into morsels.
    #[test]
    fn filter_sel_selects_true_rows(a in opt_i32s(), threshold in -100i32..100) {
        let batch = Batch::from_columns(vec![("a", Column::from_opt_i32s(a.clone()))]).unwrap();
        let e = Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(threshold));
        let expect: Vec<u32> = a
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Some(x) if *x < threshold))
            .map(|(i, _)| i as u32)
            .collect();
        for par in policies() {
            let (sel, stats) = exec::filter_sel(&EvalContext::new(&batch, None), &e, par).unwrap();
            prop_assert_eq!(&sel, &expect, "{:?}", par);
            prop_assert_eq!(stats.parallel, par.threads > 1 && !a.is_empty());
            let kept = exec::filter(&EvalContext::new(&batch, None), &e, par).unwrap();
            prop_assert_eq!(kept.rows(), expect.len());
        }
    }

    /// Hash join output equals the nested-loop reference pair for pair —
    /// NULL keys included, which never match — whichever side is built
    /// and under either policy.
    #[test]
    fn join_matches_nested_loop(
        left in proptest::collection::vec(proptest::option::of(0i32..10), 0..40),
        right in proptest::collection::vec(proptest::option::of(0i32..10), 0..40),
    ) {
        let lb = keyed(Column::from_opt_i32s(left.clone()));
        let rb = keyed(Column::from_opt_i32s(right.clone()));
        check_join(&lb, &rb, JoinType::Inner, &nested_loop(&left, &right, false))?;
        check_join(&lb, &rb, JoinType::Left, &nested_loop(&left, &right, true))?;
    }

    /// The same over a high-cardinality, duplicate-heavy key domain, so
    /// that key chains and every partition of the parallel pass are
    /// exercised.
    #[test]
    fn high_cardinality_join_matches_nested_loop(
        left in proptest::collection::vec(proptest::option::of(0i32..500), 0..300),
        right in proptest::collection::vec(proptest::option::of(0i32..500), 0..300),
        dup in 1i32..8,
    ) {
        // Fold the keys onto a smaller range so that they repeat.
        let fold = |ks: &[Option<i32>]| ks.iter().map(|k| k.map(|k| k / dup)).collect::<Vec<_>>();
        let (left, right) = (fold(&left), fold(&right));
        let lb = keyed(Column::from_opt_i32s(left.clone()));
        let rb = keyed(Column::from_opt_i32s(right.clone()));
        check_join(&lb, &rb, JoinType::Inner, &nested_loop(&left, &right, false))?;
        check_join(&lb, &rb, JoinType::Left, &nested_loop(&left, &right, true))?;
    }

    /// The same over string keys, which take the byte-encoded key path.
    #[test]
    fn string_key_join_matches_nested_loop(
        left in proptest::collection::vec(0u8..6, 0..40),
        right in proptest::collection::vec(0u8..6, 0..40),
    ) {
        let names = |ks: &[u8]| ks.iter().map(|k| Some(format!("key-{k}"))).collect::<Vec<_>>();
        let (left, right) = (names(&left), names(&right));
        let lb = keyed(Column::from_strings(left.iter().flatten().map(String::as_str)));
        let rb = keyed(Column::from_strings(right.iter().flatten().map(String::as_str)));
        check_join(&lb, &rb, JoinType::Inner, &nested_loop(&left, &right, false))?;
        check_join(&lb, &rb, JoinType::Left, &nested_loop(&left, &right, true))?;
    }

    /// Left join preserves every left row exactly once per match (or once
    /// padded).
    #[test]
    fn left_join_preserves_probe_side(
        left in proptest::collection::vec(0i32..8, 0..30),
        right in proptest::collection::vec(0i32..8, 0..30),
    ) {
        let lb = keyed(Column::from_i32s(left.clone()));
        let rb = keyed(Column::from_i32s(right.clone()));
        let expected: usize = left
            .iter()
            .map(|l| right.iter().filter(|r| *r == l).count().max(1))
            .sum();
        let some = |ks: &[i32]| ks.iter().map(|&k| Some(k)).collect::<Vec<_>>();
        let pairs = nested_loop(&some(&left), &some(&right), true);
        prop_assert_eq!(pairs.len(), expected);
        check_join(&lb, &rb, JoinType::Left, &pairs)?;
    }

    /// Grouped aggregation equals a scalar fold: groups in first-appearance
    /// order (NULL is its own group), COUNT(*) and SUM per group, under
    /// either policy.
    #[test]
    fn aggregate_matches_scalar_fold(
        rows in proptest::collection::vec((proptest::option::of(0i32..6), -50i32..50), 0..80),
    ) {
        let batch = Batch::from_columns(vec![
            ("k", Column::from_opt_i32s(rows.iter().map(|r| r.0).collect())),
            ("v", Column::from_i32s(rows.iter().map(|r| r.1).collect())),
        ])
        .unwrap();
        let mut expect: Vec<(Option<i32>, i64, i64)> = Vec::new();
        for &(k, v) in &rows {
            match expect.iter_mut().find(|g| g.0 == k) {
                Some(g) => {
                    g.1 += 1;
                    g.2 += v as i64;
                }
                None => expect.push((k, 1, v as i64)),
            }
        }
        let aggs = [
            AggCall { func: AggFunc::CountStar, arg: None, distinct: false },
            AggCall { func: AggFunc::Sum, arg: Some(1), distinct: false },
        ];
        for par in policies() {
            let (out, ran_parallel) = exec::hash_aggregate(&batch, &[0], &aggs, par).unwrap();
            prop_assert_eq!(ran_parallel, par.threads > 1 && !rows.is_empty());
            let got: Vec<(Option<i32>, i64, i64)> = (0..out.rows())
                .map(|i| {
                    let k = out.column(0).i64_at(i).map(|k| k as i32);
                    (k, out.column(1).i64_at(i).unwrap(), out.column(2).i64_at(i).unwrap())
                })
                .collect();
            prop_assert_eq!(&got, &expect, "{:?}", par);
        }
    }

    /// The same over a two-column byte key — an integer with NULLs and a
    /// string — against a scalar fold.
    #[test]
    fn byte_key_aggregate_matches_scalar_fold(
        rows in proptest::collection::vec(
            (proptest::option::of(0i32..5), 0u8..4, -50i32..50),
            0..120,
        ),
    ) {
        let names: Vec<String> = rows.iter().map(|r| format!("name-{}", r.1)).collect();
        let batch = Batch::from_columns(vec![
            ("i", Column::from_opt_i32s(rows.iter().map(|r| r.0).collect())),
            ("s", Column::from_strings(names.iter().map(String::as_str))),
            ("v", Column::from_i32s(rows.iter().map(|r| r.2).collect())),
        ])
        .unwrap();
        let mut expect: Vec<(Option<i32>, String, i64, i64)> = Vec::new();
        for (r, name) in rows.iter().zip(&names) {
            match expect.iter_mut().find(|g| g.0 == r.0 && &g.1 == name) {
                Some(g) => {
                    g.2 += 1;
                    g.3 += r.2 as i64;
                }
                None => expect.push((r.0, name.clone(), 1, r.2 as i64)),
            }
        }
        let aggs = [agg(AggFunc::CountStar, None), agg(AggFunc::Sum, Some(2))];
        for par in policies() {
            let (out, ran_parallel) = exec::hash_aggregate(&batch, &[0, 1], &aggs, par).unwrap();
            prop_assert_eq!(ran_parallel, par.threads > 1 && !rows.is_empty());
            let got: Vec<(Option<i32>, String, i64, i64)> = (0..out.rows())
                .map(|i| {
                    let name = match out.row(i)[1].clone() {
                        Value::Varchar(s) => s,
                        other => format!("{other:?}"),
                    };
                    (
                        out.column(0).i64_at(i).map(|k| k as i32),
                        name,
                        out.column(2).i64_at(i).unwrap(),
                        out.column(3).i64_at(i).unwrap(),
                    )
                })
                .collect();
            prop_assert_eq!(&got, &expect, "{:?}", par);
        }
    }

    /// Grouped float aggregates are bit-equal under both policies: over a
    /// high-cardinality key (many more groups than the parallel pass has
    /// partitions, each spread over many 7-row morsels) and non-dyadic
    /// doubles, where any change in summation order shows in the last bit.
    #[test]
    fn grouped_float_aggregates_are_bit_equal_across_policies(
        rows in proptest::collection::vec(
            (proptest::option::of(0i32..400), proptest::option::of(0i32..1000)),
            0..1500,
        ),
    ) {
        let xs: Vec<Option<f64>> = rows.iter().map(|r| r.1.map(|i| i as f64 * 0.1)).collect();
        let batch = Batch::from_columns(vec![
            ("k", Column::from_opt_i32s(rows.iter().map(|r| r.0).collect())),
            ("x", Column::from_opt_f64s(xs)),
        ])
        .unwrap();
        let aggs = [
            agg(AggFunc::Sum, Some(1)),
            agg(AggFunc::Avg, Some(1)),
            agg(AggFunc::Min, Some(1)),
            agg(AggFunc::Max, Some(1)),
            agg(AggFunc::Count, Some(1)),
        ];
        let [serial, parallel] = policies().map(|par| {
            let (out, _) = exec::hash_aggregate(&batch, &[0], &aggs, par).unwrap();
            let bits: Vec<Vec<Option<u64>>> = (0..out.rows())
                .map(|i| {
                    (0..out.width())
                        .map(|c| match out.row(i)[c] {
                            Value::Float64(f) => Some(f.to_bits()),
                            ref v => v.as_i64().map(|k| k as u64),
                        })
                        .collect()
                })
                .collect();
            bits
        });
        prop_assert_eq!(serial, parallel);
    }

    /// Sorting produces the stable ordered permutation: ascending with
    /// NULLs last, equal keys in input order — the positions std's stable
    /// sort gives — under either policy.
    #[test]
    fn sort_is_ordered_permutation(values in opt_i32s()) {
        let batch = Batch::from_columns(vec![
            ("v", Column::from_opt_i32s(values.clone())),
            ("pos", Column::from_i64s((0..values.len() as i64).collect())),
        ])
        .unwrap();
        let mut expect: Vec<i64> = (0..values.len() as i64).collect();
        expect.sort_by_key(|&p| (values[p as usize].is_none(), values[p as usize]));
        for par in policies() {
            let (out, ran_parallel) = exec::sort(&batch, &[SortKey::asc(0)], par).unwrap();
            prop_assert_eq!(ran_parallel, par.threads > 1 && !values.is_empty());
            let positions: Vec<i64> =
                (0..out.rows()).map(|i| out.column(1).i64_at(i).unwrap()).collect();
            prop_assert_eq!(&positions, &expect, "{:?}", par);
            for (i, &p) in positions.iter().enumerate() {
                prop_assert_eq!(out.column(0).i64_at(i), values[p as usize].map(i64::from));
            }
        }
    }

    /// DISTINCT output has no duplicate rows and loses nothing: first
    /// occurrences in order, NULL one value, under either policy.
    #[test]
    fn distinct_is_exact(values in proptest::collection::vec(proptest::option::of(0i32..6), 0..60)) {
        let batch = Batch::from_columns(vec![("v", Column::from_opt_i32s(values.clone()))]).unwrap();
        let reference = first_occurrences(&values);
        for par in policies() {
            let (out, ran_parallel) = distinct(&batch, par);
            prop_assert_eq!(ran_parallel, par.threads > 1 && !values.is_empty());
            prop_assert_eq!(out.rows(), reference.len());
            for (i, v) in reference.iter().enumerate() {
                match v {
                    None => prop_assert!(out.row(i)[0].is_null()),
                    Some(x) => prop_assert_eq!(out.row(i)[0].as_i64(), Some(*x as i64)),
                }
            }
        }
    }

    /// The same over two columns, an integer and a string, both with
    /// NULLs: the byte-key table.
    #[test]
    fn distinct_two_columns_is_exact(
        rows in proptest::collection::vec(
            (proptest::option::of(0i32..4), proptest::option::of(0u8..3)),
            0..120,
        ),
    ) {
        let names: Vec<Option<String>> =
            rows.iter().map(|r| r.1.map(|k| format!("s{k}"))).collect();
        let batch = Batch::from_columns(vec![
            ("i", Column::from_opt_i32s(rows.iter().map(|r| r.0).collect())),
            ("s", Column::from_values(
                mlcs_columnar::DataType::Varchar,
                &names.iter().map(|n| n.clone().map_or(Value::Null, Value::Varchar)).collect::<Vec<_>>(),
            ).unwrap()),
        ])
        .unwrap();
        let pairs: Vec<(Option<i32>, Option<String>)> =
            rows.iter().map(|r| r.0).zip(names.iter().cloned()).collect();
        let reference = first_occurrences(&pairs);
        for par in policies() {
            let (out, _) = distinct(&batch, par);
            let got: Vec<(Option<i32>, Option<String>)> = (0..out.rows())
                .map(|i| {
                    let s = match out.row(i)[1].clone() {
                        Value::Varchar(s) => Some(s),
                        _ => None,
                    };
                    (out.column(0).i64_at(i).map(|k| k as i32), s)
                })
                .collect();
            prop_assert_eq!(&got, &reference, "{:?}", par);
        }
    }

    /// Batch concat preserves order and content.
    #[test]
    fn concat_preserves_rows(a in opt_i32s(), b in opt_i32s()) {
        let ba = Batch::from_columns(vec![("v", Column::from_opt_i32s(a.clone()))]).unwrap();
        let bb = Batch::from_columns(vec![("v", Column::from_opt_i32s(b.clone()))]).unwrap();
        let all = Batch::concat(&[ba.clone(), bb.clone()]).unwrap();
        prop_assert_eq!(all.rows(), a.len() + b.len());
        for (i, v) in a.iter().chain(b.iter()).enumerate() {
            match v {
                None => prop_assert!(all.row(i)[0].is_null()),
                Some(x) => prop_assert_eq!(all.row(i)[0].as_i64(), Some(*x as i64)),
            }
        }
    }
}
