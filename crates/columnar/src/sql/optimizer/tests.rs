//! Unit tests of the optimizer passes.

use super::*;
use crate::error::DbError;
use crate::exec::{AggFunc, JoinType};
use crate::expr::Expr as E;
use crate::schema::{Field, Schema};
use crate::sql::plan::PlanAgg;
use crate::types::{DataType, Value};
use std::sync::Arc;

#[test]
fn constants_fold() {
    let mut e =
        E::binary(BinaryOp::Lt, E::col(0), E::binary(BinaryOp::Add, E::lit(2i32), E::lit(3i32)));
    fold_expr(&mut e);
    assert_eq!(e, E::binary(BinaryOp::Lt, E::col(0), E::Literal(Value::Int64(5))));
}

#[test]
fn folding_errors_are_deferred() {
    // 1/0 must not panic or error during optimization.
    let mut e = E::binary(BinaryOp::Div, E::lit(1i32), E::lit(0i32));
    fold_expr(&mut e);
    assert!(matches!(e, E::Binary { .. }), "kept unfolded: {e}");
}

#[test]
fn udf_calls_never_fold() {
    let mut e = E::Udf { name: "f".into(), args: vec![E::lit(1i32)] };
    fold_expr(&mut e);
    assert!(matches!(e, E::Udf { .. }));
}

fn scan(cols: usize) -> LogicalPlan {
    use crate::schema::{Field, Schema};
    let fields =
        (0..cols).map(|i| Field::new(format!("c{i}"), crate::types::DataType::Int32)).collect();
    LogicalPlan::Scan {
        table: "t".into(),
        schema: std::sync::Arc::new(Schema::new_unchecked(fields)),
    }
}

#[test]
fn true_filter_removed() {
    let plan = LogicalPlan::Filter { input: Box::new(scan(1)), predicate: E::lit(true) };
    let out = optimize(plan).unwrap();
    assert!(matches!(out, LogicalPlan::Scan { .. }), "{out}");
}

#[test]
fn adjacent_filters_fuse() {
    let plan = LogicalPlan::Filter {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(scan(1)),
            predicate: E::binary(BinaryOp::Gt, E::col(0), E::lit(1i32)),
        }),
        predicate: E::binary(BinaryOp::Lt, E::col(0), E::lit(9i32)),
    };
    let out = optimize(plan).unwrap();
    match out {
        LogicalPlan::Filter { input, predicate } => {
            assert!(matches!(*input, LogicalPlan::Scan { .. }));
            assert!(matches!(predicate, E::Binary { op: BinaryOp::And, .. }));
        }
        other => panic!("{other}"),
    }
}

#[test]
fn filter_pushes_below_passthrough_project() {
    use crate::schema::{Field, Schema};
    let project = LogicalPlan::Project {
        input: Box::new(scan(3)),
        exprs: vec![E::col(2), E::col(0)],
        schema: std::sync::Arc::new(Schema::new_unchecked(vec![
            Field::new("a", crate::types::DataType::Int32),
            Field::new("b", crate::types::DataType::Int32),
        ])),
    };
    let plan = LogicalPlan::Filter {
        input: Box::new(project),
        predicate: E::binary(BinaryOp::Eq, E::col(1), E::lit(5i32)),
    };
    let out = optimize(plan).unwrap();
    match out {
        LogicalPlan::Project { input, .. } => match *input {
            LogicalPlan::Filter { predicate, input } => {
                // Output column 1 maps back to input column 0.
                assert_eq!(predicate, E::binary(BinaryOp::Eq, E::col(0), E::lit(5i32)));
                assert!(matches!(*input, LogicalPlan::Scan { .. }));
            }
            other => panic!("expected filter under project, got {other}"),
        },
        other => panic!("expected project on top, got {other}"),
    }
}

#[test]
fn filter_stays_above_computed_project() {
    use crate::schema::{Field, Schema};
    let project = LogicalPlan::Project {
        input: Box::new(scan(1)),
        exprs: vec![E::binary(BinaryOp::Add, E::col(0), E::lit(1i32))],
        schema: std::sync::Arc::new(Schema::new_unchecked(vec![Field::new(
            "a",
            crate::types::DataType::Int64,
        )])),
    };
    let plan = LogicalPlan::Filter {
        input: Box::new(project),
        predicate: E::binary(BinaryOp::Gt, E::col(0), E::lit(0i32)),
    };
    let out = optimize(plan).unwrap();
    assert!(matches!(out, LogicalPlan::Filter { .. }), "{out}");
}

#[test]
fn filter_splits_across_inner_join() {
    use crate::schema::{Field, Schema};
    let join_schema = std::sync::Arc::new(Schema::new_unchecked(vec![
        Field::new("l0", crate::types::DataType::Int32),
        Field::new("l1", crate::types::DataType::Int32),
        Field::new("r0", crate::types::DataType::Int32),
    ]));
    let join = LogicalPlan::Join {
        left: Box::new(scan(2)),
        right: Box::new(scan(1)),
        join_type: JoinType::Inner,
        left_keys: vec![0],
        right_keys: vec![0],
        residual: None,
        build_left: false,
        schema: join_schema,
    };
    // (l1 > 1) AND (r0 < 5) AND (l0 = r0-ish both sides)
    let pred = E::binary(
        BinaryOp::And,
        E::binary(
            BinaryOp::And,
            E::binary(BinaryOp::Gt, E::col(1), E::lit(1i32)),
            E::binary(BinaryOp::Lt, E::col(2), E::lit(5i32)),
        ),
        E::binary(BinaryOp::Eq, E::col(0), E::col(2)),
    );
    let plan = LogicalPlan::Filter { input: Box::new(join), predicate: pred };
    let out = optimize(plan).unwrap();
    // Top: the cross-side conjunct stays as a filter over the join.
    match out {
        LogicalPlan::Filter { input, predicate } => {
            assert_eq!(predicate, E::binary(BinaryOp::Eq, E::col(0), E::col(2)));
            match *input {
                LogicalPlan::Join { left, right, .. } => {
                    assert!(
                        matches!(*left, LogicalPlan::Filter { .. }),
                        "left-side conjunct not pushed: {left}"
                    );
                    match *right {
                        LogicalPlan::Filter { predicate, .. } => {
                            // r0 rebased from column 2 to column 0.
                            assert_eq!(predicate, E::binary(BinaryOp::Lt, E::col(0), E::lit(5i32)));
                        }
                        other => panic!("right-side conjunct not pushed: {other}"),
                    }
                }
                other => panic!("{other}"),
            }
        }
        other => panic!("{other}"),
    }
}

fn add_table(catalog: &Catalog, name: &str, cols: Vec<(&str, crate::column::Column)>) {
    let schema = Arc::new(Schema::new_unchecked(
        cols.iter().map(|(n, c)| Field::new(*n, c.data_type())).collect(),
    ));
    catalog.create_table(name, schema).unwrap();
    let batch = crate::batch::Batch::from_columns(cols).unwrap();
    catalog.table(name).unwrap().write().append_batch(&batch).unwrap();
}

fn cat_scan(catalog: &Catalog, name: &str) -> LogicalPlan {
    let schema = catalog.table(name).unwrap().read().schema().clone();
    LogicalPlan::Scan { table: name.to_owned(), schema }
}

#[test]
fn bare_aggregates_collapse_to_stats_literals() {
    use crate::column::Column;
    use crate::types::DataType;
    let catalog = Catalog::new();
    add_table(&catalog, "t", vec![("x", Column::from_i32s((0..1000).collect()))]);
    let agg_schema = Arc::new(Schema::new_unchecked(vec![
        Field::new("n", DataType::Int64),
        Field::new("lo", DataType::Int32),
        Field::new("hi", DataType::Int32),
    ]));
    let plan = LogicalPlan::Aggregate {
        input: Box::new(cat_scan(&catalog, "t")),
        group: vec![],
        aggs: vec![
            PlanAgg { func: AggFunc::CountStar, arg: None, distinct: false },
            PlanAgg { func: AggFunc::Min, arg: Some(Expr::col(0)), distinct: false },
            PlanAgg { func: AggFunc::Max, arg: Some(Expr::col(0)), distinct: false },
        ],
        schema: agg_schema,
    };
    let off = optimize_with_stats(plan.clone(), &catalog, false).unwrap();
    assert!(!off.from_stats);
    assert!(matches!(off.plan, LogicalPlan::Aggregate { .. }), "{}", off.plan);
    let on = optimize_with_stats(plan, &catalog, true).unwrap();
    assert!(on.from_stats);
    match on.plan {
        LogicalPlan::Project { input, exprs, .. } => {
            assert!(matches!(*input, LogicalPlan::UnitRow));
            assert_eq!(
                exprs,
                vec![
                    Expr::Literal(Value::Int64(1000)),
                    Expr::Literal(Value::Int32(0)),
                    Expr::Literal(Value::Int32(999)),
                ]
            );
        }
        other => panic!("expected literal projection, got {other}"),
    }
}

#[test]
fn skewed_join_swaps_build_side() {
    use crate::column::Column;
    use crate::types::DataType;
    let catalog = Catalog::new();
    add_table(&catalog, "small", vec![("k", Column::from_i32s((0..10).collect()))]);
    add_table(&catalog, "big", vec![("k", Column::from_i32s((0..1000).map(|i| i % 10).collect()))]);
    let join_schema = Arc::new(Schema::new_unchecked(vec![
        Field::new("lk", DataType::Int32),
        Field::new("rk", DataType::Int32),
    ]));
    let join = |l: &str, r: &str| LogicalPlan::Join {
        left: Box::new(cat_scan(&catalog, l)),
        right: Box::new(cat_scan(&catalog, r)),
        join_type: JoinType::Inner,
        left_keys: vec![0],
        right_keys: vec![0],
        residual: None,
        build_left: false,
        schema: join_schema.clone(),
    };
    // Small left input: build there instead of on the big probe side.
    match optimize_with_stats(join("small", "big"), &catalog, true).unwrap().plan {
        LogicalPlan::Join { build_left, .. } => {
            assert!(build_left, "small left side should become the build side")
        }
        other => panic!("{other}"),
    }
    // Small right input: already the build side, no swap.
    match optimize_with_stats(join("big", "small"), &catalog, true).unwrap().plan {
        LogicalPlan::Join { build_left, .. } => assert!(!build_left),
        other => panic!("{other}"),
    }
    // Stats off: never swaps.
    match optimize_with_stats(join("small", "big"), &catalog, false).unwrap().plan {
        LogicalPlan::Join { build_left, .. } => assert!(!build_left),
        other => panic!("{other}"),
    }
}

#[test]
fn conjuncts_reorder_most_selective_first() {
    use crate::column::Column;
    let catalog = Catalog::new();
    add_table(&catalog, "t", vec![("x", Column::from_i32s((0..1000).collect()))]);
    // Weak range conjunct first, highly selective equality second.
    let weak = Expr::binary(BinaryOp::Gt, Expr::col(0), Expr::lit(10i32));
    let strong = Expr::binary(BinaryOp::Eq, Expr::col(0), Expr::lit(500i32));
    let plan = LogicalPlan::Filter {
        input: Box::new(cat_scan(&catalog, "t")),
        predicate: Expr::binary(BinaryOp::And, weak.clone(), strong.clone()),
    };
    let out = optimize_with_stats(plan, &catalog, true).unwrap().plan;
    match out {
        LogicalPlan::Filter { predicate, .. } => match predicate {
            Expr::Binary { op: BinaryOp::And, left, right } => {
                assert_eq!(*left, strong, "equality should be evaluated first");
                assert_eq!(*right, weak);
            }
            other => panic!("{other}"),
        },
        other => panic!("{other}"),
    }
}

#[test]
fn join_chain_reorders_smallest_first_under_countstar() {
    use crate::column::Column;
    use crate::types::DataType;
    let catalog = Catalog::new();
    add_table(&catalog, "a", vec![("k", Column::from_i32s((0..1000).map(|i| i % 10).collect()))]);
    add_table(&catalog, "b", vec![("k", Column::from_i32s((0..10).collect()))]);
    add_table(&catalog, "c", vec![("k", Column::from_i32s((0..10).collect()))]);
    let ab = LogicalPlan::Join {
        left: Box::new(cat_scan(&catalog, "a")),
        right: Box::new(cat_scan(&catalog, "b")),
        join_type: JoinType::Inner,
        left_keys: vec![0],
        right_keys: vec![0],
        residual: None,
        build_left: false,
        schema: Arc::new(Schema::new_unchecked(vec![
            Field::new("ak", DataType::Int32),
            Field::new("bk", DataType::Int32),
        ])),
    };
    let abc = LogicalPlan::Join {
        left: Box::new(ab),
        right: Box::new(cat_scan(&catalog, "c")),
        join_type: JoinType::Inner,
        left_keys: vec![0],
        right_keys: vec![0],
        residual: None,
        build_left: false,
        schema: Arc::new(Schema::new_unchecked(vec![
            Field::new("ak", DataType::Int32),
            Field::new("bk", DataType::Int32),
            Field::new("ck", DataType::Int32),
        ])),
    };
    let plan = LogicalPlan::Aggregate {
        input: Box::new(abc),
        group: vec![],
        aggs: vec![PlanAgg { func: AggFunc::CountStar, arg: None, distinct: false }],
        schema: Arc::new(Schema::new_unchecked(vec![Field::new("n", DataType::Int64)])),
    };
    let out = optimize_with_stats(plan, &catalog, true).unwrap().plan;
    // COUNT(*) is order-insensitive, so the chain is rebuilt
    // smallest-relation-first under a restoring projection; the big
    // relation "a" (1000 rows) no longer drives the chain.
    let LogicalPlan::Aggregate { input, .. } = out else { panic!("{out}") };
    let LogicalPlan::Project { input, .. } = *input else {
        panic!("expected restoring projection, got {input}")
    };
    // Column pruning narrows the inner join, which only feeds the
    // outer one its key, under a bare-reference projection.
    let mut leaf = input.as_ref();
    while let LogicalPlan::Join { left: input, .. } | LogicalPlan::Project { input, .. } = leaf {
        leaf = input.as_ref();
    }
    match leaf {
        LogicalPlan::Scan { table, .. } => {
            assert_eq!(table, "b", "smallest connected relation should drive the chain")
        }
        other => panic!("{other}"),
    }
}

/// Debug builds verify the plan after every pass, and a broken invariant
/// names the pass that broke it: here a pass that declares a projection's
/// output `VARCHAR` over an integer expression, run after the real ones.
#[cfg(debug_assertions)]
#[test]
fn a_broken_invariant_names_the_pass() {
    let corrupt = Pass {
        name: "corrupt_schema",
        run: Rewrite::Rule(|plan| {
            let schema = Arc::new(Schema::new_unchecked(vec![Field::new("x", DataType::Varchar)]));
            LogicalPlan::Project { input: Box::new(plan), exprs: vec![E::col(0)], schema }
        }),
    };
    let catalog = Catalog::default();
    let passes = [REWRITE, corrupt];
    match run_passes(scan(1), &passes, Some(&catalog)) {
        Err(DbError::PlanInvariant { path, message }) => {
            assert!(path.starts_with("pass corrupt_schema > Project"), "{path}: {message}");
            assert!(message.contains("declared VARCHAR"), "{path}: {message}");
        }
        other => panic!("expected a PlanInvariant, got {other:?}"),
    }
    // The passes the engine runs keep the plan well-formed.
    assert!(run_passes(scan(1), PASSES, Some(&catalog)).is_ok());
}
