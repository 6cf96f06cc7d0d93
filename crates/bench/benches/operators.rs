//! Exp 7 (substrate): columnar operator microbenchmarks establishing that
//! the engine underneath the UDFs is a credible column store — vectorized
//! filter, hash join, hash aggregation, and sort over 1M rows, each run
//! under the serial policy and morsel-parallel (2 / 4 / all-hardware
//! workers). Both are the same function; only the [`Parallelism`] differs.
//!
//! Every parallel variant asserts, once before timing, that its output is
//! byte-identical to the serial policy's.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mlcs_bench::{db_with, synth_table};
use mlcs_columnar::exec::{self, AggCall, AggFunc, JoinType, Parallelism, SortKey};
use mlcs_columnar::expr::{BinaryOp, EvalContext, Expr};
use mlcs_columnar::parallel::hardware_threads;
use mlcs_columnar::{Batch, Column, Value};

const ROWS: usize = 1_000_000;

/// Worker counts to benchmark: 2, 4, and all hardware threads, deduplicated
/// and capped at what the machine actually has.
fn thread_counts() -> Vec<usize> {
    let hw = hardware_threads();
    let mut counts: Vec<usize> = [2, 4, hw].into_iter().filter(|&t| t > 1 && t <= hw).collect();
    counts.dedup();
    counts
}

/// The policy the parallel variants run under: always engage (threshold 1)
/// with 64K-row morsels.
fn par(threads: usize) -> Parallelism {
    Parallelism { threads, threshold: 1, morsel_rows: 64 * 1024, deadline: None }
}

/// The policies each operator is timed under, with the benchmark-name
/// suffix of each: serial first (its output is the reference the others
/// are checked against), then one per worker count.
fn policies() -> Vec<(String, Parallelism)> {
    let mut out = vec![(String::new(), Parallelism::serial())];
    out.extend(thread_counts().into_iter().map(|t| (format!("_par{t}"), par(t))));
    out
}

/// Row-by-row equality with a relative tolerance for doubles — the parallel
/// aggregate sums float partials per morsel, a different (equally valid)
/// association than the serial fold.
fn assert_batches_close(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row count differs");
    for r in 0..a.rows() {
        for (va, vb) in a.row(r).iter().zip(&b.row(r)) {
            match (va, vb) {
                (Value::Float64(x), Value::Float64(y)) => {
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= tol, "{what}: row {r} differs: {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "{what}: row {r} differs"),
            }
        }
    }
}

fn filter_bench(c: &mut Criterion) {
    let batch = synth_table(ROWS, 1).expect("synth");
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    // ~10% selectivity on an i32 column.
    let pred = Expr::binary(BinaryOp::Lt, Expr::col(2), Expr::lit(100_000i32));
    let serial = exec::filter(&EvalContext::new(&batch, None), &pred, Parallelism::serial())
        .expect("filter");
    for (suffix, policy) in policies() {
        let out = exec::filter(&EvalContext::new(&batch, None), &pred, policy).expect("filter");
        assert_eq!(out, serial, "parallel filter must match serial");
        group.bench_function(format!("filter_1m_10pct{suffix}"), |b| {
            b.iter(|| {
                let out =
                    exec::filter(&EvalContext::new(&batch, None), &pred, policy).expect("filter");
                assert!(out.rows() > 0);
                out
            });
        });
    }
    group.finish();
}

fn join_bench(c: &mut Criterion) {
    let probe = synth_table(ROWS, 2).expect("synth");
    // Build side: 100 keys, matching the `k` column's domain.
    let build = Batch::from_columns(vec![
        ("k", Column::from_i32s((0..100).collect())),
        ("payload", Column::from_f64s((0..100).map(|i| i as f64).collect())),
    ])
    .expect("build side");
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    let join = |policy| {
        exec::hash_join(&probe, &build, &[1], &[0], JoinType::Inner, false, policy).expect("join").0
    };
    let serial = join(Parallelism::serial());
    for (suffix, policy) in policies() {
        assert_eq!(join(policy), serial, "parallel join must match serial");
        group.bench_function(format!("hash_join_1m_x_100{suffix}"), |b| {
            b.iter(|| {
                let out = join(policy);
                assert_eq!(out.rows(), ROWS);
                out
            });
        });
    }
    group.finish();
}

fn aggregate_calls() -> Vec<AggCall> {
    vec![
        AggCall { func: AggFunc::CountStar, arg: None, distinct: false },
        AggCall { func: AggFunc::Sum, arg: Some(2), distinct: false },
        AggCall { func: AggFunc::Avg, arg: Some(3), distinct: false },
    ]
}

fn aggregate_bench(c: &mut Criterion) {
    let batch = synth_table(ROWS, 3).expect("synth");
    let calls = aggregate_calls();
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    let aggregate =
        |policy| exec::hash_aggregate(&batch, &[1], &calls, policy).expect("aggregate").0;
    let serial = aggregate(Parallelism::serial());
    for (suffix, policy) in policies() {
        assert_batches_close(&serial, &aggregate(policy), "parallel aggregate vs serial");
        group.bench_function(format!("hash_aggregate_1m_100_groups{suffix}"), |b| {
            b.iter(|| {
                let out = aggregate(policy);
                assert_eq!(out.rows(), 100);
                out
            });
        });
    }
    group.finish();
}

fn sort_bench(c: &mut Criterion) {
    let batch = synth_table(ROWS, 5).expect("synth");
    // Low-cardinality primary key plus a tiebreaker column exercises both
    // the comparator and the merge phase.
    let keys = [SortKey::asc(1), SortKey::asc(2)];
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    let sort = |policy| exec::sort(&batch, &keys, policy).expect("sort").0;
    let serial = sort(Parallelism::serial());
    for (suffix, policy) in policies() {
        assert_eq!(sort(policy), serial, "parallel sort must match serial");
        group.bench_function(format!("sort_1m_two_keys{suffix}"), |b| {
            b.iter(|| {
                let out = sort(policy);
                assert_eq!(out.rows(), ROWS);
                out
            });
        });
    }
    group.finish();
}

fn sql_end_to_end(c: &mut Criterion) {
    let db = db_with("t", synth_table(ROWS, 4).expect("synth")).expect("db");
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    db.set_threads(1);
    group.bench_function("sql_group_by_1m", |b| {
        b.iter(|| {
            let out =
                db.query("SELECT k, COUNT(*) AS n, AVG(x) AS mx FROM t GROUP BY k").expect("query");
            assert_eq!(out.rows(), 100);
            out
        });
    });
    db.set_threads(0); // hardware default
    db.set_parallel_threshold(1);
    group.bench_function("sql_group_by_1m_par", |b| {
        b.iter(|| {
            let out =
                db.query("SELECT k, COUNT(*) AS n, AVG(x) AS mx FROM t GROUP BY k").expect("query");
            assert_eq!(out.rows(), 100);
            out
        });
    });
    group.finish();
}

criterion_group!(benches, filter_bench, join_bench, aggregate_bench, sort_bench, sql_end_to_end);
criterion_main!(benches);
