//! Compressed-execution microbenchmarks: the paper's "operate on encoded
//! data" claim, isolated per kernel over 1M rows.
//!
//! Three comparisons, each asserting result equality once before timing:
//!
//! - **filter on dictionary codes vs plain** — a comparison over a
//!   low-NDV column pays one compare per *distinct value* (LUT build)
//!   plus one table lookup per row, vs one compare per row;
//! - **fused kernel vs tree-walk** — the same conjunctive predicate
//!   through the single-pass fused kernel and through the vectorized
//!   expression evaluator with its intermediate selection vectors;
//! - **RLE aggregate vs plain** — ungrouped `SUM`/`MIN`/`MAX`/`COUNT`
//!   folding whole runs instead of rows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mlcs_columnar::exec::{self, AggCall, AggFunc, Parallelism};
use mlcs_columnar::expr::{eval_predicate, BinaryOp, EvalContext, Expr};
use mlcs_columnar::{Batch, Column, Encoding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 1_000_000;

/// A low-NDV i32 column (100 distinct values, uniform) plus a double — the
/// dictionary's home turf.
fn low_ndv_batch(seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let k: Vec<i32> = (0..ROWS).map(|_| rng.gen_range(0..100)).collect();
    let x: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(0.0..1.0)).collect();
    Batch::from_columns(vec![("k", Column::from_i32s(k)), ("x", Column::from_f64s(x))])
        .expect("batch")
}

/// The same batch with column `idx` re-encoded.
fn with_encoding(batch: &Batch, idx: usize, enc: Encoding) -> Batch {
    let cols: Vec<(&str, Column)> = batch
        .schema()
        .fields()
        .iter()
        .zip(batch.columns())
        .enumerate()
        .map(|(i, (f, c))| {
            let col = if i == idx { c.encode(enc) } else { c.as_ref().clone() };
            (f.name.as_str(), col)
        })
        .collect();
    Batch::from_columns(cols).expect("encoded batch")
}

/// Filter on dictionary codes vs plain values: `k < 10` (~10% selectivity)
/// compares 100 distinct values once each, then answers rows by lookup.
fn filter_on_codes(c: &mut Criterion) {
    let plain = low_ndv_batch(11);
    let dict = with_encoding(&plain, 0, Encoding::Dict);
    let pred = Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(10i32));
    let (want, _) = exec::filter_sel(&EvalContext::new(&plain, None), &pred, Parallelism::serial())
        .expect("plain filter");
    let (got, stats) =
        exec::filter_sel(&EvalContext::new(&dict, None), &pred, Parallelism::serial())
            .expect("dict filter");
    assert_eq!(want, got, "dict filter must select the same rows");
    assert!(stats.fused, "dict comparison must take the fused LUT path");
    let mut group = c.benchmark_group("encoded_kernels");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("filter_1m_plain", |b| {
        b.iter(|| {
            exec::filter_sel(&EvalContext::new(&plain, None), &pred, Parallelism::serial())
                .expect("filter")
                .0
                .len()
        });
    });
    group.bench_function("filter_1m_dict_codes", |b| {
        b.iter(|| {
            exec::filter_sel(&EvalContext::new(&dict, None), &pred, Parallelism::serial())
                .expect("filter")
                .0
                .len()
        });
    });
    group.finish();
}

/// Fused single-pass kernel vs the vectorized tree-walk evaluator, over
/// the conjunction `k < 50 AND x < 0.5` (~25% selectivity).
fn fused_vs_tree_walk(c: &mut Criterion) {
    let batch = low_ndv_batch(12);
    let pred = Expr::binary(
        BinaryOp::And,
        Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(50i32)),
        Expr::binary(BinaryOp::Lt, Expr::col(1), Expr::lit(0.5f64)),
    );
    let (fused, stats) =
        exec::filter_sel(&EvalContext::new(&batch, None), &pred, Parallelism::serial())
            .expect("fused");
    assert!(stats.fused, "conjunction of comparisons must fuse");
    let ctx = EvalContext::new(&batch, None);
    let walked = eval_predicate(&ctx, &pred).expect("tree-walk");
    assert_eq!(fused, walked, "fused kernel must select the same rows");
    let mut group = c.benchmark_group("encoded_kernels");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("predicate_1m_fused", |b| {
        b.iter(|| {
            exec::filter_sel(&EvalContext::new(&batch, None), &pred, Parallelism::serial())
                .expect("fused")
                .0
                .len()
        });
    });
    group.bench_function("predicate_1m_tree_walk", |b| {
        b.iter(|| {
            let ctx = EvalContext::new(&batch, None);
            eval_predicate(&ctx, &pred).expect("tree-walk").len()
        });
    });
    group.finish();
}

/// Ungrouped aggregation over a sorted (hence few-run) column: the RLE
/// lanes fold ~100 runs where the plain path folds 1M rows.
fn rle_aggregate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let mut k: Vec<i32> = (0..ROWS).map(|_| rng.gen_range(0..100)).collect();
    k.sort_unstable();
    let plain = Batch::from_columns(vec![("k", Column::from_i32s(k))]).expect("batch");
    let rle = with_encoding(&plain, 0, Encoding::Rle);
    let calls = vec![
        AggCall { func: AggFunc::CountStar, arg: None, distinct: false },
        AggCall { func: AggFunc::Sum, arg: Some(0), distinct: false },
        AggCall { func: AggFunc::Min, arg: Some(0), distinct: false },
        AggCall { func: AggFunc::Max, arg: Some(0), distinct: false },
    ];
    let want =
        exec::hash_aggregate(&plain, &[], &calls, Parallelism::serial()).expect("plain agg").0;
    let got = exec::hash_aggregate(&rle, &[], &calls, Parallelism::serial()).expect("rle agg").0;
    assert_eq!(want, got, "RLE aggregate must match plain");
    let mut group = c.benchmark_group("encoded_kernels");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("agg_1m_plain", |b| {
        b.iter(|| {
            exec::hash_aggregate(&plain, &[], &calls, Parallelism::serial()).expect("agg").0.rows()
        });
    });
    group.bench_function("agg_1m_rle_runs", |b| {
        b.iter(|| {
            exec::hash_aggregate(&rle, &[], &calls, Parallelism::serial()).expect("agg").0.rows()
        });
    });
    group.finish();
}

criterion_group!(benches, filter_on_codes, fused_vs_tree_walk, rle_aggregate);
criterion_main!(benches);
