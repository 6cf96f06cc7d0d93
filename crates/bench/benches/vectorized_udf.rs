//! Exp 5 (ablation; paper §1): vectorized vs. scalar UDF invocation.
//!
//! The paper's core architectural claim is that handing UDFs whole columns
//! beats calling them once per value. This bench predicts with the same
//! trained model over 50k rows with the input split into chunks of 1 (the
//! row-at-a-time regime of traditional scalar UDFs), 1k, 16k, and the full
//! column, two ways: `scalar_udf` revives the model from its BLOB on every
//! invocation (what a scalar UDF without engine support pays), and
//! `predict_udf` calls the engine's `predict`, which revives it once
//! through the shared model cache and so measures pure invocation
//! granularity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mlcs_bench::blob_training_data;
use mlcs_columnar::Column;
use mlcs_columnar::ScalarUdf;
use mlcs_core::bridge::matrix_from_columns;
use mlcs_core::stored::StoredModel;
use mlcs_core::udf::PredictUdf;
use mlcs_ml::naive_bayes::GaussianNb;
use mlcs_ml::Model;
use std::sync::Arc;

fn chunked_invocation(c: &mut Criterion) {
    const ROWS: usize = 50_000;
    let (x, y) = blob_training_data(2_000, 2, 3);
    let sm = StoredModel::train(Model::GaussianNb(GaussianNb::new()), &x, &y).expect("train");
    let blob = sm.to_blob();
    let (probe, _) = blob_training_data(ROWS, 2, 5);
    // Columnar probe data, as the engine would hand it to the UDF.
    let col_a = Column::from_f64s((0..ROWS).map(|r| probe.get(r, 0)).collect());
    let col_b = Column::from_f64s((0..ROWS).map(|r| probe.get(r, 1)).collect());
    let model_col = Arc::new(Column::from_blobs([blob.as_slice()]));
    let udf = PredictUdf::default();
    // One invocation over `len` rows from `start`, returning the labels.
    let scalar_udf = |start: usize, len: usize| -> Vec<i64> {
        let sm = StoredModel::from_blob(&blob).expect("decode");
        let x = matrix_from_columns(&[&col_a.slice(start, len), &col_b.slice(start, len)])
            .expect("matrix");
        sm.predict(&x).expect("predict")
    };
    let predict_udf = |start: usize, len: usize| -> Vec<i64> {
        let args = vec![
            Arc::new(col_a.slice(start, len)),
            Arc::new(col_b.slice(start, len)),
            model_col.clone(),
        ];
        udf.invoke(&args).expect("invoke").i64s().expect("labels").to_vec()
    };

    let mut group = c.benchmark_group("udf_invocation_granularity_50k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    for chunk in [1usize, 1_024, 16_384, ROWS] {
        let size = if chunk == ROWS { "full_column".to_owned() } else { format!("chunk_{chunk}") };
        for (name, invoke) in [
            ("scalar_udf", &scalar_udf as &dyn Fn(usize, usize) -> Vec<i64>),
            ("predict_udf", &predict_udf),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &size), &chunk, |b, &chunk| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(ROWS);
                    let mut start = 0;
                    while start < ROWS {
                        let len = chunk.min(ROWS - start);
                        out.extend(invoke(start, len));
                        start += len;
                    }
                    assert_eq!(out.len(), ROWS);
                    out
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, chunked_invocation);
criterion_main!(benches);
