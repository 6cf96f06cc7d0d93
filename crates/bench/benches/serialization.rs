//! Exp 2 (ablation; paper §5.1): model (de)serialization overhead as the
//! model grows. The paper flags pickling models into BLOBs as a cost worth
//! engineering away for large models; this bench quantifies it against the
//! prediction work a revived model then performs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mlcs_bench::blob_training_data;
use mlcs_core::stored::StoredModel;
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::knn::KNearestNeighbors;
use mlcs_ml::{Matrix, Model};

fn forest_serialization(c: &mut Criterion) {
    let (x, y) = blob_training_data(2_000, 4, 42);
    let mut group = c.benchmark_group("serialize_forest");
    for trees in [1usize, 4, 16, 64, 256] {
        let sm = StoredModel::train(
            Model::RandomForest(RandomForestClassifier::new(trees).with_seed(1)),
            &x,
            &y,
        )
        .expect("train forest");
        let blob = sm.to_blob();
        group.throughput(Throughput::Bytes(blob.len() as u64));
        group.bench_with_input(BenchmarkId::new("pickle", trees), &sm, |b, sm| {
            b.iter(|| std::hint::black_box(sm.to_blob()));
        });
        group.bench_with_input(BenchmarkId::new("unpickle", trees), &blob, |b, blob| {
            b.iter(|| StoredModel::from_blob(std::hint::black_box(blob)).expect("unpickle"));
        });
        // The work a revived model then does: predicting 2k rows, for
        // scale against the (de)serialization cost.
        group.bench_with_input(BenchmarkId::new("predict2k", trees), &sm, |b, sm| {
            b.iter(|| sm.predict(std::hint::black_box(&x)).expect("predict"));
        });
    }
    group.finish();
}

fn knn_serialization(c: &mut Criterion) {
    // kNN embeds its training data: the serialization worst case.
    let mut group = c.benchmark_group("serialize_knn");
    for rows in [1_000usize, 10_000, 50_000] {
        let (x, y) = blob_training_data(rows, 8, 7);
        let sm =
            StoredModel::train(Model::Knn(KNearestNeighbors::new(5)), &x, &y).expect("train knn");
        let blob = sm.to_blob();
        group.throughput(Throughput::Bytes(blob.len() as u64));
        group.bench_with_input(BenchmarkId::new("pickle", rows), &sm, |b, sm| {
            b.iter(|| std::hint::black_box(sm.to_blob()));
        });
        group.bench_with_input(BenchmarkId::new("unpickle", rows), &blob, |b, blob| {
            b.iter(|| StoredModel::from_blob(std::hint::black_box(blob)).expect("unpickle"));
        });
    }
    group.finish();
}

/// §5.1 implemented: repeated small predictions with and without the
/// model snapshot cache. The uncached path re-deserializes the BLOB per
/// call (what the paper measured); the cached path is what every model UDF
/// does — look the bytes up in a [`mlcs_core::ModelCache`], decode once.
fn snapshot_cache(c: &mut Criterion) {
    let (x, y) = blob_training_data(2_000, 2, 9);
    let sm = StoredModel::train(
        Model::RandomForest(RandomForestClassifier::new(64).with_seed(2)),
        &x,
        &y,
    )
    .expect("train");
    let blob = sm.to_blob();
    // A small probe batch: the regime where per-call deserialization
    // dominates (think OLTP-ish point predictions in SQL).
    let probe = Matrix::new([0.5, -0.5].repeat(64), 64, 2).expect("probe");
    let cache = mlcs_core::ModelCache::default();

    let mut group = c.benchmark_group("snapshot_cache_64row_predict");
    group.bench_function("uncached_predict", |b| {
        b.iter(|| {
            let sm = StoredModel::from_blob(std::hint::black_box(&blob)).expect("decode");
            sm.predict(&probe).expect("predict")
        });
    });
    group.bench_function("cached_predict", |b| {
        b.iter(|| {
            let sm = cache.get_or_decode(std::hint::black_box(&blob)).expect("lookup");
            sm.predict(&probe).expect("predict")
        });
    });
    group.finish();
}

criterion_group!(benches, forest_serialization, knn_serialization, snapshot_cache);
criterion_main!(benches);
