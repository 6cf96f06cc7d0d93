//! Exp 4 (ablation; paper §3.3): ensembles over stored models as SQL —
//! one model vs. majority vote vs. highest confidence vs. accuracy-weighted
//! vote, as the `models` table grows. Each ensemble is one query of
//! `examples/ensembles.sql` over a 10 000-row probe table, run as written
//! (`models m CROSS JOIN probe p`, models first) and with the join's sides
//! swapped (probe first), where consecutive rows hold different models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlcs_bench::blob_training_data;
use mlcs_columnar::{Column, Database, Table};

/// Majority vote, highest confidence and accuracy-weighted vote.
const ENSEMBLES: &str = include_str!("../../../examples/ensembles.sql");

/// Loads `rows` two-feature blob rows as `name (pid BIGINT, a DOUBLE,
/// b DOUBLE, label BIGINT)`.
fn load(db: &Database, name: &str, rows: usize, seed: u64) {
    let (x, y) = blob_training_data(rows, 2, seed);
    let batch = mlcs_columnar::Batch::from_columns(vec![
        ("pid", Column::from_i64s((0..rows as i64).collect())),
        ("a", Column::from_f64s((0..rows).map(|r| x.get(r, 0)).collect())),
        ("b", Column::from_f64s((0..rows).map(|r| x.get(r, 1)).collect())),
        ("label", Column::from_i64s(y)),
    ])
    .expect("batch");
    db.catalog().put_table(Table::from_batch(name, batch), false).expect("table");
}

/// A database whose `models` table holds `n` models of three families,
/// each trained on a different nine tenths of the rows and scored on the
/// rest, beside a 10 000-row `probe` table.
fn models_db(n: usize) -> Database {
    let db = Database::new();
    mlcs_core::register_ml_udfs(&db);
    load(&db, "obs", 4_000, 11);
    load(&db, "probe", 10_000, 99);
    db.execute("CREATE TABLE models (id BIGINT, classifier BLOB, accuracy DOUBLE)").expect("ddl");
    for i in 0..n {
        let (algorithm, param) =
            [("random_forest", 8), ("decision_tree", 6), ("gaussian_nb", 0)][i % 3];
        let (train, test) = (format!("pid % 10 <> {i}"), format!("pid % 10 = {i}"));
        db.execute(&format!(
            "INSERT INTO models SELECT {i}, classifier, NULL
             FROM train_model('{algorithm}', (SELECT a, b FROM obs WHERE {train}),
                              (SELECT label FROM obs WHERE {train}), {param})"
        ))
        .expect("train");
        db.execute(&format!(
            "UPDATE models SET accuracy = (
               SELECT accuracy FROM evaluate((SELECT a, b FROM obs WHERE {test}),
                                             (SELECT label FROM obs WHERE {test}),
                                             (SELECT classifier FROM models WHERE id = {i})))
             WHERE id = {i}"
        ))
        .expect("evaluate");
    }
    db
}

fn ensemble_strategies(c: &mut Criterion) {
    let strategies = ["majority_vote", "highest_confidence", "accuracy_weighted"];
    let queries: Vec<&str> =
        ENSEMBLES.split(';').map(str::trim).filter(|q| !q.is_empty()).collect();
    let mut group = c.benchmark_group("ensemble_sql_10k");
    group.sample_size(10);
    for n_models in [1usize, 3, 5, 9] {
        let db = models_db(n_models);
        group.bench_with_input(BenchmarkId::new("single_model", n_models), &db, |b, db| {
            b.iter(|| {
                db.query(
                    "SELECT predict(a, b, (SELECT classifier FROM models WHERE id = 0)) FROM probe",
                )
                .expect("single")
            });
        });
        for (strategy, sql) in strategies.iter().zip(&queries) {
            group.bench_with_input(BenchmarkId::new(*strategy, n_models), &db, |b, db| {
                b.iter(|| db.query(sql).expect(strategy));
            });
            let probe_first =
                sql.replace("models m CROSS JOIN probe p", "probe p CROSS JOIN models m");
            let id = BenchmarkId::new(format!("{strategy}_probe_first"), n_models);
            group.bench_with_input(id, &db, |b, db| {
                b.iter(|| db.query(&probe_first).expect(strategy));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ensemble_strategies);
criterion_main!(benches);
