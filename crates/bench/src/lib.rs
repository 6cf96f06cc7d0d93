//! Shared helpers for the benchmark harness.

use mlcs_columnar::{Batch, Column, Database, DbResult, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic numeric table for the protocol benchmarks:
/// `id BIGINT, k INTEGER (low cardinality), v INTEGER, x DOUBLE`.
pub fn synth_table(rows: usize, seed: u64) -> DbResult<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let id: Vec<i64> = (0..rows as i64).collect();
    let k: Vec<i32> = (0..rows).map(|_| rng.gen_range(0..100)).collect();
    let v: Vec<i32> = (0..rows).map(|_| rng.gen_range(0..1_000_000)).collect();
    let x: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
    Batch::from_columns(vec![
        ("id", Column::from_i64s(id)),
        ("k", Column::from_i32s(k)),
        ("v", Column::from_i32s(v)),
        ("x", Column::from_f64s(x)),
    ])
}

/// Loads a batch as a named table into a fresh database.
pub fn db_with(name: &str, batch: Batch) -> DbResult<Database> {
    let db = Database::new();
    db.catalog().put_table(Table::from_batch(name, batch), false)?;
    Ok(db)
}

/// A trained two-blob dataset for ML benchmarks, as `(features, labels)`.
pub fn blob_training_data(rows: usize, features: usize, seed: u64) -> (mlcs_ml::Matrix, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows * features);
    let mut labels = Vec::with_capacity(rows);
    for i in 0..rows {
        let cls = (i % 2) as i64;
        let center = if cls == 0 { -2.0 } else { 2.0 };
        for _ in 0..features {
            data.push(center + rng.gen_range(-1.5..1.5));
        }
        labels.push(cls + 1);
    }
    (mlcs_ml::Matrix::new(data, rows, features).expect("consistent shape"), labels)
}
