//! Cross-crate integration test: the paper's complete workflow, end to
//! end, through the public API — Listings 1 and 2, model storage,
//! meta-analysis, and ensemble classification.

mod common;

use common::ScratchDir;
use mlcs::columnar::{Database, Value};
use mlcs::mlcore::register_ml_udfs;

/// A database with a separable 2-feature dataset, labels 100/200.
fn setup(n: usize) -> Database {
    let db = Database::new();
    register_ml_udfs(&db);
    db.execute("CREATE TABLE obs (id BIGINT, a DOUBLE, b DOUBLE, label INTEGER)").unwrap();
    let mut rows = Vec::new();
    for i in 0..n {
        let (c, label) = if i % 2 == 0 { (-2.0, 100) } else { (2.0, 200) };
        let j = (i as f64) * 0.003;
        rows.push(format!("({i}, {}, {}, {label})", c + j, c - j));
    }
    db.execute(&format!("INSERT INTO obs VALUES {}", rows.join(", "))).unwrap();
    db
}

#[test]
fn listing1_listing2_full_cycle() {
    let db = setup(300);

    // Listing 1: train a random forest inside the database; store the
    // returned row (classifier BLOB + metadata) as the models table.
    db.execute(
        "CREATE TABLE models AS
         SELECT * FROM train((SELECT a, b FROM obs), (SELECT label FROM obs), 16)",
    )
    .unwrap();
    assert_eq!(
        db.query_value("SELECT algorithm FROM models").unwrap(),
        Value::Varchar("random_forest".into())
    );
    let blob_bytes =
        db.query_value("SELECT OCTET_LENGTH(classifier) FROM models").unwrap().as_i64().unwrap();
    assert!(blob_bytes > 100, "model blob is only {blob_bytes} bytes");

    // Listing 2: classify using the stored model, fully in SQL.
    let acc = db
        .query_value(
            "SELECT AVG(CASE WHEN predict(a, b, (SELECT classifier FROM models)) = label
                             THEN 1.0 ELSE 0.0 END)
             FROM obs",
        )
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(acc > 0.98, "in-SQL accuracy {acc}");
}

#[test]
fn insert_select_from_train_then_predict() {
    let db = setup(100);
    db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB, params VARCHAR)").unwrap();
    db.execute(
        "INSERT INTO models
         SELECT 'rf8', classifier, parameters
         FROM train((SELECT a, b FROM obs), (SELECT label FROM obs), 8)",
    )
    .unwrap();
    let n = db
        .query(
            "SELECT predict(a, b, (SELECT classifier FROM models WHERE name = 'rf8'))
             FROM obs",
        )
        .unwrap();
    assert_eq!(n.rows(), 100);
}

#[test]
fn multiple_models_meta_analysis_and_best_selection() {
    let db = setup(240);
    // Train three different families through the generic trainer.
    db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB)").unwrap();
    for (name, algo, param) in
        [("rf", "random_forest", 8), ("nb", "gaussian_nb", 0), ("knn", "knn", 3)]
    {
        db.execute(&format!(
            "INSERT INTO models
             SELECT '{name}', classifier
             FROM train_model('{algo}', (SELECT a, b FROM obs),
                              (SELECT label FROM obs), {param})"
        ))
        .unwrap();
    }
    assert_eq!(db.query_value("SELECT COUNT(*) FROM models").unwrap(), Value::Int64(3));
    // Apply every stored model to the same rows via SQL and compare: the
    // paper's "classify the same data using multiple models".
    for name in ["rf", "nb", "knn"] {
        let acc = db
            .query_value(&format!(
                "SELECT AVG(CASE WHEN predict(a, b,
                        (SELECT classifier FROM models WHERE name = '{name}')) = label
                        THEN 1.0 ELSE 0.0 END) FROM obs"
            ))
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(acc > 0.95, "{name} accuracy {acc}");
    }
}

#[test]
fn confidence_based_selection_in_sql() {
    let db = setup(200);
    db.execute(
        "CREATE TABLE m1 AS SELECT * FROM train((SELECT a, b FROM obs),
            (SELECT label FROM obs), 4)",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE m2 AS SELECT * FROM train_model('gaussian_nb',
            (SELECT a, b FROM obs), (SELECT label FROM obs), 0)",
    )
    .unwrap();
    // Per-row: pick the more confident model's answer (paper §3.3).
    let out = db
        .query(
            "SELECT CASE WHEN predict_confidence(a, b, (SELECT classifier FROM m1))
                          >= predict_confidence(a, b, (SELECT classifier FROM m2))
                    THEN predict(a, b, (SELECT classifier FROM m1))
                    ELSE predict(a, b, (SELECT classifier FROM m2)) END AS pred,
                    label
             FROM obs",
        )
        .unwrap();
    let correct =
        (0..out.rows()).filter(|&r| out.row(r)[0].as_i64() == out.row(r)[1].as_i64()).count();
    assert!(correct as f64 / out.rows() as f64 > 0.95);
}

#[test]
fn models_survive_database_persistence() {
    let db = setup(100);
    db.execute(
        "CREATE TABLE models AS SELECT * FROM train((SELECT a, b FROM obs),
            (SELECT label FROM obs), 8)",
    )
    .unwrap();
    let before = db
        .query("SELECT predict(a, b, (SELECT classifier FROM models)) AS p FROM obs ORDER BY 1")
        .unwrap();

    let scratch = ScratchDir::new("mlcs_it_persist");
    let dir = scratch.join("db");
    mlcs::columnar::persist::save_database(&db, &dir).unwrap();
    let db2 = Database::new();
    mlcs::columnar::persist::load_database(&db2, &dir).unwrap();
    register_ml_udfs(&db2);
    let after = db2
        .query("SELECT predict(a, b, (SELECT classifier FROM models)) AS p FROM obs ORDER BY 1")
        .unwrap();
    assert_eq!(before, after, "reloaded model must predict identically");
}

#[test]
fn preprocessing_in_sql_feeds_training() {
    // The paper's §3 point: cleaning happens in SQL before the UDF.
    let db = setup(100);
    db.execute("INSERT INTO obs VALUES (9999, NULL, 0.0, 100)").unwrap();
    // Training on the raw table fails loudly because of the NULL...
    let err = db.execute("SELECT * FROM train((SELECT a, b FROM obs), (SELECT label FROM obs), 4)");
    assert!(err.is_err(), "NULL features must be rejected, not learned from");
    // ...and succeeds after SQL cleaning.
    db.execute(
        "CREATE TABLE trained AS
         SELECT * FROM train((SELECT a, b FROM obs WHERE a IS NOT NULL),
                             (SELECT label FROM obs WHERE a IS NOT NULL), 4)",
    )
    .unwrap();
    assert_eq!(db.query_value("SELECT train_rows FROM trained").unwrap(), Value::Int64(100));
}
