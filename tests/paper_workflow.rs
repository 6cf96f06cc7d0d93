//! Cross-crate integration test: the paper's complete workflow, end to
//! end, through the public API — Listings 1 and 2, model storage,
//! meta-analysis, and ensemble classification, all in SQL.

mod common;

use common::ScratchDir;
use mlcs::columnar::{Database, Value};
use mlcs::ml::Matrix;
use mlcs::mlcore::{register_ml_udfs, StoredModel};

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

/// The ensemble queries of `examples/model_management.rs`: majority vote,
/// highest confidence and accuracy-weighted vote, in that order.
const ENSEMBLES: &str = include_str!("../examples/ensembles.sql");

#[test]
fn ensemble_queries_match_a_per_model_oracle() {
    // Overlapping classes, so the models disagree near the boundary.
    let db = Database::new();
    register_ml_udfs(&db);
    db.execute("CREATE TABLE obs (a DOUBLE, b DOUBLE, label INTEGER)").unwrap();
    let rows: Vec<String> = (0..300)
        .map(|i| {
            let (center, label) = if i % 2 == 0 { (-0.8, 100) } else { (0.8, 200) };
            let noise = |step: usize| ((i * step) % 300) as f64 / 100.0 - 1.5;
            format!("({}, {}, {label})", center + noise(73), center + noise(37))
        })
        .collect();
    db.execute(&format!("INSERT INTO obs VALUES {}", rows.join(", "))).unwrap();
    // Four families; the dyadic accuracies make weighted ties exact.
    db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB, accuracy DOUBLE)").unwrap();
    for (name, algo, param, accuracy) in [
        ("rf", "random_forest", 4, 0.75),
        ("nb", "gaussian_nb", 0, 0.5),
        ("knn", "knn", 3, 0.75),
        ("tree", "decision_tree", 3, 0.5),
    ] {
        db.execute(&format!(
            "INSERT INTO models SELECT '{name}', classifier, {accuracy}
             FROM train_model('{algo}', (SELECT a, b FROM obs), (SELECT label FROM obs), {param})"
        ))
        .unwrap();
    }
    db.execute("CREATE TABLE probe (pid BIGINT, a DOUBLE, b DOUBLE)").unwrap();
    let grid: Vec<[f64; 2]> =
        (0..21 * 21).map(|k| [(k / 21) as f64 * 0.2 - 2.0, (k % 21) as f64 * 0.2 - 2.0]).collect();
    let probes: Vec<String> =
        grid.iter().enumerate().map(|(pid, [a, b])| format!("({pid}, {a}, {b})")).collect();
    db.execute(&format!("INSERT INTO probe VALUES {}", probes.join(", "))).unwrap();

    // The oracle: each decoded model's own predictions, in table order.
    let stored = db.query("SELECT classifier, accuracy FROM models").unwrap();
    let x = Matrix::from_rows(&grid).unwrap();
    let per_model: Vec<(Vec<i64>, Vec<f64>, f64)> = (0..stored.rows())
        .map(|m| {
            let row = stored.row(m);
            let model = StoredModel::from_blob(row[0].as_blob().unwrap()).unwrap();
            (model.predict(&x).unwrap(), model.confidence(&x).unwrap(), row[1].as_f64().unwrap())
        })
        .collect();
    let (mut disagreements, mut vote_ties) = (0, 0);
    let mut oracle = [Vec::new(), Vec::new(), Vec::new()];
    for pid in 0..grid.len() {
        let votes: Vec<(i64, f64, f64)> =
            per_model.iter().map(|(pred, conf, acc)| (pred[pid], conf[pid], *acc)).collect();
        // The label with the highest total weight, the smallest on a tie.
        let best = |weight: &dyn Fn(f64) -> f64| {
            let total =
                |l: i64| votes.iter().filter(|v| v.0 == l).fold(0.0, |s: f64, v| s + weight(v.2));
            votes.iter().map(|v| v.0).min_by(|a, b| total(*b).total_cmp(&total(*a)).then(a.cmp(b)))
        };
        let top = votes.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);
        oracle[0].push(best(&|_| 1.0).unwrap());
        oracle[1].push(votes.iter().filter(|v| v.1 == top).map(|v| v.0).min().unwrap());
        oracle[2].push(best(&|acc| acc).unwrap());
        let for_first = votes.iter().filter(|v| v.0 == votes[0].0).count();
        disagreements += usize::from(for_first < votes.len());
        vote_ties += usize::from(2 * for_first == votes.len());
    }
    assert!(disagreements > 0 && vote_ties > 0, "{disagreements} disagreements, {vote_ties} ties");

    let queries = ENSEMBLES.split(';').map(str::trim).filter(|q| !q.is_empty());
    let mut ran = 0;
    for (k, sql) in queries.enumerate() {
        let out = db.query(sql).unwrap();
        let pids: Vec<i64> = (0..out.rows()).map(|r| out.row(r)[0].as_i64().unwrap()).collect();
        assert_eq!(pids, (0..grid.len() as i64).collect::<Vec<_>>(), "query {k}");
        let labels: Vec<i64> = (0..out.rows()).map(|r| out.row(r)[1].as_i64().unwrap()).collect();
        assert_eq!(labels, oracle[k], "query {k}:\n{sql}");
        ran += 1;
    }
    assert_eq!(ran, 3);
}

#[test]
fn train_is_train_model_with_a_random_forest() {
    let db = setup(200);
    let data = "(SELECT a, b FROM obs), (SELECT label FROM obs), 8";
    let run = |trainer: String| db.query(&trainer).unwrap().row(0);
    let train = run(format!("SELECT classifier, parameters FROM train({data})"));
    let by_name =
        run(format!("SELECT classifier, parameters FROM train_model('random_forest', {data})"));
    assert_eq!(train[0], by_name[0], "the same classifier bytes");
    assert_eq!(train[1], Value::Varchar("n_estimators=8".into()));
    assert_eq!(by_name[1], Value::Varchar("algorithm=random_forest,param=8".into()));
}

/// Listing 1's training query is a table-function argument: it gets the
/// same rule rewrites, constant folding and filter pushdown, as it would
/// at top level.
#[test]
fn training_query_arguments_get_the_rule_rewrites() {
    let db = setup(10);
    let plan = |sql: String| -> Vec<String> {
        let out = db.query(&format!("EXPLAIN {sql}")).unwrap();
        (0..out.rows()).map(|r| out.row(r)[0].as_str().unwrap().to_owned()).collect()
    };
    let query = "SELECT a, b FROM (SELECT a, b, id FROM obs) s WHERE 1 + 1 = 2 AND a > 0";
    let top = plan(query.to_owned());
    let filter = top.iter().position(|l| l.trim_start().starts_with("Filter")).unwrap();
    assert!(filter > 1, "the filter sits below both projections:\n{top:#?}");
    let train =
        plan(format!("SELECT * FROM train(({query}), (SELECT label FROM obs WHERE a > 0), 4)"));
    assert!(!train.iter().any(|l| l.contains("1 + 1")), "{train:#?}");
    // Below the output projection and the table function, the first
    // argument's plan is the top-level plan, two levels deeper.
    let first: Vec<&str> = train[2..2 + top.len()].iter().map(|l| &l[4..]).collect();
    assert_eq!(first, top.iter().map(String::as_str).collect::<Vec<_>>(), "{train:#?}");
}
