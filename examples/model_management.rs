//! Model management and ensemble learning in SQL (paper §2.2, §3.3): train
//! a family of models into one `models` table, score them, query the table
//! for a leaderboard and the best model, cross-validate, and combine every
//! stored model into ensembles — each step one SQL statement.
//!
//! Run with: `cargo run --release --example model_management`
//!
//! Exits non-zero if a statement fails or an ensemble's answer disagrees
//! with the per-model predictions it prints.

use mlcs::columnar::{Batch, Database};

/// The ensemble queries: majority vote, highest confidence and
/// accuracy-weighted vote, in that order.
const ENSEMBLES: &str = include_str!("ensembles.sql");

/// The model families trained, as `(name, algorithm, parameter)`.
const FAMILIES: [(&str, &str, i64); 5] = [
    ("rf_16", "random_forest", 16),
    ("tree_d6", "decision_tree", 6),
    ("logreg", "logistic_regression", 200),
    ("nb", "gaussian_nb", 0),
    ("knn_5", "knn", 5),
];

/// Training rows: three of every four. The rest are the test rows.
const TRAIN: &str = "id % 4 <> 0";
const TEST: &str = "id % 4 = 0";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    mlcs::mlcore::register_ml_udfs(&db);

    // A noisy two-class dataset.
    db.execute("CREATE TABLE obs (id BIGINT, a DOUBLE, b DOUBLE, label INTEGER)")?;
    let mut rows = Vec::new();
    for i in 0..600 {
        let cls = i % 2;
        let noise = |step: usize| ((i * step) % 300) as f64 / 100.0 - 1.5;
        let center = if cls == 0 { -1.0 } else { 1.0 };
        rows.push(format!("({i}, {}, {}, {cls})", center + noise(73), center + noise(37)));
    }
    db.execute(&format!("INSERT INTO obs VALUES {}", rows.join(", ")))?;

    // One table holds every model: its BLOB beside its metadata.
    db.execute(
        "CREATE TABLE models (id BIGINT, name VARCHAR, algorithm VARCHAR, parameters VARCHAR,
                              train_rows BIGINT, classifier BLOB, accuracy DOUBLE)",
    )?;
    println!("Training five model families on the training split...");
    for (id, (name, algorithm, param)) in FAMILIES.iter().enumerate() {
        db.execute(&format!(
            "INSERT INTO models
             SELECT {id}, '{name}', algorithm, parameters, train_rows, classifier, NULL
             FROM train_model('{algorithm}', (SELECT a, b FROM obs WHERE {TRAIN}),
                              (SELECT label FROM obs WHERE {TRAIN}), {param})"
        ))?;
        // Score it on the held-out rows and store the score beside it.
        db.execute(&format!(
            "UPDATE models SET accuracy = (
               SELECT accuracy FROM evaluate((SELECT a, b FROM obs WHERE {TEST}),
                                             (SELECT label FROM obs WHERE {TEST}),
                                             (SELECT classifier FROM models WHERE name = '{name}')))
             WHERE name = '{name}'"
        ))?;
    }

    // Meta-analysis: plain SQL over the models table.
    let show = |title: &str, sql: &str| -> Result<Batch, mlcs::columnar::DbError> {
        let out = db.query(sql)?;
        print!("\n{title}:\n{}", out.pretty());
        Ok(out)
    };
    show(
        "Leaderboard",
        "SELECT name, algorithm, parameters, train_rows, accuracy
         FROM models ORDER BY accuracy DESC, name",
    )?;
    show(
        "Storage cost per model",
        "SELECT name, OCTET_LENGTH(classifier) AS blob_bytes, accuracy
         FROM models ORDER BY blob_bytes DESC, name",
    )?;

    // Five probe points, three of them where the models disagree,
    // classified by the best model by stored accuracy.
    db.execute("CREATE TABLE probe (pid BIGINT, a DOUBLE, b DOUBLE)")?;
    db.execute(
        "INSERT INTO probe VALUES (0, -1.5, -1.0), (1, 1.5, 1.0), (2, -0.6, 0.4),
                                  (3, -0.8, 0.8), (4, 0.8, -0.8)",
    )?;
    const BEST: &str = "FROM models ORDER BY accuracy DESC, name LIMIT 1";
    show(
        "Best model by stored accuracy, applied to the probes",
        &format!(
            "SELECT (SELECT name {BEST}) AS model, pid,
                    predict(a, b, (SELECT classifier {BEST})) AS label
             FROM probe ORDER BY pid"
        ),
    )?;

    // Cross-validation in SQL (the paper's §3 "Training and Verification").
    show(
        "5-fold cross-validation of the forest",
        "SELECT fold, accuracy FROM cross_validate('random_forest',
           (SELECT a, b FROM obs), (SELECT label FROM obs), 5, 16)",
    )?;

    // Every stored model applied to every probe: one query, in either join
    // order (each distinct model is looked up and applied once).
    let votes = show(
        "Per-model predictions",
        "SELECT p.pid, m.name, predict(p.a, p.b, m.classifier) AS pred,
                predict_confidence(p.a, p.b, m.classifier) AS conf, m.accuracy
         FROM probe p CROSS JOIN models m ORDER BY p.pid, m.id",
    )?;

    // Ensembles over every stored model (paper §3.3).
    let strategies = ["majority vote", "highest confidence", "accuracy-weighted"];
    let queries = ENSEMBLES.split(';').map(str::trim).filter(|q| !q.is_empty());
    for (k, (strategy, sql)) in strategies.iter().zip(queries).enumerate() {
        let answers = db.query(sql)?;
        let labels = column_i64(&answers, 1)?;
        println!("  {strategy:<20} {labels:?}");
        let expected = column_i64(&answers, 0)?
            .into_iter()
            .map(|pid| combine(&votes, pid).map(|all| all[k]))
            .collect::<Result<Vec<i64>, String>>()?;
        if labels != expected {
            return Err(format!(
                "{strategy}: SQL says {labels:?}, per-model rows say {expected:?}"
            )
            .into());
        }
    }
    Ok(())
}

/// Column `c` of `batch` as integers.
fn column_i64(batch: &Batch, c: usize) -> Result<Vec<i64>, String> {
    (0..batch.rows())
        .map(|r| batch.column(c).i64_at(r).ok_or(format!("row {r}: NULL in column {c}")))
        .collect()
}

/// The three ensemble answers for probe `pid`, recomputed from the
/// per-model rows `(pid, name, pred, conf, accuracy)` in model order:
/// `[majority, most confident, accuracy-weighted]`, ties to the smallest
/// label.
fn combine(votes: &Batch, pid: i64) -> Result<[i64; 3], String> {
    let mut rows = Vec::new();
    for r in (0..votes.rows()).filter(|&r| votes.column(0).i64_at(r) == Some(pid)) {
        let pred = votes.column(2).i64_at(r).ok_or("NULL prediction")?;
        let conf = votes.column(3).value(r).as_f64().ok_or("NULL confidence")?;
        let weight = votes.column(4).value(r).as_f64().ok_or("NULL accuracy")?;
        rows.push((pred, conf, weight));
    }
    // The label with the highest total `score`, the smallest on a tie.
    let best = |score: &dyn Fn(&(i64, f64, f64)) -> f64| {
        let total = |label: i64| {
            rows.iter().filter(|v| v.0 == label).map(score).fold(0.0, |a: f64, s| a + s)
        };
        rows.iter().map(|v| v.0).min_by(|a, b| total(*b).total_cmp(&total(*a)).then(a.cmp(b)))
    };
    let top = rows.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);
    let confident = rows.iter().filter(|v| v.1 == top).map(|v| v.0).min();
    match (best(&|_| 1.0), confident, best(&|v| v.2)) {
        (Some(m), Some(c), Some(w)) => Ok([m, c, w]),
        _ => Err(format!("probe {pid} has no per-model rows")),
    }
}
