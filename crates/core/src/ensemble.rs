//! Ensemble classification (paper §3.3) is plain SQL over a `models`
//! table: the three queries of `examples/ensembles.sql`, majority vote,
//! highest confidence and accuracy-weighted vote, run on the model UDFs of
//! this crate. These tests pin their answers on easy data.

#[cfg(test)]
mod tests {
    use crate::register_ml_udfs;
    use mlcs_columnar::Database;

    const ENSEMBLES: &str = include_str!("../../../examples/ensembles.sql");

    /// The query of `examples/ensembles.sql` at `index`: 0 majority vote,
    /// 1 highest confidence, 2 accuracy-weighted vote.
    fn query(index: usize) -> &'static str {
        ENSEMBLES.split(';').map(str::trim).filter(|q| !q.is_empty()).nth(index).unwrap()
    }

    /// Two well-separated classes, labels 7 and 9, as `obs` and as the
    /// probe rows, plus an empty `models` table.
    fn db_with_blobs() -> (Database, Vec<i64>) {
        let db = Database::new();
        register_ml_udfs(&db);
        db.execute("CREATE TABLE obs (a DOUBLE, b DOUBLE, label INTEGER)").unwrap();
        db.execute("CREATE TABLE probe (pid BIGINT, a DOUBLE, b DOUBLE)").unwrap();
        db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB, accuracy DOUBLE)").unwrap();
        let (mut obs, mut probe, mut y) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..30 {
            let (center, label) = if i % 2 == 0 { (-2.0, 7) } else { (2.0, 9) };
            let (a, b) = (center + i as f64 * 0.01, center - i as f64 * 0.01);
            obs.push(format!("({a}, {b}, {label})"));
            probe.push(format!("({i}, {a}, {b})"));
            y.push(label);
        }
        db.execute(&format!("INSERT INTO obs VALUES {}", obs.join(", "))).unwrap();
        db.execute(&format!("INSERT INTO probe VALUES {}", probe.join(", "))).unwrap();
        (db, y)
    }

    /// Stores a model trained on `obs` with the labels `labels` selects.
    fn store(db: &Database, name: &str, algo: &str, param: i64, labels: &str, accuracy: f64) {
        db.execute(&format!(
            "INSERT INTO models SELECT '{name}', classifier, {accuracy}
             FROM train_model('{algo}', (SELECT a, b FROM obs), (SELECT {labels} FROM obs), {param})"
        ))
        .unwrap();
    }

    fn three_models(db: &Database) {
        store(db, "nb", "gaussian_nb", 0, "label", 1.0);
        store(db, "tree", "decision_tree", 0, "label", 1.0);
        store(db, "knn", "knn", 3, "label", 1.0);
    }

    /// The labels a query answers, checking it answers every probe row in
    /// pid order.
    fn labels(db: &Database, sql: &str) -> Vec<i64> {
        let out = db.query(sql).unwrap();
        let pids: Vec<i64> = (0..out.rows()).map(|r| out.row(r)[0].as_i64().unwrap()).collect();
        assert_eq!(pids, (0..30).collect::<Vec<_>>(), "{sql}");
        (0..out.rows()).map(|r| out.row(r)[1].as_i64().unwrap()).collect()
    }

    #[test]
    fn majority_vote_agrees_on_easy_data() {
        let (db, y) = db_with_blobs();
        three_models(&db);
        assert_eq!(labels(&db, query(0)), y);
    }

    #[test]
    fn highest_confidence_agrees_on_easy_data() {
        let (db, y) = db_with_blobs();
        three_models(&db);
        assert_eq!(labels(&db, query(1)), y);
    }

    #[test]
    fn weighted_vote_respects_dominant_weight() {
        let (db, y) = db_with_blobs();
        three_models(&db);
        // A fourth model trained on swapped labels outvotes the other three
        // only when its weight dominates theirs.
        store(&db, "swapped", "gaussian_nb", 0, "16 - label", 100.0);
        let swapped: Vec<i64> = y.iter().map(|l| 16 - l).collect();
        assert_eq!(labels(&db, query(2)), swapped);
        assert_eq!(labels(&db, query(0)), y, "one vote of four does not win");
        db.execute("UPDATE models SET accuracy = 0.1 WHERE name = 'swapped'").unwrap();
        assert_eq!(labels(&db, query(2)), y);
    }

    #[test]
    fn tie_breaks_to_smaller_label() {
        let (db, _) = db_with_blobs();
        // Two models that disagree on every row, at equal weight: every
        // vote is a 1-1 tie, which goes to the smaller label.
        store(&db, "nb", "gaussian_nb", 0, "label", 0.5);
        store(&db, "swapped", "knn", 1, "16 - label", 0.5);
        assert_eq!(labels(&db, query(0)), vec![7; 30]);
        assert_eq!(labels(&db, query(2)), vec![7; 30]);
    }
}
