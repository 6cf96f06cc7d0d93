//! EXPLAIN ANALYZE output shape: every operator line carries actual row
//! counts and wall time, and the `[parallel]` annotation appears exactly
//! when the engine's per-operator gates would pick the parallel path —
//! the same gates `tests/parallel_exec.rs` exercises for correctness.

use mlcs::columnar::{Database, Value};

/// Seeds `rows` voters-like rows into table `t` plus a small dimension `d`.
fn seed(db: &Database, rows: i64) {
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)").unwrap();
    db.execute("CREATE TABLE d (k INTEGER, label VARCHAR)").unwrap();
    db.execute("INSERT INTO d VALUES (0, 'zero'), (1, 'one'), (2, 'two')").unwrap();
    let mut values = Vec::with_capacity(rows as usize);
    for i in 0..rows {
        values.push(format!("({}, {})", i % 5, i % 11));
    }
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
}

/// Runs a statement and joins the one-column result into plan text.
fn text_of(db: &Database, sql: &str) -> String {
    let batch = db.query(sql).unwrap();
    (0..batch.rows())
        .map(|r| match &batch.row(r)[0] {
            Value::Varchar(s) => format!("{s}\n"),
            other => panic!("EXPLAIN returned {other:?}"),
        })
        .collect()
}

const QUERY: &str =
    "EXPLAIN ANALYZE SELECT t.k, COUNT(*) FROM t JOIN d ON t.k = d.k WHERE t.v > 3 \
     GROUP BY t.k ORDER BY t.k";

#[test]
fn analyze_annotates_every_operator_with_rows_and_time() {
    let db = Database::new();
    db.set_threads(1);
    seed(&db, 500);
    let text = text_of(&db, QUERY);
    for node in ["Scan t", "Scan d", "Join", "Filter", "Aggregate", "Sort"] {
        let line = text
            .lines()
            .find(|l| l.contains(node))
            .unwrap_or_else(|| panic!("{node} missing from:\n{text}"));
        assert!(line.contains("rows="), "{node} has no row count:\n{text}");
        assert!(line.contains("time="), "{node} has no wall time:\n{text}");
    }
    // Non-leaf operators also report their input cardinality.
    let sort = text.lines().find(|l| l.contains("Sort")).unwrap();
    assert!(sort.contains("in="), "Sort has no input count:\n{text}");
    // The scan's actual row count is the table's size.
    let scan = text.lines().find(|l| l.contains("Scan t")).unwrap();
    assert!(scan.contains("rows=500"), "Scan t wrong cardinality:\n{text}");
    // And a whole-statement summary line closes the output.
    assert!(text.contains("execution:"), "missing execution summary:\n{text}");
}

#[test]
fn analyze_parallel_annotation_follows_the_executor_gates() {
    // Forced-parallel database: every eligible operator takes the morsel
    // path regardless of the machine's core count (same convention as
    // tests/parallel_exec.rs).
    let par = Database::new();
    par.set_threads(4);
    par.set_parallel_threshold(1);
    seed(&par, 500);
    let text = text_of(&par, QUERY);
    for node in ["Filter", "Join", "Aggregate", "Sort"] {
        let line = text.lines().find(|l| l.contains(node)).unwrap();
        assert!(line.contains("[parallel]"), "{node} should run parallel:\n{text}");
    }
    // Scans materialize views of stored columns; they never fan out.
    let scan = text.lines().find(|l| l.contains("Scan t")).unwrap();
    assert!(!scan.contains("[parallel]"), "Scan t cannot be parallel:\n{text}");

    // Serial database: identical plan, no [parallel] anywhere.
    let ser = Database::new();
    ser.set_threads(1);
    seed(&ser, 500);
    let text = text_of(&ser, QUERY);
    assert!(text.contains("rows="), "serial ANALYZE lost its stats:\n{text}");
    assert!(!text.contains("[parallel]"), "serial plan claims parallelism:\n{text}");
}

/// DISTINCT runs on the hash aggregate, so it follows the policy like any
/// other heavy operator: at the default threshold, over a table that
/// clears it, the morsel path engages and `EXPLAIN ANALYZE` says so.
#[test]
fn analyze_marks_a_distinct_over_the_threshold_parallel() {
    use mlcs::columnar::sql::DEFAULT_PARALLEL_THRESHOLD;
    let db = Database::new();
    db.set_threads(4);
    seed(&db, DEFAULT_PARALLEL_THRESHOLD as i64);
    let text = text_of(&db, "EXPLAIN ANALYZE SELECT DISTINCT k, v FROM t");
    let line = text.lines().find(|l| l.contains("Distinct")).unwrap();
    assert!(line.contains("[parallel]"), "Distinct should run parallel:\n{text}");
    assert!(line.contains("rows=55"), "5 x 11 distinct pairs:\n{text}");
}

#[test]
fn plain_explain_is_unchanged_by_the_analyze_path() {
    let db = Database::new();
    db.set_threads(1);
    seed(&db, 100);
    let text = text_of(&db, "EXPLAIN SELECT k FROM t WHERE v > 3");
    assert!(!text.contains("rows="), "plain EXPLAIN must not execute:\n{text}");
    assert!(!text.contains("time="), "plain EXPLAIN must not time:\n{text}");
    assert!(!text.contains("execution:"), "plain EXPLAIN must not run:\n{text}");
}

/// Compressed-execution markers: `EXPLAIN` reports eligibility (fusible
/// predicate shapes, the scanned table's current encodings) and `EXPLAIN
/// ANALYZE` reports what actually ran, per operator.
#[test]
fn explain_shows_encoding_and_fusion_markers() {
    use mlcs::columnar::Encoding;
    let db = Database::new();
    db.set_threads(1);
    seed(&db, 500);
    let table = db.catalog().table("t").unwrap();
    table.write().set_column_encoding(0, Encoding::Dict).unwrap();
    table.write().set_column_encoding(1, Encoding::Rle).unwrap();

    // Static EXPLAIN: the scan shows the table's encodings, the filter
    // its fusible shape.
    let text = text_of(&db, "EXPLAIN SELECT k FROM t WHERE v > 3 AND k < 4");
    let scan = text.lines().find(|l| l.contains("Scan t")).unwrap();
    assert!(scan.contains("[dict]"), "scan missing [dict]:\n{text}");
    assert!(scan.contains("[rle]"), "scan missing [rle]:\n{text}");
    let filter = text.lines().find(|l| l.contains("Filter")).unwrap();
    assert!(filter.contains("[fused]"), "filter missing [fused]:\n{text}");
    // An arithmetic predicate is not fusible, and the markers say so.
    let text = text_of(&db, "EXPLAIN SELECT k FROM t WHERE v + 1 > 4");
    let filter = text.lines().find(|l| l.contains("Filter")).unwrap();
    assert!(!filter.contains("[fused]"), "arithmetic cannot fuse:\n{text}");

    // EXPLAIN ANALYZE: the executed plan carries the runtime markers.
    let text = text_of(&db, "EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t WHERE k < 4 GROUP BY k");
    let scan = text.lines().find(|l| l.contains("Scan t")).unwrap();
    assert!(scan.contains("[dict]") && scan.contains("[rle]"), "analyze scan markers:\n{text}");
    let filter = text.lines().find(|l| l.contains("Filter")).unwrap();
    assert!(filter.contains("[fused]"), "analyze filter missing [fused]:\n{text}");
    let agg = text.lines().find(|l| l.contains("Aggregate")).unwrap();
    assert!(agg.contains("[dict]"), "analyze aggregate missing [dict]:\n{text}");

    // A plain-column table shows none of the markers.
    let plain = Database::new();
    plain.set_threads(1);
    seed(&plain, 500);
    let text = text_of(&plain, "EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t WHERE k < 4 GROUP BY k");
    assert!(!text.contains("[dict]") && !text.contains("[rle]"), "plain claims encodings:\n{text}");
}

#[test]
fn analyze_summary_matches_the_result_cardinality() {
    let db = Database::new();
    db.set_threads(1);
    seed(&db, 200);
    // The underlying SELECT returns 5 groups; ANALYZE must report exactly
    // the rows the statement would have produced.
    let text = text_of(&db, "EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t GROUP BY k");
    assert!(text.contains("execution: 5 rows"), "wrong summary:\n{text}");
}

#[test]
fn analyze_reports_the_table_build_of_ctas_and_insert_select() {
    let db = Database::new();
    db.set_threads(1);
    seed(&db, 2000);
    // The statement runs exactly as without EXPLAIN: the table is created.
    let text = text_of(&db, "EXPLAIN ANALYZE CREATE TABLE w AS SELECT k, v * 2 AS v2 FROM t");
    let mut lines = text.lines();
    let root = lines.next().unwrap();
    assert!(root.starts_with("TableBuild w rows=2000 columns=2 encoded="), "root:\n{text}");
    assert!(root.contains(" time="), "root has no build time:\n{text}");
    // Both columns are low-cardinality: the heuristic encodes them.
    assert!(root.contains("encoded=2/2"), "root:\n{text}");
    // The query's plan hangs under the root, annotated down to its top.
    let top = lines.next().unwrap();
    assert!(top.starts_with("  Project") && top.contains("rows=2000"), "plan:\n{text}");
    let scan = lines.clone().find(|l| l.contains("Scan t")).expect("plan under the root");
    assert!(scan.starts_with("  ") && scan.contains("rows=2000"), "plan:\n{text}");
    assert!(text.lines().last().unwrap().starts_with("execution: 2000 rows in"), "{text}");
    assert_eq!(db.query_value("SELECT COUNT(*) FROM w").unwrap(), Value::Int64(2000));
    assert_eq!(db.query_value("SELECT SUM(v2) FROM w").unwrap(), Value::Int64(19_982));

    // INSERT … SELECT appends and reports the table it grew.
    let text = text_of(&db, "EXPLAIN ANALYZE INSERT INTO w SELECT k, v FROM t WHERE v > 8");
    let root = text.lines().next().unwrap();
    // `encoded` is the table's state once committed: an append between
    // encoding sweeps (2 362 rows < 2 × 2 000) leaves its columns plain.
    assert!(root.starts_with("TableBuild w rows=362 columns=2 encoded=0/2 "), "root:\n{text}");
    assert!(text.contains("Filter"), "plan:\n{text}");
    assert_eq!(db.query_value("SELECT COUNT(*) FROM w").unwrap(), Value::Int64(2362));

    // An IF NOT EXISTS that finds the table builds nothing, and says so.
    let text = text_of(&db, "EXPLAIN ANALYZE CREATE TABLE IF NOT EXISTS w AS SELECT k FROM t");
    let root = text.lines().next().unwrap();
    assert!(root.starts_with("TableBuild w (exists, skipped) rows=0 columns=2 "), "root:\n{text}");
    assert!(text.lines().last().unwrap().starts_with("execution: 0 rows in"), "{text}");
    assert_eq!(db.query_value("SELECT COUNT(*) FROM w").unwrap(), Value::Int64(2362));

    // Other statements are still refused; plain EXPLAIN still wants SELECT.
    assert!(db.query("EXPLAIN ANALYZE INSERT INTO w VALUES (1, 2)").is_err());
    assert!(db.query("EXPLAIN CREATE TABLE z AS SELECT k FROM t").is_err());
    assert!(db.query("SELECT COUNT(*) FROM z").is_err(), "refused statements build nothing");
}

/// A scalar subquery shows in `EXPLAIN ANALYZE` as `$subqueryN`, its plan
/// listed below the statement's, whatever it returned: the report of a
/// `predict` over a stored model (the `tests/serving.rs` schema and query,
/// over enough noisy points to grow a model of a few kilobytes) is shorter
/// than the model's blob, for the query and for the table build fed by it
/// alike.
#[test]
fn analyze_shows_a_model_subquery_as_a_placeholder_not_its_blob() {
    let db = Database::new();
    mlcs::mlcore::register_ml_udfs(&db);
    db.execute("CREATE TABLE points (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
    let points: Vec<String> = (0..300)
        .map(|i| {
            let (x, y) = ((i * 37 % 101) as f64 / 10.0 - 5.0, (i * 53 % 97) as f64 / 10.0 - 5.0);
            format!("({x}, {y}, {})", (x > 0.0) as i32 ^ (i % 7 == 0) as i32)
        })
        .collect();
    db.execute(&format!("INSERT INTO points VALUES {}", points.join(", "))).unwrap();
    db.execute(
        "CREATE TABLE models AS SELECT * FROM train(
           (SELECT x, y FROM points), (SELECT label FROM points), 4)",
    )
    .unwrap();
    let Value::Blob(blob) = db.query_value("SELECT classifier FROM models").unwrap() else {
        panic!("classifier is not a BLOB");
    };
    let query = "SELECT predict(x, y, (SELECT classifier FROM models)) AS p FROM points";
    let explained = |sql: &str| {
        let text = text_of(&db, sql);
        assert!(
            text.len() < blob.len(),
            "{} bytes of plan text for a {}-byte blob:\n{text}",
            text.len(),
            blob.len()
        );
        assert!(text.contains("predict(#0, #1, $subquery0)"), "placeholder missing:\n{text}");
        let sub = text.lines().position(|l| l.contains("scalar subquery $0:")).expect(&text);
        let scan = text.lines().skip(sub).find(|l| l.contains("Scan models")).expect(&text);
        assert!(scan.contains("rows=1"), "the subquery's plan is annotated too:\n{text}");
        text
    };
    let miss = explained(&format!("EXPLAIN ANALYZE {query}"));
    assert!(miss.contains("plan cache: miss"), "{miss}");
    db.query(query).unwrap();
    let hit = explained(&format!("EXPLAIN ANALYZE {query}"));
    assert!(hit.contains("plan cache: hit"), "{hit}");
    explained(&format!("EXPLAIN ANALYZE CREATE TABLE predicted AS {query}"));
    assert_eq!(db.query_value("SELECT COUNT(*) FROM predicted").unwrap(), Value::Int64(300));
}
