//! Morsel-parallel execution: a parallel plan must produce exactly the
//! rows the serial plan produces, the planner must only pick the parallel
//! path when it is safe and worthwhile, and the worker pool must be
//! persistent — no threads spawned per query.

use mlcs::columnar::parallel::hardware_threads;
use mlcs::columnar::{Batch, Database, Value};

/// Rows of NULL-heavy mixed data shared by the serial/parallel pair.
fn seed_sql() -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE t (k INTEGER, v INTEGER, x DOUBLE, s VARCHAR)".to_owned(),
        "CREATE TABLE d (k INTEGER, label VARCHAR)".to_owned(),
        "INSERT INTO d VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (NULL, 'null')".to_owned(),
    ];
    // ~1/3 NULL keys, NULL floats and strings sprinkled in; values chosen
    // so float sums are exact (multiples of 0.5) and ties exist for sort.
    let mut values = Vec::new();
    for i in 0..500i64 {
        let k = if i % 3 == 0 { "NULL".to_owned() } else { (i % 5).to_string() };
        let v = if i % 7 == 0 { "NULL".to_owned() } else { (i % 11).to_string() };
        let x = if i % 4 == 0 { "NULL".to_owned() } else { format!("{}", (i % 13) as f64 * 0.5) };
        let s = if i % 6 == 0 { "NULL".to_owned() } else { format!("'s{}'", i % 9) };
        values.push(format!("({k}, {v}, {x}, {s})"));
    }
    stmts.push(format!("INSERT INTO t VALUES {}", values.join(",")));
    stmts
}

/// A database pinned to the serial executor and one forced parallel.
fn serial_and_parallel() -> (Database, Database) {
    let serial = Database::new();
    serial.set_threads(1);
    let parallel = Database::new();
    parallel.set_threads(4);
    parallel.set_parallel_threshold(1);
    for db in [&serial, &parallel] {
        for stmt in seed_sql() {
            db.execute(&stmt).unwrap();
        }
    }
    (serial, parallel)
}

/// Row-by-row equality with a relative tolerance for doubles, since a
/// parallel *ungrouped* aggregate sums float partials per morsel, in a
/// different association. Grouped aggregates fold each group's rows in
/// row order under either policy and are bit-identical.
fn assert_batches_match(serial: &Batch, parallel: &Batch, sql: &str) {
    assert_eq!(serial.rows(), parallel.rows(), "row count differs for {sql}");
    for r in 0..serial.rows() {
        let (a, b) = (serial.row(r), parallel.row(r));
        assert_eq!(a.len(), b.len(), "arity differs for {sql}");
        for (i, (va, vb)) in a.iter().zip(&b).enumerate() {
            match (va, vb) {
                (Value::Float64(fa), Value::Float64(fb)) => {
                    let tol = 1e-9 * fa.abs().max(fb.abs()).max(1.0);
                    assert!(
                        (fa - fb).abs() <= tol,
                        "row {r} col {i} differs for {sql}: {fa} vs {fb}"
                    );
                }
                _ => assert_eq!(va, vb, "row {r} col {i} differs for {sql}"),
            }
        }
    }
}

#[test]
fn parallel_matches_serial_across_operators() {
    let (serial, parallel) = serial_and_parallel();
    let queries = [
        // Filter + projection.
        "SELECT k, v + 1, x * 2.0 FROM t WHERE v > 3 ORDER BY k, v, x",
        // NULL-sensitive predicate.
        "SELECT k, s FROM t WHERE k IS NOT NULL AND s IS NOT NULL ORDER BY k, s",
        // Hash join on a NULL-heavy key (NULL keys never match).
        "SELECT t.k, d.label, t.v FROM t JOIN d ON t.k = d.k ORDER BY t.k, d.label, t.v",
        // Left join keeps NULL-key probe rows.
        "SELECT t.k, d.label FROM t LEFT JOIN d ON t.k = d.k ORDER BY t.k, d.label, t.v",
        // Grouped aggregation over NULL keys and NULL arguments.
        "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(x), MIN(s), MAX(v) FROM t GROUP BY k ORDER BY k",
        // Ungrouped aggregation.
        "SELECT COUNT(*), SUM(v), AVG(x), MIN(k), MAX(x) FROM t",
        // Multi-key sort with NULLs and heavy ties.
        "SELECT k, v, x, s FROM t ORDER BY k DESC, x, s DESC",
    ];
    for sql in queries {
        let a = serial.query(sql).unwrap();
        let b = parallel.query(sql).unwrap();
        assert_batches_match(&a, &b, sql);
    }
}

#[test]
fn explain_annotates_parallel_eligible_operators() {
    let (_, parallel) = serial_and_parallel();
    let plan = parallel
        .query("EXPLAIN SELECT k, COUNT(*) FROM t WHERE v > 3 GROUP BY k ORDER BY k")
        .unwrap();
    let text: String = (0..plan.rows())
        .map(|r| match &plan.row(r)[0] {
            Value::Varchar(s) => format!("{s}\n"),
            other => panic!("EXPLAIN returned {other:?}"),
        })
        .collect();
    assert!(text.contains("[parallel]"), "EXPLAIN missing [parallel] annotation:\n{text}");
}

#[test]
fn threads_setting_round_trips() {
    let db = Database::new();
    assert_eq!(db.threads(), 0, "default requests hardware parallelism");
    db.set_threads(3);
    assert_eq!(db.threads(), 3);
    db.set_threads(0);
    assert_eq!(db.threads(), 0);
    assert!(hardware_threads() >= 1);
}

#[test]
fn mlcs_threads_env_overrides_hardware() {
    // Other tests only use explicit thread counts, so flipping the env
    // override here cannot change their plans.
    std::env::set_var("MLCS_THREADS", "2");
    assert_eq!(hardware_threads(), 2);
    std::env::set_var("MLCS_THREADS", "not a number");
    assert!(hardware_threads() >= 1);
    std::env::remove_var("MLCS_THREADS");
    assert!(hardware_threads() >= 1);
}

/// Repeated parallel queries must reuse the persistent pool: after a
/// warm-up query the number of pool worker threads stays flat. Workers are
/// counted by thread name — the process-wide `Threads:` figure also moves
/// whenever the test harness starts or finishes a sibling test.
#[cfg(target_os = "linux")]
#[test]
fn worker_pool_is_persistent_across_queries() {
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .filter(|name| name.starts_with("mlcs-worker-"))
            .count()
    }
    let (_, parallel) = serial_and_parallel();
    // Warm-up spawns the pool (at most once per process).
    parallel.query("SELECT k, COUNT(*) FROM t GROUP BY k").unwrap();
    let warm = thread_count();
    assert!(warm >= 1, "the warm-up query must have started the pool");
    for _ in 0..20 {
        parallel.query("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k").unwrap();
    }
    assert_eq!(
        thread_count(),
        warm,
        "thread count grew across queries — workers are being spawned per query"
    );
}

/// A table above the default parallel threshold whose `k` and `cat`
/// columns are dictionary-encoded, loaded into a database running at
/// `threads`.
fn encoded_fact(threads: usize) -> Database {
    use mlcs::columnar::sql::DEFAULT_PARALLEL_THRESHOLD;
    use mlcs::columnar::Encoding;
    let db = Database::new();
    db.set_threads(threads);
    db.execute("CREATE TABLE fact (id INTEGER, k INTEGER, cat VARCHAR)").unwrap();
    let rows = DEFAULT_PARALLEL_THRESHOLD as i64 + 7_000;
    for chunk in (0..rows).collect::<Vec<_>>().chunks(5_000) {
        let values: Vec<String> =
            chunk.iter().map(|i| format!("({i}, {}, 'c{:02}')", i % 13, (i * 7) % 17)).collect();
        db.execute(&format!("INSERT INTO fact VALUES {}", values.join(","))).unwrap();
    }
    let table = db.catalog().table("fact").unwrap();
    table.write().set_column_encoding(1, Encoding::Dict).unwrap();
    table.write().set_column_encoding(2, Encoding::Dict).unwrap();
    db
}

/// A column an operator only passes on is the stored column itself: a
/// parallel projection keeps dictionary columns encoded (it used to decode
/// them while concatenating morsels), operators above it see the same
/// values as the serial plan, and a bare column comes back as the very
/// `Arc` the table holds.
#[test]
fn projection_passes_stored_columns_through_encoded() {
    use mlcs::columnar::Encoding;
    use std::sync::Arc;
    let serial = encoded_fact(1);
    let parallel = encoded_fact(2);
    let out = parallel.query("SELECT k, cat FROM fact").unwrap();
    for c in out.columns() {
        assert_eq!(c.encoding(), Encoding::Dict, "projection decoded a dictionary column");
    }
    assert_batches_match(&serial.query("SELECT k, cat FROM fact").unwrap(), &out, "SELECT k, cat");
    for sql in [
        "SELECT DISTINCT k, cat FROM fact ORDER BY k, cat",
        "SELECT cat, COUNT(*), SUM(k) FROM fact GROUP BY cat ORDER BY cat",
    ] {
        assert_batches_match(&serial.query(sql).unwrap(), &parallel.query(sql).unwrap(), sql);
    }
    let stored = parallel.catalog().table("fact").unwrap().read().scan().column(0).clone();
    let out = parallel.query("SELECT id FROM fact").unwrap();
    assert!(Arc::ptr_eq(out.column(0), &stored), "SELECT id copied the stored column");
}
