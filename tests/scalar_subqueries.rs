//! Scalar subqueries, statement by statement: a subquery's value reaches
//! every kind of statement that can hold one, fresh on each execution, on
//! a plan-cache miss and on the hit after it.
//!
//! Each kind — SELECT, `CREATE TABLE … AS`, `INSERT … SELECT`, UPDATE,
//! DELETE and a table-function argument — runs twice and is checked
//! against values computed here from the fixture. A subquery with no rows
//! is NULL wherever it is used, two rows or two columns are errors, a
//! subquery may nest in another, a cached plan sees data inserted since it
//! was cached, a comparison with a subquery fuses at one thread and in
//! parallel alike, and the writes UPDATE and DELETE make survive a durable
//! reopen.
//!
//! The metrics registry is process-global, so the tests serialize on a
//! mutex (as in `tests/chaos.rs`).

mod common;

use common::ScratchDir;
use mlcs::columnar::{
    metrics, Batch, ClosureScalarUdf, Column, DataType, Database, DbResult, Field, Schema,
    TableUdf, Value,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests in this binary: they read global counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `series(n)`: the rows `0..n` as one BIGINT column `i` (none for NULL).
struct Series;

impl TableUdf for Series {
    fn name(&self) -> &str {
        "series"
    }
    fn schema(&self, _: &[DataType]) -> DbResult<Arc<Schema>> {
        Ok(Arc::new(Schema::new(vec![Field::new("i", DataType::Int64)])?))
    }
    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        let n = args[0].i64_at(0).unwrap_or(0);
        Batch::from_columns(vec![("i", Column::from_i64s((0..n).collect()))])
    }
}

/// Ten rows `a = 1..=10`, `c = a * 1.5`, `s = 's<a % 3>'`, plus `is_null(x)`
/// (a scalar UDF saying whether its argument is NULL) and `series`.
fn seeded(db: &Database) {
    db.register_scalar_udf(Arc::new(ClosureScalarUdf::new(
        "is_null",
        DataType::Boolean,
        |args: &[Arc<Column>]| {
            Ok(Column::from_bools((0..args[0].len()).map(|i| args[0].is_null(i)).collect()))
        },
    )));
    db.register_table_udf(Arc::new(Series));
    db.execute("CREATE TABLE t (a INTEGER, c DOUBLE, s VARCHAR)").unwrap();
    let rows: Vec<String> =
        (1..=10).map(|a| format!("({a}, {}, 's{}')", a as f64 * 1.5, a % 3)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
}

fn fresh() -> Database {
    let db = Database::new();
    seeded(&db);
    db
}

fn hits() -> u64 {
    metrics::counter("sql.plan_cache.hits").get()
}

fn misses() -> u64 {
    metrics::counter("sql.plan_cache.misses").get()
}

/// Every row of a result, in order.
fn rows(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.rows()).map(|r| batch.row(r)).collect()
}

/// Runs a SELECT on a cache miss and then on a hit, asserting which is
/// which and that both return `want`.
fn miss_then_hit(db: &Database, sql: &str, want: &[Vec<Value>]) {
    let (h, m) = (hits(), misses());
    assert_eq!(rows(&db.query(sql).unwrap()), want, "miss: {sql}");
    assert_eq!((hits() - h, misses() - m), (0, 1), "first run is a miss: {sql}");
    assert_eq!(rows(&db.query(sql).unwrap()), want, "hit: {sql}");
    assert_eq!((hits() - h, misses() - m), (1, 1), "second run is a hit: {sql}");
}

fn table(db: &Database, name: &str) -> Vec<Vec<Value>> {
    rows(&db.query(&format!("SELECT * FROM {name} ORDER BY a")).unwrap())
}

#[test]
fn select_reads_the_subquery_on_a_miss_and_on_a_hit() {
    let _guard = serial();
    let db = fresh();
    // AVG(c) = 8.25; c - 8.25 is exact in binary for every c = a * 1.5.
    let want: Vec<Vec<Value>> =
        (1..=10).map(|a| vec![Value::Int32(a), Value::Float64(a as f64 * 1.5 - 8.25)]).collect();
    miss_then_hit(&db, "SELECT a, c - (SELECT AVG(c) FROM t) FROM t ORDER BY a", &want);
    // In the select list of a FROM-less query, and gathered from a column.
    miss_then_hit(&db, "SELECT (SELECT s FROM t WHERE a = 4)", &[vec![Value::from("s1")]]);
}

#[test]
fn ctas_and_insert_select_read_the_subquery_each_time() {
    let _guard = serial();
    let db = fresh();
    let want: Vec<Vec<Value>> =
        (1..=10).map(|a| vec![Value::Int32(a), Value::Float64(a as f64 * 1.5 + 15.0)]).collect();
    for _ in 0..2 {
        db.execute("CREATE TABLE w AS SELECT a, c + (SELECT MAX(c) FROM t) AS d FROM t").unwrap();
        assert_eq!(table(&db, "w"), want);
        db.execute("DROP TABLE w").unwrap();
    }
    db.execute("CREATE TABLE w (a INTEGER, d DOUBLE)").unwrap();
    let sql =
        "INSERT INTO w SELECT a, (SELECT MIN(c) FROM t) FROM t WHERE a < (SELECT AVG(a) FROM t)";
    db.execute(sql).unwrap();
    let once: Vec<Vec<Value>> =
        (1..=5).map(|a| vec![Value::Int32(a), Value::Float64(1.5)]).collect();
    assert_eq!(table(&db, "w"), once);
    db.execute(sql).unwrap();
    let twice: Vec<Vec<Value>> = once.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
    assert_eq!(table(&db, "w"), twice);
}

#[test]
fn update_and_delete_read_the_subquery_live_and_after_a_durable_reopen() {
    let _guard = serial();
    let dir = ScratchDir::new("mlcs-scalar-subqueries");
    let path = dir.join("db");
    let want = {
        let (db, _) = Database::open_durable(&path).unwrap();
        seeded(&db);
        // The first run sets the row with the smallest `a` to MAX(c) + 1;
        // the second reads that row's new value as the MAX.
        let update = "UPDATE t SET c = (SELECT MAX(c) FROM t) + 1 WHERE a = (SELECT MIN(a) FROM t)";
        assert_eq!(db.execute(update).unwrap().rows_affected(), 1);
        assert_eq!(db.query_value("SELECT c FROM t WHERE a = 1").unwrap(), Value::Float64(16.0));
        assert_eq!(db.execute(update).unwrap().rows_affected(), 1);
        assert_eq!(db.query_value("SELECT c FROM t WHERE a = 1").unwrap(), Value::Float64(17.0));
        // A constant subquery broadcast to several rows, and a NULL one.
        let update = "UPDATE t SET s = (SELECT s FROM t WHERE a = 2) WHERE a > 8";
        assert_eq!(db.execute(update).unwrap().rows_affected(), 2);
        let update = "UPDATE t SET s = (SELECT s FROM t WHERE a < 0) WHERE a = 1";
        assert_eq!(db.execute(update).unwrap().rows_affected(), 1);
        // AVG(c) = (17 + 3 + 4.5 + … + 15) / 10 = 9.8: rows a = 2..=6 go.
        let delete = "DELETE FROM t WHERE c < (SELECT AVG(c) FROM t)";
        assert_eq!(db.execute(delete).unwrap().rows_affected(), 5);
        // AVG(c) over a = 1, 7..=10 is 13.6: a = 7, 8 and 9 go.
        assert_eq!(db.execute(delete).unwrap().rows_affected(), 3);
        let live = table(&db, "t");
        let want = vec![
            vec![Value::Int32(1), Value::Float64(17.0), Value::Null],
            vec![Value::Int32(10), Value::Float64(15.0), Value::from("s2")],
        ];
        assert_eq!(live, want);
        want
    };
    let (db, _) = Database::open_durable(&path).unwrap();
    assert_eq!(table(&db, "t"), want, "after a durable reopen");
}

#[test]
fn a_table_function_argument_reads_the_subquery() {
    let _guard = serial();
    let db = fresh();
    let sql = "SELECT COUNT(*), SUM(i) FROM series(0 + (SELECT MAX(a) FROM t))";
    miss_then_hit(&db, sql, &[vec![Value::Int64(10), Value::Int64(45)]]);
    let sql = "SELECT COUNT(*) FROM series(0 + (SELECT a FROM t WHERE a < 0))";
    miss_then_hit(&db, sql, &[vec![Value::Int64(0)]]);
}

#[test]
fn a_subquery_with_no_rows_is_null() {
    let _guard = serial();
    let db = fresh();
    let none = "(SELECT a FROM t WHERE a < 0)";
    let nulls: Vec<Vec<Value>> = (0..10).map(|_| vec![Value::Null]).collect();
    miss_then_hit(&db, &format!("SELECT a + {none} FROM t"), &nulls);
    miss_then_hit(
        &db,
        &format!("SELECT COUNT(*) FROM t WHERE a < {none}"),
        &[vec![Value::Int64(0)]],
    );
    miss_then_hit(
        &db,
        &format!("SELECT COUNT(*) FROM t WHERE a <> {none} OR {none} IS NULL"),
        &[vec![Value::Int64(10)]],
    );
    let none = "(SELECT s FROM t WHERE a < 0)";
    miss_then_hit(&db, &format!("SELECT is_null({none})"), &[vec![Value::Boolean(true)]]);
    let one = "(SELECT s FROM t WHERE a = 5)";
    miss_then_hit(&db, &format!("SELECT is_null({one})"), &[vec![Value::Boolean(false)]]);
}

#[test]
fn two_rows_or_two_columns_are_errors() {
    let _guard = serial();
    let db = fresh();
    // Two rows fail at every run, until the data leaves one.
    let sql = "SELECT (SELECT a FROM t WHERE a > 8)";
    for _ in 0..2 {
        let e = db.query(sql).unwrap_err().to_string();
        assert!(e.contains("2 rows"), "{e}");
    }
    db.execute("DELETE FROM t WHERE a = 10").unwrap();
    assert_eq!(rows(&db.query(sql).unwrap()), vec![vec![Value::Int32(9)]]);
    let e = db.query("SELECT (SELECT a, c FROM t)").unwrap_err().to_string();
    assert!(e.contains("one column"), "{e}");
}

#[test]
fn a_subquery_nests_in_another() {
    let _guard = serial();
    let db = fresh();
    // AVG(a) = 5.5, so MAX(a) below it is 5, and the rows above 5 are 5.
    let sql =
        "SELECT COUNT(*) FROM t WHERE a > (SELECT MAX(a) FROM t WHERE a < (SELECT AVG(a) FROM t))";
    miss_then_hit(&db, sql, &[vec![Value::Int64(5)]]);
}

#[test]
fn a_cache_hit_sees_rows_inserted_since_the_plan_was_cached() {
    let _guard = serial();
    let db = fresh();
    let sql = "SELECT COUNT(*) FROM t WHERE c > (SELECT AVG(c) FROM t)";
    let (h, m) = (hits(), misses());
    assert_eq!(db.query_value(sql).unwrap(), Value::Int64(5));
    // Two rows far above the rest move the average to about 15.2: only
    // the new rows clear it. No DDL in between, so the plan stays cached.
    db.execute("INSERT INTO t VALUES (11, 50.0, 'x'), (12, 50.0, 'y')").unwrap();
    assert_eq!(db.query_value(sql).unwrap(), Value::Int64(2));
    assert_eq!((hits() - h, misses() - m), (1, 1));
}

#[test]
fn a_comparison_with_a_subquery_fuses_serial_and_parallel() {
    let _guard = serial();
    let serial_db = fresh();
    serial_db.set_threads(1);
    let parallel_db = fresh();
    parallel_db.set_threads(4);
    parallel_db.set_parallel_threshold(1);
    // Each statement with its filters: every filter compiles at least one
    // kernel per run, the subquery's own included.
    let cases = [
        ("SELECT a FROM t WHERE c > (SELECT AVG(c) FROM t) ORDER BY a", 1, 6),
        ("SELECT a FROM t WHERE c >= (SELECT c FROM t WHERE a = 7) ORDER BY a", 2, 7),
    ];
    for db in [&serial_db, &parallel_db] {
        for (sql, filters, from) in cases {
            let want: Vec<Vec<Value>> = (from..=10).map(|a| vec![Value::Int32(a)]).collect();
            let fused = metrics::counter("expr.fused.kernels").get();
            miss_then_hit(db, sql, &want);
            let moved = metrics::counter("expr.fused.kernels").get() - fused;
            assert!(moved >= 2 * filters, "{sql}: {moved} fused kernels over a miss and a hit");
        }
    }
}
