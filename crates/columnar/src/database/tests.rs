//! Unit tests of the database facade.

use super::commit::assign;
use super::*;
use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::types::{DataType, Value};
use std::sync::Arc;
use std::time::Duration;

/// A scalar subquery runs under the statement's deadline: an expired
/// one stops it at its own first operator, and the error says so.
#[test]
fn a_scalar_subquery_runs_under_the_statement_deadline() {
    let db = db();
    match db.execute_with_timeout("SELECT (SELECT COUNT(*) FROM t)", Duration::ZERO) {
        Err(DbError::Timeout { path }) => assert_eq!(path, "$subquery0/project"),
        other => panic!("expected a timeout in the subquery, got {other:?}"),
    }
}

/// Value `i` of a low-cardinality sample of `dtype`, NULL every fourth
/// row counting from `skew`.
fn sample(dtype: DataType, i: usize, skew: usize) -> Value {
    if (i + skew).is_multiple_of(4) {
        return Value::Null;
    }
    let k = (i + skew) % 5;
    match dtype {
        DataType::Boolean => Value::Boolean(k.is_multiple_of(2)),
        DataType::Int8 => Value::Int8(k as i8 - 2),
        DataType::Int16 => Value::Int16(k as i16 * 300),
        DataType::Int32 => Value::Int32(k as i32 * 70_000),
        DataType::Int64 => Value::Int64(k as i64 * 5_000_000_000),
        DataType::Float32 => Value::Float32(k as f32 * 0.25),
        DataType::Float64 => Value::Float64(k as f64 * -1.5),
        DataType::Varchar => Value::Varchar(format!("v{k}")),
        DataType::Blob => Value::Blob(vec![k as u8; k]),
    }
}

/// [`assign`] gives what the per-`Value` loop it replaced gave, for every
/// type: NULLs among the old and the new values, a plain and a
/// dictionary-encoded old column, new values row for row and a
/// broadcast constant (NULL or not), and any selection.
#[test]
fn assign_matches_the_per_value_update() {
    use crate::column::{ColumnBuilder, Encoding};
    let n = 23;
    let selections: [Vec<u32>; 3] =
        [Vec::new(), (0..n as u32).collect(), (0..n as u32).filter(|i| i % 3 != 1).collect()];
    for dtype in [
        DataType::Boolean,
        DataType::Int8,
        DataType::Int16,
        DataType::Int32,
        DataType::Int64,
        DataType::Float32,
        DataType::Float64,
        DataType::Varchar,
        DataType::Blob,
    ] {
        let column = |len: usize, skew: usize| {
            let values: Vec<Value> = (0..len).map(|i| sample(dtype, i, skew)).collect();
            Column::from_values(dtype, &values).unwrap()
        };
        let plain = column(n, 0);
        let dict = plain.encode(Encoding::Dict);
        assert_eq!(dict.encoding(), Encoding::Dict);
        for old in [&plain, &dict] {
            for new in [column(n, 1), column(1, 2), column(1, 3)] {
                for selected in &selections {
                    let got = assign(old, &new, selected).unwrap();
                    let mut want = ColumnBuilder::new(dtype);
                    for i in 0..n {
                        let v = match selected.contains(&(i as u32)) {
                            true => new.value(if new.len() == 1 { 0 } else { i }),
                            false => old.value(i),
                        };
                        want.push_value(&v).unwrap();
                    }
                    let want = want.finish();
                    assert_eq!(got.data_type(), dtype);
                    assert_eq!(got.len(), n);
                    for i in 0..n {
                        assert_eq!(got.value(i), want.value(i), "{dtype} row {i}");
                    }
                }
            }
        }
    }
    let short = Column::from_i32s(vec![1, 2]);
    assert!(assign(&Column::from_i32s(vec![1, 2, 3]), &short, &[0]).is_err());
}

fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)").unwrap();
    db.execute(
        "INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', 1.5), (3, 'x', 2.5), (NULL, 'z', NULL)",
    )
    .unwrap();
    db
}

#[test]
fn create_insert_select() {
    let db = db();
    let r = db.query("SELECT a, b FROM t WHERE a >= 2").unwrap();
    assert_eq!(r.rows(), 2);
    assert_eq!(r.row(0), vec![Value::Int32(2), Value::Varchar("y".into())]);
}

#[test]
fn select_star_and_aliases() {
    let db = db();
    let r = db.query("SELECT * FROM t").unwrap();
    assert_eq!(r.width(), 3);
    assert_eq!(r.rows(), 4);
    let r = db.query("SELECT a AS x, a + 1 AS y FROM t WHERE a = 1").unwrap();
    assert_eq!(r.schema().names(), vec!["x", "y"]);
    assert_eq!(r.row(0)[1], Value::Int64(2));
}

#[test]
fn aggregation_via_sql() {
    let db = db();
    let r = db.query("SELECT b, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY b ORDER BY b").unwrap();
    assert_eq!(r.rows(), 3);
    assert_eq!(r.row(0), vec!["x".into(), Value::Int64(2), Value::Int64(4)]);
    assert_eq!(r.row(2), vec!["z".into(), Value::Int64(1), Value::Null]);
}

#[test]
fn ungrouped_aggregates() {
    let db = db();
    assert_eq!(db.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(4));
    assert_eq!(db.query_value("SELECT COUNT(a) FROM t").unwrap(), Value::Int64(3));
    assert_eq!(db.query_value("SELECT AVG(c) FROM t").unwrap(), Value::Float64(1.5));
    assert_eq!(db.query_value("SELECT MIN(b) FROM t").unwrap(), Value::Varchar("x".into()));
}

#[test]
fn having_filters_groups() {
    let db = db();
    let r = db.query("SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1").unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0)[0], Value::Varchar("x".into()));
}

#[test]
fn join_via_sql() {
    let db = db();
    db.execute("CREATE TABLE u (b VARCHAR, score INTEGER)").unwrap();
    db.execute("INSERT INTO u VALUES ('x', 10), ('y', 20)").unwrap();
    let r = db.query("SELECT t.a, u.score FROM t JOIN u ON t.b = u.b ORDER BY t.a").unwrap();
    assert_eq!(r.rows(), 3);
    assert_eq!(r.row(2), vec![Value::Int32(3), Value::Int32(10)]);
    let r =
        db.query("SELECT t.a, u.score FROM t LEFT JOIN u ON t.b = u.b WHERE t.b = 'z'").unwrap();
    assert_eq!(r.rows(), 1);
    assert!(r.row(0)[1].is_null());
}

#[test]
fn order_limit_offset() {
    let db = db();
    let r = db.query("SELECT a FROM t ORDER BY a DESC LIMIT 2").unwrap();
    // NULLs first under DESC.
    assert!(r.row(0)[0].is_null());
    assert_eq!(r.row(1)[0], Value::Int32(3));
    let r = db.query("SELECT a FROM t ORDER BY 1 ASC LIMIT 2 OFFSET 1").unwrap();
    assert_eq!(r.row(0)[0], Value::Int32(2));
}

#[test]
fn distinct_and_union() {
    let db = db();
    let r = db.query("SELECT DISTINCT b FROM t").unwrap();
    assert_eq!(r.rows(), 3);
    let r = db.query("SELECT 1 AS v UNION ALL SELECT 2 UNION ALL SELECT 1").unwrap();
    assert_eq!(r.rows(), 3);
    assert_eq!(r.schema().names(), vec!["v"]);
}

#[test]
fn union_coerces_types() {
    let db = db();
    let r = db.query("SELECT 1 AS v UNION ALL SELECT 2.5").unwrap();
    assert_eq!(r.column(0).data_type(), DataType::Float64);
    assert!(db.execute("SELECT 1 UNION ALL SELECT 'x'").is_err());
}

#[test]
fn delete_and_update() {
    let db = db();
    let r = db.execute("DELETE FROM t WHERE a = 2").unwrap();
    assert_eq!(r.rows_affected(), 1);
    assert_eq!(db.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(3));
    let r = db.execute("UPDATE t SET c = c * 2 WHERE a = 1").unwrap();
    assert_eq!(r.rows_affected(), 1);
    assert_eq!(db.query_value("SELECT c FROM t WHERE a = 1").unwrap(), Value::Float64(1.0));
    // Unfiltered update touches all rows.
    let r = db.execute("UPDATE t SET b = 'w'").unwrap();
    assert_eq!(r.rows_affected(), 3);
    assert_eq!(db.query("SELECT DISTINCT b FROM t").unwrap().rows(), 1);
}

#[test]
fn create_table_as_and_insert_select() {
    let db = db();
    db.execute("CREATE TABLE t2 AS SELECT a, c FROM t WHERE a IS NOT NULL").unwrap();
    assert_eq!(db.query_value("SELECT COUNT(*) FROM t2").unwrap(), Value::Int64(3));
    db.execute("INSERT INTO t2 SELECT a, c FROM t WHERE a = 1").unwrap();
    assert_eq!(db.query_value("SELECT COUNT(*) FROM t2").unwrap(), Value::Int64(4));
}

#[test]
fn insert_with_column_list_pads_nulls() {
    let db = db();
    db.execute("INSERT INTO t (b) VALUES ('only-b')").unwrap();
    let r = db.query("SELECT a, b, c FROM t WHERE b = 'only-b'").unwrap();
    assert!(r.row(0)[0].is_null());
    assert!(r.row(0)[2].is_null());
}

#[test]
fn scalar_subquery_in_predicate() {
    let db = db();
    let r = db.query("SELECT a FROM t WHERE c > (SELECT AVG(c) FROM t) ORDER BY a").unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0)[0], Value::Int32(3));
}

#[test]
fn derived_table() {
    let db = db();
    let r = db
        .query("SELECT s.b, s.n FROM (SELECT b, COUNT(*) AS n FROM t GROUP BY b) s WHERE s.n > 1")
        .unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0)[1], Value::Int64(2));
}

#[test]
fn select_without_from() {
    let db = Database::new();
    let r = db.query("SELECT 1 + 1 AS two, 'hi' AS s").unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0), vec![Value::Int64(2), Value::Varchar("hi".into())]);
}

#[test]
fn case_and_functions_in_sql() {
    let db = db();
    let r = db
        .query(
            "SELECT a, CASE WHEN a >= 2 THEN 'big' ELSE 'small' END AS size \
             FROM t WHERE a IS NOT NULL ORDER BY a",
        )
        .unwrap();
    assert_eq!(r.row(0)[1], Value::Varchar("small".into()));
    assert_eq!(r.row(2)[1], Value::Varchar("big".into()));
    assert_eq!(db.query_value("SELECT ABS(-5)").unwrap(), Value::Int64(5));
    assert_eq!(
        db.query_value("SELECT UPPER('abc') || '!'").unwrap(),
        Value::Varchar("ABC!".into())
    );
}

#[test]
fn show_tables_lists() {
    let db = db();
    let r = db.query("SHOW TABLES").unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0)[0], Value::Varchar("t".into()));
    assert_eq!(r.row(0)[1], Value::Int64(4));
}

#[test]
fn error_paths() {
    let db = db();
    assert!(matches!(
        db.execute("SELECT zzz FROM t"),
        Err(DbError::NotFound { kind: "column", .. })
    ));
    assert!(matches!(
        db.execute("SELECT * FROM missing"),
        Err(DbError::NotFound { kind: "table", .. })
    ));
    assert!(db.execute("SELECT a FROM t GROUP BY b").is_err());
    assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
    assert!(db.execute("CREATE TABLE t (x INT)").is_err());
    db.execute("CREATE TABLE IF NOT EXISTS t (x INT)").unwrap();
}

/// `EXPLAIN`'s `[parallel]` and the executor's gate are one rule: on a
/// forced-parallel database, `EXPLAIN ANALYZE` marks `[parallel]` on
/// exactly the operators plain `EXPLAIN` marks, a UDF that is not
/// parallel-safe in a projection, a join residual and a group key
/// included.
#[test]
fn explain_marks_parallel_what_the_executor_runs_in_parallel() {
    struct Same;
    impl crate::udf::ScalarUdf for Same {
        fn name(&self) -> &str {
            "same"
        }
        fn return_type(&self, args: &[DataType]) -> DbResult<DataType> {
            Ok(args[0])
        }
        fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Column> {
            Ok(args[0].as_ref().clone())
        }
    }
    let db = db();
    db.set_threads(4);
    db.set_parallel_threshold(1);
    db.register_scalar_udf(Arc::new(Same));
    db.execute("CREATE TABLE d (a INTEGER, w DOUBLE)").unwrap();
    db.execute("INSERT INTO d VALUES (1, 9.0), (2, 9.0), (3, 0.0)").unwrap();
    let lines = |sql: &str| -> Vec<String> {
        let batch = db.query(sql).unwrap();
        (0..batch.rows()).map(|i| batch.column(0).value(i).to_string()).collect()
    };
    for q in [
        "SELECT a + 1, same(a) FROM t WHERE a > 1 ORDER BY 1",
        "SELECT a + 1 FROM t WHERE same(a) > 1",
        "SELECT t.a, d.w FROM t JOIN d ON t.a = d.a AND t.c < d.w",
        "SELECT t.a, d.w FROM t JOIN d ON t.a = d.a AND same(t.c) < d.w",
        "SELECT t.b, d.w FROM t CROSS JOIN d",
        "SELECT same(b), COUNT(*) FROM t GROUP BY same(b)",
        "SELECT b, COUNT(DISTINCT a), SUM(c) FROM t GROUP BY b",
        "SELECT DISTINCT b FROM t",
    ] {
        let plain = lines(&format!("EXPLAIN {q}"));
        let analyzed = lines(&format!("EXPLAIN ANALYZE {q}"));
        for (p, a) in plain.iter().zip(&analyzed) {
            assert_eq!(p.contains("[parallel]"), a.contains("[parallel]"), "{q}:\n{p}\n{a}");
        }
    }
}

/// A builtin called with too few arguments over a grouped SELECT's
/// output is the bind error it is in an ungrouped one, not a panic in
/// typing its missing first argument.
#[test]
fn short_builtin_call_over_groups_is_a_bind_error() {
    let db = db();
    for f in ["abs", "sign", "least", "coalesce"] {
        for group in ["", " GROUP BY a"] {
            let sql = format!("SELECT {f}() FROM t{group}");
            assert!(matches!(db.execute(&sql), Err(DbError::Bind(_))), "{sql}");
        }
    }
}

#[test]
fn group_by_ordinal_and_alias() {
    let db = db();
    let r = db.query("SELECT b AS grp, COUNT(*) FROM t GROUP BY 1 ORDER BY 1").unwrap();
    assert_eq!(r.rows(), 3);
    let r = db.query("SELECT b AS grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp").unwrap();
    assert_eq!(r.rows(), 3);
}

#[test]
fn group_expr_in_projection() {
    let db = db();
    let r = db
        .query("SELECT a % 2 AS parity, COUNT(*) AS n FROM t WHERE a IS NOT NULL GROUP BY a % 2 ORDER BY parity")
        .unwrap();
    assert_eq!(r.rows(), 2);
    assert_eq!(r.row(0)[1], Value::Int64(1)); // parity 0: {2}
    assert_eq!(r.row(1)[1], Value::Int64(2)); // parity 1: {1, 3}
}

#[test]
fn execute_script_runs_all() {
    let db = Database::new();
    let r = db
        .execute_script(
            "CREATE TABLE s (x INT); INSERT INTO s VALUES (1), (2); SELECT SUM(x) FROM s",
        )
        .unwrap();
    assert_eq!(r.batch().column(0).value(0), Value::Int64(3));
}

#[test]
fn explain_shows_optimized_plan() {
    let db = db();
    let r = db.query("EXPLAIN SELECT a FROM t WHERE a > 1 + 1 ORDER BY a LIMIT 3").unwrap();
    let text: Vec<String> =
        (0..r.rows()).map(|i| r.row(i)[0].as_str().unwrap().to_owned()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("Limit"), "{joined}");
    assert!(joined.contains("Scan t"), "{joined}");
    // Constant folding happened: the predicate compares against 2.
    assert!(joined.contains("> 2"), "{joined}");
    assert!(!joined.contains("1 + 1"), "{joined}");
}

#[test]
fn optimizer_preserves_results() {
    let db = db();
    db.execute("CREATE TABLE u (b VARCHAR, w INTEGER)").unwrap();
    db.execute("INSERT INTO u VALUES ('x', 1), ('y', 2)").unwrap();
    // Filter over join with per-side and cross-side conjuncts.
    let r = db
        .query(
            "SELECT t.a, u.w FROM t JOIN u ON t.b = u.b                  WHERE t.a > 0 AND u.w < 2 AND t.a <> u.w ORDER BY t.a",
        )
        .unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0), vec![Value::Int32(3), Value::Int32(1)]);
}

fn durable_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mlcs_durable_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_reopen_replays_every_statement_kind() {
    let dir = durable_dir("replay");
    {
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(report.is_clean());
        assert!(db.is_durable());
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
        db.execute("DELETE FROM t WHERE a = 2").unwrap();
        db.execute("UPDATE t SET b = 'w' WHERE a = 3").unwrap();
        db.execute("CREATE TABLE gone (x INT)").unwrap();
        db.execute("DROP TABLE gone").unwrap();
        db.execute("CREATE TABLE t2 AS SELECT a FROM t").unwrap();
        db.execute("INSERT INTO t2 SELECT a + 10 FROM t").unwrap();
    } // no checkpoint: everything must come back from the log alone
    let (db, report) = Database::open_durable(&dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.replayed_records >= 8);
    assert_eq!(db.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(2));
    assert_eq!(db.query_value("SELECT b FROM t WHERE a = 3").unwrap(), Value::Varchar("w".into()));
    assert_eq!(db.query_value("SELECT SUM(a) FROM t2").unwrap(), Value::Int64(28));
    assert!(!db.catalog().has_table("gone"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_reopen_needs_no_data_replay() {
    let dir = durable_dir("ckpt_sql");
    {
        let (db, _) = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (41), (1)").unwrap();
        db.execute("CHECKPOINT").unwrap();
        // Post-checkpoint traffic lands in the fresh log.
        db.execute("INSERT INTO t VALUES (100)").unwrap();
    }
    let (db, report) = Database::open_durable(&dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    // Marker + one post-checkpoint insert; the first two statements
    // came back from pages.
    assert_eq!(report.replayed_records, 2, "{report:?}");
    assert_eq!(db.query_value("SELECT SUM(v) FROM t").unwrap(), Value::Int64(142));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_requires_durable_database() {
    let db = db();
    assert!(matches!(db.execute("CHECKPOINT"), Err(DbError::Unsupported(_))));
    assert!(!db.is_durable());
}

#[test]
fn save_statement_snapshots_to_directory() {
    let dir = durable_dir("save_stmt");
    let snap = durable_dir("save_stmt_snap");
    let db = db();
    db.execute(&format!("SAVE '{}'", snap.display())).unwrap();
    let restored = Database::new();
    crate::persist::load_database(&restored, &snap).unwrap();
    assert_eq!(restored.query_value("SELECT COUNT(*) FROM t").unwrap(), Value::Int64(4));
    // On a durable database SAVE checkpoints first, so saving into the
    // durable directory itself stays reopenable.
    let (ddb, _) = Database::open_durable(&dir).unwrap();
    ddb.execute("CREATE TABLE u (x INT)").unwrap();
    ddb.execute("INSERT INTO u VALUES (5)").unwrap();
    ddb.execute(&format!("SAVE '{}'", dir.display())).unwrap();
    drop(ddb);
    let (back, report) = Database::open_durable(&dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(back.query_value("SELECT x FROM u").unwrap(), Value::Int32(5));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&snap).unwrap();
}

#[test]
fn blob_round_trip_via_sql() {
    let db = Database::new();
    db.execute("CREATE TABLE m (id INT, body BLOB)").unwrap();
    db.execute("INSERT INTO m VALUES (1, x'DEADBEEF')").unwrap();
    let v = db.query_value("SELECT body FROM m WHERE id = 1").unwrap();
    assert_eq!(v, Value::Blob(vec![0xDE, 0xAD, 0xBE, 0xEF]));
    assert_eq!(db.query_value("SELECT OCTET_LENGTH(body) FROM m").unwrap(), Value::Int64(4));
}
