//! Property-based tests over the SQL engine: invariants that must hold
//! for arbitrary data, exercised through the public API.

use mlcs::columnar::sql::optimizer::{optimize_with_stats, prune_columns};
use mlcs::columnar::sql::{bind, execute_plan_with, optimize, parse, BoundStatement, ExecOptions};
use mlcs::columnar::types::DataType;
use mlcs::columnar::udf::ClosureScalarUdf;
use mlcs::columnar::{verify_statement, Batch, Column, Database, DbResult, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a database with one integer/float table from generated rows.
fn db_with_rows(rows: &[(i32, f64)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER, x DOUBLE)").unwrap();
    if !rows.is_empty() {
        let values: Vec<String> = rows.iter().map(|(k, x)| format!("({k}, {x})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    }
    db
}

/// Builds a database whose table `t` carries an integer, a float, and a
/// string column, for the plan-verifier property below.
fn db_with_mixed_rows(rows: &[(i32, f64)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER, x DOUBLE, s VARCHAR)").unwrap();
    if !rows.is_empty() {
        let values: Vec<String> =
            rows.iter().enumerate().map(|(i, (k, x))| format!("({k}, {x}, 'a{i}')")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    }
    db
}

/// Deterministically assembles a SELECT statement from random words,
/// drawing every fragment from menus the binder accepts over
/// `t (k INTEGER, x DOUBLE, s VARCHAR)`. Exercises projections, builtins,
/// CASE, predicates (incl. scalar subqueries), joins, grouping, set ops,
/// ordering, and limits.
fn build_query(r: &[u64]) -> String {
    let pick = |w: u64, menu: &[&str]| menu[(w % menu.len() as u64) as usize].to_owned();
    let exprs = [
        "k",
        "x",
        "s",
        "k + 1",
        "x * 2.0",
        "k % 7",
        "-k",
        "ABS(k)",
        "ROUND(x)",
        "UPPER(s)",
        "LENGTH(s)",
        "COALESCE(k, 0)",
        "CASE WHEN k > 0 THEN 'pos' ELSE 'neg' END",
        "CAST(k AS DOUBLE)",
        "s || '!'",
    ];
    let preds = [
        "k > 3",
        "x < 100.0",
        "s LIKE 'a%'",
        "k IS NOT NULL",
        "k BETWEEN 1 AND 5",
        "k IN (1, 2, 3)",
        "NOT (k = 2)",
        "x > (SELECT AVG(x) FROM t)",
        "k > 1 AND x < 50.0",
    ];
    let aggs = ["COUNT(*)", "SUM(k)", "AVG(x)", "MIN(s)", "MAX(k)", "COUNT(DISTINCT k)"];
    let shape = r.first().copied().unwrap_or(0) % 4;
    let w = |i: usize| r.get(i).copied().unwrap_or(0);
    match shape {
        0 => {
            // Plain projection with optional filter/order/limit.
            let mut q = format!("SELECT {}, {} FROM t", pick(w(1), &exprs), pick(w(2), &exprs));
            if w(3) % 2 == 0 {
                q += &format!(" WHERE {}", pick(w(4), &preds));
            }
            if w(5) % 2 == 0 {
                q += " ORDER BY 1";
            }
            if w(6) % 3 == 0 {
                q += &format!(" LIMIT {}", w(7) % 10);
            }
            q
        }
        1 => {
            // Grouped aggregation with optional HAVING.
            let mut q = format!("SELECT k % 3 AS g, {} FROM t GROUP BY k % 3", pick(w(1), &aggs));
            if w(2) % 2 == 0 {
                q += " HAVING COUNT(*) > 0";
            }
            if w(3) % 2 == 0 {
                q += " ORDER BY g";
            }
            q
        }
        2 => {
            // Self-join on the integer key.
            let join_preds = [
                "a.k > 3",
                "b.x < 100.0",
                "a.s LIKE 'a%'",
                "a.k IS NOT NULL",
                "a.k BETWEEN 1 AND 5",
                "b.k IN (1, 2, 3)",
                "NOT (a.k = 2)",
            ];
            format!(
                "SELECT a.{}, b.{} FROM t a JOIN t b ON a.k = b.k WHERE {}",
                pick(w(1), &["k", "x", "s"]),
                pick(w(2), &["k", "x", "s"]),
                pick(w(3), &join_preds),
            )
        }
        _ => {
            // UNION ALL of two compatible branches.
            format!(
                "SELECT {} FROM t UNION ALL SELECT {} FROM t WHERE {}",
                pick(w(1), &["k", "x", "k + 1"]),
                pick(w(2), &["k", "x", "k * 2"]),
                pick(w(3), &preds[..7]),
            )
        }
    }
}

/// Builds the same NULL-heavy mixed table in two databases: one pinned to
/// the serial executor, one forced onto the morsel-parallel path.
fn serial_parallel_pair(rows: &[(Option<i32>, Option<f64>)]) -> (Database, Database) {
    let serial = Database::new();
    serial.set_threads(1);
    let parallel = Database::new();
    parallel.set_threads(4);
    parallel.set_parallel_threshold(1);
    for db in [&serial, &parallel] {
        db.execute("CREATE TABLE t (k INTEGER, x DOUBLE, s VARCHAR)").unwrap();
        if !rows.is_empty() {
            let values: Vec<String> = rows
                .iter()
                .enumerate()
                .map(|(i, (k, x))| {
                    let k = k.map_or("NULL".to_owned(), |v| v.to_string());
                    let x = x.map_or("NULL".to_owned(), |v| v.to_string());
                    let s = if i % 5 == 0 { "NULL".to_owned() } else { format!("'a{i}'") };
                    format!("({k}, {x}, {s})")
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
        }
    }
    (serial, parallel)
}

/// Value equality with a relative tolerance for doubles: the parallel
/// aggregate sums float partials per morsel, which is a different (but
/// equally valid) association than the serial fold.
fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn finite_f64() -> impl Strategy<Value = f64> {
    // Finite, modest-magnitude doubles that render/parse exactly enough
    // for SQL literal round trips.
    (-1.0e9..1.0e9f64).prop_map(|v| (v * 100.0).round() / 100.0)
}

/// Three joinable tables with NULLs in every column, plus `mix(a, b)`, a
/// parallel-safe scalar UDF (`a * 31 + b`, NULL if either is NULL).
fn join_tables(
    t: &[(Option<i32>, Option<f64>, Option<i32>)],
    u: &[(Option<i32>, Option<i32>)],
    r: &[(Option<i32>, Option<f64>)],
) -> Database {
    fn lit<T: ToString>(v: &Option<T>) -> String {
        v.as_ref().map_or("NULL".to_owned(), T::to_string)
    }
    let db = Database::new();
    db.register_scalar_udf(Arc::new(
        ClosureScalarUdf::new("mix", DataType::Int64, |args: &[Arc<Column>]| {
            let (a, b) = (&args[0], &args[1]);
            let n = a.len().max(b.len());
            let at = |c: &Column, i: usize| c.i64_at(if c.len() == 1 { 0 } else { i });
            let out: Vec<Option<i64>> =
                (0..n).map(|i| Some(at(a, i)?.wrapping_mul(31).wrapping_add(at(b, i)?))).collect();
            Ok(Column::from_opt_i64s(out))
        })
        .with_arity(2)
        .parallel(),
    ));
    db.execute("CREATE TABLE t (k INTEGER, x DOUBLE, s VARCHAR, v INTEGER)").unwrap();
    db.execute("CREATE TABLE u (k INTEGER, w INTEGER, tag VARCHAR)").unwrap();
    db.execute("CREATE TABLE r (w INTEGER, z DOUBLE)").unwrap();
    let insert = |table: &str, rows: Vec<String>| {
        if !rows.is_empty() {
            db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(","))).unwrap();
        }
    };
    insert(
        "t",
        t.iter()
            .enumerate()
            .map(|(i, (k, x, v))| {
                let s = if i % 4 == 3 {
                    "NULL".to_owned()
                } else {
                    format!("'{}{i}'", ["a", "b"][i % 2])
                };
                format!("({}, {}, {s}, {})", lit(k), lit(x), lit(v))
            })
            .collect(),
    );
    insert(
        "u",
        u.iter()
            .enumerate()
            .map(|(i, (k, w))| {
                let tag = if i % 5 == 4 { "NULL".to_owned() } else { format!("'g{}'", i % 3) };
                format!("({}, {}, {tag})", lit(k), lit(w))
            })
            .collect(),
    );
    insert("r", r.iter().map(|(w, z)| format!("({}, {})", lit(w), lit(z))).collect());
    db
}

/// A random query over `t`, `u` and `r` that joins them: inner, LEFT and
/// cross joins, with and without a residual, under filters above and
/// below the join, and under `SELECT *`, GROUP BY, DISTINCT, ORDER BY …
/// LIMIT, UNION ALL, `COUNT(*)` and the scalar UDF `mix` over joined
/// columns. A few picks do not bind (a column of a table the FROM clause
/// lacks); callers skip those.
fn build_join_query(r: &[u64]) -> String {
    let w = |i: usize| r.get(i).copied().unwrap_or(0);
    let pick = |i: usize, menu: &[&str]| menu[(w(i) % menu.len() as u64) as usize].to_owned();
    let from = pick(
        1,
        &[
            "t JOIN u ON t.k = u.k",
            "t LEFT JOIN u ON t.k = u.k",
            "t JOIN u ON t.k = u.k AND t.v < u.w",
            "u JOIN t ON u.k = t.k",
            "t JOIN u ON t.k = u.k JOIN r ON u.w = r.w",
            "t LEFT JOIN u ON t.k = u.k LEFT JOIN r ON u.w = r.w",
            "(SELECT k, x, s, v FROM t WHERE v > 2) t JOIN u ON t.k = u.k",
            "t JOIN u ON t.k = u.k CROSS JOIN r",
        ],
    );
    let filter = match w(2) % 7 {
        0 => " WHERE t.v > 3",
        1 => " WHERE u.w IS NOT NULL",
        2 => " WHERE t.s LIKE 'a%'",
        3 => " WHERE t.x < u.w",
        4 => " WHERE t.k IN (1, 2, 3) AND u.w > 1",
        _ => "",
    };
    let limit = ["", " LIMIT 3", " LIMIT 0", " LIMIT 7 OFFSET 2"][(w(4) % 4) as usize];
    match w(3) % 10 {
        0 => format!("SELECT * FROM {from}{filter}"),
        1 => format!("SELECT t.s, u.tag FROM {from}{filter} ORDER BY 1, 2{limit}"),
        2 => format!("SELECT u.w, t.x * 2.0, t.k FROM {from}{filter}"),
        3 => format!("SELECT mix(t.k, u.w) AS m, t.s FROM {from}{filter} ORDER BY m{limit}"),
        4 => format!("SELECT COUNT(*) FROM {from}{filter}"),
        5 => {
            format!("SELECT u.tag, COUNT(*), SUM(t.v), MAX(t.x) FROM {from}{filter} GROUP BY u.tag")
        }
        6 => format!("SELECT DISTINCT t.k, u.tag FROM {from}{filter}"),
        7 => format!("SELECT t.k, r.z FROM {from}{filter} ORDER BY r.z, t.k{limit}"),
        8 => {
            format!("SELECT t.k, u.w FROM {from}{filter} UNION ALL SELECT k, v FROM t WHERE v > 1")
        }
        _ => format!("SELECT COUNT(*), SUM(mix(u.w, t.v)) FROM {from}{filter}"),
    }
}

/// `plan`'s result at the given options, or the error text.
fn run_plan(
    db: &Database,
    plan: &mlcs::columnar::sql::LogicalPlan,
    opts: &ExecOptions,
) -> DbResult<Batch> {
    execute_plan_with(plan, db.catalog(), db.functions(), opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// COUNT(*) equals the number of inserted rows.
    #[test]
    fn count_star_matches_inserts(rows in proptest::collection::vec((any::<i32>(), finite_f64()), 0..60)) {
        let db = db_with_rows(&rows);
        let n = db.query_value("SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(n, Value::Int64(rows.len() as i64));
    }

    /// Filtering partitions rows: |k < c| + |k >= c| == |t|.
    #[test]
    fn filter_partitions(
        rows in proptest::collection::vec((any::<i32>(), finite_f64()), 0..60),
        c in any::<i32>(),
    ) {
        let db = db_with_rows(&rows);
        let lt = db.query(&format!("SELECT * FROM t WHERE k < {c}")).unwrap().rows();
        let ge = db.query(&format!("SELECT * FROM t WHERE k >= {c}")).unwrap().rows();
        prop_assert_eq!(lt + ge, rows.len());
    }

    /// GROUP BY COUNT sums back to the total row count, and the group
    /// count equals the number of distinct keys.
    #[test]
    fn group_counts_sum_to_total(rows in proptest::collection::vec((0i32..10, finite_f64()), 1..80)) {
        let db = db_with_rows(&rows);
        let g = db.query("SELECT k, COUNT(*) AS n FROM t GROUP BY k").unwrap();
        let total: i64 = (0..g.rows())
            .map(|r| g.row(r)[1].as_i64().unwrap())
            .sum();
        prop_assert_eq!(total, rows.len() as i64);
        let distinct: std::collections::HashSet<i32> = rows.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(g.rows(), distinct.len());
    }

    /// ORDER BY produces a sorted permutation of the input.
    #[test]
    fn order_by_sorts(rows in proptest::collection::vec((any::<i32>(), finite_f64()), 0..60)) {
        let db = db_with_rows(&rows);
        let out = db.query("SELECT k FROM t ORDER BY k").unwrap();
        prop_assert_eq!(out.rows(), rows.len());
        let got: Vec<i64> = (0..out.rows()).map(|r| out.row(r)[0].as_i64().unwrap()).collect();
        let mut expect: Vec<i64> = rows.iter().map(|(k, _)| *k as i64).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// LIMIT/OFFSET never exceed bounds and compose like slicing.
    #[test]
    fn limit_offset_slices(
        rows in proptest::collection::vec((any::<i32>(), finite_f64()), 0..40),
        limit in 0usize..50,
        offset in 0usize..50,
    ) {
        let db = db_with_rows(&rows);
        let all = db.query("SELECT k FROM t ORDER BY k, x").unwrap();
        let page = db
            .query(&format!("SELECT k FROM t ORDER BY k, x LIMIT {limit} OFFSET {offset}"))
            .unwrap();
        let start = offset.min(rows.len());
        let expect = limit.min(rows.len() - start);
        prop_assert_eq!(page.rows(), expect);
        for i in 0..page.rows() {
            prop_assert_eq!(page.row(i)[0].clone(), all.row(start + i)[0].clone());
        }
    }

    /// DELETE + COUNT agree; DELETE everything leaves zero rows.
    #[test]
    fn delete_is_exact(
        rows in proptest::collection::vec((0i32..20, finite_f64()), 0..50),
        c in 0i32..20,
    ) {
        let db = db_with_rows(&rows);
        let expect_deleted = rows.iter().filter(|(k, _)| *k == c).count();
        let r = db.execute(&format!("DELETE FROM t WHERE k = {c}")).unwrap();
        prop_assert_eq!(r.rows_affected(), expect_deleted);
        let remaining = db.query_value("SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(remaining, Value::Int64((rows.len() - expect_deleted) as i64));
    }

    /// A self-join on a unique key returns exactly the original rows.
    #[test]
    fn unique_self_join_is_identity(n in 0usize..40) {
        let db = Database::new();
        db.execute("CREATE TABLE u (id INTEGER, v INTEGER)").unwrap();
        if n > 0 {
            let values: Vec<String> = (0..n).map(|i| format!("({i}, {})", i * 7)).collect();
            db.execute(&format!("INSERT INTO u VALUES {}", values.join(","))).unwrap();
        }
        let out = db
            .query("SELECT a.id, b.v FROM u a JOIN u b ON a.id = b.id")
            .unwrap();
        prop_assert_eq!(out.rows(), n);
    }

    /// SUM over an integer column equals the reference sum.
    #[test]
    fn sum_matches_reference(rows in proptest::collection::vec((-1000i32..1000, finite_f64()), 1..60)) {
        let db = db_with_rows(&rows);
        let s = db.query_value("SELECT SUM(k) FROM t").unwrap();
        let expect: i64 = rows.iter().map(|(k, _)| *k as i64).sum();
        prop_assert_eq!(s, Value::Int64(expect));
    }

    /// UNION ALL concatenates exactly.
    #[test]
    fn union_all_concatenates(
        a in proptest::collection::vec((any::<i32>(), finite_f64()), 0..30),
        b in proptest::collection::vec((any::<i32>(), finite_f64()), 0..30),
    ) {
        let db = db_with_rows(&a);
        db.execute("CREATE TABLE t2 (k INTEGER, x DOUBLE)").unwrap();
        if !b.is_empty() {
            let values: Vec<String> = b.iter().map(|(k, x)| format!("({k}, {x})")).collect();
            db.execute(&format!("INSERT INTO t2 VALUES {}", values.join(","))).unwrap();
        }
        let out = db
            .query("SELECT k FROM t UNION ALL SELECT k FROM t2")
            .unwrap();
        prop_assert_eq!(out.rows(), a.len() + b.len());
    }

    /// Every statement the binder accepts produces a plan the static
    /// verifier passes, and executing it returns a Result (no panics).
    #[test]
    fn binder_accepted_statements_verify_and_execute(
        rows in proptest::collection::vec((-50i32..50, finite_f64()), 0..20),
        words in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let db = db_with_mixed_rows(&rows);
        let sql = build_query(&words);
        let stmt = parse(&sql).unwrap();
        // The generator aims for bindable SQL, but a binder rejection is a
        // valid outcome — only panics and verifier/binder disagreements are
        // failures.
        if let Ok(bound) = bind(stmt, db.catalog(), db.functions()) {
            let verified = verify_statement(&bound, db.functions());
            prop_assert!(
                verified.is_ok(),
                "verifier rejected a binder-accepted statement: {sql}\n{:?}",
                verified.err()
            );
            // Execution may fail with a typed error (e.g. a runtime
            // cast), but must never panic.
            let _ = db.execute(&sql);
        }
    }

    /// Any generated query produces identical results on the serial and
    /// the forced-parallel executor — filter, projection, join,
    /// aggregation, sort, and set ops, over NULL-heavy columns.
    #[test]
    fn parallel_matches_serial(
        rows in proptest::collection::vec(
            (proptest::option::of(-50i32..50), proptest::option::of(finite_f64())),
            0..40,
        ),
        words in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let (serial, parallel) = serial_parallel_pair(&rows);
        let sql = build_query(&words);
        match (serial.query(&sql), parallel.query(&sql)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.rows(), b.rows(), "row count diverged for {}", &sql);
                for r in 0..a.rows() {
                    let (ra, rb) = (a.row(r), b.row(r));
                    prop_assert_eq!(ra.len(), rb.len(), "arity diverged for {}", &sql);
                    for (va, vb) in ra.iter().zip(&rb) {
                        prop_assert!(
                            values_close(va, vb),
                            "row {} diverged for {}: {:?} vs {:?}",
                            r, &sql, va, vb
                        );
                    }
                }
            }
            // Typed runtime errors must not depend on the executor.
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "serial/parallel disagreed on success for {sql}: serial {:?}, parallel {:?}",
                    a.map(|x| x.rows()),
                    b.map(|x| x.rows()),
                )));
            }
        }
    }

    /// Column pruning never changes a result: every generated join query
    /// returns the same batch — rows, order and values — from the plan
    /// optimized without `prune_columns`, the same plan pruned, and the
    /// stats-on plan (pruned after the cost passes), on the serial
    /// executor and forced onto the morsel-parallel path.
    #[test]
    fn pruned_plans_match_unpruned(
        t in proptest::collection::vec(
            (proptest::option::of(0i32..5), proptest::option::of(finite_f64()), proptest::option::of(0i32..8)),
            0..30,
        ),
        u in proptest::collection::vec(
            (proptest::option::of(0i32..5), proptest::option::of(0i32..6)),
            0..12,
        ),
        r in proptest::collection::vec(
            (proptest::option::of(0i32..6), proptest::option::of(0.0f64..4.0)),
            0..8,
        ),
        words in proptest::collection::vec(any::<u64>(), 6),
    ) {
        let db = join_tables(&t, &u, &r);
        let sql = build_join_query(&words);
        let Ok(BoundStatement::Query { plan, scalar_subs }) =
            bind(parse(&sql).unwrap(), db.catalog(), db.functions())
        else {
            return Ok(());
        };
        prop_assert!(scalar_subs.is_empty(), "the generator writes no subqueries: {}", &sql);
        let unpruned = optimize(plan.clone()).unwrap();
        let pruned = prune_columns(unpruned.clone());
        let with_stats = optimize_with_stats(plan, db.catalog(), true).unwrap().plan;
        let serial = ExecOptions::serial();
        let parallel = ExecOptions { threads: 4, parallel_threshold: 1, ..ExecOptions::default() };
        for opts in [serial, parallel] {
            let want = run_plan(&db, &unpruned, &opts);
            for (name, plan) in [("pruned", &pruned), ("stats-on", &with_stats)] {
                match (&want, run_plan(&db, plan, &opts)) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.schema().len(), b.schema().len(), "{} width: {}", name, &sql);
                        prop_assert_eq!(a.rows(), b.rows(), "{} rows: {}\n{}", name, &sql, plan);
                        for i in 0..a.rows() {
                            prop_assert_eq!(a.row(i), b.row(i), "{} row {}: {}\n{}", name, i, &sql, plan);
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "{name} disagreed on success for {sql}: {:?} vs {:?}",
                            a.as_ref().map(Batch::rows),
                            b.map(|x| x.rows()),
                        )));
                    }
                }
            }
        }
    }
}
