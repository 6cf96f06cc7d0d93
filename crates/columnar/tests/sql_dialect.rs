//! End-to-end SQL dialect coverage through the public `Database` API.

use mlcs_columnar::{Database, DbError, Value};

fn db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE emp (id INTEGER NOT NULL, name VARCHAR, dept VARCHAR, salary DOUBLE, boss INTEGER);
         INSERT INTO emp VALUES
           (1, 'ada',  'eng',   100.0, NULL),
           (2, 'bob',  'eng',    80.0, 1),
           (3, 'cat',  'sales',  70.0, 1),
           (4, 'dan',  'sales',  72.5, 3),
           (5, 'eve',  'hr',     60.0, 1),
           (6, 'fay',  NULL,     55.0, 5);",
    )
    .unwrap();
    db
}

#[test]
fn qualified_wildcards_and_aliases() {
    let db = db();
    let r = db.query("SELECT e.* FROM emp e WHERE e.dept = 'eng' ORDER BY e.id").unwrap();
    assert_eq!(r.rows(), 2);
    assert_eq!(r.width(), 5);
    let r = db
        .query("SELECT b.name AS boss_name, e.name AS emp_name FROM emp e JOIN emp b ON e.boss = b.id ORDER BY e.id")
        .unwrap();
    assert_eq!(r.rows(), 5);
    assert_eq!(r.row(0)[0], Value::Varchar("ada".into()));
    assert_eq!(r.schema().names(), vec!["boss_name", "emp_name"]);
}

#[test]
fn self_left_join_keeps_the_root() {
    let db = db();
    let r = db
        .query(
            "SELECT e.name, b.name FROM emp e LEFT JOIN emp b ON e.boss = b.id \
             WHERE b.name IS NULL",
        )
        .unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0)[0], Value::Varchar("ada".into()));
}

#[test]
fn group_by_having_order_limit_pipeline() {
    let db = db();
    let r = db
        .query(
            "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal
             FROM emp
             WHERE dept IS NOT NULL
             GROUP BY dept
             HAVING COUNT(*) >= 2
             ORDER BY avg_sal DESC
             LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.rows(), 1);
    assert_eq!(r.row(0)[0], Value::Varchar("eng".into()));
    assert_eq!(r.row(0)[1], Value::Int64(2));
    assert_eq!(r.row(0)[2], Value::Float64(90.0));
}

#[test]
fn order_by_non_projected_column() {
    let db = db();
    let r = db.query("SELECT name FROM emp ORDER BY salary DESC LIMIT 2").unwrap();
    assert_eq!(r.row(0)[0], Value::Varchar("ada".into()));
    assert_eq!(r.row(1)[0], Value::Varchar("bob".into()));
    // The hidden sort column does not leak into the output.
    assert_eq!(r.width(), 1);
    // Expressions over non-projected columns also work.
    let r = db.query("SELECT name FROM emp ORDER BY salary * -1 ASC LIMIT 1").unwrap();
    assert_eq!(r.row(0)[0], Value::Varchar("ada".into()));
}

#[test]
fn aggregates_inside_expressions() {
    let db = db();
    let r = db
        .query(
            "SELECT dept, MAX(salary) - MIN(salary) AS spread
             FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept",
        )
        .unwrap();
    assert_eq!(r.rows(), 3);
    assert_eq!(r.row(0)[1], Value::Float64(20.0)); // eng
    assert_eq!(r.row(2)[1], Value::Float64(2.5)); // sales
}

#[test]
fn scalar_subqueries_in_projection_and_where() {
    let db = db();
    let r = db
        .query(
            "SELECT name, salary - (SELECT AVG(salary) FROM emp) AS delta
             FROM emp
             WHERE salary > (SELECT AVG(salary) FROM emp)
             ORDER BY salary DESC",
        )
        .unwrap();
    assert_eq!(r.rows(), 2);
    let delta = r.row(0)[1].as_f64().unwrap();
    assert!(delta > 0.0);
}

#[test]
fn derived_tables_nest() {
    let db = db();
    let r = db
        .query(
            "SELECT top.dept
             FROM (SELECT dept, AVG(salary) AS a
                   FROM (SELECT * FROM emp WHERE dept IS NOT NULL) clean
                   GROUP BY dept) top
             ORDER BY top.a DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.row(0)[0], Value::Varchar("eng".into()));
}

#[test]
fn case_in_list_between_like() {
    let db = db();
    let r = db
        .query(
            "SELECT name,
                    CASE WHEN salary >= 80 THEN 'high'
                         WHEN salary BETWEEN 60 AND 79.99 THEN 'mid'
                         ELSE 'low' END AS band
             FROM emp
             WHERE name LIKE '%a%' AND dept IN ('eng', 'sales', 'hr')
             ORDER BY name",
        )
        .unwrap();
    // ada (eng), cat (sales), dan (sales), fay has NULL dept -> excluded.
    assert_eq!(r.rows(), 3);
    assert_eq!(r.row(0)[1], Value::Varchar("high".into()));
    assert_eq!(r.row(1)[1], Value::Varchar("mid".into()));
}

#[test]
fn distinct_and_union_all_pipeline() {
    let db = db();
    let r = db
        .query(
            "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL
             UNION ALL
             SELECT 'all'",
        )
        .unwrap();
    assert_eq!(r.rows(), 4);
}

#[test]
fn update_with_expression_and_where() {
    let db = db();
    let r = db.execute("UPDATE emp SET salary = salary * 1.1 WHERE dept = 'sales'").unwrap();
    assert_eq!(r.rows_affected(), 2);
    let v = db.query_value("SELECT salary FROM emp WHERE name = 'cat'").unwrap();
    assert!((v.as_f64().unwrap() - 77.0).abs() < 1e-9);
    // Other rows untouched.
    assert_eq!(
        db.query_value("SELECT salary FROM emp WHERE name = 'ada'").unwrap(),
        Value::Float64(100.0)
    );
}

#[test]
fn delete_everything_then_insert_select() {
    let db = db();
    db.execute("CREATE TABLE backup AS SELECT * FROM emp").unwrap();
    let r = db.execute("DELETE FROM emp").unwrap();
    assert_eq!(r.rows_affected(), 6);
    assert_eq!(db.query_value("SELECT COUNT(*) FROM emp").unwrap(), Value::Int64(0));
    db.execute("INSERT INTO emp SELECT * FROM backup WHERE dept = 'eng'").unwrap();
    assert_eq!(db.query_value("SELECT COUNT(*) FROM emp").unwrap(), Value::Int64(2));
}

#[test]
fn three_way_join() {
    let db = db();
    db.execute_script(
        "CREATE TABLE dept_info (dept VARCHAR, floor INTEGER);
         INSERT INTO dept_info VALUES ('eng', 3), ('sales', 1), ('hr', 2);
         CREATE TABLE floors (floor INTEGER, building VARCHAR);
         INSERT INTO floors VALUES (1, 'A'), (2, 'A'), (3, 'B');",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT e.name, f.building
             FROM emp e
             JOIN dept_info d ON e.dept = d.dept
             JOIN floors f ON d.floor = f.floor
             WHERE f.building = 'B'
             ORDER BY e.name",
        )
        .unwrap();
    assert_eq!(r.rows(), 2);
    assert_eq!(r.row(0)[0], Value::Varchar("ada".into()));
    assert_eq!(r.row(1)[0], Value::Varchar("bob".into()));
}

#[test]
fn using_join_syntax() {
    let db = db();
    db.execute_script(
        "CREATE TABLE bonus (id INTEGER, amount DOUBLE);
         INSERT INTO bonus VALUES (1, 10.0), (3, 5.0);",
    )
    .unwrap();
    let r = db
        .query("SELECT e.name, b.amount FROM emp e JOIN bonus b USING (id) ORDER BY e.id")
        .unwrap();
    assert_eq!(r.rows(), 2);
    assert_eq!(r.row(1)[0], Value::Varchar("cat".into()));
}

#[test]
fn ambiguity_and_resolution_errors() {
    let db = db();
    db.execute("CREATE TABLE emp2 (id INTEGER, name VARCHAR)").unwrap();
    db.execute("INSERT INTO emp2 VALUES (1, 'x')").unwrap();
    // Bare `name` is ambiguous across the join.
    let err = db.execute("SELECT name FROM emp JOIN emp2 ON emp.id = emp2.id");
    assert!(matches!(err, Err(DbError::Bind(m)) if m.contains("ambiguous")));
    // Qualified resolution works.
    let r = db.query("SELECT emp2.name FROM emp JOIN emp2 ON emp.id = emp2.id").unwrap();
    assert_eq!(r.rows(), 1);
}

#[test]
fn null_semantics_through_sql() {
    let db = db();
    // NULL dept: excluded by both = and <>, caught only by IS NULL.
    assert_eq!(db.query("SELECT * FROM emp WHERE dept = 'hr'").unwrap().rows(), 1);
    assert_eq!(db.query("SELECT * FROM emp WHERE dept <> 'hr'").unwrap().rows(), 4);
    assert_eq!(db.query("SELECT * FROM emp WHERE dept IS NULL").unwrap().rows(), 1);
    // COALESCE fills the hole.
    assert_eq!(
        db.query_value("SELECT COALESCE(dept, 'unknown') FROM emp WHERE id = 6").unwrap(),
        Value::Varchar("unknown".into())
    );
}

#[test]
fn explain_over_joins() {
    let db = db();
    let r = db
        .query(
            "EXPLAIN SELECT e.name FROM emp e JOIN emp b ON e.boss = b.id \
             WHERE e.salary > 50 + 10",
        )
        .unwrap();
    let text: Vec<String> =
        (0..r.rows()).map(|i| r.row(i)[0].as_str().unwrap().to_owned()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("Join"), "{joined}");
    // Constant folded and pushed into the probe side below the join.
    assert!(joined.contains("> 60"), "{joined}");
    let join_line = text.iter().position(|l| l.contains("Join")).unwrap();
    let filter_line = text.iter().position(|l| l.contains("Filter")).unwrap();
    assert!(filter_line > join_line, "filter not pushed below join:\n{joined}");
}

#[test]
fn errors_are_actionable() {
    let db = db();
    for (sql, needle) in [
        ("SELECT * FROM ghost", "ghost"),
        ("SELECT ghost FROM emp", "ghost"),
        ("INSERT INTO emp (ghost) VALUES (1)", "ghost"),
        ("SELECT LENGTH(salary) FROM emp", "VARCHAR"),
        ("SELECT salary + name FROM emp", "+"),
        ("SELECT 1/0", "zero"),
    ] {
        let err = db.execute(sql).unwrap_err().to_string();
        assert!(
            err.to_lowercase().contains(&needle.to_lowercase()),
            "{sql}: error '{err}' does not mention '{needle}'"
        );
    }
}

#[test]
fn order_by_expression_text_after_a_wildcard() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INTEGER, b INTEGER);
         INSERT INTO t VALUES (1, 30), (2, 10), (3, 20), (3, 5);",
    )
    .unwrap();
    let sorted = |sql: &str, col: usize| -> Vec<Value> {
        let r = db.query(sql).unwrap();
        (0..r.rows()).map(|i| r.row(i)[col].clone()).collect()
    };
    // a * 100 - b is 70, 190, 280, 295: the rows stay in insertion order,
    // where ordering by b would give 5, 10, 20, 30.
    let want: Vec<Value> = [70, 190, 280, 295].into_iter().map(Value::Int64).collect();
    assert_eq!(sorted("SELECT *, a * 100 - b FROM t ORDER BY a * 100 - b", 2), want);
    assert_eq!(sorted("SELECT b, *, a * 100 - b FROM t ORDER BY a * 100 - b", 3), want);
    let mut desc = want.clone();
    desc.reverse();
    assert_eq!(sorted("SELECT a, *, a * 100 - b FROM t ORDER BY a * 100 - b DESC", 3), desc);
}

#[test]
fn union_order_by_error_names_the_item() {
    let db = db();
    let err = db
        .query("SELECT id FROM emp UNION ALL SELECT boss FROM emp ORDER BY x")
        .unwrap_err()
        .to_string();
    assert!(err.contains("ORDER BY item 1 (x)"), "{err}");
    assert!(!err.contains("Ident("), "{err}");
    let err = db
        .query("SELECT id FROM emp UNION ALL SELECT boss FROM emp ORDER BY id, id + 1")
        .unwrap_err()
        .to_string();
    assert!(err.contains("ORDER BY item 2 must"), "{err}");
    assert!(!err.contains("Binary"), "{err}");
}
