//! Compressed execution must be invisible: a query over dictionary- or
//! RLE-encoded columns returns bit-identical results to the same query
//! over plain columns, serially and on the morsel-parallel path, over
//! NULL-heavy, low-NDV, and adversarial (all-distinct, single-run) data.
//!
//! Encodings are forced through `Table::set_column_encoding` so the suite
//! does not depend on the auto heuristic's row floor — every combination
//! runs over small, fully-controlled fixtures.

use mlcs::columnar::{Batch, Database, Encoding, Value};
use proptest::prelude::*;

/// Rows for one `t (k INTEGER, x DOUBLE, s VARCHAR)` table, as SQL tuples.
fn insert_sql(rows: &[(Option<i32>, Option<f64>, Option<String>)]) -> Option<String> {
    if rows.is_empty() {
        return None;
    }
    let values: Vec<String> = rows
        .iter()
        .map(|(k, x, s)| {
            let k = k.map_or("NULL".to_owned(), |v| v.to_string());
            let x = x.map_or("NULL".to_owned(), |v| format!("{v:?}"));
            let s = s.as_ref().map_or("NULL".to_owned(), |v| format!("'{v}'"));
            format!("({k}, {x}, {s})")
        })
        .collect();
    Some(format!("INSERT INTO t VALUES {}", values.join(",")))
}

/// A database holding `rows` with each column forced to the encoding in
/// `encodings` (positionally), pinned to `threads` workers.
fn db_with(
    rows: &[(Option<i32>, Option<f64>, Option<String>)],
    encodings: &[Encoding; 3],
    threads: usize,
) -> Database {
    let db = Database::new();
    db.set_threads(threads);
    if threads > 1 {
        db.set_parallel_threshold(1);
    }
    db.execute("CREATE TABLE t (k INTEGER, x DOUBLE, s VARCHAR)").unwrap();
    if let Some(sql) = insert_sql(rows) {
        db.execute(&sql).unwrap();
    }
    let table = db.catalog().table("t").unwrap();
    for (i, &enc) in encodings.iter().enumerate() {
        table.write().set_column_encoding(i, enc).unwrap();
    }
    db
}

const PLAIN: [Encoding; 3] = [Encoding::Plain, Encoding::Plain, Encoding::Plain];
const DICT: [Encoding; 3] = [Encoding::Dict, Encoding::Dict, Encoding::Dict];
const RLE: [Encoding; 3] = [Encoding::Rle, Encoding::Rle, Encoding::Rle];
const MIXED: [Encoding; 3] = [Encoding::Dict, Encoding::Rle, Encoding::Dict];

/// NULL-heavy mixed data: ~1/3 NULL keys, NULLs sprinkled everywhere.
fn null_heavy() -> Vec<(Option<i32>, Option<f64>, Option<String>)> {
    (0..300i32)
        .map(|i| {
            let k = (i % 3 != 0).then_some(i % 5);
            let x = (i % 4 != 0).then_some((i % 13) as f64 * 0.5);
            let s = (i % 6 != 0).then(|| format!("a{}", i % 7));
            (k, x, s)
        })
        .collect()
}

/// Low-NDV data: the dictionary's best case, long-ish runs for RLE.
fn low_ndv() -> Vec<(Option<i32>, Option<f64>, Option<String>)> {
    (0..300i32)
        .map(|i| (Some(i / 100), Some((i / 150) as f64), Some(format!("g{}", i / 75))))
        .collect()
}

/// Adversarial for dict: every value distinct (dictionary as long as the
/// column, every code unique).
fn all_distinct() -> Vec<(Option<i32>, Option<f64>, Option<String>)> {
    (0..200i32).map(|i| (Some(i), Some(i as f64 * 0.25), Some(format!("u{i}")))).collect()
}

/// Adversarial for RLE: one single run per column (plus a NULL stripe so
/// validity interacts with the run).
fn single_run() -> Vec<(Option<i32>, Option<f64>, Option<String>)> {
    (0..200i32).map(|i| (Some(7), (i < 150).then_some(1.5), Some("c".to_owned()))).collect()
}

/// The query battery: fusible predicates (comparisons, AND/OR/NOT,
/// BETWEEN, IS NULL), non-fusible ones (LIKE, IN, arithmetic), grouped and
/// ungrouped aggregation, DISTINCT, join, sort. Group-by queries without
/// ORDER BY pin the first-appearance output order, which the dict-code
/// group path must reproduce exactly.
const QUERIES: &[&str] = &[
    "SELECT k, x, s FROM t WHERE k < 2 ORDER BY k, x, s",
    "SELECT k, s FROM t WHERE s = 'a1' OR k IS NULL ORDER BY k, s",
    "SELECT k, x FROM t WHERE x >= 1.0 AND NOT (k = 1) ORDER BY k, x",
    "SELECT k FROM t WHERE k BETWEEN 0 AND 2 AND s IS NOT NULL ORDER BY k",
    "SELECT s FROM t WHERE s LIKE 'a%' ORDER BY s",
    "SELECT k FROM t WHERE k IN (0, 2, 5) ORDER BY k",
    "SELECT k, x FROM t WHERE k + 1 > 2 ORDER BY k, x",
    "SELECT k, COUNT(*) FROM t GROUP BY k",
    "SELECT s, COUNT(*) FROM t GROUP BY s",
    "SELECT k, COUNT(*), COUNT(x), SUM(k), AVG(x), MIN(s), MAX(x) FROM t GROUP BY k ORDER BY k",
    "SELECT COUNT(*), COUNT(x), SUM(k), MIN(k), MAX(s) FROM t",
    "SELECT SUM(k) FROM t WHERE s IS NOT NULL",
    "SELECT DISTINCT k, s FROM t ORDER BY k, s",
    "SELECT a.k, b.s FROM t a JOIN t b ON a.k = b.k WHERE a.x < 2.0 ORDER BY a.k, b.s, a.x",
    "SELECT k, x, s FROM t ORDER BY s DESC, k, x",
];

/// Bit-identical equality: doubles compared by bit pattern, everything
/// else by value. No tolerance — encoded execution must perform the exact
/// same float operations in the exact same order as plain execution.
fn assert_bit_identical(plain: &Batch, encoded: &Batch, what: &str, sql: &str) {
    assert_eq!(plain.rows(), encoded.rows(), "[{what}] row count differs for {sql}");
    for r in 0..plain.rows() {
        let (a, b) = (plain.row(r), encoded.row(r));
        assert_eq!(a.len(), b.len(), "[{what}] arity differs for {sql}");
        for (i, (va, vb)) in a.iter().zip(&b).enumerate() {
            let same = match (va, vb) {
                (Value::Float64(fa), Value::Float64(fb)) => fa.to_bits() == fb.to_bits(),
                _ => va == vb,
            };
            assert!(same, "[{what}] row {r} col {i} differs for {sql}: {va:?} vs {vb:?}");
        }
    }
}

fn battery(rows: &[(Option<i32>, Option<f64>, Option<String>)], dataset: &str) {
    let plain = db_with(rows, &PLAIN, 1);
    let variants: [(&str, [Encoding; 3]); 3] = [("dict", DICT), ("rle", RLE), ("mixed", MIXED)];
    for (name, encs) in &variants {
        let serial = db_with(rows, encs, 1);
        let parallel = db_with(rows, encs, 4);
        for sql in QUERIES {
            let want = plain.query(sql).unwrap();
            let got = serial.query(sql).unwrap();
            assert_bit_identical(&want, &got, &format!("{dataset}/{name}/serial"), sql);
            let got_par = parallel.query(sql).unwrap();
            assert_bit_identical(&want, &got_par, &format!("{dataset}/{name}/parallel"), sql);
        }
    }
}

#[test]
fn encoded_matches_plain_null_heavy() {
    battery(&null_heavy(), "null_heavy");
}

#[test]
fn encoded_matches_plain_low_ndv() {
    battery(&low_ndv(), "low_ndv");
}

#[test]
fn encoded_matches_plain_all_distinct() {
    battery(&all_distinct(), "all_distinct");
}

#[test]
fn encoded_matches_plain_single_run() {
    battery(&single_run(), "single_run");
}

/// Empty tables encode and execute too (zero runs, empty dictionary).
#[test]
fn encoded_matches_plain_empty() {
    battery(&[], "empty");
}

/// Random data, random per-column encodings, random query: encoded serial
/// execution is bit-identical to plain serial, and encoded parallel
/// matches on rows (floats compared exactly here too — filters and
/// integer aggregates dominate the generated shapes, and per-morsel float
/// partials are re-folded in morsel order).
fn arb_encoding(w: u64) -> Encoding {
    match w % 3 {
        0 => Encoding::Plain,
        1 => Encoding::Dict,
        _ => Encoding::Rle,
    }
}

fn build_query(r: &[u64]) -> String {
    let pick = |w: u64, menu: &[&str]| menu[(w % menu.len() as u64) as usize].to_owned();
    let exprs = ["k", "x", "s", "k + 1", "k % 3", "COALESCE(k, 0)", "LENGTH(s)"];
    let preds = [
        "k > 3",
        "k < 2",
        "x <= 4.0",
        "s = 'a1'",
        "k IS NULL",
        "s IS NOT NULL",
        "k BETWEEN 1 AND 5",
        "k IN (1, 2, 3)",
        "NOT (k = 2)",
        "k > 1 AND x < 50.0",
        "k < 1 OR s LIKE 'a%'",
    ];
    let aggs = ["COUNT(*)", "COUNT(x)", "SUM(k)", "MIN(s)", "MAX(k)"];
    let w = |i: usize| r.get(i).copied().unwrap_or(0);
    match w(0) % 3 {
        0 => {
            let mut q = format!("SELECT {}, {} FROM t", pick(w(1), &exprs), pick(w(2), &exprs));
            if w(3) % 2 == 0 {
                q += &format!(" WHERE {}", pick(w(4), &preds));
            }
            q += " ORDER BY 1, 2";
            q
        }
        1 => {
            let mut q = format!(
                "SELECT {}, {} FROM t GROUP BY {}",
                pick(w(1), &["k", "s", "k % 2"]),
                pick(w(2), &aggs),
                pick(w(1), &["k", "s", "k % 2"]),
            );
            if w(3) % 2 == 0 {
                q += &format!(" HAVING {}", pick(w(4), &["COUNT(*) > 1", "COUNT(*) >= 0"]));
            }
            q
        }
        _ => format!(
            "SELECT a.k, b.s FROM t a JOIN t b ON a.k = b.k WHERE {} ORDER BY a.k, b.s, a.x",
            pick(w(1), &["a.k > 1", "b.s IS NOT NULL", "a.x < 3.0", "a.k BETWEEN 0 AND 4"]),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoded_matches_plain(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-4i32..6),
                proptest::option::of((-8i32..8).prop_map(|v| v as f64 * 0.5)),
                proptest::option::of((0u8..5).prop_map(|v| format!("a{v}"))),
            ),
            0..50,
        ),
        encs in proptest::collection::vec(any::<u64>(), 3),
        words in proptest::collection::vec(any::<u64>(), 6),
    ) {
        let encodings = [arb_encoding(encs[0]), arb_encoding(encs[1]), arb_encoding(encs[2])];
        let plain = db_with(&rows, &PLAIN, 1);
        let encoded = db_with(&rows, &encodings, 1);
        let encoded_par = db_with(&rows, &encodings, 4);
        let sql = build_query(&words);
        // Typed runtime errors are a valid outcome, but they must not
        // depend on the encoding or the executor.
        let (want, got, got_par) =
            match (plain.query(&sql), encoded.query(&sql), encoded_par.query(&sql)) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                (Err(_), Err(_), Err(_)) => return Ok(()),
                (a, b, c) => {
                    return Err(TestCaseError::fail(format!(
                        "plain/encoded disagreed on success for {sql}: \
                         plain {:?}, encoded {:?}, encoded-parallel {:?}",
                        a.map(|x| x.rows()),
                        b.map(|x| x.rows()),
                        c.map(|x| x.rows()),
                    )));
                }
            };
        prop_assert_eq!(want.rows(), got.rows(), "serial row count diverged for {}", &sql);
        prop_assert_eq!(want.rows(), got_par.rows(), "parallel row count diverged for {}", &sql);
        for r in 0..want.rows() {
            for (which, out) in [("serial", &got), ("parallel", &got_par)] {
                let (a, b) = (want.row(r), out.row(r));
                prop_assert_eq!(a.len(), b.len());
                for (va, vb) in a.iter().zip(&b) {
                    let same = match (va, vb) {
                        (Value::Float64(fa), Value::Float64(fb)) => fa.to_bits() == fb.to_bits(),
                        _ => va == vb,
                    };
                    prop_assert!(same, "{} row {} diverged for {}: {:?} vs {:?}",
                        which, r, &sql, va, vb);
                }
            }
        }
    }
}

/// A result's column equality is logical: an all-NULL group's `MIN` is the
/// same NULL whether the column was plain (a zero placeholder) or a
/// dictionary (the NULL row points at some entry), so the two results are
/// `==` column for column, and stay so across the wire.
#[test]
fn equal_results_compare_equal_across_encodings() {
    // Group 2 has no x and no s.
    let rows: Vec<_> = (0..60i32)
        .map(|i| {
            let k = i % 3;
            let x = (k != 2).then_some(f64::from(i % 7) + 0.5);
            let s = (k != 2).then(|| format!("v{}", i % 5));
            (Some(k), x, s)
        })
        .collect();
    let sql = "SELECT k, MIN(x), MIN(s) FROM t GROUP BY k ORDER BY k";
    let plain = db_with(&rows, &PLAIN, 1).query(sql).unwrap();
    for encs in [DICT, MIXED] {
        let db = db_with(&rows, &encs, 1);
        let encoded = db.query(sql).unwrap();
        assert!(encoded.column(2).is_null(2), "group 2's MIN(s) is NULL");
        for c in 0..plain.width() {
            assert_eq!(plain.column(c), encoded.column(c), "column {c} under {encs:?}");
        }
        let server = mlcs::netproto::Server::start(db).unwrap();
        let wire =
            mlcs::netproto::BinaryClient::connect(server.addr()).unwrap().query(sql).unwrap();
        for c in 0..plain.width() {
            assert_eq!(plain.column(c), wire.column(c), "column {c} over the wire");
        }
        server.shutdown();
    }
}
