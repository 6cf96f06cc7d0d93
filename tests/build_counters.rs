//! Building a table ticks `sql.stats.built` once per (re)computation and
//! `exec.encoding.columns_encoded` once per column the heuristic encodes,
//! on every path that builds one: a bulk `Table::from_batch`, a CTAS, a
//! reopen from disk, a DELETE and an UPDATE.
//!
//! A single `#[test]` on purpose: the registry is process-global.

mod common;

use common::ScratchDir;
use mlcs::columnar::batch::Batch;
use mlcs::columnar::column::Column;
use mlcs::columnar::persist::{load_database_with, save_database, RecoveryMode};
use mlcs::columnar::table::Table;
use mlcs::columnar::{metrics, Database};

/// `(sql.stats.built, exec.encoding.columns_encoded)` ticked by `f`.
fn ticks(f: impl FnOnce()) -> (u64, u64) {
    let before = metrics::snapshot();
    f();
    let delta = metrics::snapshot().since(&before);
    (delta.counter("sql.stats.built"), delta.counter("exec.encoding.columns_encoded"))
}

/// 4 096 rows: a distinct key (stays plain), a 5-value group (dictionary),
/// 8 long runs of text (RLE) and a distinct double (plain).
fn batch() -> Batch {
    let n = 4096;
    let names: Vec<String> = (0..n).map(|i| format!("run{}", i / 512)).collect();
    Batch::from_columns(vec![
        ("k", Column::from_i32s((0..n).collect())),
        ("g", Column::from_i32s((0..n).map(|i| i % 5).collect())),
        ("s", Column::from_strings(names.iter().map(String::as_str))),
        ("x", Column::from_f64s((0..n).map(|i| f64::from(i) * 0.5).collect())),
    ])
    .unwrap()
}

#[test]
fn table_builds_tick_once() {
    let db = Database::new();
    let bulk = ticks(|| {
        db.catalog().put_table(Table::from_batch("src", batch()), false).unwrap();
    });
    assert_eq!(bulk, (1, 2), "bulk from_batch: one stats build, g and s encoded");

    let ctas = ticks(|| {
        db.execute("CREATE TABLE t AS SELECT k, g + 1 AS g, s, x FROM src").unwrap();
    });
    assert_eq!(ctas, (1, 1), "CTAS: one stats build, the computed g encoded");

    let dir = ScratchDir::new("build_counters");
    save_database(&db, &dir).unwrap();
    let reopened = Database::new();
    let reopen = ticks(|| {
        load_database_with(&reopened, &dir, RecoveryMode::Strict).unwrap();
    });
    assert_eq!(reopen, (2, 4), "reopen: one build per table, g and s of each encoded");

    let delete = ticks(|| {
        db.execute("DELETE FROM t WHERE k % 3 = 0").unwrap();
    });
    assert_eq!(delete, (1, 0), "DELETE recomputes stats once and encodes nothing");

    let update = ticks(|| {
        db.execute("UPDATE t SET x = 1.5, g = 2 WHERE k < 100").unwrap();
    });
    assert_eq!(update, (2, 0), "UPDATE recomputes stats once per assigned column");
}
