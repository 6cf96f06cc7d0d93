//! The model cache is addressed by content: a stored model is its bytes.
//! An `UPDATE` of the models table therefore needs no invalidation — the
//! next `predict` sees new bytes, misses, and answers with the new model —
//! and bytes that fail to decode are a typed error that is never cached.
//!
//! A single `#[test]` on purpose: the metrics registry is process-global,
//! and a concurrent test in the same binary would move the cache counters
//! whose deltas are asserted here.

mod common;

use common::{blob_literal, db_with_opposite_models};
use mlcs_columnar::{metrics, DbError, Value};

/// The cache's `(hits, misses)` over one query, and its predictions.
fn predict(db: &mlcs_columnar::Database, sql: &str) -> ((u64, u64), Vec<i64>) {
    let before = metrics::snapshot();
    let out = db.query(sql).unwrap();
    let delta = metrics::snapshot().since(&before);
    let counts = (delta.counter("modelstore.cache.hits"), delta.counter("modelstore.cache.misses"));
    (counts, out.column(0).i64s().unwrap().to_vec())
}

#[test]
fn update_needs_no_invalidation_and_garbage_is_never_cached() {
    let db = db_with_opposite_models();
    let a = "SELECT predict(x, y, (SELECT classifier FROM models WHERE name = 'a'))
             FROM pts WHERE x < 0";
    let (counts, first) = predict(&db, a);
    assert_eq!(counts, (0, 1), "the first call decodes");
    assert!(first.iter().all(|&p| p == 10));
    let (counts, again) = predict(&db, a);
    assert_eq!(counts, (1, 0), "the second call reuses the decode");
    assert_eq!(again, first);

    // Overwrite model `a` with model `b`'s bytes: new bytes, one miss, and
    // `b`'s answers — no invalidation step anywhere.
    let blob = |name: &str| match db
        .query_value(&format!("SELECT classifier FROM models WHERE name = '{name}'"))
        .unwrap()
    {
        Value::Blob(b) => b,
        other => panic!("classifier holds {other:?}"),
    };
    let (old, new) = (blob("a"), blob("b"));
    db.execute(&format!("UPDATE models SET classifier = {} WHERE name = 'a'", blob_literal(&new)))
        .unwrap();
    let (counts, updated) = predict(&db, a);
    assert_eq!(counts, (0, 1), "the updated bytes are a miss");
    assert!(updated.iter().all(|&p| p == 20), "the next predict uses the new model");
    let (counts, _) = predict(&db, a);
    assert_eq!(counts, (1, 0));

    // Restoring the old bytes finds the old model still valid in the cache.
    db.execute(&format!("UPDATE models SET classifier = {} WHERE name = 'a'", blob_literal(&old)))
        .unwrap();
    let (counts, restored) = predict(&db, a);
    assert_eq!(counts, (1, 0), "equal bytes, same model: a hit");
    assert_eq!(restored, first);

    // Garbage bytes: a typed UDF error on every call, never a cache entry.
    for _ in 0..2 {
        let before = metrics::snapshot();
        let err = db.query("SELECT predict(x, y, x'00112233') FROM pts").unwrap_err();
        assert!(matches!(err, DbError::Udf { .. }), "{err:?}");
        let delta = metrics::snapshot().since(&before);
        assert_eq!(delta.counter("modelstore.cache.misses"), 1);
        assert_eq!(delta.counter("modelstore.cache.hits"), 0, "a failed decode is never cached");
    }
}
