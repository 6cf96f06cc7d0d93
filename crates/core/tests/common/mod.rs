//! Fixtures shared by the model-UDF integration tests.

use mlcs_columnar::Database;
use mlcs_core::register_ml_udfs;

/// `x'…'`: a BLOB literal holding `bytes`.
pub fn blob_literal(bytes: &[u8]) -> String {
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    format!("x'{hex}'")
}

/// Two models that disagree everywhere: `a` learned `pts`' labels (10 for
/// the points left of the origin, 20 right of it) and `b` the inverted
/// ones.
pub fn db_with_opposite_models() -> Database {
    let db = Database::new();
    register_ml_udfs(&db);
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
    let mut rows = Vec::new();
    for i in 0..40 {
        let (cx, label) = if i % 2 == 0 { (-3.0, 10) } else { (3.0, 20) };
        let j = (i / 2) as f64 * 0.05;
        rows.push(format!("({}, {}, {label})", cx + j, cx - j));
    }
    db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", "))).unwrap();
    db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB)").unwrap();
    db.execute(
        "INSERT INTO models SELECT 'a', classifier FROM train(
           (SELECT x, y FROM pts), (SELECT label FROM pts), 4)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO models SELECT 'b', classifier FROM train(
           (SELECT x, y FROM pts), (SELECT 30 - label FROM pts), 4)",
    )
    .unwrap();
    db
}
