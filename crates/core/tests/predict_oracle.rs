//! Oracles for the model UDFs, which revive stored models through one
//! content-addressed cache: a round trip through the BLOB preserves the
//! model, and SQL `predict` / `predict_confidence` / `predict_proba_of`
//! agree bit for bit with [`StoredModel`] applied directly — on the call
//! that decodes (a cache miss) and on the calls that reuse the decode (hits)
//! — for every model family. Plus the paper's §3.3 meta-analysis shape:
//! one query applying every stored model, row by row.

mod common;

use common::{blob_literal, db_with_opposite_models};
use mlcs_columnar::{Database, Value};
use mlcs_core::{register_ml_udfs, StoredModel};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::knn::KNearestNeighbors;
use mlcs_ml::linear::LogisticRegression;
use mlcs_ml::naive_bayes::GaussianNb;
use mlcs_ml::tree::DecisionTreeClassifier;
use mlcs_ml::{Matrix, Model};
use proptest::prelude::*;

/// One model of each family the database can train.
fn models() -> Vec<(&'static str, Model)> {
    vec![
        ("forest", Model::RandomForest(RandomForestClassifier::new(4).with_seed(3))),
        ("tree", Model::DecisionTree(DecisionTreeClassifier::new().with_seed(3))),
        (
            "logreg",
            Model::LogisticRegression(LogisticRegression::new().with_seed(3).with_epochs(20)),
        ),
        ("nb", Model::GaussianNb(GaussianNb::new())),
        ("knn", Model::Knn(KNearestNeighbors::new(3))),
    ]
}

/// A database holding `pts(x, y)` with the given rows (dyadic values, so
/// the SQL literals are exact) and the model UDFs registered.
fn db_with_points(x: &Matrix) -> Database {
    let db = Database::new();
    register_ml_udfs(&db);
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    let rows: Vec<String> =
        (0..x.rows()).map(|r| format!("({}, {})", x.get(r, 0), x.get(r, 1))).collect();
    db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", "))).unwrap();
    db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB)").unwrap();
    db
}

/// 12–40 rows of two dyadic features with raw labels from {10, 20, 30},
/// every label present.
fn problem() -> impl Strategy<Value = (Matrix, Vec<i64>)> {
    (12usize..40).prop_flat_map(|rows| {
        let data = proptest::collection::vec(-400i32..400, rows * 2);
        let labels = proptest::collection::vec(0i64..3, rows);
        (data, labels).prop_map(|(data, mut labels)| {
            for (c, l) in labels.iter_mut().take(3).enumerate() {
                *l = c as i64;
            }
            let rows = labels.len();
            let data = data.into_iter().map(|v| f64::from(v) / 8.0).collect();
            (
                Matrix::new(data, rows, 2).unwrap(),
                labels.into_iter().map(|l| 10 * (l + 1)).collect(),
            )
        })
    })
}

fn f64_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sql_model_udfs_equal_the_stored_model((x, y) in problem()) {
        let db = db_with_points(&x);
        for (name, model) in models() {
            let sm = StoredModel::train(model, &x, &y).expect("train");
            let blob = sm.to_blob();
            prop_assert_eq!(&StoredModel::from_blob(&blob).expect("decode"), &sm, "{}", name);
            db.execute(&format!("INSERT INTO models VALUES ('{name}', {})", blob_literal(&blob)))
                .unwrap();
            let model = format!("(SELECT classifier FROM models WHERE name = '{name}')");
            let expected_pred = sm.predict(&x).unwrap();
            let expected_conf = f64_bits(&sm.confidence(&x).unwrap());
            let expected_p20 = f64_bits(&sm.proba_of(&x, 20).unwrap());
            // The first pass decodes (one miss), the second reuses it.
            for pass in 0..2 {
                let out = db
                    .query(&format!(
                        "SELECT predict(x, y, {model}), predict_confidence(x, y, {model}),
                                predict_proba_of(x, y, {model}, 20) FROM pts"
                    ))
                    .unwrap();
                prop_assert_eq!(out.column(0).i64s().unwrap(), &expected_pred[..], "{} pass {}", name, pass);
                prop_assert_eq!(f64_bits(out.column(1).f64s().unwrap()), expected_conf.clone(), "{} pass {}", name, pass);
                prop_assert_eq!(f64_bits(out.column(2).f64s().unwrap()), expected_p20.clone(), "{} pass {}", name, pass);
            }
        }
    }
}

/// The paper's §3.3 meta-analysis shape: a full classifier column applies
/// each row's own model — not row 0's model to every row.
#[test]
fn every_stored_model_applies_in_one_select() {
    let db = db_with_opposite_models();
    let per_row = db
        .query(
            "SELECT m.name, predict(p.x, p.y, m.classifier)
             FROM pts p CROSS JOIN models m WHERE p.x < 0",
        )
        .unwrap();
    assert_eq!(per_row.rows(), 40, "20 points × 2 models");
    for name in ["a", "b"] {
        let single = db
            .query(&format!(
                "SELECT predict(x, y, (SELECT classifier FROM models WHERE name = '{name}'))
                 FROM pts WHERE x < 0"
            ))
            .unwrap();
        let expected = if name == "a" { 10 } else { 20 };
        assert!(
            single.column(0).i64s().unwrap().iter().all(|&p| p == expected),
            "model {name} alone"
        );
        let joined: Vec<i64> = (0..per_row.rows())
            .filter(|&r| per_row.row(r)[0] == Value::Varchar(name.into()))
            .map(|r| per_row.row(r)[1].as_i64().unwrap())
            .collect();
        assert_eq!(joined.len(), 20);
        assert!(joined.iter().all(|&p| p == expected), "model {name} in the join: {joined:?}");
    }

    // Length-1 features broadcast against a classifier column, for every
    // model UDF.
    let out = db
        .query(
            "SELECT name, predict(-3.0, -3.0, classifier),
                    predict_confidence(-3.0, -3.0, classifier),
                    predict_proba_of(-3.0, -3.0, classifier, 10)
             FROM models ORDER BY name",
        )
        .unwrap();
    assert_eq!(out.row(0)[1], Value::Int64(10));
    assert_eq!(out.row(1)[1], Value::Int64(20));
    let p10: Vec<f64> = (0..2).map(|r| out.row(r)[3].as_f64().unwrap()).collect();
    assert!(p10[0] > 0.5 && p10[1] < 0.5, "probability of 10 per model: {p10:?}");
    for r in 0..2 {
        let conf = out.row(r)[2].as_f64().unwrap();
        let expected = if r == 0 { p10[0] } else { 1.0 - p10[1] };
        assert_eq!(conf.to_bits(), expected.to_bits(), "confidence of model row {r}");
    }
}

/// `evaluate` scores one model; a classifier column naming several is a
/// typed error rather than a silent pick.
#[test]
fn evaluate_needs_one_model() {
    let db = db_with_opposite_models();
    let acc = db
        .query_value(
            "SELECT accuracy FROM evaluate((SELECT x, y FROM pts), (SELECT label FROM pts),
                                           (SELECT classifier FROM models WHERE name = 'a'))",
        )
        .unwrap();
    assert_eq!(acc, Value::Float64(1.0));
    assert!(db
        .query(
            "SELECT * FROM evaluate((SELECT x, y FROM pts), (SELECT label FROM pts),
                                    (SELECT classifier FROM models))",
        )
        .is_err());
}

/// No rows in, no rows out — and nothing to decode.
#[test]
fn empty_input_predicts_nothing() {
    let db = db_with_opposite_models();
    let out = db
        .query(
            "SELECT predict(p.x, p.y, m.classifier) FROM pts p CROSS JOIN models m
             WHERE p.x > 100",
        )
        .unwrap();
    assert_eq!(out.rows(), 0);
}

/// A forest blob holding a tree fitted on more columns than the forest
/// declares is a typed error from `predict`, not a panic inside it.
#[test]
fn forged_forest_is_an_error_not_a_panic() {
    use mlcs_columnar::DbError;
    use mlcs_ml::dataset::ClassMap;
    use mlcs_ml::Classifier;
    use mlcs_pickle::{Pickle, PickleError, Reader, Writer};

    /// Writes prepared body bytes under the stored model's class name.
    struct Forged(Vec<u8>);
    impl Pickle for Forged {
        const CLASS_NAME: &'static str = StoredModel::CLASS_NAME;
        fn pickle_body(&self, w: &mut Writer) {
            w.put_raw(&self.0);
        }
        fn unpickle_body(_: &mut Reader) -> Result<Self, PickleError> {
            Err(PickleError::Invalid("write-only".into()))
        }
    }
    fn body<T: Pickle>(value: &T) -> Vec<u8> {
        let mut w = Writer::new();
        value.pickle_body(&mut w);
        w.into_bytes()
    }

    let labels = [0u32, 1, 0, 1];
    let narrow = Matrix::new((0..8).map(f64::from).collect(), 4, 2).unwrap();
    // Only the fifth column is informative, so the tree splits on it.
    let wide_values = (0..20).map(|i| if i % 5 == 4 { labels[i / 5] as f64 } else { 0.0 });
    let wide = Matrix::new(wide_values.collect(), 4, 5).unwrap();
    let mut forest = RandomForestClassifier::new(1).with_seed(1);
    forest.fit(&narrow, &labels, 2).unwrap();
    let mut tree = DecisionTreeClassifier::new();
    tree.fit(&wide, &labels, 2).unwrap();
    // A forest body ends with its trees' node arrays: keep the two-column
    // header and put the five-column tree after it.
    let (forest_body, own_tree) = (body(&forest), body(&forest.trees()[0]));
    let mut forged = forest_body[..forest_body.len() - own_tree.len()].to_vec();
    forged.extend(body(&tree));
    // The stored model around it: the label map, the model's class name,
    // then the forged body, all under the one envelope.
    let mut stored = Writer::new();
    ClassMap::fit(&[10, 20]).pickle_body(&mut stored);
    stored.put_str(RandomForestClassifier::CLASS_NAME);
    stored.put_raw(&forged);
    let blob = mlcs_pickle::pickle(&Forged(stored.into_bytes()));
    let err = StoredModel::from_blob(&blob).unwrap_err();
    assert!(err.to_string().contains("tree 0 has 5 features"), "{err}");

    let db = db_with_opposite_models();
    let err =
        db.query(&format!("SELECT predict(x, y, {}) FROM pts", blob_literal(&blob))).unwrap_err();
    assert!(matches!(err, DbError::Udf { .. }), "{err:?}");
}

/// A row with a NULL feature gets no answer from any model: `predict`,
/// `predict_confidence` and `predict_proba_of` are NULL exactly there,
/// the other rows keep the bits the stored model gives them, and
/// `evaluate` refuses the NULLs as `train` does.
#[test]
fn null_features_answer_null_for_every_model() {
    let x = Matrix::new((0..40).map(|i| f64::from(i % 9) - 4.0).collect(), 20, 2).unwrap();
    let y: Vec<i64> = (0..20).map(|i| [10, 20, 30][i % 3]).collect();
    let db = db_with_points(&x);
    db.execute("CREATE TABLE gaps (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
    db.execute(
        "INSERT INTO gaps VALUES (NULL, NULL, 10), (1.0, NULL, 20), (NULL, -2.0, 30), (1.0, -2.0, 10)",
    )
    .unwrap();
    for (name, model) in models() {
        let sm = StoredModel::train(model, &x, &y).expect("train");
        let blob = sm.to_blob();
        db.execute(&format!("INSERT INTO models VALUES ('{name}', {})", blob_literal(&blob)))
            .unwrap();
        let model = format!("(SELECT classifier FROM models WHERE name = '{name}')");
        let out = db
            .query(&format!(
                "SELECT predict(x, y, {model}), predict_confidence(x, y, {model}),
                        predict_proba_of(x, y, {model}, 20) FROM gaps"
            ))
            .unwrap();
        let last = Matrix::new(vec![1.0, -2.0], 1, 2).unwrap();
        for r in 0..3 {
            assert!(out.row(r).iter().all(Value::is_null), "{name} row {r}: {:?}", out.row(r));
        }
        assert_eq!(out.row(3)[0], Value::Int64(sm.predict(&last).unwrap()[0]), "{name}");
        let conf = sm.confidence(&last).unwrap()[0];
        assert_eq!(out.row(3)[1].as_f64().map(f64::to_bits), Some(conf.to_bits()), "{name}");
        let p20 = sm.proba_of(&last, 20).unwrap()[0];
        assert_eq!(out.row(3)[2].as_f64().map(f64::to_bits), Some(p20.to_bits()), "{name}");
        let err = db
            .query(&format!(
                "SELECT * FROM evaluate((SELECT x, y FROM gaps), (SELECT label FROM gaps), {model})"
            ))
            .unwrap_err();
        assert!(matches!(err, mlcs_columnar::DbError::Udf { .. }), "{name}: {err:?}");
        let clean = db.query(&format!(
            "SELECT * FROM evaluate((SELECT x, y FROM gaps WHERE x IS NOT NULL AND y IS NOT NULL),
                                    (SELECT label FROM gaps WHERE x IS NOT NULL AND y IS NOT NULL),
                                    {model})"
        ));
        assert_eq!(clean.unwrap().row(0)[3], Value::Int64(1), "{name}");
    }
}
