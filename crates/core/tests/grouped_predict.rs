//! The model UDFs group their rows before any model runs: by classifier
//! bytes, then by the features' composite dictionary code. This oracle
//! checks that the grouped path answers exactly what the row path does,
//! bit for bit, for `predict`, `predict_confidence`, `predict_proba_of` and
//! `evaluate`: the same call with every feature decoded to a plain column
//! takes the row path. It also checks each row's answer against the stored
//! model applied to that row alone, and that `udf.predict.distinct_keys`
//! counts what the models actually evaluated.
//!
//! The counter is process-wide, so the tests here take one lock.

use mlcs_columnar::metrics;
use mlcs_columnar::{Batch, Bitmap, Column, ColumnData, DbError, Encoding, ScalarUdf, TableUdf};
use mlcs_core::udf::{EvaluateUdf, PredictConfidenceUdf, PredictProbaOfUdf, PredictUdf};
use mlcs_core::{ModelCache, StoredModel};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::knn::KNearestNeighbors;
use mlcs_ml::linear::LogisticRegression;
use mlcs_ml::naive_bayes::GaussianNb;
use mlcs_ml::tree::DecisionTreeClassifier;
use mlcs_ml::{Matrix, Model};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes the tests of this file, which read a process-wide counter.
static COUNTER: Mutex<()> = Mutex::new(());

/// Feature columns per row.
const FEATURES: usize = 3;

/// Five models of five families over three integer features, raw labels
/// 10/20/30, as blobs.
fn blobs() -> &'static [Vec<u8>] {
    static BLOBS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BLOBS.get_or_init(|| {
        let rows = 240;
        let cell = |r: usize, f: usize| ((r * [1, 7, 13][f] + f * 5) % [9, 12, 300][f]) as f64;
        let data = (0..rows).flat_map(|r| (0..FEATURES).map(move |f| cell(r, f))).collect();
        let x = Matrix::new(data, rows, FEATURES).unwrap();
        let y: Vec<i64> = (0..rows)
            .map(|r| [10, 20, 30][(cell(r, 0) as usize + 2 * cell(r, 1) as usize + r % 5) % 3])
            .collect();
        [
            Model::RandomForest(RandomForestClassifier::new(4).with_seed(5)),
            Model::DecisionTree(DecisionTreeClassifier::new().with_seed(5)),
            Model::LogisticRegression(LogisticRegression::new().with_seed(5).with_epochs(10)),
            Model::GaussianNb(GaussianNb::new()),
            Model::Knn(KNearestNeighbors::new(3)),
        ]
        .into_iter()
        .map(|m| StoredModel::train(m, &x, &y).unwrap().to_blob())
        .collect()
    })
}

/// How a feature argument arrives.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Plain,
    Dict,
    Rle,
    /// A DOUBLE dictionary: never grouped by code.
    FloatDict,
    /// A length-1 column, broadcast over the rows.
    Scalar,
}

/// A feature column of `n` rows (one when `Scalar`): values from a domain
/// of `domain` integers, in runs, with NULLs at the given density (in
/// quarters).
fn feature(rng: &mut TestRng, n: usize, shape: Shape, domain: usize, nulls: u64) -> Column {
    let n = if let Shape::Scalar = shape { 1 } else { n };
    let mut values = Vec::with_capacity(n);
    while values.len() < n {
        let run = 1 + rng.below(4) as usize;
        let v = rng.below(domain as u64) as i32;
        values.extend(std::iter::repeat_n(v, run.min(n - values.len())));
    }
    let valid: Vec<bool> = (0..n).map(|_| rng.below(4) >= nulls).collect();
    let validity = (nulls > 0).then(|| Bitmap::from_bools(&valid));
    let data = match shape {
        Shape::FloatDict => ColumnData::Float64(values.iter().map(|&v| f64::from(v)).collect()),
        _ => ColumnData::Int32(values),
    };
    let col = Column::new(data, validity).unwrap();
    match shape {
        Shape::Dict | Shape::FloatDict => col.encode(Encoding::Dict),
        Shape::Rle => col.encode(Encoding::Rle),
        Shape::Plain | Shape::Scalar => col,
    }
}

/// A classifier column: `n` rows drawn from `models` (blob indices) in
/// random order, `None` for a NULL row; or one row when `scalar`.
fn classifier(rng: &mut TestRng, n: usize, models: &[Option<usize>], scalar: bool) -> Column {
    let n = if scalar { 1 } else { n };
    let rows: Vec<Option<&[u8]>> = (0..n)
        .map(|_| models[rng.below(models.len() as u64) as usize].map(|m| blobs()[m].as_slice()))
        .collect();
    let bytes: Vec<&[u8]> = rows.iter().map(|r| r.unwrap_or(&[])).collect();
    let valid: Vec<bool> = rows.iter().map(Option::is_some).collect();
    let col = Column::from_blobs(bytes);
    Column::new(col.data().clone(), Some(Bitmap::from_bools(&valid))).unwrap()
}

/// The scalar model UDFs, sharing one cache, and `evaluate`.
struct Udfs {
    scalar: [Box<dyn ScalarUdf>; 3],
    evaluate: EvaluateUdf,
}

fn udfs() -> Udfs {
    let cache = Arc::new(ModelCache::default());
    Udfs {
        scalar: [
            Box::new(PredictUdf { cache: cache.clone() }),
            Box::new(PredictConfidenceUdf { cache: cache.clone() }),
            Box::new(PredictProbaOfUdf { cache: cache.clone() }),
        ],
        evaluate: EvaluateUdf { cache },
    }
}

/// A column's validity and its values' bits, NULL slots included.
fn bits(c: &Column) -> (Vec<bool>, Vec<u64>) {
    let valid = (0..c.len()).map(|i| !c.is_null(i)).collect();
    let values = match c.data() {
        ColumnData::Int64(v) => v.iter().map(|&v| v as u64).collect(),
        ColumnData::Float64(v) => v.iter().map(|v| v.to_bits()).collect(),
        other => panic!("unexpected output {:?}", other.data_type()),
    };
    (valid, values)
}

fn batch_bits(b: &Batch) -> Vec<(Vec<bool>, Vec<u64>)> {
    b.columns().iter().map(|c| bits(&c.decode())).collect()
}

/// The distinct values of `items`.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> usize {
    let mut seen: Vec<T> = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen.len()
}

/// The rows the model UDFs evaluate for one call: per distinct non-NULL
/// classifier, its rows' distinct feature tuples when the varying features
/// group by code, else its rows.
fn expected_keys(features: &[Column], classifier: &Column, rows: usize) -> u64 {
    let varying: Vec<&Column> = features.iter().filter(|c| c.len() > 1).collect();
    let keyed = varying.is_empty() || mlcs_columnar::exec::dict_groups(&varying).is_some();
    let model_of = |r: usize| {
        let r = if classifier.len() == 1 { 0 } else { r };
        (!classifier.is_null(r)).then(|| classifier.blobs().unwrap().get(r).to_vec())
    };
    let tuple = |r: usize| varying.iter().map(|c| c.value(r)).collect::<Vec<_>>();
    let mut models: Vec<Vec<u8>> = Vec::new();
    for blob in (0..rows).filter_map(model_of) {
        if !models.contains(&blob) {
            models.push(blob);
        }
    }
    models
        .iter()
        .map(|blob| {
            let members = (0..rows).filter(|&r| model_of(r).as_ref() == Some(blob));
            if keyed {
                distinct(members.map(tuple)) as u64
            } else {
                members.count() as u64
            }
        })
        .sum()
}

/// Runs every model UDF over `features` and `classifier` as given (the
/// grouped path when they allow it) and with the features decoded (the row
/// path), and checks that the answers are equal bit for bit, that each
/// valid row's answer is its model's answer for that row alone, and that
/// the counter moved by the rows the models evaluated.
fn check(features: Vec<Column>, classifier: Column) -> Result<(), String> {
    let rows = features.iter().map(Column::len).chain([classifier.len()]).max().unwrap();
    let arcs = |cols: &[Column]| cols.iter().cloned().map(Arc::new).collect::<Vec<_>>();
    let plain: Vec<Column> = features.iter().map(Column::decode).collect();
    let label = Column::from_i64s(vec![20]);
    let u = udfs();
    for (f, udf) in u.scalar.iter().enumerate() {
        let call = |features: &[Column]| {
            let mut args = arcs(features);
            args.push(Arc::new(classifier.clone()));
            if f == 2 {
                args.push(Arc::new(label.clone()));
            }
            let before = metrics::snapshot().counter("udf.predict.distinct_keys");
            let out = udf.invoke(&args).map_err(|e| e.to_string())?;
            Ok::<_, String>((
                out,
                metrics::snapshot().counter("udf.predict.distinct_keys") - before,
            ))
        };
        let (grouped, keys) = call(&features)?;
        let (per_row, row_keys) = call(&plain)?;
        let name = udf.name();
        if bits(&grouped) != bits(&per_row) {
            return Err(format!("{name}: grouped {grouped:?}\n row path {per_row:?}"));
        }
        let want = expected_keys(&features, &classifier, rows);
        if keys != want {
            return Err(format!("{name}: evaluated {keys} keys, expected {want}"));
        }
        let want_rows = expected_keys(&plain, &classifier, rows);
        if row_keys != want_rows {
            return Err(format!("{name}: the row path evaluated {row_keys}, expected {want_rows}"));
        }
        // Each valid row against its own model on that row alone.
        for r in (0..rows).filter(|&r| !grouped.is_null(r)) {
            let at = |c: &Column| if c.len() == 1 { 0 } else { r };
            let blob = classifier.blobs().unwrap().get(at(&classifier));
            let sm = StoredModel::from_blob(blob).unwrap();
            let x: Vec<f64> = features.iter().map(|c| c.f64_at(at(c)).unwrap()).collect();
            let x = Matrix::new(x, 1, FEATURES).unwrap();
            let one = match f {
                0 => sm.predict(&x).unwrap()[0] as u64,
                1 => sm.confidence(&x).unwrap()[0].to_bits(),
                _ => sm.proba_of(&x, 20).unwrap()[0].to_bits(),
            };
            if bits(&grouped).1[r] != one {
                return Err(format!("{name}: row {r} differs from its model alone"));
            }
        }
    }
    // `evaluate`: labels beside the features; equal scores, or equal errors.
    let labels =
        Column::from_i64s((0..rows as i64).map(|r| [10, 20, 30][r as usize % 3]).collect());
    let evaluate = |features: &[Column]| {
        let mut args = arcs(features);
        args.push(Arc::new(labels.clone()));
        args.push(Arc::new(classifier.clone()));
        u.evaluate.invoke(&args).map(|b| batch_bits(&b)).map_err(|e| match e {
            DbError::Udf { message, .. } => message,
            e => e.to_string(),
        })
    };
    let (grouped, per_row) = (evaluate(&features), evaluate(&plain));
    if grouped != per_row {
        return Err(format!("evaluate: grouped {grouped:?}\n row path {per_row:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grouped_model_udfs_equal_the_row_path(seed in any::<u64>()) {
        let _lock = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = TestRng::from_seed(seed);
        let rows = [1, 2, 17, 200, 700][rng.below(5) as usize];
        const SHAPES: [Shape; 6] =
            [Shape::Dict, Shape::Dict, Shape::Plain, Shape::Rle, Shape::FloatDict, Shape::Scalar];
        let features: Vec<Column> = (0..FEATURES)
            .map(|_| {
                // Mostly small domains; a wide one now and then, so that
                // two wide dictionaries overflow the code bound.
                let domain = if rng.below(3) == 0 { 300 } else { 1 + rng.below(12) as usize };
                let shape = SHAPES[rng.below(SHAPES.len() as u64) as usize];
                let nulls = rng.below(3);
                feature(&mut rng, rows, shape, domain, nulls)
            })
            .collect();
        // One to four distinct models from two or more families, maybe a
        // NULL classifier among them, or one broadcast classifier.
        let count = 1 + rng.below(4) as usize;
        let first = rng.below(5) as usize;
        let mut models: Vec<Option<usize>> = (0..count).map(|k| Some((first + k) % 5)).collect();
        if rng.below(3) == 0 {
            models.push(None);
        }
        let scalar = rng.below(4) == 0;
        let classifier = classifier(&mut rng, rows, &models, scalar);
        if let Err(e) = check(features, classifier) {
            prop_assert!(false, "rows {rows}: {e}");
        }
    }
}

/// Two integer dictionaries whose radices multiply to 256 · 256 = 65 536
/// codes group by code; one more entry (257 · 256 = 65 792) takes the row
/// path. Either way the answers are the row path's.
#[test]
fn code_spaces_just_under_and_over_the_bound() {
    let _lock = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let rows = 3000;
    for (entries, grouped) in [(255, true), (256, false)] {
        let column = |e: usize, step: usize| {
            Column::from_i32s((0..rows).map(|r| ((r * step + 1) % e) as i32).collect())
                .encode(Encoding::Dict)
        };
        let features = [column(entries, 1), column(255, 7), column(3, 1)];
        let varying: Vec<&Column> = features[..2].iter().collect();
        assert_eq!(mlcs_columnar::exec::dict_groups(&varying).is_some(), grouped);
        let third = features[2].clone();
        let two = vec![features[0].clone(), features[1].clone(), Column::from_i32s(vec![1])];
        let model = Column::from_blobs([blobs()[0].as_slice()]);
        check(two, model.clone()).unwrap();
        // The third dictionary's 3 entries times 4 push either over.
        let three = vec![features[0].clone(), features[1].clone(), third];
        let all: Vec<&Column> = three.iter().collect();
        assert!(mlcs_columnar::exec::dict_groups(&all).is_none());
        check(three, model).unwrap();
    }
}

/// The code array is as large as the code space whatever the call's rows,
/// so a call with fewer rows than one per 128 codes takes the row path:
/// two dictionaries of 255 entries (256 · 256 = 65 536 codes) group by
/// code at 512 rows, not at 511.
#[test]
fn short_calls_over_wide_code_spaces_take_the_row_path() {
    let _lock = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for (rows, grouped) in [(512, true), (511, false)] {
        let column = |step: usize| {
            Column::from_i32s((0..rows).map(|r| ((r * step + 1) % 255) as i32).collect())
                .encode(Encoding::Dict)
        };
        let features = vec![column(1), column(7), Column::from_i32s(vec![1])];
        let varying: Vec<&Column> = features[..2].iter().collect();
        assert_eq!(mlcs_columnar::exec::dict_groups(&varying).is_some(), grouped, "{rows} rows");
        check(features, Column::from_blobs([blobs()[0].as_slice()])).unwrap();
    }
}
